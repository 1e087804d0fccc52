"""The cached and zero-skipping kernels against naive references.

The references below are the textbook definitions, computed from scratch
on every call: increments by subtraction, running sums by adding every
increment, block masses and weighted sums over every atom, positive-mass
tests by summing P-weighted weights, and block constancy by comparing
each block's set of cells.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from randomhorizon.deflator import is_supermartingale
from randomhorizon.enlargement import enlarge
from randomhorizon.generator import random_adapted, random_instance
from randomhorizon.lp import zero_in_relative_interior
from randomhorizon.nupbr import Arbitrage, CertResult, NodeWeights, certify_nupbr
from randomhorizon.projections import condexp, is_martingale, node_drifts
from randomhorizon.space import (
    AdaptedProcess,
    condexp_cells,
    first_nonconstant,
    is_adapted,
    is_predictable,
    stop,
)


def naive_increments(X):
    zero = tuple(F(0) for _ in range(X.dim))
    rows = [tuple(zero for _ in X.values[0])]
    for t in range(1, X.horizon + 1):
        rows.append(
            tuple(
                tuple(a - b for a, b in zip(now, prev))
                for now, prev in zip(X.values[t], X.values[t - 1])
            )
        )
    return tuple(rows)


def naive_condexp(values, blocks, space):
    out = [F(0)] * space.n
    for block in blocks:
        mass = sum(space.prob[i] for i in block)
        avg = sum(space.prob[i] * values[i] for i in block) / mass
        for i in block:
            out[i] = avg
    return tuple(out)


def naive_condexp_cells(cells, blocks, space):
    dim = len(cells[0])
    comps = [naive_condexp([c[k] for c in cells], blocks, space) for k in range(dim)]
    return tuple(tuple(comps[k][i] for k in range(dim)) for i in range(space.n))


def naive_running_sum(dim, n, increments):
    rows = [tuple(tuple(F(0) for _ in range(dim)) for _ in range(n))]
    for inc in increments:
        rows.append(
            tuple(tuple(a + b for a, b in zip(rows[-1][i], inc[i])) for i in range(n))
        )
    return tuple(rows)


def naive_first_nonconstant(row, blocks):
    for block in blocks:
        if len({row[i] for i in block}) > 1:
            return next(i for i in block if row[i] != row[block[0]])
    return None


def naive_is_martingale(M, filt, space, weights=None):
    inc = naive_increments(M)
    w = [F(1)] * space.n if weights is None else [F(x) for x in weights]
    proj = [naive_condexp(w, filt.parts[t], space) for t in space.times]
    for t in range(1, space.horizon + 1):
        for block in filt.parts[t - 1]:
            if sum(space.prob[i] * w[i] for i in block) == 0:
                continue
            for k in range(M.dim):
                if sum(space.prob[i] * proj[t][i] * inc[t][i][k] for i in block) != 0:
                    return False
    return True


def naive_node_drifts(M, filt, space, weights=None):
    """Per node of positive Q-mass and component, sum P * E[w | F_t] * dM_t
    over the node, in the order of :func:`node_drifts`."""
    inc = naive_increments(M)
    w = [F(1)] * space.n if weights is None else [F(x) for x in weights]
    out = []
    for t in range(1, space.horizon + 1):
        proj = naive_condexp(w, filt.parts[t], space)
        for block in filt.parts[t - 1]:
            if sum(space.prob[i] * w[i] for i in block) == 0:
                continue
            for k in range(M.dim):
                out.append(sum(space.prob[i] * proj[i] * inc[t][i][k] for i in block))
    return out


def naive_certify(X, filt, space, weights):
    inc = naive_increments(X)
    w = [F(x) for x in weights]
    names = space.atoms
    collected = []
    for t in range(1, space.horizon + 1):
        for p, parent in enumerate(filt.parts[t - 1]):
            if sum(space.prob[i] * w[i] for i in parent) == 0:
                continue
            kids = [
                filt.parts[t][j]
                for j in filt.children(t, p)
                if sum(space.prob[i] * w[i] for i in filt.parts[t][j]) != 0
            ]
            deltas = [inc[t][c[0]] for c in kids]
            ok, lam = zero_in_relative_interior(deltas)
            block = tuple(names[i] for i in parent)
            if not ok:
                return CertResult(False, arbitrage=Arbitrage(t, block, tuple(deltas)))
            collected.append(
                NodeWeights(t, block, tuple(tuple(names[i] for i in c) for c in kids), lam)
            )
    return CertResult(True, node_weights=tuple(collected))


def _cases(seed):
    """(process, filtration) pairs on one generator instance: the martingale
    price, the price stopped at tau (many zero increments) in the
    enlargement, an arbitrary adapted process, and a two-dimensional
    process adapted to the enlargement only, paired with the base
    filtration."""
    inst = random_instance(seed)
    enlarged = enlarge(inst.filtration, inst.tau, inst.space)
    rng = random.Random(seed)
    return inst.space, [
        (inst.price, inst.filtration),
        (stop(inst.price, inst.tau), enlarged),
        (random_adapted(inst.space, inst.filtration, rng, dim=inst.price.dim), inst.filtration),
        (random_adapted(inst.space, enlarged, rng, dim=2), inst.filtration),
    ]


SEEDS = st.integers(min_value=0, max_value=5_000)
# weight vectors that contain zeros: whole nodes and single children drop out
WEIGHTS = st.lists(st.sampled_from([F(0), F(0), F(1), F(1, 2), F(3)]), min_size=12, max_size=12)


@settings(max_examples=80, deadline=None)
@given(SEEDS, WEIGHTS)
def test_kernels_match_naive_references(seed, weights):
    space, cases = _cases(seed)
    w = weights[: space.n]
    for X, filt in cases:
        assert X.increments == naive_increments(X)
        assert all(
            X.delta_at(t, i) == naive_increments(X)[t][i]
            for t in space.times
            for i in range(space.n)
        )
        for t in space.times:
            for values in (w, [X.values[t][i][0] for i in range(space.n)]):
                assert condexp(values, filt.parts[t], space) == naive_condexp(
                    values, filt.parts[t], space
                )
        for t in space.times:
            for cells in (X.values[t], X.increments[t]):
                assert condexp_cells(cells, filt.parts[t], space) == naive_condexp_cells(
                    cells, filt.parts[t], space
                )
        if not is_adapted(X, filt):
            continue  # the martingale and NUPBR kernels take adapted inputs
        assert is_martingale(X, filt, space) == naive_is_martingale(X, filt, space)
        assert is_martingale(X, filt, space, weights=w) == naive_is_martingale(
            X, filt, space, w
        )
        assert certify_nupbr(X, filt, space, weights=w) == naive_certify(X, filt, space, w)


@settings(max_examples=80, deadline=None)
@given(SEEDS, WEIGHTS)
def test_node_drifts_match_a_from_scratch_sum(seed, weights):
    space, cases = _cases(seed)
    w = weights[: space.n]
    for X, filt in cases:
        assert list(node_drifts(X, filt, space)) == naive_node_drifts(X, filt, space)
        assert list(node_drifts(X, filt, space, w)) == naive_node_drifts(X, filt, space, w)
        assert is_supermartingale(X, filt, space) == all(
            d <= 0 for d in naive_node_drifts(X, filt, space)
        )


# plain ints (the engine passes literal 0 and 1) mixed with Fractions
MIXED = st.lists(
    st.sampled_from([0, 1, 0, F(0), F(1), F(-2, 3), F(5, 7), 3]), min_size=12, max_size=12
)


@settings(max_examples=80, deadline=None)
@given(SEEDS, MIXED)
def test_condexp_on_mixed_ints_and_fractions(seed, values):
    space, cases = _cases(seed)
    v = values[: space.n]
    for _, filt in cases:
        for t in space.times:
            got = condexp(v, filt.parts[t], space)
            assert got == naive_condexp(v, filt.parts[t], space)
            assert all(type(c) is F for c in got)


def _cells(rows):
    return [c for row in rows for cell in row for c in cell]


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_kernels_return_fractions_only(seed):
    # Fraction(1, 2) == 0.5, so equality with a reference cannot tell a
    # leaked float (or int) from a Fraction; the type can
    space, cases = _cases(seed)
    tau = random_instance(seed).tau
    for X, filt in cases:
        built = AdaptedProcess.from_increments(X.dim, space.n, X.increments[1:])
        derived = [X, built, stop(X, tau), X + built, X - stop(X, tau)]
        for Y in derived:
            assert all(type(c) is F for c in _cells(Y.values) + _cells(Y.increments))
        for t in space.times:
            first = [cell[0] for cell in X.values[t]]
            assert all(type(c) is F for c in condexp(first, filt.parts[t], space))
            for cells in (X.values[t], X.increments[t]):
                assert all(
                    type(c) is F
                    for cell in condexp_cells(cells, filt.parts[t], space)
                    for c in cell
                )


def test_public_constructor_still_coerces_and_bans_floats():
    X = AdaptedProcess(1, ((("3/4",),), ((1,),)))
    assert X.values == (((F(3, 4),),), ((F(1),),))
    assert all(type(c) is F for c in _cells(X.values))
    with pytest.raises(TypeError):
        AdaptedProcess(1, (((F(1),),), ((0.5,),)))


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_block_constancy_matches_naive_reference(seed):
    space, cases = _cases(seed)
    for X, filt in cases:
        for t in space.times:
            for blocks in (filt.parts[t], filt.parts[max(t - 1, 0)], filt.parts[0]):
                assert first_nonconstant(X.values[t], blocks) == naive_first_nonconstant(
                    X.values[t], blocks
                )
        assert is_adapted(X, filt) == all(
            naive_first_nonconstant(X.values[t], filt.parts[t]) is None for t in space.times
        )
        assert is_predictable(X, filt) == all(
            naive_first_nonconstant(X.values[t], filt.parts[max(t - 1, 0)]) is None
            for t in space.times
        )


CELLS = st.lists(st.sampled_from([F(0), F(0), F(1), F(-1, 2), F(3)]), min_size=2, max_size=2)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_running_sum_matches_naive_reference(dim, n, horizon, data):
    increments = [
        [tuple(data.draw(CELLS)[:dim]) for _ in range(n)] for _ in range(horizon)
    ]
    X = AdaptedProcess.from_increments(dim, n, increments, predictable=True)
    assert X.values == naive_running_sum(dim, n, increments)
    assert X.predictable and X.horizon == horizon
    assert X.increments == naive_increments(X)


def test_block_mass_is_cached_per_space():
    space, cases = _cases(3)
    block = cases[0][1].parts[1][0]
    first = space.mass(block)
    assert first == sum(space.prob[i] for i in block)
    assert space.mass(block) is first


@pytest.mark.parametrize("bad", [F(-1), F(-1, 3)])
def test_weighted_kernels_reject_negative_weights(bad):
    space, cases = _cases(5)
    X, filt = cases[0]
    w = [F(1)] * space.n
    w[-1] = bad
    with pytest.raises(ValueError):
        certify_nupbr(X, filt, space, weights=w)
    with pytest.raises(ValueError):
        is_martingale(X, filt, space, weights=w)
