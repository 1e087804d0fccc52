"""The cached and zero-skipping kernels against naive references.

The references below are the textbook definitions, computed from scratch
on every call: increments by subtraction, running sums by adding every
increment, block masses and weighted sums over every atom, positive-mass
tests by summing P-weighted weights, and block constancy by comparing
each block's set of cells (or of flags [time <= t], for a stopping time).
The enlargement references divide by Z_- atom by atom and build every
]0, tau] formula from its own loop; the deflator and jump-date references
build the kernel, driver, drawdown, deflator and the three jump-date
weights atom by atom from their definitions.  The cell maps (sums, differences,
components, scalar paths) are referenced by one computation per atom, with
no cell shared.
"""

import dataclasses
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from randomhorizon.deflator import build_deflator, is_supermartingale
from randomhorizon.campaign import theorem_suite
from randomhorizon.enlargement import (
    _rescaled_sides,
    azema,
    compensator_of_rescaled,
    compensator_of_stopped,
    enlarge,
    g_martingale_part,
    jump_time_measures,
    projection_transfer_identities,
)
from randomhorizon.errors import StructuralViolation
from randomhorizon.generator import random_instance
from randomhorizon.io import Scenario, load_builtin
from randomhorizon.lp import zero_in_relative_interior
from randomhorizon.nupbr import (
    Arbitrage,
    CertResult,
    NodeWeights,
    certify_nupbr,
    single_jump_process,
)
from randomhorizon.projections import condexp, is_martingale, node_drifts
from randomhorizon.rational import Q
from randomhorizon.space import (
    INF,
    AdaptedProcess,
    FiniteSpace,
    Filtration,
    RandomTime,
    check_stopping_time,
    condexp_cells,
    first_nonconstant,
    is_adapted,
    is_predictable,
    stop,
)

from helpers import (
    block_of,
    children,
    component,
    mul_scalar_process,
    random_adapted,
    scale,
    scenario_gen,
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


def naive_is_stopping_time(time, filt, space):
    return all(
        len({time.at(i) <= t for i in block}) == 1
        for t in space.times
        for block in filt.parts[t]
    )


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
                for j in children(filt, t, p)
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
    enlargement, an arbitrary adapted process, a two-dimensional process
    adapted to the enlargement only, paired with the base filtration, and
    the price's last jump alone (all-zero increments before the horizon)."""
    inst = random_instance(seed)
    enlarged = enlarge(inst.filtration, inst.tau)
    rng = random.Random(seed)
    H = inst.space.horizon
    jump = [inst.price.delta_at(H, i) for i in range(inst.space.n)]
    return inst.space, [
        (inst.price, inst.filtration),
        (stop(inst.price, inst.tau), enlarged),
        (random_adapted(inst.space, inst.filtration, rng, dim=inst.price.dim), inst.filtration),
        (random_adapted(inst.space, enlarged, rng, dim=2), inst.filtration),
        (single_jump_process(jump, H, inst.space), inst.filtration),
    ]


def _drop_first_node(w, filt, t):
    """``w`` with every weight on the first parts[t-1]-block set to 0, so
    that node drops out at date t."""
    block = set(filt.parts[t - 1][0])
    return [F(0) if i in block else x for i, x in enumerate(w)]


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
                assert condexp(values, filt, t) == naive_condexp(
                    values, filt.parts[t], space
                )
        for t in space.times:
            for cells in (X.values[t], X.increments[t]):
                assert condexp_cells(cells, filt, t) == naive_condexp_cells(
                    cells, filt.parts[t], space
                )
        if not is_adapted(X, filt):
            continue  # the martingale and NUPBR kernels take adapted inputs
        assert is_martingale(X, filt) == naive_is_martingale(X, filt, space)
        for weighted in (w, *(_drop_first_node(w, filt, t) for t in space.times[1:])):
            _check_weighted_kernels(X, filt, space, weighted)
        assert certify_nupbr(X, filt, space) == naive_certify(X, filt, space, [F(1)] * space.n)


def _check_weighted_kernels(X, filt, space, w):
    """The weighted martingale test and certificate against the naive
    references; a vector with no positive weight normalises to no Q, so
    both raise ``ValueError`` on it."""
    if not any(w):
        with pytest.raises(ValueError):
            is_martingale(X, filt, weights=w)
        with pytest.raises(ValueError):
            certify_nupbr(X, filt, space, weights=w)
        return
    assert is_martingale(X, filt, weights=w) == naive_is_martingale(X, filt, space, w)
    assert certify_nupbr(X, filt, space, weights=w) == naive_certify(X, filt, space, w)


@settings(max_examples=80, deadline=None)
@given(SEEDS, WEIGHTS)
def test_node_drifts_match_a_from_scratch_sum(seed, weights):
    space, cases = _cases(seed)
    w = weights[: space.n]
    for X, filt in cases:
        assert list(node_drifts(X, filt)) == naive_node_drifts(X, filt, space)
        assert list(node_drifts(X, filt, w)) == naive_node_drifts(X, filt, space, w)
        assert is_supermartingale(X, filt) == all(
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
            got = condexp(v, filt, t)
            assert got == naive_condexp(v, filt.parts[t], space)
            assert all(type(c) is Q for c in got)


def _cells(rows):
    return [c for row in rows for cell in row for c in cell]


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_kernels_return_fractions_only(seed):
    # Fraction(1, 2) == 0.5, so equality with a reference cannot tell a
    # leaked float, int or plain Fraction from a Q; the type can
    space, cases = _cases(seed)
    tau = random_instance(seed).tau
    for X, filt in cases:
        built = AdaptedProcess.from_increments(X.increments[1:])
        derived = [X, built, stop(X, tau), X + built, X - stop(X, tau)]
        for Y in derived:
            assert all(type(c) is Q for c in _cells(Y.values) + _cells(Y.increments))
        for t in space.times:
            first = [cell[0] for cell in X.values[t]]
            assert all(type(c) is Q for c in condexp(first, filt, t))
            for cells in (X.values[t], X.increments[t]):
                assert all(
                    type(c) is Q
                    for cell in condexp_cells(cells, filt, t)
                    for c in cell
                )


def test_public_constructor_still_coerces_and_bans_floats():
    X = AdaptedProcess(((("3/4",),), ((1,),)))
    assert X.values == (((F(3, 4),),), ((F(1),),))
    assert all(type(c) is Q for c in _cells(X.values))
    with pytest.raises(TypeError):
        AdaptedProcess((((F(1),),), ((0.5,),)))
    # the averaging kernels take ints and rationals only, in every kind of
    # block of ex1 (t = 2 is all singletons; at t = 1 the block {0, 1}
    # shares the bad value's cell or mixes it with 1) and in ``expectation``:
    # a float raises the ban, a string another TypeError; a mixed block
    # used to raise AttributeError, and a singleton coerced "1/2"
    sc = load_builtin("ex1")
    filt = sc.filtration
    for bad, message in ((0.5, "floats are banned"), ("1/2", "ints and rationals only")):
        cell = (bad,)
        calls = {
            "singleton": lambda: condexp([bad, 1, 2, 3], filt, 2),
            "singleton cells": lambda: condexp_cells([cell, (1,), (2,), (3,)], filt, 2),
            "shared": lambda: condexp([bad, bad, 2, 3], filt, 1),
            "shared cells": lambda: condexp_cells([cell, cell, (2,), (3,)], filt, 1),
            "mixed": lambda: condexp([bad, 1, 2, 3], filt, 1),
            "mixed cells": lambda: condexp_cells([(1,), cell, (2,), (3,)], filt, 1),
            "expectation": lambda: sc.space.expectation([1, 2, bad, 3]),
        }
        for call in calls.values():
            with pytest.raises(TypeError, match=message):
                call()


def _random_stopping_time(filt, space, rng):
    """A stopping time by construction: each parts[t]-block not stopped
    before t stops at t with chance 1/3; the rest never stop (INF)."""
    values = [INF] * space.n
    for t in space.times:
        for block in filt.parts[t]:
            if values[block[0]] is INF and rng.randrange(3) == 0:
                for i in block:
                    values[i] = t
    return RandomTime(tuple(values))


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_block_constancy_matches_naive_reference(seed):
    space, cases = _cases(seed)
    rng = random.Random(seed)
    grid = list(space.times) + [INF]
    drawn = [RandomTime(tuple(rng.choice(grid) for _ in range(space.n))) for _ in range(3)]
    for X, filt in cases:
        stopping = _random_stopping_time(filt, space, rng)
        assert naive_is_stopping_time(stopping, filt, space)
        for time in [random_instance(seed).tau, stopping] + drawn:
            assert check_stopping_time(time, filt) == naive_is_stopping_time(
                time, filt, space
            )
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
    X = AdaptedProcess.from_increments(increments)
    assert X.values == naive_running_sum(dim, n, increments)
    assert X.horizon == horizon

    def natural(s):
        # atoms grouped by their increments up to row s
        groups = {}
        for i in range(n):
            key = tuple(increments[r][i] for r in range(min(s, horizon - 1) + 1))
            groups.setdefault(key, []).append(i)
        return tuple(groups.values())

    # X_t sums the increment rows before t: it is predictable for the
    # filtration its increments generate
    space = FiniteSpace(tuple(range(n)), (F(1, n),) * n, horizon)
    assert is_predictable(X, Filtration(tuple(natural(s) for s in range(horizon + 1)), space))
    assert X.increments == naive_increments(X)


def naive_cellwise(fn, *tables):
    """``fn`` of the cells at each (t, atom), one computation per atom."""
    return tuple(
        tuple(tuple(fn(*cells)) for cells in zip(*rows)) for rows in zip(*tables)
    )


def _shared_cases(seed):
    """The processes of :func:`_cases` plus the survival bundle's, whose
    atoms share one cell object per node."""
    space, cases = _cases(seed)
    inst = random_instance(seed)
    b = azema(inst.filtration, inst.tau)
    procs = [X for X, _ in cases] + [b.Z, b.Ztilde, b.m, b.default_compensator]
    return space, procs


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_cell_maps_match_naive_references(seed):
    space, procs = _shared_cases(seed)
    for X in procs:
        for Y in procs:
            if Y.dim != X.dim:
                continue
            for op in (operator.add, operator.sub):
                R = X._zip(Y, op)
                assert R.values == naive_cellwise(lambda a, b: map(op, a, b), X.values, Y.values)
                assert R.increments == naive_increments(R)
        for k in range(X.dim):
            C = component(X, k)
            assert C.values == naive_cellwise(lambda c: (c[k],), X.values)
            assert C.increments == naive_increments(C)
        assert (-X).values == naive_cellwise(lambda c: (-x for x in c), X.values)
        assert scale(X, F(-3, 2)).values == naive_cellwise(
            lambda c: (F(-3, 2) * x for x in c), X.values
        )
        for Y in procs:
            if Y.dim == 1:
                assert mul_scalar_process(X, Y).values == naive_cellwise(
                    lambda c, s: (s[0] * x for x in c), X.values, Y.values
                )


SCALARS = st.sampled_from([0, 1, -2, 7, F(0), F(1, 2), F(-5, 3)])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(SCALARS, min_size=4, max_size=4), min_size=1, max_size=4))
def test_from_scalar_paths_matches_naive_reference(paths):
    want = tuple(tuple((F(v),) for v in row) for row in paths)
    assert AdaptedProcess.from_scalar_paths(paths).values == want
    # generator rows of fresh objects: each is freed once read unless the
    # memo keeps it (a Fraction keeps the int it was built from, not the
    # string it parsed), so a memo keyed by the raw input's address would
    # hand a later, different value an earlier value's cell
    fresh_strs = ((str(F(v)) for v in row) for row in paths)
    assert AdaptedProcess.from_scalar_paths(fresh_strs).values == want
    big = 2**100
    fresh_ints = ((big + int(F(v) * 6) for v in row) for row in paths)
    assert AdaptedProcess.from_scalar_paths(fresh_ints).values == tuple(
        tuple((F(big + int(F(v) * 6)),) for v in row) for row in paths
    )
    fresh_fracs = ((F(v) / 7 for v in row) for row in paths)
    got = AdaptedProcess.from_scalar_paths(fresh_fracs).values
    assert got == tuple(tuple((F(v) / 7,) for v in row) for row in paths)
    assert all(type(c) is Q for c in _cells(got))


def test_shared_source_objects_share_one_cell():
    half, third = F(1, 2), F(1, 3)
    X = AdaptedProcess.from_scalar_paths([[half, half, third, half]])
    row = X.values[0]
    assert row[0] is row[1] is row[3] and row[2] is not row[0]
    assert X.values == (((half,), (half,), (third,), (half,)),)
    C = component(AdaptedProcess._trusted((((half, third),) * 3,)), 1)
    assert C.values[0][0] is C.values[0][1] is C.values[0][2]
    S = X + X
    assert S.values[0][0] is S.values[0][1] and S.values[0][0] == (F(1),)


# -- the per-block conditional expectation --------------------------------

BLOCK_KINDS = ("shared", "equal", "zero", "mixed")


def _mixed_row(blocks, dim, rng):
    """A row of cells over the atoms of ``blocks`` (a partition), each block
    drawn as one kind: one cell object shared by its atoms, equal but
    distinct cells, distinct all-zero cells, or cells drawn atom by atom
    (ints, Fractions and ``Q`` values mixed).  Singleton blocks are
    whatever their partition holds."""
    def value():
        return rng.choice([0, 1, -2, F(1, 2), F(-5, 3), Q(7, 4), Q(0), 3])

    def fresh(cell):
        return tuple(F(c.numerator, c.denominator) if isinstance(c, F) else c for c in cell)

    row = [None] * sum(map(len, blocks))
    for block in blocks:
        kind = rng.choice(BLOCK_KINDS)
        cell = tuple(value() for _ in range(dim))
        for i in block:
            if kind == "shared":
                row[i] = cell
            elif kind == "equal":
                row[i] = fresh(cell)
            elif kind == "zero":
                row[i] = (F(0),) * dim
            else:
                row[i] = tuple(value() for _ in range(dim))
    return row


def _block_kind_cases():
    for name in ("ex1", "ex2"):
        sc = load_builtin(name)
        yield sc.space, sc.filtration
    for seed in range(40):
        inst = random_instance(seed)
        yield inst.space, inst.filtration
        yield inst.space, enlarge(inst.filtration, inst.tau)


def test_condexp_matches_naive_reference_on_every_kind_of_block():
    rng = random.Random(32)
    for space, filt in _block_kind_cases():
        for t in space.times:
            # rows drawn on the partition of each date, and on a finer one,
            # against every date's conditioning
            for s in space.times:
                for dim in (1, 2):
                    row = _mixed_row(filt.parts[s], dim, rng)
                    got = condexp_cells(row, filt, t)
                    assert got == naive_condexp_cells(row, filt.parts[t], space)
                    assert all(type(c) is Q for cell in got for c in cell)
                    for block in filt.parts[t]:
                        assert all(got[i] is got[block[0]] for i in block)
                        first = row[block[0]]
                        if all(row[i] is first for i in block) and all(
                            type(c) is Q for c in first
                        ):
                            assert got[block[0]] is first
                scalars = [cell[0] for cell in _mixed_row(filt.parts[s], 1, rng)]
                got = condexp(scalars, filt, t)
                assert got == naive_condexp(scalars, filt.parts[t], space)
                assert all(type(c) is Q for c in got)


def test_a_shared_q_cell_comes_back_as_the_same_object():
    sc = load_builtin("ex1")
    filt, n = sc.filtration, sc.space.n
    cell = (Q(2, 3), Q(-1))
    for t in sc.space.times:
        assert all(c is cell for c in condexp_cells([cell] * n, filt, t))
    # a singleton block of the terminal partition returns its own cell
    row = sc.price.values[-1]
    H = sc.space.horizon
    got = condexp_cells(row, filt, H)
    for block in filt.parts[H]:
        if len(block) == 1:
            assert got[block[0]] is row[block[0]]
    value = Q(5, 7)
    assert all(v is value for v in condexp([value] * n, filt, 1))


@pytest.mark.parametrize("cell", [(1, -2), (F(1, 2), F(3)), (0, F(4, 9))])
def test_a_shared_cell_of_ints_or_fractions_comes_back_as_q(cell):
    sc = load_builtin("ex1")
    filt, n = sc.filtration, sc.space.n
    for t in sc.space.times:
        got = condexp_cells([cell] * n, filt, t)
        assert got == (cell,) * n
        assert all(type(c) is Q for out in got for c in out)
        for block in filt.parts[t]:
            assert all(got[i] is got[block[0]] for i in block)
        scalar = condexp([cell[0]] * n, filt, t)
        assert scalar == (cell[0],) * n and all(type(c) is Q for c in scalar)


def test_filtration_masses_are_ints_over_d(ex1, ex2):
    # P(B) per block of each date as the int P_B over D, for F and G, built
    # once per filtration; the big-int space checks masses over D = 3**40
    tiny = F(1, 3**40)
    big = FiniteSpace(("a", "b", "c"), (tiny, tiny, 1 - 2 * tiny), 1)
    filts = [Filtration((((0, 1, 2),), ((0, 2), (1,))), big)]
    for ctx in (ex1, ex2):
        filts += [ctx.filt, ctx.enlarged]
    for seed in range(20):
        inst = random_instance(seed)
        filts += [inst.filtration, enlarge(inst.filtration, inst.tau)]
    for filt in filts:
        D = filt.space.scaled[0]
        table = filt.masses
        assert len(table) == len(filt.parts)
        for blocks, masses in zip(filt.parts, table):
            assert len(masses) == len(blocks)
            for block, mass in zip(blocks, masses):
                assert type(mass) is int
                assert mass == sum(filt.space.prob[i] for i in block) * D
        assert filt.masses is table


# (every weight but the last, the last): a negative weight, or no positive
# weight, so that no Q normalises
@pytest.mark.parametrize("bad", [(F(1), F(-1)), (F(1), F(-1, 3)), (F(0), F(0))])
def test_weighted_kernels_reject_negative_weights(bad):
    space, cases = _cases(5)
    X, filt = cases[0]
    rest, last = bad
    w = [rest] * (space.n - 1) + [last]
    with pytest.raises(ValueError):
        certify_nupbr(X, filt, space, weights=w)
    with pytest.raises(ValueError):
        is_martingale(X, filt, weights=w)


# -- the ]0, tau] transfer formulas of the enlargement ----------------------


def naive_compensator_of_stopped(V, b, filt, tau, space):
    """Running sum of (1/Z_{t-1}) I_{t <= tau} E[Zt_t dV_t | F_{t-1}]."""
    inc = naive_increments(V)
    zero = (F(0),) * V.dim
    increments = []
    for t in range(1, space.horizon + 1):
        weighted = [
            tuple(b.Ztilde.scalar_at(t, i) * c for c in inc[t][i]) for i in range(space.n)
        ]
        proj = naive_condexp_cells(weighted, filt.parts[t - 1], space)
        increments.append(
            [
                tuple(c / b.Z.scalar_at(t - 1, i) for c in proj[i]) if t <= tau.at(i) else zero
                for i in range(space.n)
            ]
        )
    return naive_running_sum(V.dim, space.n, increments)


def naive_compensator_of_rescaled(V, b, enlarged, tau, space):
    """G-compensator of U = sum I_{t <= tau} dV_t / Zt_t, projected on G."""
    inc = naive_increments(V)
    zero = (F(0),) * V.dim
    increments = []
    for t in range(1, space.horizon + 1):
        du = [
            tuple(c / b.Ztilde.scalar_at(t, i) for c in inc[t][i]) if t <= tau.at(i) else zero
            for i in range(space.n)
        ]
        increments.append(naive_condexp_cells(du, enlarged.parts[t - 1], space))
    return naive_running_sum(V.dim, space.n, increments)


def naive_g_martingale_part(M, b, filt, tau, space):
    """M_{t & tau} minus the running sum of I_{s <= tau} E[dM_s dm_s | F_{s-1}] / Z_{s-1}."""
    inc, dm = naive_increments(M), naive_increments(b.m)
    zero = (F(0),) * M.dim
    drift = []
    for t in range(1, space.horizon + 1):
        prod = [tuple(c * dm[t][i][0] for c in inc[t][i]) for i in range(space.n)]
        proj = naive_condexp_cells(prod, filt.parts[t - 1], space)
        drift.append(
            [
                tuple(c / b.Z.scalar_at(t - 1, i) for c in proj[i]) if t <= tau.at(i) else zero
                for i in range(space.n)
            ]
        )
    sums = naive_running_sum(M.dim, space.n, drift)
    return tuple(
        tuple(
            tuple(
                a - d
                for a, d in zip(M.values[min(t, tau.at(i))][i], sums[t][i])
            )
            for i in range(space.n)
        )
        for t in space.times
    )


def naive_transfer_rows(M, b, filt, enlarged, tau, space):
    """Per-date rows (jump_lhs, jump_rhs, unit_lhs, unit_rhs) of the
    projection-ratio identities, zero at t = 0 and off ]0, tau]."""
    n = space.n
    inc = naive_increments(M)
    rows = [[tuple((F(0),) for _ in range(n))] for _ in range(4)]
    for t in range(1, space.horizon + 1):
        alive = [t <= tau.at(i) for i in range(n)]
        zt = [b.Ztilde.scalar_at(t, i) for i in range(n)]
        g_jump = naive_condexp(
            [inc[t][i][0] / zt[i] if alive[i] else F(0) for i in range(n)],
            enlarged.parts[t - 1],
            space,
        )
        g_unit = naive_condexp(
            [1 / zt[i] if alive[i] else F(0) for i in range(n)], enlarged.parts[t - 1], space
        )
        pj = naive_condexp(
            [inc[t][i][0] if zt[i] > 0 else F(0) for i in range(n)], filt.parts[t - 1], space
        )
        pu = naive_condexp([F(int(zt[i] > 0)) for i in range(n)], filt.parts[t - 1], space)
        f_jump = [pj[i] / b.Z.scalar_at(t - 1, i) if alive[i] else F(0) for i in range(n)]
        f_unit = [pu[i] / b.Z.scalar_at(t - 1, i) if alive[i] else F(0) for i in range(n)]
        for out, row in zip(rows, (g_jump, f_jump, g_unit, f_unit)):
            out.append(tuple((v,) for v in row))
    return tuple(tuple(r) for r in rows)


def _enlargement_cases():
    """(space, filtration, tau, price, adapted V's) on generator instances
    (1-D and 2-D prices) and on one 40-atom benchmark scenario file."""
    for seed in range(40):
        inst = random_instance(seed)
        rng = random.Random(seed)
        V = [random_adapted(inst.space, inst.filtration, rng, dim=d) for d in (1, 2)]
        yield inst.space, inst.filtration, inst.tau, inst.price, V
    sc = scenario_gen().random_scenario(7000, 5)
    rng = random.Random(7000)
    V = [random_adapted(sc.space, sc.filtration, rng, dim=d) for d in (1, 2)]
    yield sc.space, sc.filtration, sc.tau, sc.price, V


def test_enlargement_identities_match_naive_references():
    atoms, thin, dims = 0, 0, set()
    for space, filt, tau, price, adapted in _enlargement_cases():
        b = azema(filt, tau)
        G = enlarge(filt, tau)
        atoms, thin = max(atoms, space.n), thin + len(b.thin_mask)
        dims.add(price.dim)
        for V in [b.default_compensator, b.m, price] + adapted:
            assert compensator_of_stopped(V, b).values == (
                naive_compensator_of_stopped(V, b, filt, tau, space)
            )
            assert compensator_of_rescaled(V, b).values == (
                naive_compensator_of_rescaled(V, b, G, tau, space)
            )
        for M in (b.m, price):
            assert g_martingale_part(M, b).values == (
                naive_g_martingale_part(M, b, filt, tau, space)
            )
        for M in [b.m] + [component(price, k) for k in range(price.dim)]:
            out = projection_transfer_identities(M, b)
            got = tuple(
                X.values for X in (out.jump_lhs, out.jump_rhs, out.unit_lhs, out.unit_rhs)
            )
            assert got == naive_transfer_rows(M, b, filt, G, tau, space)
    # the cases reach the 40-atom file, 2-D prices and the thin set {Zt = 0 < Z_-}
    assert atoms == 40 and dims == {1, 2} and thin > 0


# -- the deflator and the jump-date weights ---------------------------------


def naive_build_deflator(b, filt, enlarged, tau, space):
    """(K, driver, drawdown, deflator) from their definitions, atom by atom:
    K = Z_-^2 / (Z_-^2 + d<m>) / Zt on ]0, tau], the driver L = -(K . mhat)
    with jumps -(K dmhat - E[K dmhat | G_{t-1}]), the drawdown summing
    P(Zt_t = 0 | F_{t-1}) on ]0, tau], and the deflator the running
    product of 1 + dL - d(drawdown)."""
    n = space.n
    dm = naive_increments(b.m)
    dmhat = naive_increments(AdaptedProcess(naive_g_martingale_part(b.m, b, filt, tau, space)))
    k_rows = [tuple((F(0),) for _ in range(n))]
    driver, drawdown = [], []
    for t in range(1, space.horizon + 1):
        alive = [t <= tau.at(i) for i in range(n)]
        zprev = [b.Z.scalar_at(t - 1, i) for i in range(n)]
        zt = [b.Ztilde.scalar_at(t, i) for i in range(n)]
        dbracket = naive_condexp([dm[t][i][0] ** 2 for i in range(n)], filt.parts[t - 1], space)
        collapse = naive_condexp([F(zt[i] == 0) for i in range(n)], filt.parts[t - 1], space)
        k = [
            zprev[i] ** 2 / (zprev[i] ** 2 + dbracket[i]) / zt[i] if alive[i] else F(0)
            for i in range(n)
        ]
        prod = [k[i] * dmhat[t][i][0] for i in range(n)]
        proj = naive_condexp(prod, enlarged.parts[t - 1], space)
        k_rows.append(tuple((v,) for v in k))
        driver.append([(proj[i] - prod[i],) for i in range(n)])
        drawdown.append([(collapse[i] if alive[i] else F(0),) for i in range(n)])
    L = naive_running_sum(1, n, driver)
    D = naive_running_sum(1, n, drawdown)
    rows = [tuple((F(1),) for _ in range(n))]
    for t in range(1, space.horizon + 1):
        rows.append(
            tuple(
                (rows[-1][i][0] * (1 + L[t][i][0] - L[t - 1][i][0] - D[t][i][0] + D[t - 1][i][0]),)
                for i in range(n)
            )
        )
    return tuple(k_rows), L, D, tuple(rows)


def naive_jump_time_measures(T, b, filt, tau, space):
    """(q, q_tilde, u) at the jump date T: q = I_{Zt_T > 0} / P(Zt_T > 0 |
    F_{T-1}) where that mass is positive, else 1; q_tilde = Zt_T / Z_{T-1}
    where Z_{T-1} > 0, else 1; u = Z_{T-1} / Zt_T on {T <= tau}, else 1."""
    n = space.n
    zprev = [b.Z.scalar_at(T - 1, i) for i in range(n)]
    zt = [b.Ztilde.scalar_at(T, i) for i in range(n)]
    kept = naive_condexp([F(z > 0) for z in zt], filt.parts[T - 1], space)
    q = tuple(F(zt[i] > 0) / kept[i] if kept[i] > 0 else F(1) for i in range(n))
    qt = tuple(zt[i] / zprev[i] if zprev[i] > 0 else F(1) for i in range(n))
    u = tuple(zprev[i] / zt[i] if T <= tau.at(i) else F(1) for i in range(n))
    return q, qt, u


def test_deflator_and_jump_measures_match_naive_references():
    atoms, thin = 0, 0
    for space, filt, tau, _, _ in _enlargement_cases():
        b = azema(filt, tau)
        atoms, thin = max(atoms, space.n), thin + len(b.thin_mask)
        out = build_deflator(b)
        got = tuple(X.values for X in (out.kernel, out.driver, out.drawdown, out.deflator))
        assert got == naive_build_deflator(b, filt, enlarge(filt, tau), tau, space)
        for T in range(1, space.horizon + 1):
            m = jump_time_measures(T, b)
            assert (m.q, m.q_tilde, m.u_enlarged) == naive_jump_time_measures(
                T, b, filt, tau, space
            )
    assert atoms == 40 and thin > 0


# -- node sharing: one computation per node, no value or check lost ---------


def _bench_scenario():
    sc = scenario_gen().random_scenario(7000, 5)
    assert sc.space.n == 40
    return sc


def _unshared(X):
    """A copy of X in which every cell, and every Fraction in it, is a
    distinct object."""
    return AdaptedProcess._trusted(
        tuple(tuple(tuple(F(c.numerator, c.denominator) for c in cell) for cell in row)
              for row in X.values)
    )


def _tampered(X, t, i, cell):
    """A copy of X whose cell at (t, atom i) is the new object ``cell``."""
    rows = list(X.values)
    rows[t] = rows[t][:i] + (cell,) + rows[t][i + 1:]
    return AdaptedProcess._trusted(tuple(rows))


def test_increments_share_one_cell_per_node():
    sc = _bench_scenario()
    b = azema(sc.filtration, sc.tau)
    for X in (sc.price, b.Z, b.Ztilde, b.m, b.default_compensator):
        for t, row in enumerate(X.increments):
            for block in sc.filtration.parts[t]:
                assert all(row[i] is row[block[0]] for i in block)
            assert row == naive_increments(X)[t]
    for X in (b.Z, b.Ztilde):
        for t, row in enumerate(X.values):
            for block in sc.filtration.parts[t]:
                assert all(row[i] is row[block[0]] for i in block)


def test_a_single_jump_keeps_one_cell_per_node():
    sc = scenario_gen().random_scenario(0, 5)
    T = 2
    xi = sc.price.increments[T]
    distinct = len({id(cell) for cell in xi})
    assert distinct == len(sc.filtration.parts[T]) == 8
    S = single_jump_process(xi, T, sc.space)
    assert S.values[T] == xi
    assert len({id(cell) for cell in S.values[T]}) == distinct
    mask = [i % 3 != 0 for i in range(sc.space.n)]
    masked = single_jump_process(xi, T, sc.space, mask=mask)
    assert len({id(cell) for cell in masked.values[T]}) <= distinct + 1
    assert masked.values[T] == tuple(
        cell if on else (F(0),) * sc.price.dim for cell, on in zip(xi, mask)
    )


def test_theorem_suite_is_unchanged_on_an_unshared_copy():
    sc = _bench_scenario()
    copy = Scenario(sc.space, sc.filtration, sc.tau, _unshared(sc.price))
    assert copy.price.values[1][0] is not copy.price.values[1][1]
    _, shared, violations = theorem_suite(sc, battery=5)
    _, unshared, unshared_violations = theorem_suite(copy, battery=5)
    assert shared == unshared and violations == unshared_violations == []


def test_a_tampered_late_atom_still_trips_the_self_checks():
    # each per-node memo keys on every input its body reads, so an atom
    # whose cell differs from its node's first cell is decided on its own
    sc = _bench_scenario()
    filt = sc.filtration
    b = azema(filt, sc.tau)
    dates, atoms = range(1, sc.space.horizon + 1), range(sc.space.n)

    def late(t, i):
        # in ]0, tau] at t, m moves there, and not the first atom of its F_t-node
        return b.alive[t][i] and any(b.m.increments[t][i]) and i != block_of(filt, t, i)[0]

    t, i = next((t, i) for t in dates for i in atoms if late(t, i))
    _rescaled_sides(b.m, b)
    vanished = dataclasses.replace(b, Ztilde=_tampered(b.Ztilde, t, i, (F(0),)))
    with pytest.raises(StructuralViolation, match="Zt vanished inside"):
        _rescaled_sides(b.m, vanished)

    # an atom alone in its G_t-node keeps the kernel G-adapted, so only the
    # closed form of the driver's jumps sees its halved Zt
    t, i = next(
        (t, i) for t in dates for i in atoms
        if late(t, i) and len(block_of(b.enlarged, t, i)) == 1
    )
    build_deflator(b)
    halved = (b.Ztilde.values[t][i][0] / 2,)
    moved = dataclasses.replace(b, Ztilde=_tampered(b.Ztilde, t, i, halved))
    with pytest.raises(StructuralViolation, match="closed form"):
        build_deflator(moved)
