import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from randomhorizon.deflator import stoch_exp
from randomhorizon.generator import random_instance, random_martingale
from randomhorizon.nupbr import certify_nupbr
from randomhorizon.projections import (
    condexp,
    doob,
    is_martingale,
    quadratic_covariation,
)
from randomhorizon.space import AdaptedProcess

from helpers import martingale_measure_from_weights, mul_scalar_process, random_adapted, scale

SEEDS = st.integers(min_value=0, max_value=5_000)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_condexp_tower_and_projection(seed):
    inst = random_instance(seed)
    space, filt = inst.space, inst.filtration
    rng = random.Random(seed)
    x = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(space.n)]
    t = rng.randint(1, space.horizon)
    fine = condexp(x, filt, t)
    assert condexp(list(fine), filt, t) == fine
    coarse = condexp(x, filt, t - 1)
    assert condexp(list(fine), filt, t - 1) == coarse


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_doob_reconstruction_unique(seed):
    inst = random_instance(seed)
    rng = random.Random(seed + 1)
    X = random_adapted(inst.space, inst.filtration, rng)
    M, A = doob(X, inst.filtration)
    assert is_martingale(M, inst.filtration)
    for t in inst.space.times:
        for i in range(inst.space.n):
            recon = tuple(
                x0 + m + a
                for x0, m, a in zip(X.at(0, i), M.at(t, i), A.at(t, i))
            )
            assert recon == X.at(t, i)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_stoch_exp_multiplicativity(seed):
    inst = random_instance(seed)
    rng = random.Random(seed + 2)

    def null_at_zero(proc):
        rows = [tuple((F(0),) for _ in range(inst.space.n))]
        for t in range(1, inst.space.horizon + 1):
            rows.append(
                tuple(
                    (proc.scalar_at(t, i) - proc.scalar_at(0, i),)
                    for i in range(inst.space.n)
                )
            )
        return AdaptedProcess(tuple(rows))

    A = null_at_zero(random_adapted(inst.space, inst.filtration, rng))
    B = null_at_zero(random_adapted(inst.space, inst.filtration, rng))
    combo = A + B + quadratic_covariation(A, B)
    assert (
        mul_scalar_process(stoch_exp(A), stoch_exp(B)).values
        == stoch_exp(combo).values
    )


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
def test_certify_scale_invariance(seed, num, den):
    inst = random_instance(seed)
    c = F(num, den)
    base = certify_nupbr(inst.price, inst.filtration, inst.space)
    scaled = certify_nupbr(scale(inst.price, c), inst.filtration, inst.space)
    assert base.verdict == scaled.verdict


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_certificate_weights_give_martingale_measure(seed):
    inst = random_instance(seed)
    rng = random.Random(seed + 3)
    M = random_martingale(inst.space, inst.filtration, rng, dim=inst.price.dim)
    res = certify_nupbr(M, inst.filtration, inst.space)
    assert res.verdict
    q = martingale_measure_from_weights(res, inst.filtration, inst.space)
    assert all(w > 0 for w in q)
    assert inst.space.expectation(q) == 1
    assert is_martingale(M, inst.filtration, weights=q)
