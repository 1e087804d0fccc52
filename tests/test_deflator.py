import random
from fractions import Fraction as F

import pytest

from randomhorizon.deflator import (
    build_deflator,
    is_supermartingale,
    optional_integral,
    stoch_exp,
    supermartingale_deflator,
    verify_deflator,
)
from randomhorizon.enlargement import azema, g_martingale_part
from randomhorizon.errors import EngineError, InadmissibleStrategy, NotAdapted
from randomhorizon.generator import random_instance, random_martingale
from randomhorizon.projections import is_martingale, quadratic_covariation
from randomhorizon.space import INF, AdaptedProcess, stop

from helpers import (
    constant,
    constant_time,
    from_function,
    mul_scalar_process,
    unadapted_price,
    zero,
)


def test_optional_integral_with_predictable_integrand(ex1):
    # for predictable H the compensated integral collapses to the ordinary one
    G, space = ex1.enlarged, ex1.space
    H = from_function(space, lambda t, i: F(t + 1))
    N = ex1.deflators.bundle.mhat
    out = optional_integral(H, N, G)
    acc = [F(0)] * 4
    for t in range(1, space.horizon + 1):
        for i in range(4):
            acc[i] += H.scalar_at(t, i) * N.delta_at(t, i)[0]
            assert out.scalar_at(t, i) == acc[i]


def test_optional_integral_with_unit_integrand(ex1):
    G, space = ex1.enlarged, ex1.space
    one = constant(space, F(1))
    N = ex1.deflators.bundle.mhat
    out = optional_integral(one, N, G)
    for t in space.times:
        for i in range(4):
            assert out.scalar_at(t, i) == N.scalar_at(t, i) - N.scalar_at(0, i)


def test_optional_integral_bracket_identity(ex1):
    # [H (.) N, Y] - H . [N, Y] is a martingale (checked for H = kernel,
    # N = Y = drift-corrected survival martingale)
    G, space = ex1.enlarged, ex1.space
    K, mhat = ex1.deflators.kernel, ex1.deflators.bundle.mhat
    M = optional_integral(K, mhat, G)
    lhs = quadratic_covariation(M, mhat)
    hn = quadratic_covariation(mhat, mhat)
    acc = [F(0)] * 4
    rows = [tuple((F(0),) for _ in range(4))]
    for t in range(1, space.horizon + 1):
        for i in range(4):
            acc[i] += K.scalar_at(t, i) * hn.delta_at(t, i)[0]
        rows.append(tuple((acc[i],) for i in range(4)))
    hdotn = AdaptedProcess(tuple(rows))
    assert is_martingale(lhs - hdotn, G)


def test_optional_integral_rejects_non_martingale(ex1):
    with pytest.raises(EngineError):
        optional_integral(
            constant(ex1.space, F(1)), ex1.bundle.Z, ex1.enlarged
        )


def test_deflator_bundle_ex1(ex1):
    d = ex1.deflators
    assert all(d.driver.delta_at(t, i) == (F(0),) for t in ex1.space.times for i in range(4))
    assert [d.drawdown.scalar_at(2, i) for i in range(4)] == [F(0), F(1, 2), F(0), F(1, 2)]
    assert [d.deflator.scalar_at(2, i) for i in range(4)] == [F(1), F(1, 2), F(1), F(1, 2)]


def test_deflator_bundle_ex2(ex2):
    d = ex2.deflators
    # empty thin set: driver jumps are -dm/Zt on ]0, tau] (here dm = 0)
    for t in range(1, 3):
        for i in range(4):
            if t <= ex2.tau.at(i):
                expected = -ex2.bundle.m.delta_at(t, i)[0] / ex2.bundle.Ztilde.scalar_at(t, i)
                assert d.driver.delta_at(t, i)[0] == expected
    assert all(d.drawdown.scalar_at(2, i) == 0 for i in range(4))
    assert is_martingale(d.driver, ex2.enlarged)


def test_deflator_bundle_no_horizon(ex1):
    d = build_deflator(azema(ex1.filt, constant_time(ex1.space, INF)))
    for t in ex1.space.times:
        for i in range(4):
            assert d.driver.scalar_at(t, i) == 0
            assert d.drawdown.scalar_at(t, i) == 0
            assert d.deflator.scalar_at(t, i) == 1


def test_stoch_exp_basics(ex1):
    flat = zero(ex1.space)
    assert all(
        stoch_exp(flat).scalar_at(t, i) == 1 for t in ex1.space.times for i in range(4)
    )
    with pytest.raises(EngineError):
        stoch_exp(constant(ex1.space, F(1)))


def test_stoch_exp_multiplicativity(ex1):
    # E(A) E(B) = E(A + B + [A, B]) exactly
    rng = random.Random(3)
    for _ in range(20):
        rows_a, rows_b = [[(F(0),)] * 4], [[(F(0),)] * 4]
        acc_a, acc_b = [F(0)] * 4, [F(0)] * 4
        for t in range(1, 3):
            for i in range(4):
                acc_a[i] += F(rng.randint(-2, 2), 3)
                acc_b[i] += F(rng.randint(-2, 2), 3)
            rows_a.append([(acc_a[i],) for i in range(4)])
            rows_b.append([(acc_b[i],) for i in range(4)])
        A = AdaptedProcess(tuple(tuple(r) for r in rows_a))
        B = AdaptedProcess(tuple(tuple(r) for r in rows_b))
        combo = A + B + quadratic_covariation(A, B)
        lhs = mul_scalar_process(stoch_exp(A), stoch_exp(B))
        assert lhs.values == stoch_exp(combo).values


def test_supermartingale_deflator_zero_strategy(ex1, ex2):
    for ctx in (ex1, ex2):
        out = supermartingale_deflator(
            ctx.price, zero(ctx.space), ctx.deflators
        )
        assert out.positive and out.supermartingale
        assert out.process.values == ctx.deflators.deflator.values


def test_supermartingale_deflator_ex2_half(ex2):
    out = supermartingale_deflator(
        ex2.price, constant(ex2.space, F(1, 2)), ex2.deflators
    )
    assert out.positive and out.supermartingale


def test_supermartingale_deflator_fails_on_arbitrage_node(ex1):
    # exploit the one-child node {b} at t=2: any scale beyond the unit
    # direction beats the deflator's halving exactly
    theta = from_function(
        ex1.space, lambda t, i: F(-2) if (t, i) == (2, 1) else F(0)
    )
    out = supermartingale_deflator(ex1.price, theta, ex1.deflators)
    assert out.positive
    assert not out.supermartingale


def test_supermartingale_deflator_rejects_inadmissible(ex1):
    theta = constant(ex1.space, F(5))
    with pytest.raises(InadmissibleStrategy):
        supermartingale_deflator(ex1.price, theta, ex1.deflators)


def test_verify_deflator_examples(ex1, ex2):
    ok = verify_deflator(
        ex2.deflators.deflator, stop(ex2.price, ex2.tau), ex2.enlarged
    )
    assert ok.passed and ok.worst is None
    one = constant(ex2.space, F(1))
    assert verify_deflator(one, stop(ex2.price, ex2.tau), ex2.enlarged).passed
    bad = verify_deflator(
        constant(ex1.space, F(1)),
        stop(ex1.price, ex1.tau),
        ex1.enlarged,
    )
    assert not bad.passed
    assert bad.worst.time == 2 and bad.worst.block == ("b",)


def test_verify_deflator_rejects_an_unadapted_price():
    # the node walk reads one atom per child, so an unadapted price would
    # be judged by the first atom of {a, b} alone
    space, filt, S = unadapted_price()
    with pytest.raises(NotAdapted):
        verify_deflator(constant(space, F(1)), S, filt)


def test_deflator_invariants_on_random_instances():
    for seed in range(120):
        inst = random_instance(seed)
        b = azema(inst.filtration, inst.tau)
        G = b.enlarged
        d = build_deflator(b)  # self-checking
        assert is_supermartingale(d.deflator, G)
        assert all(
            d.deflator.scalar_at(t, i) > 0
            for t in inst.space.times
            for i in range(inst.space.n)
        )
        if not b.thin_mask:
            assert verify_deflator(
                d.deflator, stop(inst.price, inst.tau), G
            ).passed


def test_adjoint_identity_on_random_instances():
    # E[[L, Mhat]_inf] = E[(-K) . [mhat, Mhat]_inf]
    for seed in range(60):
        inst = random_instance(seed)
        b = azema(inst.filtration, inst.tau)
        d = build_deflator(b)
        rng = random.Random(seed + 99)
        M = random_martingale(inst.space, inst.filtration, rng)
        Mhat = g_martingale_part(M, b)
        lhs = quadratic_covariation(d.driver, Mhat)
        T = inst.space.horizon
        e_lhs = inst.space.expectation([lhs.scalar_at(T, i) for i in range(inst.space.n)])
        cross = quadratic_covariation(d.bundle.mhat, Mhat)
        acc = [F(0)] * inst.space.n
        for t in range(1, T + 1):
            for i in range(inst.space.n):
                acc[i] += -d.kernel.scalar_at(t, i) * cross.delta_at(t, i)[0]
        e_rhs = inst.space.expectation(acc)
        assert e_lhs == e_rhs
