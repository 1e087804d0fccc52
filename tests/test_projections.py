import random
from fractions import Fraction as F

from randomhorizon.generator import random_instance, random_martingale
from randomhorizon.projections import (
    angle_bracket,
    doob,
    dual_optional,
    dual_predictable,
    is_martingale,
    predictable_projection,
    quadratic_covariation,
)
from randomhorizon.space import is_predictable

from helpers import component, constant, from_function, random_adapted


def _collapse_indicator(ex1, t):
    b = ex1.bundle
    return [F(1) if b.Ztilde.scalar_at(t, i) == 0 else F(0) for i in range(4)]


def test_predictable_projection_of_collapse_indicator(ex1):
    X = from_function(
        ex1.space,
        lambda t, i: F(1) if ex1.bundle.Ztilde.scalar_at(t, i) == 0 else F(0),
    )
    proj = predictable_projection(X, ex1.filt)
    assert [proj.scalar_at(2, i) for i in range(4)] == [F(1, 2)] * 4
    assert is_predictable(proj, ex1.filt)


def test_predictable_projection_of_martingale_increments_vanishes(ex1):
    m = ex1.bundle.m
    dm = from_function(ex1.space, lambda t, i: m.delta_at(t, i)[0])
    proj = predictable_projection(dm, ex1.filt)
    assert all(proj.scalar_at(t, i) == 0 for t in ex1.space.times for i in range(4))


def test_predictable_projection_fixes_predictable(ex1):
    X = ex1.deflators.drawdown  # G-predictable, but also F-predictable? no:
    # use an F-predictable process instead
    V = from_function(ex1.space, lambda t, i: F(t * t))
    proj = predictable_projection(V, ex1.filt)
    assert proj.values == V.values


def test_dual_optional_of_default_indicator(ex1):
    tau = ex1.tau
    D = from_function(
        ex1.space, lambda t, i: F(1) if tau.at(i) <= t else F(0)
    )
    proj = dual_optional(D, ex1.filt)
    assert [proj.scalar_at(2, i) for i in range(4)] == [F(1, 2), F(3, 2), F(1, 2), F(1, 2)]
    assert proj.values == ex1.bundle.default_compensator.values


def test_dual_predictable_of_predictable_recovers_increments(ex1):
    V = from_function(ex1.space, lambda t, i: F(2 * t + 1))
    proj = dual_predictable(V, ex1.filt)
    assert all(
        proj.scalar_at(t, i) == V.scalar_at(t, i) - V.scalar_at(0, i)
        for t in ex1.space.times
        for i in range(4)
    )


def test_dual_predictable_of_martingale_vanishes(ex1):
    proj = dual_predictable(ex1.bundle.m, ex1.filt)
    assert all(proj.scalar_at(t, i) == 0 for t in ex1.space.times for i in range(4))


def test_angle_bracket_of_m(ex1):
    br = angle_bracket(ex1.bundle.m, ex1.bundle.m, ex1.filt)
    assert all(br.scalar_at(1, i) == 0 for i in range(4))
    assert all(br.scalar_at(2, i) == F(1, 4) for i in range(4))


def test_angle_bracket_with_constant_and_symmetry(ex1):
    m = ex1.bundle.m
    const = constant(ex1.space, F(9))
    br = angle_bracket(m, const, ex1.filt)
    assert all(br.scalar_at(t, i) == 0 for t in ex1.space.times for i in range(4))
    lhs = angle_bracket(m, ex1.bundle.Z, ex1.filt)
    rhs = angle_bracket(ex1.bundle.Z, m, ex1.filt)
    assert lhs.values == rhs.values


def test_is_martingale_examples(ex1):
    assert is_martingale(ex1.bundle.m, ex1.filt)
    assert not is_martingale(ex1.bundle.Z, ex1.filt)
    assert is_martingale(constant(ex1.space, F(3)), ex1.filt)


def test_doob_of_Z(ex1):
    M, A = doob(ex1.bundle.Z, ex1.filt)
    assert all(A.delta_at(1, i)[0] == F(-1, 2) for i in range(4))
    assert is_martingale(M, ex1.filt)
    assert is_predictable(A, ex1.filt)
    # reconstruction is exact
    for t in ex1.space.times:
        for i in range(4):
            assert (
                ex1.bundle.Z.scalar_at(t, i)
                == ex1.bundle.Z.scalar_at(0, i) + M.scalar_at(t, i) + A.scalar_at(t, i)
            )


def test_doob_of_martingale_and_predictable(ex1):
    m = ex1.bundle.m
    M, A = doob(m, ex1.filt)
    assert all(A.scalar_at(t, i) == 0 for t in ex1.space.times for i in range(4))
    V = from_function(ex1.space, lambda t, i: F(5 - t))
    M2, A2 = doob(V, ex1.filt)
    assert all(M2.scalar_at(t, i) == 0 for t in ex1.space.times for i in range(4))


def test_projection_invariants_on_random_instances():
    for seed in range(150):
        inst = random_instance(seed)
        rng = random.Random(seed + 10_000)
        V = random_adapted(inst.space, inst.filtration, rng)
        diff = dual_optional(V, inst.filtration) - dual_predictable(
            V, inst.filtration
        )
        assert is_martingale(diff, inst.filtration)
        # predictable projection of increments equals compensator increments
        dV = from_function(
            inst.space, lambda t, i: V.delta_at(t, i)[0]
        )
        proj = predictable_projection(dV, inst.filtration)
        comp = dual_predictable(V, inst.filtration)
        for t in inst.space.times:
            for i in range(inst.space.n):
                assert proj.scalar_at(t, i) == comp.delta_at(t, i)[0]
        M = random_martingale(inst.space, inst.filtration, rng)
        bracket = angle_bracket(M, M, inst.filtration)
        qv = quadratic_covariation(M, M)
        assert dual_predictable(qv, inst.filtration).values == bracket.values


def test_vector_bracket_is_matrix_process():
    inst = random_instance(7)
    rng = random.Random(7)
    M = random_martingale(inst.space, inst.filtration, rng, dim=2)
    N = random_martingale(inst.space, inst.filtration, rng, dim=2)
    br = angle_bracket(M, N, inst.filtration)
    assert br.dim == 4  # 2x2 matrix, row-major
    # entry (j, k) is the bracket of the component pair
    for j in range(2):
        for k in range(2):
            comp = angle_bracket(
                component(M, j), component(N, k), inst.filtration
            )
            T = inst.space.horizon
            for i in range(inst.space.n):
                assert br.at(T, i)[2 * j + k] == comp.scalar_at(T, i)
