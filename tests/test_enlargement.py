import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from randomhorizon.deflator import build_deflator
from randomhorizon.enlargement import (
    azema,
    compensator_of_rescaled,
    compensator_of_stopped,
    enlarge,
    g_martingale_part,
    jump_time_measures,
    projection_transfer_identities,
    reduce_g_predictable,
)
from randomhorizon.errors import NotMartingale, NotPredictable, StructuralViolation
from randomhorizon.generator import random_adapted, random_instance
from randomhorizon.projections import dual_predictable, is_martingale, quadratic_covariation
from randomhorizon.space import (
    INF,
    AdaptedProcess,
    Filtration,
    RandomTime,
    check_stopping_time,
    stop,
)


def test_enlarge_ex1_splits_to_singletons(ex1):
    blocks = ex1.enlarged.parts[1]
    assert blocks == ((0,), (1,), (2,), (3,))


def test_enlarge_trivial_cases(ex1):
    space, filt = ex1.space, ex1.filt
    assert enlarge(filt, RandomTime.constant(space, INF), space).parts == filt.parts
    # an F-stopping time adds no information (EX2's tau is one)
    assert check_stopping_time(RandomTime.constant(space, 1), filt, space)
    assert enlarge(filt, RandomTime.constant(space, 1), space).parts == filt.parts


def test_enlarge_ex2_equals_base(ex2):
    assert ex2.enlarged.parts == ex2.filt.parts


def test_azema_values_ex1(ex1):
    b = ex1.bundle
    assert [b.Z.scalar_at(1, i) for i in range(4)] == [F(1, 2)] * 4
    assert [b.Ztilde.scalar_at(2, i) for i in range(4)] == [F(0), F(1), F(0), F(1)]
    assert [b.m.scalar_at(2, i) for i in range(4)] == [F(1, 2), F(3, 2), F(1, 2), F(3, 2)]
    assert b.thin_mask == frozenset({("a", 2), ("c", 2)})


def test_azema_values_ex2(ex2):
    assert ex2.bundle.thin_mask == frozenset()
    # Z hits zero exactly where survival was already dead one step earlier
    assert [ex2.bundle.Z.scalar_at(1, i) for i in range(4)] == [F(1), F(1), F(0), F(0)]


def test_bundle_owns_its_model_and_builds_g_once_on_read(ex1, monkeypatch):
    from randomhorizon import enlargement

    calls = []

    def counted(*args):
        calls.append(args)
        return enlarge(*args)

    monkeypatch.setattr(enlargement, "enlarge", counted)
    b = azema(ex1.filt, ex1.tau, ex1.space)
    assert (b.filt, b.tau, b.space) == (ex1.filt, ex1.tau, ex1.space)
    assert calls == []
    assert b.enlarged.parts == enlarge(ex1.filt, ex1.tau, ex1.space).parts
    assert b.enlarged is b.enlarged and calls == [(ex1.filt, ex1.tau, ex1.space)]


def test_azema_infinite_horizon_time(ex1):
    space, filt = ex1.space, ex1.filt
    b = azema(filt, RandomTime.constant(space, INF), space)
    for t in space.times:
        for i in range(4):
            assert b.Z.scalar_at(t, i) == 1
            assert b.Ztilde.scalar_at(t, i) == 1
            assert b.m.scalar_at(t, i) == 1
    assert b.thin_mask == frozenset()


def test_death_time_invariants(ex1, ex2):
    for ctx in (ex1, ex2):
        b, space = ctx.bundle, ctx.space
        for i in range(space.n):
            assert ctx.tau.at(i) <= b.death.at(i)
            if ctx.tau.at(i) is not INF:
                assert ctx.tau.at(i) < b.sudden_death.at(i)
        for rt in (b.death, b.sudden_death):
            assert check_stopping_time(rt, ctx.filt, space)


def test_death_times_on_random_instances():
    for seed in range(120):
        inst = random_instance(seed)
        b = azema(inst.filtration, inst.tau, inst.space)
        for i in range(inst.space.n):
            assert inst.tau.at(i) <= b.death.at(i)
            if inst.tau.at(i) is not INF:
                assert inst.tau.at(i) < b.sudden_death.at(i)
        assert check_stopping_time(b.death, inst.filtration, inst.space)
        assert check_stopping_time(b.sudden_death, inst.filtration, inst.space)
        # survival identity and interval disjointness re-checked externally
        for t in range(1, inst.space.horizon + 1):
            for i in range(inst.space.n):
                zt = b.Ztilde.scalar_at(t, i)
                assert zt == b.Z.scalar_at(t - 1, i) + b.m.delta_at(t, i)[0]
                if t <= inst.tau.at(i):
                    assert zt > 0 and b.Z.scalar_at(t - 1, i) > 0


def test_compensator_of_stopped_matches_direct(ex1, ex2):
    for ctx in (ex1, ex2):
        for V in (
            ctx.bundle.default_compensator,
            ctx.bundle.m,
            quadratic_covariation(ctx.bundle.m, ctx.bundle.m),
        ):
            closed = compensator_of_stopped(V, ctx.bundle)
            direct = dual_predictable(stop(V, ctx.tau), ctx.enlarged, ctx.space)
            assert closed.values == direct.values


def test_compensator_of_stopped_constant_is_zero(ex1):
    V = AdaptedProcess.constant(ex1.space, F(4))
    out = compensator_of_stopped(V, ex1.bundle)
    assert all(out.scalar_at(t, i) == 0 for t in ex1.space.times for i in range(4))


def test_compensator_of_rescaled(ex1, ex2):
    for ctx in (ex1, ex2):
        for V in (
            quadratic_covariation(ctx.bundle.m, ctx.bundle.m),
            AdaptedProcess.zero(ctx.space),
            ctx.price,
        ):
            out = compensator_of_rescaled(V, ctx.bundle)
            if all(
                V.delta_at(t, i) == (F(0),) * V.dim
                for t in ctx.space.times
                for i in range(ctx.space.n)
            ):
                assert all(
                    out.scalar_at(t, i) == 0
                    for t in ctx.space.times
                    for i in range(ctx.space.n)
                )


def test_g_martingale_part_of_m(ex1):
    mhat = g_martingale_part(ex1.bundle.m, ex1.bundle)
    assert is_martingale(mhat, ex1.enlarged, ex1.space)
    # EX1: the bracket correction cancels the jump exactly, mhat stays at 1
    assert all(mhat.scalar_at(t, i) == 1 for t in ex1.space.times for i in range(4))


def test_g_martingale_part_zero_bracket_is_stopped_input(ex1):
    # orthogonal to m: jump at time 1 only (m is flat there)
    M = AdaptedProcess.from_scalar_paths([[0, 0, 0, 0], [1, 1, -1, -1], [1, 1, -1, -1]])
    out = g_martingale_part(M, ex1.bundle)
    assert out.values == stop(M, ex1.tau).values


def test_g_martingale_part_constant(ex1):
    M = AdaptedProcess.constant(ex1.space, F(2))
    out = g_martingale_part(M, ex1.bundle)
    assert all(out.scalar_at(t, i) == 2 for t in ex1.space.times for i in range(4))


def test_g_martingale_part_rejects_non_martingale(ex1):
    with pytest.raises(NotMartingale):
        g_martingale_part(ex1.bundle.Z, ex1.bundle)


def test_projection_transfer_identities_ex1(ex1):
    out = projection_transfer_identities(ex1.bundle.m, ex1.bundle)
    assert out.consistent
    # at t=2 the unit identity evaluates to 1 on the alive atoms b, d
    assert out.unit_rhs.scalar_at(2, 1) == 1
    assert out.unit_rhs.scalar_at(2, 3) == 1
    assert out.unit_lhs.scalar_at(2, 0) == 0  # off ]0, tau]


def test_projection_transfer_identities_trivial_time(ex1):
    b = azema(ex1.filt, RandomTime.constant(ex1.space, INF), ex1.space)
    out = projection_transfer_identities(b.m, b)
    assert out.consistent
    assert all(out.jump_lhs.scalar_at(t, i) == 0 for t in ex1.space.times for i in range(4))


def test_projection_transfer_identities_ex2(ex2):
    out = projection_transfer_identities(ex2.bundle.m, ex2.bundle)
    assert out.consistent
    # block {a, b} at t=2: survivors have Ztilde = 1 and Z_- = 1
    assert out.unit_rhs.scalar_at(2, 0) == 1
    assert out.unit_rhs.scalar_at(2, 1) == 1


def test_survival_views_match_a_per_atom_recomputation(ex1, ex2, survival_views_oracle):
    survival_views_oracle(ex1.bundle)
    survival_views_oracle(ex2.bundle)
    for seed in range(120):
        inst = random_instance(seed)
        survival_views_oracle(azema(inst.filtration, inst.tau, inst.space))


def test_survival_views_follow_a_replaced_random_time(ex1):
    # the views are cached per bundle, so ``replace`` must build them afresh
    b = azema(ex1.filt, ex1.tau, ex1.space)
    before = b.alive
    assert before[2] == (False, True, False, True)
    never = replace(b, tau=RandomTime.constant(ex1.space, INF))
    assert never.alive == ((False,) * 4,) + ((True,) * 4,) * ex1.space.horizon
    dead = replace(b, tau=RandomTime.constant(ex1.space, 0))
    assert dead.alive == ((False,) * 4,) * (ex1.space.horizon + 1)
    assert b.alive is before


def test_jump_time_measures_ex1(ex1):
    out = jump_time_measures(2, ex1.bundle)
    assert out.q == (F(0), F(2), F(0), F(2))
    assert out.q_tilde == (F(0), F(2), F(0), F(2))
    assert out.u_enlarged == (F(1), F(1, 2), F(1), F(1, 2))


def test_jump_time_measures_trivial(ex1):
    b = azema(ex1.filt, RandomTime.constant(ex1.space, INF), ex1.space)
    out = jump_time_measures(2, b)
    assert out.q == (F(1),) * 4
    assert out.u_enlarged == (F(1),) * 4


def test_jump_time_measures_are_cached_per_argument_tuple(ex1):
    first = jump_time_measures(2, ex1.bundle)
    assert jump_time_measures(2, ex1.bundle) is first
    # the cache is keyed by the date and lives on the bundle: another date,
    # or the bundle paired with another random time or filtration, never
    # reads the entry of the first call
    dead = replace(ex1.bundle, tau=RandomTime.constant(ex1.space, 0))
    fresh = jump_time_measures(2, dead)
    assert fresh is not first and fresh.u_enlarged == (F(1),) * 4
    assert jump_time_measures(2, dead) is fresh
    assert jump_time_measures(1, ex1.bundle) is not first
    other = jump_time_measures(2, replace(ex1.bundle, filt=ex1.enlarged))
    assert other is not first
    assert jump_time_measures(2, ex1.bundle) is first


def test_reduce_g_predictable_survival_reciprocal(ex1):
    def hg(t, i):
        if 1 <= t <= ex1.tau.at(i):
            return 1 / ex1.bundle.Z.scalar_at(t - 1, i)
        return F(1)

    H = AdaptedProcess.from_function(ex1.space, hg)
    out = reduce_g_predictable(H, ex1.filt, ex1.enlarged, ex1.tau, ex1.space)
    assert [out.scalar_at(2, i) for i in range(4)] == [F(2)] * 4
    assert [out.scalar_at(1, i) for i in range(4)] == [F(1)] * 4
    # agreement on ]0, tau] and positivity
    for t in range(1, 3):
        for i in range(4):
            if t <= ex1.tau.at(i):
                assert out.scalar_at(t, i) == H.scalar_at(t, i)
            assert out.scalar_at(t, i) > 0


def test_reduce_g_predictable_keeps_f_predictable(ex1):
    V = AdaptedProcess.from_function(ex1.space, lambda t, i: F(t + 1))
    out = reduce_g_predictable(V, ex1.filt, ex1.enlarged, ex1.tau, ex1.space)
    for t in range(1, 3):
        for i in range(4):
            if t <= ex1.tau.at(i):
                assert out.scalar_at(t, i) == V.scalar_at(t, i)


def test_reduce_g_predictable_rejects_non_predictable(ex1):
    with pytest.raises(NotPredictable):
        reduce_g_predictable(ex1.price, ex1.filt, ex1.enlarged, ex1.tau, ex1.space)


def test_reduce_g_predictable_positivity_on_random_instances():
    for seed in range(60):
        inst = random_instance(seed)
        enlarged = enlarge(inst.filtration, inst.tau, inst.space)
        rng = random.Random(seed)
        # positive G-predictable process, constant on G_{t-1} blocks
        rows = []
        for t in inst.space.times:
            row = [None] * inst.space.n
            for block in enlarged.parts[max(t - 1, 0)]:
                v = F(rng.randint(1, 9), rng.randint(1, 4))
                for i in block:
                    row[i] = (v,)
            rows.append(tuple(row))
        H = AdaptedProcess(1, tuple(rows))
        out = reduce_g_predictable(H, inst.filtration, enlarged, inst.tau, inst.space)
        for t in inst.space.times:
            for i in range(inst.space.n):
                assert out.scalar_at(t, i) > 0
                if 1 <= t <= inst.tau.at(i):
                    assert out.scalar_at(t, i) == H.scalar_at(t, i)


def _merged_variant(enlarged, t, j, k):
    blocks = list(enlarged.parts[t])
    merged = tuple(sorted(blocks[j] + blocks[k]))
    rest = [b for idx, b in enumerate(blocks) if idx not in (j, k)]
    parts = list(enlarged.parts)
    parts[t] = tuple(rest + [merged])
    return parts


def test_enlargement_is_minimal(ex1):
    # dropping any split of G inside an F-block breaks either the filtration
    # property or the stopping-time property of tau
    space, filt, enlarged, tau = ex1.space, ex1.filt, ex1.enlarged, ex1.tau
    for t in space.times:
        blocks = enlarged.parts[t]
        for j in range(len(blocks)):
            for k in range(j + 1, len(blocks)):
                same_f_block = filt.block_of(t, blocks[j][0]) == filt.block_of(
                    t, blocks[k][0]
                )
                if not same_f_block:
                    continue
                parts = _merged_variant(enlarged, t, j, k)
                try:
                    candidate = Filtration(tuple(parts))
                except ValueError:
                    continue  # refinement broke: split was necessary
                assert not check_stopping_time(tau, candidate, space)


def test_enlargement_minimality_on_random_instances():
    for seed in range(40):
        inst = random_instance(seed)
        enlarged = enlarge(inst.filtration, inst.tau, inst.space)
        for t in inst.space.times:
            blocks = enlarged.parts[t]
            for j in range(len(blocks)):
                for k in range(j + 1, len(blocks)):
                    if inst.filtration.block_of(t, blocks[j][0]) != inst.filtration.block_of(t, blocks[k][0]):
                        continue
                    parts = _merged_variant(enlarged, t, j, k)
                    try:
                        candidate = Filtration(tuple(parts))
                    except ValueError:
                        continue
                    assert not check_stopping_time(inst.tau, candidate, inst.space)


@pytest.mark.parametrize(
    "formula",
    [
        compensator_of_stopped,
        compensator_of_rescaled,
        g_martingale_part,
        projection_transfer_identities,
    ],
)
def test_transfer_formulas_reject_a_dead_survival_inside_the_interval(formula, ex1):
    # a bundle whose Z_- or Zt vanishes on ]0, tau] (here: the bundle of the
    # model's own time, paired by ``replace`` with a random time that never
    # comes) breaks the engine invariant; every formula dividing by Z_- or
    # by Zt reports it
    inst = random_instance(1)
    never = RandomTime.constant(inst.space, INF)
    b = replace(azema(inst.filtration, inst.tau, inst.space), tau=never)
    M = b.m if formula is g_martingale_part else AdaptedProcess.zero(inst.space)
    with pytest.raises(StructuralViolation, match="Z_- vanished"):
        formula(M, b)
    if formula in (compensator_of_rescaled, projection_transfer_identities):
        # ex1: Zt_2 = 0 on {a, c} while Z_1 = 1/2, and dm_2 is nonzero there
        b1 = replace(ex1.bundle, tau=RandomTime.constant(ex1.space, INF))
        with pytest.raises(StructuralViolation, match="Zt vanished"):
            formula(b1.m, b1)
        # the jump-date weight u = Z_-/Zt and the deflator kernel divide by
        # Zt on ]0, tau] too
        with pytest.raises(StructuralViolation, match="Zt vanished"):
            jump_time_measures(2, b1)
        with pytest.raises(StructuralViolation, match="Zt vanished"):
            build_deflator(b1)


def test_transfer_identities_on_random_instances():
    for seed in range(120):
        inst = random_instance(seed)
        b = azema(inst.filtration, inst.tau, inst.space)
        rng = random.Random(seed + 1)
        V = random_adapted(inst.space, inst.filtration, rng)
        closed = compensator_of_stopped(V, b)
        direct = dual_predictable(stop(V, inst.tau), b.enlarged, inst.space)
        assert closed.values == direct.values
        compensator_of_rescaled(V, b)
        assert projection_transfer_identities(b.m, b).consistent
