import random
from fractions import Fraction as F

import pytest

from randomhorizon.enlargement import azema, enlarge
from randomhorizon.errors import EngineError, NotAdapted, PreconditionViolated
from randomhorizon.generator import random_instance, random_martingale
from randomhorizon.nupbr import (
    certify_nupbr,
    masked_increment_criterion,
    masked_increment_criterion_all,
    preservation_report,
    single_jump_equivalences,
    single_jump_martingale_transfer,
    thin_set_empty,
    thin_set_empty_at,
    witness_martingale,
)
from randomhorizon.projections import is_martingale
from randomhorizon.space import RandomTime, INF, stop

from helpers import (
    children,
    constant,
    constant_time,
    from_function,
    martingale_measure_from_weights,
    random_predictable_fv,
    scale,
    unadapted_price,
)


def test_certify_base_fixture(ex1):
    res = certify_nupbr(ex1.price, ex1.filt, ex1.space)
    assert res.verdict
    root = res.node_weights[0]
    assert root.time == 1 and root.weights == (F(1, 2), F(1, 2))


def test_certify_stopped_fixture_fails(ex1):
    res = certify_nupbr(stop(ex1.price, ex1.tau), ex1.enlarged, ex1.space)
    assert not res.verdict
    assert res.arbitrage.time == 2
    assert res.arbitrage.block == ("b",)
    assert res.arbitrage.theta == (F(-1),)


def test_certify_martingale_always_passes(ex1):
    rng = random.Random(0)
    for _ in range(10):
        M = random_martingale(ex1.space, ex1.filt, rng)
        assert certify_nupbr(M, ex1.filt, ex1.space).verdict


def test_weights_reassemble_martingale_measure(ex1):
    res = certify_nupbr(ex1.price, ex1.filt, ex1.space)
    q = martingale_measure_from_weights(res, ex1.filt, ex1.space)
    assert all(w > 0 for w in q)
    assert ex1.space.expectation(q) == 1
    assert is_martingale(ex1.price, ex1.filt, weights=q)


def test_certify_scale_invariance(ex1):
    for c in (F(1, 7), F(3), F(12, 5)):
        assert certify_nupbr(scale(ex1.price, c), ex1.filt, ex1.space).verdict
        scaled = scale(stop(ex1.price, ex1.tau), c)
        assert not certify_nupbr(scaled, ex1.enlarged, ex1.space).verdict


def test_single_jump_equivalences_fixtures(ex1, ex2):
    for ctx, expected in ((ex1, False), (ex2, True)):
        xi = [ctx.price.delta_at(2, i) for i in range(4)]
        rec = single_jump_equivalences(xi, 2, ctx.bundle)
        assert rec.consistent
        assert rec.stopped_in_enlarged is expected
        assert rec.masked_in_base is expected
        assert rec.under_jump_measure is expected
        assert rec.under_ratio_measure is expected


def test_single_jump_zero_passes(ex1):
    xi = [(F(0),) for _ in range(4)]
    rec = single_jump_equivalences(xi, 2, ex1.bundle)
    assert rec.consistent and rec.stopped_in_enlarged


def test_single_jump_requires_measurable_xi(ex1):
    # not constant on the time-1 partition used as jump date T=1
    xi = [(F(1),), (F(-1),), (F(0),), (F(0),)]
    with pytest.raises(EngineError):
        single_jump_equivalences(xi, 1, ex1.bundle)


@pytest.mark.parametrize("check", [single_jump_equivalences, single_jump_martingale_transfer])
@pytest.mark.parametrize("cells", [3, 5])
def test_single_jump_checks_need_one_xi_cell_per_atom(ex1, check, cells):
    # checked before measurability: a short xi raised a bare IndexError and
    # a long one a TypeError from deep inside the checks
    with pytest.raises(ValueError, match="one cell per atom"):
        check([(F(0),)] * cells, 2, ex1.bundle)


@pytest.mark.parametrize("check", [single_jump_equivalences, single_jump_martingale_transfer])
def test_single_jump_checks_need_xi_cells_of_one_length(ex1, check):
    with pytest.raises(ValueError, match="cell dimension mismatch"):
        check([(F(0),)] * 3 + [(F(0), F(0))], 2, ex1.bundle)


def test_thin_set_empty_at(ex1, ex2):
    assert not thin_set_empty_at(ex1.bundle, 2)
    assert thin_set_empty_at(ex1.bundle, 1)
    assert thin_set_empty_at(ex2.bundle, 1)
    assert thin_set_empty_at(ex2.bundle, 2)
    assert thin_set_empty(ex2.bundle) and not thin_set_empty(ex1.bundle)


@pytest.mark.parametrize("T", [0, 3, 99, -1])
def test_thin_set_empty_at_rejects_dates_off_the_jump_grid(ex1, T):
    # ex1 has horizon 2: the collapse inclusion is claimed for T in {1, 2} only
    with pytest.raises(ValueError, match="jump date"):
        thin_set_empty_at(ex1.bundle, T)


def test_witness_martingale_values(ex1):
    M = witness_martingale(2, ex1.bundle)
    assert [M.scalar_at(2, i) for i in range(4)] == [F(1, 2), F(-1, 2), F(1, 2), F(-1, 2)]
    assert is_martingale(M, ex1.filt)
    assert not certify_nupbr(stop(M, ex1.tau), ex1.enlarged, ex1.space).verdict


def test_witness_martingale_trivial_when_no_collapse(ex1, ex2):
    M = witness_martingale(2, ex2.bundle)
    assert certify_nupbr(stop(M, ex2.tau), ex2.enlarged, ex2.space).verdict
    b = azema(ex1.filt, constant_time(ex1.space, INF))
    M = witness_martingale(2, b)
    assert all(M.scalar_at(t, i) == 0 for t in ex1.space.times for i in range(4))


def test_witness_contract_per_date(ex1, ex2):
    for ctx in (ex1, ex2):
        for T in (1, 2):
            M = witness_martingale(T, ctx.bundle)
            fails = not certify_nupbr(stop(M, ctx.tau), ctx.enlarged, ctx.space).verdict
            assert fails == (not thin_set_empty_at(ctx.bundle, T))


def test_masked_increment_criterion_fixtures(ex1, ex2):
    assert not masked_increment_criterion(ex1.price, ex1.bundle, F(1, 4))
    assert masked_increment_criterion(ex2.price, ex2.bundle, F(1, 4))
    const = constant(ex1.space, F(3))
    assert masked_increment_criterion(const, ex1.bundle, F(1, 4))


def test_masked_criterion_contract(ex1, ex2):
    for ctx in (ex1, ex2):
        rec = masked_increment_criterion_all(ctx.price, ctx.bundle)
        assert rec.consistent
        Z, space = ctx.bundle.Z, ctx.space
        positive = {Z.scalar_at(t, i) for t in range(space.horizon) for i in range(space.n)}
        positive.discard(0)
        assert set(rec.per_delta) == positive  # the thresholds are the positive values of Z_-


def test_masked_criterion_all_matches_each_threshold():
    mixed = 0
    for seed in range(50):
        inst = random_instance(seed)
        b = azema(inst.filtration, inst.tau)
        rec = masked_increment_criterion_all(inst.price, b)
        expected = {d: masked_increment_criterion(inst.price, b, d) for d in rec.per_delta}
        assert rec.per_delta == expected, seed
        mixed += len(set(rec.per_delta.values())) == 2
    assert mixed > 0  # some instance passes at high thresholds and fails at low ones


@pytest.mark.parametrize("bad", [F(0), F(-1, 2)])
def test_masked_criterion_rejects_nonpositive_threshold(ex2, bad):
    with pytest.raises(ValueError):
        masked_increment_criterion(ex2.price, ex2.bundle, bad)


def test_masked_criterion_rejects_an_unadapted_price():
    space, filt, S = unadapted_price()
    bundle = azema(filt, constant_time(space, INF))
    with pytest.raises(NotAdapted):
        masked_increment_criterion(S, bundle, F(1, 2))
    with pytest.raises(NotAdapted):
        masked_increment_criterion_all(S, bundle)


@pytest.mark.parametrize("T", [-1, 0, 3])
def test_witness_martingale_rejects_a_date_off_the_grid(ex1, T):
    # dates run over 1..horizon, as for jump_time_measures
    with pytest.raises(ValueError):
        witness_martingale(T, ex1.bundle)


@pytest.mark.parametrize("check", [single_jump_equivalences, single_jump_martingale_transfer])
def test_single_jump_checks_reject_a_date_off_the_grid(ex2, check):
    # the date is checked before xi or Z is read: past the horizon the
    # measurability scan used to index off the filtration, at 0 it judged
    # xi against F_0, and at -1 it read Z at the last date
    xi = [ex2.price.delta_at(2, i) for i in range(ex2.space.n)]
    for T in (-1, 0, ex2.space.horizon + 1):
        with pytest.raises(ValueError, match="jump date must lie in"):
            check(xi, T, ex2.bundle)


def test_masked_criterion_requires_base_nupbr(ex1):
    drift = from_function(ex1.space, lambda t, i: F(t))
    with pytest.raises(PreconditionViolated):
        masked_increment_criterion_all(drift, ex1.bundle)


def test_martingale_transfer_fixtures(ex1, ex2):
    xi1 = [ex1.price.delta_at(2, i) for i in range(4)]
    rec = single_jump_martingale_transfer(xi1, 2, ex1.bundle)
    assert rec.consistent and not rec.thin_mean_zero
    xi2 = [ex2.price.delta_at(2, i) for i in range(4)]
    rec2 = single_jump_martingale_transfer(xi2, 2, ex2.bundle)
    assert rec2.consistent and rec2.thin_mean_zero and rec2.under_jump_measure


def test_martingale_transfer_zero_xi(ex1):
    xi = [(F(0),)] * 4
    rec = single_jump_martingale_transfer(xi, 2, ex1.bundle)
    assert rec.consistent and rec.thin_mean_zero


def test_martingale_transfer_no_horizon(ex1):
    b = azema(ex1.filt, constant_time(ex1.space, INF))
    xi = [ex1.price.delta_at(2, i) for i in range(4)]
    rec = single_jump_martingale_transfer(xi, 2, b)
    assert rec.consistent and rec.thin_mean_zero and rec.under_jump_measure


def test_martingale_transfer_requires_centered_xi(ex1):
    xi = [(F(1),)] * 4
    with pytest.raises(EngineError):
        single_jump_martingale_transfer(xi, 2, ex1.bundle)


def test_preservation_fixtures(ex1, ex2):
    rep1 = preservation_report(ex1.bundle)
    assert not rep1.thin_set_empty and rep1.witness_time == 2
    assert rep1.witness_fails_enlarged and rep1.consistent
    rep2 = preservation_report(ex2.bundle, n_martingales=100)
    assert rep2.thin_set_empty and rep2.preserved == 100 and rep2.consistent


@pytest.mark.parametrize("bad", [-1, -3])
def test_preservation_rejects_a_negative_battery(ex2, bad):
    with pytest.raises(ValueError, match=">= 0"):
        preservation_report(ex2.bundle, n_martingales=bad)


def test_predictable_fv_nupbr_iff_constant(ex1):
    rng = random.Random(5)
    for _ in range(20):
        bad = random_predictable_fv(ex1.space, ex1.filt, rng, nonconstant=True)
        assert not certify_nupbr(bad, ex1.filt, ex1.space).verdict
    flat = random_predictable_fv(ex1.space, ex1.filt, rng, nonconstant=False)
    assert certify_nupbr(flat, ex1.filt, ex1.space).verdict


def test_certify_failure_detects_unbounded_wealth(ex1):
    # a failing node always yields an unbounded one-period profit direction
    from randomhorizon.deflator import verify_deflator

    one = constant(ex1.space, F(1))
    stopped = stop(ex1.price, ex1.tau)
    assert not certify_nupbr(stopped, ex1.enlarged, ex1.space).verdict
    verdict = verify_deflator(one, stopped, ex1.enlarged)
    assert not verdict.passed and verdict.worst.unbounded


def _death_minus_one(bundle, space):
    vals = []
    for i in range(space.n):
        d = bundle.death.at(i)
        if d is INF:
            vals.append(INF)
        else:
            vals.append(max(d - 1, 0))
    return RandomTime(tuple(vals))


def test_stopping_before_trouble_on_random_instances():
    # stopping strictly before the survival death time makes the stopped
    # certificate match the masked criterion restricted to those nodes
    for seed in range(80):
        inst = random_instance(seed)
        space, filt, tau = inst.space, inst.filtration, inst.tau
        b = azema(filt, tau)
        enlarged = enlarge(filt, tau)
        sigma = _death_minus_one(b, space)
        both = RandomTime(
            tuple(min(sigma.at(i), tau.at(i)) for i in range(space.n))
        )
        lhs = certify_nupbr(stop(inst.price, both), enlarged, space).verdict
        rhs = True
        for t in range(1, space.horizon + 1):
            for parent_idx, parent in enumerate(filt.parts[t - 1]):
                if any(b.Z.scalar_at(s, parent[0]) == 0 for s in range(t)):
                    continue  # sigma already stopped this node
                deltas = []
                for j in children(filt, t, parent_idx):
                    child = filt.parts[t][j]
                    if b.Ztilde.scalar_at(t, child[0]) > 0:
                        deltas.append(inst.price.delta_at(t, child[0]))
                from randomhorizon.lp import zero_in_relative_interior

                ok, _ = zero_in_relative_interior(deltas)
                if not ok:
                    rhs = False
        assert lhs == rhs, seed



def test_single_jump_certificate_decides_only_the_jump_date(monkeypatch):
    from randomhorizon import nupbr
    from randomhorizon.nupbr import single_jump_process

    calls = []
    original = nupbr.zero_in_relative_interior
    monkeypatch.setattr(
        nupbr, "zero_in_relative_interior", lambda deltas: calls.append(deltas) or original(deltas)
    )
    moving = 0
    for seed in range(40):
        inst = random_instance(seed)
        space, filt = inst.space, inst.filtration
        for T in range(1, space.horizon + 1):
            xi = [inst.price.delta_at(T, i) for i in range(space.n)]
            calls.clear()
            res = certify_nupbr(single_jump_process(xi, T, space), filt, space)
            # every date-T node when the jump moves, no node of another date
            decided = len(filt.parts[T - 1]) if any(map(any, xi)) else 0
            assert res.verdict and len(calls) == decided
            assert [nw.time for nw in res.node_weights] == [
                t for t in range(1, space.horizon + 1) for _ in filt.parts[t - 1]
            ]
            assert len(calls) == decided  # the witness is built without an LP
            moving += decided > 0
    assert moving > 50


def test_cert_result_carries_exactly_one_witness():
    from randomhorizon.nupbr import Arbitrage, CertResult

    arb = Arbitrage(1, ("a",), ((F(1),),))
    with pytest.raises(ValueError):
        CertResult(True)
    with pytest.raises(ValueError):
        CertResult(True, node_weights=(), arbitrage=arb)
    with pytest.raises(ValueError):
        CertResult(True, node_weights=lambda: (), arbitrage=arb)
    with pytest.raises(ValueError):
        CertResult(False)
    with pytest.raises(ValueError):
        CertResult(False, node_weights=(), arbitrage=arb)
    assert CertResult(True, node_weights=lambda: ()) == CertResult(True, node_weights=())
    assert CertResult(False, arbitrage=arb).node_weights is None


def test_theorem_suite_builds_mhat_and_the_bracket_of_m_once(monkeypatch):
    import sys

    from randomhorizon import enlargement, projections
    from randomhorizon.campaign import theorem_suite

    seen = {}
    for module, name in ((enlargement, "g_martingale_part"), (projections, "quadratic_covariation")):
        original = getattr(module, name)
        calls = seen[name] = []

        def wrapper(*args, _original=original, _calls=calls):
            _calls.append(args)
            return _original(*args)

        # every module that imported the function by name
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("randomhorizon"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)
    for seed in (0, 3, 7):
        for calls in seen.values():
            calls.clear()
        bundle, _, _ = theorem_suite(random_instance(seed), battery=5, seed=seed)
        assert sum(args[0] is bundle.m for args in seen["g_martingale_part"]) == 1
        assert [a for a in seen["quadratic_covariation"] if a[0] is bundle.m] == [
            (bundle.m, bundle.m)
        ]


def test_survival_weights_keep_exactly_the_nodes_where_z_is_positive(ex1, ex2):
    # Z_{t-1} = E[Zt_t | F_{t-1}]: the masked criterion's nodes (Z_{t-1} > 0)
    # are the positive-mass parents of Filtration.nodes under the weights Zt_t
    bundles = [ex1.bundle, ex2.bundle] + [
        azema(inst.filtration, inst.tau)
        for inst in map(random_instance, range(120))
    ]
    for b in bundles:
        for t in range(1, b.space.horizon + 1):
            zt = [c[0] for c in b.Ztilde.values[t]]
            kept = [parent for parent, _ in b.filt.nodes(t, zt)]
            assert kept == [p for p in b.filt.parts[t - 1] if b.Z.scalar_at(t - 1, p[0]) > 0]
