"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with ``-s`` to
see them on success).  Criteria 1-3 and 5 run on the full battery of 1000
seeded random instances (at most 12 atoms, 4 steps) with exact rational
tolerances -- zero.  Criterion 4 pins the shipped fixtures.  Criterion 6
is the statistical surrogate for the continuous-path results: fixed seed,
100k paths, step 1e-3, three-standard-error checkpoints plus the
four-standard-error survival-formula validation.
"""

import hashlib
import random
import time
from fractions import Fraction as F

from randomhorizon.campaign import _projection_identities, run_campaign
from randomhorizon.cli import VALIDATION_POINTS
from randomhorizon.deflator import build_deflator, is_supermartingale, verify_deflator
from randomhorizon.enlargement import azema
from randomhorizon.generator import random_instance
from randomhorizon.io import dump_json
from randomhorizon.mc import McModel, simulate, validate_survival_formula
from randomhorizon.nupbr import certify_nupbr, thin_set_empty
from randomhorizon.space import stop

from helpers import random_predictable_fv

INSTANCES = 1000
MC_PATHS = 100_000
MC_DT = 1e-3
MC_SEED = 0
# sha256 of dump_json(run_campaign(1000, seed=0, battery=100)): the report is
# byte-identical for a fixed (instances, seed, battery)
CRITERION_3_SHA256 = "1e8774cd67042d71772784c4cec9ef7398dc1f3f3d84d8c07d07a9bea9bae00c"


def _verdict(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_criterion_1_projection_identities():
    start = time.monotonic()
    failures = []
    for seed in range(INSTANCES):
        inst = random_instance(seed)
        bundle = azema(inst.filtration, inst.tau)
        flags = _projection_identities(inst.price, bundle)
        if not all(flags.values()):
            failures.append((seed, flags))
    elapsed = time.monotonic() - start
    _verdict(
        "criterion 1 (projection identities, exact, 1000 instances)",
        not failures and elapsed <= 120.0,
        f"failures={failures[:3]} elapsed={elapsed:.1f}s (limit 120s)",
    )


def test_criterion_2_deflator_suite():
    failures = []
    for seed in range(INSTANCES):
        inst = random_instance(seed)
        bundle = azema(inst.filtration, inst.tau)
        enlarged = bundle.enlarged
        try:
            # the builder itself re-derives the closed form of the jumps and
            # asserts 1 + dL > 0, the driver martingale property and
            # positivity of the exponential
            deflators = build_deflator(bundle)
        except Exception as exc:  # noqa: BLE001 - any failure breaks the criterion
            failures.append((seed, repr(exc)))
            continue
        if not is_supermartingale(deflators.deflator, enlarged):
            failures.append((seed, "exponential is not a supermartingale"))
            continue
        if thin_set_empty(bundle):
            verdict = verify_deflator(
                deflators.deflator, stop(inst.price, inst.tau), enlarged
            )
            if not verdict.passed:
                failures.append((seed, "deflator fails on thin-free instance"))
    _verdict(
        "criterion 2 (deflator suite, exact, 1000 instances)",
        not failures,
        f"failures={failures[:3]}",
    )


def test_criterion_3_theorem_equivalence_campaign():
    report = run_campaign(INSTANCES, seed=0, battery=100)
    thin_empty = sum(1 for r in report["per_instance"] if r["thin_set_empty"])
    digest = hashlib.sha256(dump_json(report).encode()).hexdigest()
    detail = (
        f"violations={report['violations_total']} "
        f"thin-free={thin_empty}/{INSTANCES} sha256={digest}"
    )
    both_branches = 0 < thin_empty < INSTANCES
    _verdict(
        "criterion 3 (theorem-equivalence campaign, 1000 instances)",
        report["violations_total"] == 0 and both_branches and digest == CRITERION_3_SHA256,
        detail,
    )


def test_criterion_4_fixture_regression(ex1, ex2):
    checks = []
    b = ex1.bundle

    checks.append(("Z_1", [b.Z.scalar_at(1, i) for i in range(4)] == [F(1, 2)] * 4))
    checks.append(("thin set", b.thin_mask == frozenset({("a", 2), ("c", 2)})))
    checks.append(
        ("m_2", [b.m.scalar_at(2, i) for i in range(4)] == [F(1, 2), F(3, 2), F(1, 2), F(3, 2)])
    )
    from randomhorizon.enlargement import jump_time_measures

    measures = jump_time_measures(2, b)
    checks.append(("dQ_2/dP", measures.q == (F(0), F(2), F(0), F(2))))
    checks.append(("U_G(2)", measures.u_enlarged == (F(1), F(1, 2), F(1), F(1, 2))))
    checks.append(
        (
            "deflator_2",
            [ex1.deflators.deflator.scalar_at(2, i) for i in range(4)]
            == [F(1), F(1, 2), F(1), F(1, 2)],
        )
    )
    res_f = certify_nupbr(ex1.price, ex1.filt, ex1.space)
    res_g = certify_nupbr(stop(ex1.price, ex1.tau), ex1.enlarged, ex1.space)
    checks.append(("NUPBR base", res_f.verdict is True))
    checks.append(("NUPBR stopped", res_g.verdict is False))
    checks.append(("witness node", res_g.arbitrage.block == ("b",) and res_g.arbitrage.time == 2))

    checks.append(("second fixture thin set empty", thin_set_empty(ex2.bundle)))
    res2 = certify_nupbr(stop(ex2.price, ex2.tau), ex2.enlarged, ex2.space)
    checks.append(("second fixture NUPBR stopped", res2.verdict is True))

    bad = [name for name, ok in checks if not ok]
    _verdict("criterion 4 (fixture regression, exact)", not bad, f"failed={bad}")


def test_criterion_5_predictable_finite_variation():
    failures = []
    rng = random.Random(2024)
    for k in range(100):
        inst = random_instance(3_000 + k)
        bad = random_predictable_fv(inst.space, inst.filtration, rng, nonconstant=True)
        if certify_nupbr(bad, inst.filtration, inst.space).verdict:
            failures.append(("nonconstant passed", k))
        flat = random_predictable_fv(inst.space, inst.filtration, rng, nonconstant=False)
        if not certify_nupbr(flat, inst.filtration, inst.space).verdict:
            failures.append(("constant failed", k))
    _verdict(
        "criterion 5 (predictable finite variation certifies iff constant)",
        not failures,
        f"failures={failures[:3]}",
    )


def test_criterion_6_monte_carlo():
    start = time.monotonic()
    model = McModel(model="CAT-1", dt=MC_DT, paths=MC_PATHS, seed=MC_SEED)
    result = simulate(model)
    lines = []
    ok = True
    for t, est, se, ctrl, cse in zip(
        result.checkpoints,
        result.estimates,
        result.standard_errors,
        result.control_estimates,
        result.control_standard_errors,
    ):
        good = abs(est - 1.0) <= 3.0 * se
        ok &= good
        lines.append(
            f"t={t}: deflated {est:.4f}+-{se:.4f} ({'ok' if good else 'OUT'}), "
            f"undeflated control {ctrl:.4f}+-{cse:.4f}"
        )
    for k, (t, x) in enumerate(VALIDATION_POINTS):
        v = validate_survival_formula(model, t, x, MC_PATHS, point_id=k)
        good = abs(v.estimate - v.closed_form) <= 4.0 * v.standard_error
        ok &= good
        lines.append(
            f"Z({t},{x}): closed {v.closed_form:.4f} vs {v.estimate:.4f}"
            f"+-{v.standard_error:.4f} ({'ok' if good else 'OUT'})"
        )
    elapsed = time.monotonic() - start
    ok &= elapsed <= 300.0
    _verdict(
        "criterion 6 (Monte Carlo, 3 SE checkpoints + 4 SE formula validation)",
        ok,
        f"elapsed={elapsed:.0f}s (limit 300s)\n  " + "\n  ".join(lines),
    )
