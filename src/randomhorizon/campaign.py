"""Theorem suite and randomized equivalence campaign.

:func:`theorem_suite` pushes one model through every identity and
equivalence the engine certifies exactly: the compensator and projection
transfer formulas, the deflator construction, the single-jump quadruple,
the masked-increment contract, the martingale-transfer triple and both
directions of the universal-preservation dichotomy.  The campaign runs it
on seeded generator instances and the CLI ``theorems`` command on a
scenario file.  Any disagreement is a build-breaking violation (exit code 2
at the CLI).

Reports are deterministic functions of (instances, seed, battery): no
timestamps, stable key order, rationals as "p/q" strings.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .deflator import build_deflator, is_supermartingale, verify_deflator
from .enlargement import (
    azema,
    compensator_of_rescaled,
    compensator_of_stopped,
    g_martingale_part,
    projection_transfer_identities,
)
from .errors import EngineError, InvalidScenario, PreconditionViolated
from .generator import random_instance
from .io import format_fraction
from .nupbr import (
    masked_increment_criterion_all,
    preservation_report,
    single_jump_equivalences,
    single_jump_martingale_transfer,
    thin_set_empty,
)
from .projections import dual_predictable, is_martingale
from .space import condexp_cells, stop

JOBS_ENV = "RANDOMHORIZON_JOBS"


def _projection_identities(price, bundle):
    space = bundle.space
    qv = bundle.m_bracket  # [m, m]
    out = {}
    ok = True
    for V in (bundle.default_compensator, qv):
        closed = compensator_of_stopped(V, bundle)
        direct = dual_predictable(stop(V, bundle.tau), bundle.enlarged, space)
        ok = ok and closed.values == direct.values
    out["stopped_compensator"] = ok
    try:
        compensator_of_rescaled(qv, bundle)
        compensator_of_rescaled(price, bundle)
        out["rescaled_compensator"] = True
    except EngineError:
        out["rescaled_compensator"] = False
    try:
        out["projection_ratios"] = projection_transfer_identities(bundle.m, bundle).consistent
    except EngineError:
        out["projection_ratios"] = False
    try:
        bundle.mhat  # built and checked to be a G-martingale on first read
        if is_martingale(price, bundle.filt, space):
            g_martingale_part(price.component(0), bundle)
            out["martingale_part"] = True
        else:
            out["martingale_part"] = None  # not applicable: no F-martingale price
    except EngineError:
        out["martingale_part"] = False
    out["survival_identity"] = all(
        bundle.Ztilde.scalar_at(t, i)
        == bundle.Z.scalar_at(t - 1, i) + bundle.m.delta_at(t, i)[0]
        for t in range(1, space.horizon + 1)
        for i in range(space.n)
    )
    return out


def _deflator_suite(price, bundle):
    space, enlarged = bundle.space, bundle.enlarged
    out = {}
    try:
        deflators = build_deflator(bundle)
        out["construction"] = True
    except EngineError:
        out["construction"] = False
        out["supermartingale"] = False
        out["deflates_stopped_price"] = None
        return out
    out["supermartingale"] = is_supermartingale(deflators.deflator, enlarged, space)
    if thin_set_empty(bundle):
        verdict = verify_deflator(
            deflators.deflator, stop(price, bundle.tau), enlarged, space
        )
        out["deflates_stopped_price"] = verdict.passed
    else:
        out["deflates_stopped_price"] = None
    return out


def theorem_suite(model, battery: int = 100, seed: int = 0):
    """Every identity and equivalence of the engine on one model.

    ``model`` is anything with ``space``, ``filtration``, ``tau`` and
    ``price`` (a scenario file or a generator instance); ``battery`` and
    ``seed`` drive the preservation battery.  Returns the Azema bundle, the
    report sections and the sorted list of violated checks."""
    space, filt, price = model.space, model.filtration, model.price
    bundle = azema(filt, model.tau, space)

    projections = _projection_identities(price, bundle)
    violations = [f"projection:{name}" for name, good in projections.items() if good is False]

    deflator = _deflator_suite(price, bundle)
    if not deflator["construction"]:
        violations.append("deflator:construction")
    if not deflator["supermartingale"]:
        violations.append("deflator:supermartingale")
    if deflator["deflates_stopped_price"] is False:
        violations.append("deflator:deflates_stopped_price")

    single, transfer = [], []
    for T in range(1, space.horizon + 1):
        xi = [price.delta_at(T, i) for i in range(space.n)]
        # the transfer triple takes the martingale part of the jump
        centered = [
            tuple(a - b for a, b in zip(x, p))
            for x, p in zip(xi, condexp_cells(xi, filt.parts[T - 1], space))
        ]
        rec = single_jump_equivalences(xi, T, bundle)
        single.append(
            {
                "T": T,
                "stopped_in_enlarged": rec.stopped_in_enlarged,
                "masked_in_base": rec.masked_in_base,
                "under_jump_measure": rec.under_jump_measure,
                "under_ratio_measure": rec.under_ratio_measure,
                "consistent": rec.consistent,
            }
        )
        if not rec.consistent:
            violations.append(f"single_jump:T={T}")
        mrec = single_jump_martingale_transfer(centered, T, bundle)
        transfer.append(
            {
                "T": T,
                "under_jump_measure": mrec.under_jump_measure,
                "thin_mean_zero": mrec.thin_mean_zero,
                "stopped_under_enlarged_weight": mrec.stopped_under_enlarged_weight,
                "consistent": mrec.consistent,
            }
        )
        if not mrec.consistent:
            violations.append(f"martingale_transfer:T={T}")

    try:
        masked = masked_increment_criterion_all(price, bundle)
    except PreconditionViolated:
        masked_doc = {"precondition_failed": True}
    else:
        masked_doc = {
            "per_delta": {
                format_fraction(d): v for d, v in sorted(masked.per_delta.items())
            },
            "all_deltas": masked.all_deltas,
            "stopped_verdict": masked.stopped_verdict,
            "consistent": masked.consistent,
        }
        if not masked.consistent:
            violations.append("masked_criterion")

    pres = preservation_report(bundle, n_martingales=battery, seed=seed)
    pres_doc = {
        "thin_set_empty": pres.thin_set_empty,
        "martingales_checked": pres.martingales_checked,
        "preserved": pres.preserved,
        "witness_time": pres.witness_time,
        "witness_fails_enlarged": pres.witness_fails_enlarged,
        "consistent": pres.consistent,
    }
    if not pres.consistent:
        violations.append("preservation")

    sections = {
        "projection_identities": projections,
        "deflator": deflator,
        "single_jump": single,
        "martingale_transfer": transfer,
        "masked_criterion": masked_doc,
        "preservation": pres_doc,
    }
    return bundle, sections, sorted(violations)


def instance_report(seed: int, battery: int = 100) -> dict:
    inst = random_instance(seed)
    bundle, sections, violations = theorem_suite(inst, battery, seed)
    return {
        "seed": seed,
        "atoms": inst.space.n,
        "horizon": inst.space.horizon,
        "price_dim": inst.price.dim,
        "thin_set_empty": thin_set_empty(bundle),
        **sections,
        "violations": violations,
    }


def _worker(args):
    seed, battery = args
    return instance_report(seed, battery)


def _jobs_from_env() -> int:
    raw = os.environ.get(JOBS_ENV, "").strip() or "1"
    try:
        jobs = int(raw)
    except ValueError:
        jobs = -1
    if jobs < 0:
        raise InvalidScenario("schema", JOBS_ENV, f"must be an integer >= 0, got {raw[:40]!r}")
    return jobs


def run_campaign(instances: int, seed: int, battery: int = 100, jobs: int = 0) -> dict:
    """Run the equivalence suite on `instances` seeded instances.

    ``jobs`` = 0 reads the RANDOMHORIZON_JOBS environment override (an
    integer >= 0, unset, empty or 0 meaning sequential; anything else is an
    ``InvalidScenario`` ``schema`` error).  At most
    ``min(jobs, instances, os.cpu_count())`` worker processes start.
    Results are assembled in instance order, so the report is byte-identical
    for a given (instances, seed, battery) regardless of the parallelism
    degree."""
    if jobs == 0:
        jobs = _jobs_from_env()
    seeds = [seed + k for k in range(instances)]
    workers = min(jobs, instances, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_worker, [(s, battery) for s in seeds]))
    else:
        reports = [instance_report(s, battery) for s in seeds]
    total = sum(len(r["violations"]) for r in reports)
    return {
        "instances": instances,
        "seed": seed,
        "battery": battery,
        "violations_total": total,
        "per_instance": reports,
    }
