"""Theorem suite and randomized equivalence campaign.

:func:`theorem_suite` pushes one model through every identity and
equivalence the engine certifies exactly: the compensator and projection
transfer formulas, the deflator construction, the single-jump quadruple,
the masked-increment contract, the martingale-transfer triple and both
directions of the universal-preservation dichotomy.  A model is an
:class:`io.Scenario`: the campaign runs the suite on the seeded scenarios
of :func:`generator.random_instance`, the CLI ``theorems`` command on a
scenario file.  Each report section is the record its checker returns
(its fields plus ``consistent``), and the violations are read off the
sections.  Any disagreement is a build-breaking violation (exit code 2 at
the CLI).  A flag whose hypotheses fail is ``null``: ``martingale_part``
and ``deflates_stopped_price`` off F-martingale prices, the latter also
off an empty thin set.

Reports are deterministic functions of (instances, seed, battery): no
timestamps, stable key order, rationals as "p/q" strings.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from functools import partial

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
    out["survival_identity"] = True  # Zt = Z_- + dm: azema raises on any atom where it fails
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
    if thin_set_empty(bundle) and is_martingale(price, bundle.filt, space):
        verdict = verify_deflator(
            deflators.deflator, stop(price, bundle.tau), enlarged, space
        )
        out["deflates_stopped_price"] = verdict.passed
    else:
        out["deflates_stopped_price"] = None
    return out


def _section(record) -> dict:
    """A report section: the record's fields, copied shallowly, plus its
    ``consistent`` verdict."""
    doc = {f.name: getattr(record, f.name) for f in fields(record)}
    doc["consistent"] = record.consistent
    return doc


def theorem_suite(model, battery: int = 100, seed: int = 0):
    """Every identity and equivalence of the engine on one model.

    ``model`` is an :class:`io.Scenario`; ``battery`` and ``seed`` drive
    the preservation battery.  Returns the Azema bundle, the report
    sections and the sorted list of violated checks.

    The projection and deflator sections are flag dicts (``None`` where a
    check does not apply) and every flag that is ``False`` is a violation;
    every other section is the record its checker returns, and it is a
    violation when that record is not ``consistent``."""
    space, filt, price = model.space, model.filtration, model.price
    bundle = azema(filt, model.tau, space)

    projections = _projection_identities(price, bundle)
    deflator = _deflator_suite(price, bundle)
    violations = [
        f"{prefix}:{name}"
        for prefix, flags in (("projection", projections), ("deflator", deflator))
        for name, good in flags.items()
        if good is False
    ]

    single, transfer = [], []
    for T in range(1, space.horizon + 1):
        xi = [price.delta_at(T, i) for i in range(space.n)]
        # the transfer triple takes the martingale part of the jump
        centered = [
            tuple(a - b for a, b in zip(x, p))
            for x, p in zip(xi, condexp_cells(xi, filt.parts[T - 1], space))
        ]
        single.append(_section(single_jump_equivalences(xi, T, bundle)))
        transfer.append(_section(single_jump_martingale_transfer(centered, T, bundle)))
    violations += [f"single_jump:T={d['T']}" for d in single if not d["consistent"]]
    violations += [f"martingale_transfer:T={d['T']}" for d in transfer if not d["consistent"]]

    try:
        masked = _section(masked_increment_criterion_all(price, bundle))
    except PreconditionViolated:
        masked = {"precondition_failed": True}
    else:
        masked["per_delta"] = {
            format_fraction(d): v for d, v in sorted(masked["per_delta"].items())
        }
        if not masked["consistent"]:
            violations.append("masked_criterion")

    pres = _section(preservation_report(bundle, n_martingales=battery, seed=seed))
    if not pres["consistent"]:
        violations.append("preservation")

    sections = {
        "projection_identities": projections,
        "deflator": deflator,
        "single_jump": single,
        "martingale_transfer": transfer,
        "masked_criterion": masked,
        "preservation": pres,
    }
    return bundle, sections, sorted(violations)


def instance_report(seed: int, battery: int = 100) -> dict:
    sc = random_instance(seed)
    bundle, sections, violations = theorem_suite(sc, battery, seed)
    return {
        "seed": seed,
        "atoms": sc.space.n,
        "horizon": sc.space.horizon,
        "price_dim": sc.price.dim,
        "thin_set_empty": thin_set_empty(bundle),
        **sections,
        "violations": violations,
    }


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
            reports = list(pool.map(partial(instance_report, battery=battery), seeds))
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
