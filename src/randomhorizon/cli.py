"""Command-line interface.

Subcommands::

    inspect  SCENARIO     survival tables (Z, Zt, m, compensator, thin set)
    certify  SCENARIO     NUPBR certificates for S in F and S^tau in G
    theorems SCENARIO     full equivalence report for the scenario
    witness  SCENARIO     abrupt-collapse counterexample martingale, if any
    campaign --instances N --seed K [--battery B]
                          randomized equivalence campaign
    mc --model CAT-1 [--paths N --dt DT --seed K --subpaths N --validate-z]
                          Monte Carlo run for a catalog model

Each report builds only what it prints: ``inspect`` the Azema bundle,
``certify`` the enlargement, ``witness`` both; ``theorems`` runs
:func:`randomhorizon.campaign.theorem_suite`, the suite behind ``campaign``,
and adds the per-time collapse inclusion.  Reports are printed as JSON on
stdout; ``--out DIR`` additionally writes ``<command>.json`` plus CSV tables
built from the report alone.  Exit codes: 0 ok, 1 input error (``mc``
arguments included, checked before any simulation), 2 equivalence
violation, 3 runtime failure (internal errors included); a negative
``--battery`` is an input error found before any work.  The only
environment knob is RANDOMHORIZON_JOBS, the campaign worker count: an
integer >= 0 (unset, empty or 0 run sequentially, anything else exits 1
``schema``), capped at the instance count and the CPU count.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

from . import io as rio
from .campaign import run_campaign, theorem_suite
from .enlargement import azema, enlarge
from .errors import EngineError, InvalidScenario
from .io import Scenario, format_fraction, format_time
from .nupbr import certify_nupbr, collapse_witness, thin_set_empty_at
from .space import stop

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_EQUIVALENCE = 2
EXIT_RUNTIME = 3


def _paths(X, space) -> dict:
    """Per atom name, the formatted path of the scalar process X."""
    return {
        a: [format_fraction(X.scalar_at(t, i)) for t in space.times]
        for i, a in enumerate(space.atoms)
    }


def inspect_report(sc: Scenario) -> dict:
    bundle = azema(sc.filtration, sc.tau, sc.space)
    space = sc.space
    return {
        "atoms": list(space.atoms),
        "horizon": space.horizon,
        "Z": _paths(bundle.Z, space),
        "Z_tilde": _paths(bundle.Ztilde, space),
        "m": _paths(bundle.m, space),
        "default_compensator": _paths(bundle.default_compensator, space),
        "thin_set": sorted([[a, t] for (a, t) in bundle.thin_mask]),
        "death": {a: format_time(bundle.death.at(i)) for i, a in enumerate(space.atoms)},
        "sudden_death": {
            a: format_time(bundle.sudden_death.at(i)) for i, a in enumerate(space.atoms)
        },
    }


def _witness_doc(result):
    if result.verdict:
        return {
            "verdict": True,
            "deflator_weights": [
                {
                    "time": nw.time,
                    "block": list(nw.block),
                    "children": [list(c) for c in nw.children],
                    "weights": [format_fraction(w) for w in nw.weights],
                }
                for nw in result.node_weights
            ],
        }
    return {
        "verdict": False,
        "arbitrage_node": {
            "time": result.arbitrage.time,
            "block": list(result.arbitrage.block),
            "theta": [format_fraction(v) for v in result.arbitrage.theta],
        },
    }


def certify_report(sc: Scenario) -> dict:
    enlarged = enlarge(sc.filtration, sc.tau, sc.space)
    res_f = certify_nupbr(sc.price, sc.filtration, sc.space)
    res_g = certify_nupbr(stop(sc.price, sc.tau), enlarged, sc.space)
    doc = {
        "nupbr_F": res_f.verdict,
        "nupbr_G_stopped": res_g.verdict,
        "witness_F": _witness_doc(res_f),
        "witness_G": _witness_doc(res_g),
    }
    if not res_g.verdict:
        doc["arbitrage_node"] = doc["witness_G"]["arbitrage_node"]
    return doc


def theorems_report(sc: Scenario, battery: int = 100, seed: int = 0) -> dict:
    bundle, sections, violations = theorem_suite(sc, battery, seed)
    return {
        **sections,
        "collapse_inclusion_by_time": {
            str(T): thin_set_empty_at(bundle, T) for T in range(1, sc.space.horizon + 1)
        },
        "consistent": not violations,
    }


def witness_report(sc: Scenario) -> dict:
    witness = collapse_witness(azema(sc.filtration, sc.tau, sc.space))
    if witness is None:
        return {"thin_set_empty": True, "witness": None}
    T, M, res = witness
    return {
        "thin_set_empty": False,
        "witness": {
            "time": T,
            "values": _paths(M, sc.space),
            "stopped_satisfies_nupbr": res.verdict,
            "certificate": _witness_doc(res),
        },
    }


def _emit(doc: dict, args, tables=None) -> None:
    """Print the report; under ``--out`` also write it and ``tables(doc)``."""
    sys.stdout.write(rio.dump_json(doc))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        rio.write_json(doc, out / f"{args.command}.json")
        for name, (header, rows) in (tables(doc) if tables else {}).items():
            rio.write_csv(rows, header, out / f"{args.command}_{name}.csv")


def _inspect_tables(doc):
    header = ["atom", "t", "Z", "Z_tilde", "m", "default_compensator", "thin"]
    thin = {(a, t) for a, t in doc["thin_set"]}
    rows = [
        [a, t, z, zt, m, comp, int((a, t) in thin)]
        for a in doc["atoms"]
        for t, (z, zt, m, comp) in enumerate(
            zip(doc["Z"][a], doc["Z_tilde"][a], doc["m"][a], doc["default_compensator"][a])
        )
    ]
    return {"table": (header, rows)}


def _certify_tables(doc):
    header = ["side", "verdict", "witness_time", "witness_block", "theta_or_weights"]
    rows = []
    for side in ("F", "G"):
        w = doc[f"witness_{side}"]
        if w["verdict"]:
            rows.append([side, True, "", "", "martingale-measure weights in JSON"])
        else:
            node = w["arbitrage_node"]
            rows.append(
                [side, False, node["time"], ";".join(node["block"]), ";".join(node["theta"])]
            )
    return {"nodes": (header, rows)}


def _theorems_tables(doc):
    return {"summary": (["check", "consistent"], [["overall", doc["consistent"]]])}


def _campaign_tables(doc):
    header = ["seed", "atoms", "horizon", "thin_set_empty", "violations"]
    rows = [
        [r["seed"], r["atoms"], r["horizon"], r["thin_set_empty"], ";".join(r["violations"])]
        for r in doc["per_instance"]
    ]
    return {"instances": (header, rows)}


def _mc_tables(doc):
    header = ["t", "estimate", "standard_error", "control", "control_standard_error"]
    rows = [
        [t, e, s, c, cs]
        for t, e, s, c, cs in zip(
            doc["checkpoints"],
            doc["estimates"],
            doc["standard_errors"],
            doc["control_estimates"],
            doc["control_standard_errors"],
        )
    ]
    tables = {"checkpoints": (header, rows)}
    if doc.get("validation"):
        vh = ["t", "x", "closed_form", "estimate", "standard_error"]
        vr = [
            [v["t"], v["x"], v["closed_form"], v["estimate"], v["standard_error"]]
            for v in doc["validation"]
        ]
        tables["validation"] = (vh, vr)
    return tables


VALIDATION_POINTS = ((0.25, 0.25), (0.5, 0.5), (0.5, 1.5), (0.75, 0.5), (0.9, 0.2))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="randomhorizon",
        description="Exact arbitrage certification up to a random horizon",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("inspect", "certify", "theorems", "witness"):
        sp = sub.add_parser(name)
        sp.add_argument("scenario", help="scenario JSON file")
        sp.add_argument("--out", default=None, help="directory for report files")
        if name == "theorems":
            sp.add_argument("--battery", type=int, default=100)
            sp.add_argument("--seed", type=int, default=0)
    sp = sub.add_parser("campaign")
    sp.add_argument("--instances", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--battery", type=int, default=100)
    sp.add_argument("--out", default=None)
    sp = sub.add_parser("mc")
    sp.add_argument("--model", default="CAT-1")
    sp.add_argument("--paths", type=int, default=100_000)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--subpaths", type=int, default=100_000)
    sp.add_argument("--validate-z", action="store_true")
    sp.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "inspect":
            _emit(inspect_report(rio.load_scenario(args.scenario)), args, _inspect_tables)
            return EXIT_OK
        if args.command == "certify":
            _emit(certify_report(rio.load_scenario(args.scenario)), args, _certify_tables)
            return EXIT_OK
        if args.command in ("theorems", "campaign") and args.battery < 0:
            raise InvalidScenario("schema", "--battery", "must be >= 0")
        if args.command == "theorems":
            doc = theorems_report(
                rio.load_scenario(args.scenario), battery=args.battery, seed=args.seed
            )
            _emit(doc, args, _theorems_tables)
            return EXIT_OK if doc["consistent"] else EXIT_EQUIVALENCE
        if args.command == "witness":
            _emit(witness_report(rio.load_scenario(args.scenario)), args)
            return EXIT_OK
        if args.command == "campaign":
            if args.instances < 0:
                raise InvalidScenario("schema", "--instances", "must be >= 0")
            doc = run_campaign(args.instances, args.seed, battery=args.battery)
            _emit(doc, args, _campaign_tables)
            return EXIT_OK if doc["violations_total"] == 0 else EXIT_EQUIVALENCE
        if args.command == "mc":
            from . import mc as mcmod  # numpy and scipy load for this command only

            if args.subpaths < 1:
                raise InvalidScenario("schema", "--subpaths", "need subpaths >= 1")
            try:
                model = mcmod.McModel(
                    model=args.model, dt=args.dt, paths=args.paths, seed=args.seed
                )
                if args.validate_z:
                    model.check_validation_times([t for t, _ in VALIDATION_POINTS])
            except mcmod.McParameterError as exc:
                raise InvalidScenario("schema", f"--{exc.field}", exc.reason) from None
            if args.validate_z and args.model != "CAT-1":
                raise InvalidScenario("schema", "--validate-z", "only CAT-1 has a survival formula")
            doc = asdict(mcmod.simulate(model))
            if args.validate_z:
                doc["validation"] = [
                    asdict(mcmod.validate_survival_formula(model, t, x, args.subpaths, k))
                    for k, (t, x) in enumerate(VALIDATION_POINTS)
                ]
            _emit(doc, args, _mc_tables)
            return EXIT_OK
        raise AssertionError("unreachable")
    except InvalidScenario as exc:
        sys.stderr.write(
            rio.dump_json({"error": exc.code, "location": exc.location, "message": exc.reason})
        )
        return EXIT_INPUT
    except OSError as exc:
        sys.stderr.write(rio.dump_json({"error": "io", "message": str(exc)}))
        return EXIT_INPUT
    except (EngineError, ValueError) as exc:
        sys.stderr.write(rio.dump_json({"error": "runtime", "message": str(exc)}))
        return EXIT_RUNTIME
    except Exception as exc:  # an engine bug, never an input error
        sys.stderr.write(
            rio.dump_json(
                {
                    "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
            )
        )
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
