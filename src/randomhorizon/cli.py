"""Command-line interface.

Subcommands::

    inspect  SCENARIO     survival tables (Z, Zt, m, compensator, thin set)
    certify  SCENARIO     NUPBR certificates for S in F and S^tau in G
    theorems SCENARIO     full equivalence report for the scenario
    witness  SCENARIO     abrupt-collapse counterexample martingale, if any
    campaign --instances N --seed K [--battery B]
                          randomized equivalence campaign
    mc --model CAT-1 [--paths N --dt DT --seed K --validate-z]
                          Monte Carlo run for a catalog model

Reports are printed as JSON on stdout; ``--out DIR`` additionally writes
``<command>.json`` plus CSV tables.  Exit codes: 0 ok, 1 input error,
2 equivalence violation, 3 runtime failure (internal errors included).  The
only environment knob is RANDOMHORIZON_JOBS (campaign worker count).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from . import io as rio
from .campaign import run_campaign
from .enlargement import azema, enlarge
from .errors import EngineError, InvalidScenario, PreconditionViolated
from .io import Scenario, format_fraction, format_time
from .nupbr import (
    certify_nupbr,
    masked_increment_criterion_all,
    preservation_report,
    single_jump_equivalences,
    single_jump_martingale_transfer,
    thin_set_empty,
    thin_set_empty_at,
    witness_martingale,
)
from .projections import condexp
from .space import stop

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_EQUIVALENCE = 2
EXIT_RUNTIME = 3


def _context(sc: Scenario):
    bundle = azema(sc.filtration, sc.tau, sc.space)
    enlarged = enlarge(sc.filtration, sc.tau, sc.space)
    return bundle, enlarged


def inspect_report(sc: Scenario) -> dict:
    bundle, _ = _context(sc)
    space = sc.space
    def table(X):
        return {
            a: [format_fraction(X.scalar_at(t, i)) for t in space.times]
            for i, a in enumerate(space.atoms)
        }
    return {
        "atoms": list(space.atoms),
        "horizon": space.horizon,
        "Z": table(bundle.Z),
        "Z_tilde": table(bundle.Ztilde),
        "m": table(bundle.m),
        "default_compensator": table(bundle.default_compensator),
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
    bundle, enlarged = _context(sc)
    res_f = certify_nupbr(sc.price, sc.filtration, sc.space)
    res_g = certify_nupbr(stop(sc.price, sc.tau), enlarged, sc.space)
    doc = {
        "nupbr_F": res_f.verdict,
        "nupbr_G_stopped": res_g.verdict,
        "witness_F": _witness_doc(res_f),
        "witness_G": _witness_doc(res_g),
    }
    if not res_g.verdict:
        doc["arbitrage_node"] = _witness_doc(res_g)["arbitrage_node"]
    return doc


def theorems_report(sc: Scenario, battery: int = 100, seed: int = 0) -> dict:
    from .campaign import _deflator_suite, _projection_identities
    from .generator import Instance

    bundle, enlarged = _context(sc)
    space, filt, tau = sc.space, sc.filtration, sc.tau
    inst = Instance(-1, space, filt, tau, sc.price)
    consistent = True

    projections = _projection_identities(inst, bundle, enlarged)
    consistent &= all(projections.values())

    single, transfer, inclusion = [], [], {}
    for T in range(1, space.horizon + 1):
        xi = [sc.price.delta_at(T, i) for i in range(space.n)]
        rec = single_jump_equivalences(xi, T, bundle, filt, enlarged, tau, space)
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
        consistent &= rec.consistent
        projs = [
            condexp([xi[i][k] for i in range(space.n)], filt.parts[T - 1], space)
            for k in range(sc.price.dim)
        ]
        centered = [
            tuple(xi[i][k] - projs[k][i] for k in range(sc.price.dim))
            for i in range(space.n)
        ]
        mrec = single_jump_martingale_transfer(
            centered, T, bundle, filt, enlarged, tau, space
        )
        transfer.append(
            {
                "T": T,
                "under_jump_measure": mrec.under_jump_measure,
                "thin_mean_zero": mrec.thin_mean_zero,
                "stopped_under_enlarged_weight": mrec.stopped_under_enlarged_weight,
                "consistent": mrec.consistent,
            }
        )
        consistent &= mrec.consistent
        inclusion[str(T)] = thin_set_empty_at(bundle, T)

    try:
        masked = masked_increment_criterion_all(
            sc.price, bundle, filt, enlarged, tau, space
        )
        masked_doc = {
            "per_delta": {
                format_fraction(d): v for d, v in sorted(masked.per_delta.items())
            },
            "all_deltas": masked.all_deltas,
            "stopped_verdict": masked.stopped_verdict,
            "consistent": masked.consistent,
        }
        consistent &= masked.consistent
    except PreconditionViolated:
        masked_doc = {"precondition_failed": True}

    deflator = _deflator_suite(inst, bundle, enlarged)
    consistent &= deflator["construction"] and deflator["supermartingale"]
    if deflator["deflates_stopped_price"] is False:
        consistent = False

    pres = preservation_report(
        space, filt, tau, bundle, enlarged, n_martingales=battery, seed=seed
    )
    pres_doc = {
        "thin_set_empty": pres.thin_set_empty,
        "martingales_checked": pres.martingales_checked,
        "preserved": pres.preserved,
        "witness_time": pres.witness_time,
        "witness_fails_enlarged": pres.witness_fails_enlarged,
        "consistent": pres.consistent,
    }
    consistent &= pres.consistent

    return {
        "projection_identities": projections,
        "single_jump": single,
        "martingale_transfer": transfer,
        "collapse_inclusion_by_time": inclusion,
        "masked_criterion": masked_doc,
        "deflator": deflator,
        "preservation": pres_doc,
        "consistent": bool(consistent),
    }


def witness_report(sc: Scenario) -> dict:
    bundle, enlarged = _context(sc)
    space = sc.space
    if thin_set_empty(bundle):
        return {"thin_set_empty": True, "witness": None}
    T = min(t for (_, t) in bundle.thin_mask)
    M = witness_martingale(T, bundle, sc.filtration, space)
    res = certify_nupbr(stop(M, sc.tau), enlarged, space)
    return {
        "thin_set_empty": False,
        "witness": {
            "time": T,
            "values": {
                a: [format_fraction(M.scalar_at(t, i)) for t in space.times]
                for i, a in enumerate(space.atoms)
            },
            "stopped_satisfies_nupbr": res.verdict,
            "certificate": _witness_doc(res),
        },
    }


def _emit(doc: dict, args, csv_tables=None) -> None:
    sys.stdout.write(rio.dump_json(doc))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        rio.write_json(doc, out / f"{args.command}.json")
        for name, (header, rows) in (csv_tables or {}).items():
            rio.write_csv(rows, header, out / f"{args.command}_{name}.csv")


def _scenario_from_args(args) -> Scenario:
    return rio.load_scenario(args.scenario)


def _inspect_tables(sc, doc):
    bundle, _ = _context(sc)
    header = ["atom", "t", "Z", "Z_tilde", "m", "default_compensator", "thin"]
    rows = []
    for i, a in enumerate(sc.space.atoms):
        for t in sc.space.times:
            rows.append(
                [
                    a,
                    t,
                    format_fraction(bundle.Z.scalar_at(t, i)),
                    format_fraction(bundle.Ztilde.scalar_at(t, i)),
                    format_fraction(bundle.m.scalar_at(t, i)),
                    format_fraction(bundle.default_compensator.scalar_at(t, i)),
                    int((a, t) in bundle.thin_mask),
                ]
            )
    return {"table": (header, rows)}


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
            sc = _scenario_from_args(args)
            doc = inspect_report(sc)
            _emit(doc, args, _inspect_tables(sc, doc))
            return EXIT_OK
        if args.command == "certify":
            sc = _scenario_from_args(args)
            doc = certify_report(sc)
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
            _emit(doc, args, {"nodes": (header, rows)})
            return EXIT_OK
        if args.command == "theorems":
            sc = _scenario_from_args(args)
            doc = theorems_report(sc, battery=args.battery, seed=args.seed)
            header = ["check", "consistent"]
            rows = [["overall", doc["consistent"]]]
            _emit(doc, args, {"summary": (header, rows)})
            return EXIT_OK if doc["consistent"] else EXIT_EQUIVALENCE
        if args.command == "witness":
            sc = _scenario_from_args(args)
            doc = witness_report(sc)
            _emit(doc, args)
            return EXIT_OK
        if args.command == "campaign":
            if args.instances < 0:
                raise InvalidScenario("schema", "--instances", "must be >= 0")
            doc = run_campaign(args.instances, args.seed, battery=args.battery)
            _emit(doc, args, _campaign_tables(doc))
            return EXIT_OK if doc["violations_total"] == 0 else EXIT_EQUIVALENCE
        if args.command == "mc":
            from . import mc as mcmod

            model = mcmod.McModel(
                model=args.model, dt=args.dt, paths=args.paths, seed=args.seed
            )
            result = mcmod.simulate(model)
            doc = {
                "model": result.model,
                "paths": result.paths,
                "dt": result.dt,
                "seed": result.seed,
                "checkpoints": list(result.checkpoints),
                "estimates": list(result.estimates),
                "standard_errors": list(result.standard_errors),
                "control_estimates": list(result.control_estimates),
                "control_standard_errors": list(result.control_standard_errors),
                "frozen_paths": result.frozen_paths,
                "positivity_violations": result.positivity_violations,
            }
            if args.validate_z and args.model == "CAT-1":
                points = []
                for k, (t, x) in enumerate(VALIDATION_POINTS):
                    v = mcmod.validate_survival_formula(
                        model, t, x, args.subpaths, point_id=k
                    )
                    points.append(
                        {
                            "t": v.t,
                            "x": v.x,
                            "closed_form": v.closed_form,
                            "estimate": v.estimate,
                            "standard_error": v.standard_error,
                        }
                    )
                doc["validation"] = points
            _emit(doc, args, _mc_tables(doc))
            return EXIT_OK
        raise AssertionError("unreachable")
    except InvalidScenario as exc:
        sys.stderr.write(
            rio.dump_json({"error": exc.code, "location": exc.location, "message": exc.reason})
        )
        return EXIT_INPUT
    except FileNotFoundError as exc:
        sys.stderr.write(rio.dump_json({"error": "io", "message": str(exc)}))
        return EXIT_INPUT
    except EngineError as exc:
        sys.stderr.write(rio.dump_json({"error": "runtime", "message": str(exc)}))
        return EXIT_RUNTIME
    except ValueError as exc:
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
