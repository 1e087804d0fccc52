"""The benchmark's workloads: closed loops, one client, one process.

Each workload turns the workload seed into a pool of operations during
set-up.  A run cycles through the pool until the time is up and every
operation has run at least once, timing each call.  Every call is then
checked (the correctness gate), and repeats of one operation must give the
same output digest.  Throughput is the pool's work over the sum of the
per-operation median latencies and the median latency is the (Harrell-Davis)
median of those per-operation medians, so a run cut in the middle of a pass
gives no extra weight to the operations that happened to run twice.

* ``campaign`` -- ``run_campaign`` on the engine generator's instances
  0-99, the block whose report the acceptance criterion pins (sha256
  ``37527a3d...``), in an order drawn from the seed.  One op is one
  instance.  A seed-dependent block would add a spread of about 7% in
  instances per second from the instance mix alone (instance cost has a
  coefficient of variation near 0.9), more than the bound allows.
* ``inspect``, ``certify``, ``theorems`` -- one CLI command, run in-process
  through ``cli.main``, on scenario files from :mod:`scenario_gen`.  One op
  is one command on one file.
* ``mc`` -- the acceptance Monte Carlo run at 100k paths with the step
  count cut tenfold (dt 1e-2), so that a run repeats it several times; one
  op is ``simulate`` or one of the five survival-formula validation points.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from randomhorizon.io import dump_json

from scenario_gen import write_scenarios

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

CAMPAIGN_POOL = 100
CAMPAIGN_BATTERY = 100
MC_PATHS = 100_000
MC_DT = 1e-2

# Call counts on campaign instances 0-99 with battery 100, counted by hand
# before the tracer existed; the traced campaign run is compared with them.
CAMPAIGN_COUNTS = {
    "lp.zero_in_relative_interior": 15891,
    "lp.solve_min": 4069,
    "lp.separating_direction": 518,
    "lp.maximize_over_admissible": 53,
    "nupbr.certify_nupbr": 4056,
    "space.condexp": 12992,
    "lp.distinct_families": 1345,
    "lp.shape.k1_d1": 7462,
    "lp.shape.k2_d1": 3348,
    "lp.shape.k3_d1": 2230,
    "lp.shape.k1_d2": 1526,
    "lp.shape.k2_d2": 684,
    "lp.shape.k3_d2": 484,
    "lp.shape.k4plus": 157,
}


class OpFailed(Exception):
    """An operation's output failed the correctness gate."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Op:
    key: str
    units: float  # work done by one call, in the workload's unit
    call: Callable[[], object]  # the timed part
    check: Callable[[object], str]  # gate; returns the output digest


def python_probe() -> float:
    """Seconds taken by a fixed half-millisecond of pure-Python work of the
    engine's kind: Fraction arithmetic and dict handling."""
    start = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 60):
        acc += Fraction(i % 17 + 1, i + 7) * Fraction(3, i % 5 + 1)
        table[(i % 31, i % 7)] = acc.numerator % 97
    return perf_counter() - start


class NumpyProbe:
    """Seconds taken by a fixed third of a millisecond of numpy work of the
    MC kernel's kind: elementwise passes over an array larger than L1."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(-3.0, 3.0, 25_000)

    def __call__(self) -> float:
        np, x = self.np, self.x
        start = perf_counter()
        y = np.exp(-0.5 * x * x)
        float(np.where(x > 0.0, y, 1.0 - y).sum())
        return perf_counter() - start


class Workload:
    name = ""
    unit = ""  # what ``units`` counts
    module = ""  # imported by set-up
    # Op times are reported at a reference speed: scaled by this over the
    # probe times measured during them, to the power probe_exponent.  The
    # exponents were fitted on ops repeated for minutes as the machine
    # drifted: this probe moves 1/0.75 times as much as engine code
    # (theorems 0.74, campaign 0.78), the numpy probe as much as the MC
    # kernel (0.97, 0.96).  See README.
    probe_reference_s = 0.0005
    probe_exponent = 0.75

    def __init__(self, seed: int, workdir: Path, small: bool):
        self.seed = seed
        self.workdir = workdir
        self.small = small
        self.probe = python_probe

    def build(self) -> list:
        """Set-up: make the inputs and return the op pool."""
        raise NotImplementedError

    def finish(self, first_outputs: dict, digests: dict) -> dict:
        """Checks over the whole pool, given each op's first output and
        digest; returns a report whose ``ok`` field joins the gate."""
        return {"ok": True}


class Campaign(Workload):
    name = "campaign"
    unit = "instances"
    module = "randomhorizon.campaign"

    def build(self):
        from randomhorizon.campaign import run_campaign

        seeds = list(range(3 if self.small else CAMPAIGN_POOL))
        random.Random(self.seed).shuffle(seeds)
        digests = REFERENCE["campaign"]["instance_digests"]

        def op(s):
            def call():
                return run_campaign(1, s, battery=CAMPAIGN_BATTERY)

            def check(doc):
                if doc["violations_total"] != 0:
                    raise OpFailed(f"instance {s}: violations {doc['per_instance'][0]['violations']}")
                digest = sha256(dump_json(doc["per_instance"][0]))
                if digest != digests[s]:
                    raise OpFailed(f"instance {s}: report digest {digest} differs from the reference")
                return digest

            return Op(str(s), 1.0, call, check)

        return [op(s) for s in seeds]

    def finish(self, first_outputs, digests):
        if len(first_outputs) != CAMPAIGN_POOL:
            return {"ok": True}
        reports = [first_outputs[str(s)]["per_instance"][0] for s in range(CAMPAIGN_POOL)]
        doc = {
            "instances": CAMPAIGN_POOL,
            "seed": 0,
            "battery": CAMPAIGN_BATTERY,
            "violations_total": sum(len(r["violations"]) for r in reports),
            "per_instance": reports,
        }
        digest = sha256(dump_json(doc))
        want = REFERENCE["campaign"]["report_sha256"]
        return {"ok": digest == want, "report_sha256": digest, "reference_sha256": want}


class Command(Workload):
    unit = "commands"
    module = "randomhorizon.cli"
    files = 0

    def build(self):
        from randomhorizon import cli

        count = 2 if self.small else self.files
        paths = write_scenarios(self.seed, count, self.workdir)

        def op(path):
            argv = [self.name, str(path)]

            def call():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                return code, out.getvalue()

            def check(result):
                code, text = result
                if code != 0:
                    raise OpFailed(f"{' '.join(argv)}: exit code {code}")
                doc = json.loads(text)
                if self.name == "theorems" and doc.get("consistent") is not True:
                    raise OpFailed(f"{' '.join(argv)}: not consistent")
                return sha256(text)

            return Op(path.name, 1.0, call, check)

        return [op(p) for p in paths]


# More files for the cheaper commands: the spread of a run's median over
# the files shrinks with their number, and set-up pays 12 ms per file.
class Inspect(Command):
    name = "inspect"
    files = 64


class Certify(Command):
    name = "certify"
    files = 48


class Theorems(Command):
    name = "theorems"
    files = 20


def _float_digest(values) -> str:
    return sha256(",".join(float(v).hex() for v in values))


class MonteCarlo(Workload):
    name = "mc"
    unit = "path-steps"
    module = "randomhorizon.mc"
    probe_reference_s = 0.0003
    probe_exponent = 1.0

    def __init__(self, seed: int, workdir: Path, small: bool):
        super().__init__(seed, workdir, small)
        self.probe = NumpyProbe()

    def build(self):
        seeds = REFERENCE["mc"]["seeds"]
        return self.ops(seeds[self.seed % len(seeds)])

    def ops(self, mc_seed: int) -> list:
        """The acceptance run for one Monte Carlo seed: ``simulate``, then
        each validation point, one op each."""
        from randomhorizon import mc
        from randomhorizon.cli import VALIDATION_POINTS

        self.mc_seed = mc_seed
        paths, dt = (5_000, 5e-2) if self.small else (MC_PATHS, MC_DT)
        model = mc.McModel(model="CAT-1", dt=dt, paths=paths, seed=mc_seed)

        def check_simulate(result):
            values = (
                result.estimates
                + result.standard_errors
                + result.control_estimates
                + result.control_standard_errors
            )
            if not all(math.isfinite(v) for v in values):
                raise OpFailed("non-finite estimate")
            for t, est, se in zip(result.checkpoints, result.estimates, result.standard_errors):
                if abs(est - 1.0) > 3.0 * se:
                    raise OpFailed(f"checkpoint {t}: {est} is more than 3 SE from 1")
            return _float_digest(values)

        def check_point(p):
            if not (math.isfinite(p.estimate) and math.isfinite(p.standard_error)):
                raise OpFailed(f"Z({p.t},{p.x}): non-finite estimate")
            if abs(p.estimate - p.closed_form) > 4.0 * p.standard_error:
                raise OpFailed(f"Z({p.t},{p.x}): {p.estimate} is more than 4 SE from {p.closed_form}")
            return _float_digest((p.estimate, p.standard_error))

        ops = [
            Op(
                "simulate",
                float(paths * round(max(mc.CHECKPOINTS) / dt)),
                lambda: mc.simulate(model),
                check_simulate,
            )
        ]
        for k, (t, x) in enumerate(VALIDATION_POINTS):
            ops.append(
                Op(
                    f"validate{k}",
                    float(paths * round((1.0 - t) / dt)),
                    lambda t=t, x=x, k=k: mc.validate_survival_formula(model, t, x, paths, point_id=k),
                    check_point,
                )
            )
        self.keys = [op.key for op in ops]
        return ops

    def run_digest(self, digests: dict) -> str:
        return sha256(",".join(digests[key] for key in self.keys))

    def finish(self, first_outputs, digests):
        # Bitwise identity with the reference is recorded, not gated: the
        # last bits of exp/erfc may differ between numpy builds.
        digest = self.run_digest(digests) if len(digests) == len(self.keys) else None
        want = None if self.small else REFERENCE["mc"]["digests"].get(str(self.mc_seed))
        return {"ok": True, "mc_seed": self.mc_seed, "digest": digest, "bitwise_identical": digest == want}


WORKLOADS = {w.name: w for w in (Campaign, Inspect, Certify, Theorems, MonteCarlo)}


def tail(samples):
    """(percentile, value): the highest of p50/p90/p95/p99 that leaves at
    least ten samples above it, or None when there are fewer than 20."""
    ordered = sorted(samples)
    best = None
    for p in (50, 90, 95, 99):
        rank = math.ceil(p / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: the order statistics weighted
    by a Beta((n+1)/2, (n+1)/2) distribution.  Where few values lie near
    the middle, the sample median jumps with the noise of one of them; this
    estimate moves with all of them."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    steps = 4096
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)
    cdf = [0.0]
    for k in range(steps):
        x = (k + 0.5) / steps
        cdf.append(cdf[-1] + math.exp((a - 1) * (math.log(x) + math.log1p(-x)) - log_norm) / steps)
    weights = [cdf[round((i + 1) * steps / n)] - cdf[round(i * steps / n)] for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)
