"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a source checkout; the package is imported from
``src``.  With ``--trace 0`` the run measures for ``--seconds`` (and at least
one pass over its op pool) and reports the end-to-end metrics; with
``--trace 1`` it makes one untraced and one traced pass over the pool and
reports the per-layer metrics.  The last line of stdout is the result
object; a detailed report (environment, per-op digests, tail latency,
trace counters) goes to stderr as JSON.  ``--smoke`` runs every workload
on a small pool, traced and untraced, and checks that each metric named in
BENCHMARK.json is reported with its unit.
"""

from __future__ import annotations

import os

# Pinned before numpy can be imported: one campaign worker, one BLAS thread.
PINNED_ENV = {
    "RANDOMHORIZON_JOBS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_MIN_S = 3.0
SAMPLE_INTERVAL_S = 0.05
SCALE_WINDOW_S = 0.25
SETUP_PROBES = 5


def _fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def _environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    def command(*argv):
        try:
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        if done.returncode != 0:
            return None
        return done.stdout.strip() or None

    def cache(level):
        size = command("getconf", f"LEVEL{level}_CACHE_SIZE")
        return int(size) if size and size.isdigit() else None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "l2_bytes": cache(2),
        "l3_bytes": cache(3),
        "git_commit": command("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else None,
        "pinned_env": PINNED_ENV,
    }


def _import_seconds(module: str) -> float:
    """Import time of ``module`` in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "start = time.perf_counter()\n"
        f"import {module}\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout)


class SpeedSampler:
    """Times the workload's probe every ``SAMPLE_INTERVAL_S``, from a SIGALRM
    handler, for as long as it is entered.

    This machine's single-core speed drifts by up to 2x in spells of a few
    seconds, as other tenants come and go.  An op's time is reported at the
    reference speed: its own time (probe time taken out) scaled by
    ``(reference / probe) ** exponent``, where ``probe`` is the median probe
    time within ``SCALE_WINDOW_S`` of the op.  Probes taken during an op
    track its speed about twice as closely as probes taken between ops."""

    def __init__(self, workload):
        self.probe = workload.probe
        self.reference_s = workload.probe_reference_s
        self.exponent = workload.probe_exponent
        self.starts = []
        self.seconds = []

    def _sample(self, signum, frame) -> None:
        self.starts.append(perf_counter())
        self.seconds.append(self.probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _between(self, start: float, end: float) -> list:
        return self.seconds[bisect.bisect_left(self.starts, start) : bisect.bisect_right(self.starts, end)]

    def own(self, start: float, end: float) -> float:
        """Seconds in [start, end] not spent in the probe."""
        return end - start - sum(self._between(start, end))

    def scale(self, start: float, end: float) -> float:
        window = self._between(start - SCALE_WINDOW_S, end + SCALE_WINDOW_S)
        return (self.reference_s / statistics.median(window)) ** self.exponent if window else 1.0


def _setup(workload):
    """Median over at least ``SETUP_REPEATS`` repeats, and at least
    ``SETUP_MIN_S`` seconds, of (fresh-interpreter import + input generation
    and model construction), at reference speed; returns (seconds, unscaled
    seconds, op pool).

    The timer probe would sample while this process waits for the import
    child, from a cold core, so set-up is scaled by the Python probe run
    back to back on either side of it instead."""
    def probe():
        return statistics.median([wl.python_probe() for _ in range(SETUP_PROBES)])

    totals, raw = [], []
    deadline = perf_counter() + SETUP_MIN_S
    while len(totals) < SETUP_REPEATS or perf_counter() < deadline:
        before = probe()
        imported = _import_seconds(workload.module)
        start = perf_counter()
        ops = workload.build()
        seconds = imported + perf_counter() - start
        speed = wl.Workload.probe_reference_s / statistics.median([before, probe()])
        raw.append(seconds)
        totals.append(seconds * speed ** wl.Workload.probe_exponent)
    return statistics.median(totals), statistics.median(raw), ops


class Loop:
    """One closed-loop client: runs ops, times the call, gates the output."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.calls = []  # (op key, start, end) of calls that returned
        self.digests = {}
        self.first = {}
        self.attempted = 0
        self.failures = []

    def run(self, op) -> None:
        self.attempted += 1
        start = perf_counter()
        try:
            out = op.call()
        except Exception:  # an engine error fails the op, not the benchmark
            self.failures.append(f"{op.key}: {traceback.format_exc(limit=3)}")
            return
        self.calls.append((op.key, start, perf_counter()))
        try:
            digest = op.check(out)
        except (wl.OpFailed, ValueError, KeyError) as exc:
            self.failures.append(f"{op.key}: {exc}")
            return
        if self.digests.setdefault(op.key, digest) != digest:
            self.failures.append(f"{op.key}: output differs between repeats")
        self.first.setdefault(op.key, out)

    def until(self, ops, seconds: float) -> None:
        deadline = perf_counter() + seconds
        i = 0
        while i < len(ops) or perf_counter() < deadline:
            self.run(ops[i % len(ops)])
            i += 1

    def samples(self, scaled: bool = True) -> dict:
        """Op key -> call times, at reference speed unless ``scaled`` is
        false."""
        out = {}
        for key, start, end in self.calls:
            seconds = self.sampler.own(start, end)
            if scaled:
                seconds *= self.sampler.scale(start, end)
            out.setdefault(key, []).append(seconds)
        return out

    @staticmethod
    def summary(ops, samples) -> tuple:
        """(throughput, median latency) over per-op medians of ``samples``."""
        medians = [statistics.median(samples[op.key]) for op in ops]
        return sum(op.units for op in ops) / sum(medians), wl.hd_median(medians)


def _value(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seconds: float) -> tuple:
    setup_s, raw_setup_s, ops = _setup(workload)
    with SpeedSampler(workload) as sampler:
        loop = Loop(sampler)
        loop.until(ops, seconds)
    scaled, raw = loop.samples(), loop.samples(scaled=False)
    if len(scaled) < len(ops):  # some op never returned: no metrics
        return False, loop.attempted, loop.failures, {}, {"failures": loop.failures[:10]}
    throughput, p50 = loop.summary(ops, scaled)
    raw_throughput, raw_p50 = loop.summary(ops, raw)
    finish = workload.finish(loop.first, loop.digests)
    all_samples = [s for v in scaled.values() for s in v]
    tail = wl.tail(all_samples)
    metrics = {
        "setup_s": _value(setup_s, "s"),
        "throughput_per_s": _value(throughput, "1/s"),
        "latency_p50_ms": _value(1000.0 * p50, "ms"),
        "peak_rss_mb": _value(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {
        "work_unit": workload.unit,
        "ops_in_pool": len(ops),
        "samples": len(all_samples),
        "tail_ms": None if tail is None else {"percentile": tail[0], "value": 1000.0 * tail[1]},
        "unscaled": {"setup_s": raw_setup_s, "throughput_per_s": raw_throughput, "latency_p50_ms": 1000.0 * raw_p50},
        "failed_ratio": len(loop.failures) / loop.attempted,
        "failures": loop.failures[:10],
        "digests": loop.digests,
        "pool": finish,
    }
    ok = finish["ok"] and not loop.failures
    return ok, loop.attempted, loop.failures, metrics, report


def measure_traced(workload) -> tuple:
    from tracer import Tracer

    ops = workload.build()
    with SpeedSampler(workload) as sampler:
        plain = Loop(sampler)
        for op in ops:
            plain.run(op)
        traced = Loop(sampler)
        with Tracer() as tracer:
            for index, op in enumerate(ops):
                tracer.op = index
                traced.run(op)
    untraced_wall, traced_wall = (
        sum(s for v in loop.samples().values() for s in v) for loop in (plain, traced)
    )
    # layer shares are of the traced pass's elapsed time, probes included
    # as they are in the spans
    raw_traced_wall = sum(end - start for _, start, end in traced.calls)
    metrics = {
        name: _value(value, unit)
        for name, (value, unit) in tracer.metrics(raw_traced_wall, traced_wall / untraced_wall).items()
    }
    same = plain.digests == traced.digests and len(plain.digests) == len(ops)
    counters = tracer.counters()
    report = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
        "traced_output_matches_untraced": same,
        "counters": counters,
        "failures": (plain.failures + traced.failures)[:10],
        "pool": workload.finish(plain.first, plain.digests),
    }
    if workload.name == "campaign" and not workload.small:
        report["counters_match_hand_count"] = _campaign_cross_check(counters)
    failures = plain.failures + traced.failures
    ok = same and not failures and report["pool"]["ok"]
    return ok, plain.attempted + traced.attempted, failures, metrics, report


def _campaign_cross_check(counters: dict) -> dict:
    got = dict(counters)
    got["lp.shape.k4plus"] = got["lp.shape.k4plus_d1"] + got["lp.shape.k4plus_d2"]
    return {
        name: {"expected": want, "traced": got.get(name, 0)}
        for name, want in wl.CAMPAIGN_COUNTS.items()
        if got.get(name, 0) != want
    } or "all match"


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False):
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_root))
    try:
        workload = wl.WORKLOADS[name](seed, workdir, small)
        if trace:
            ok, attempted, failures, metrics, report = measure_traced(workload)
        else:
            ok, attempted, failures, metrics, report = measure(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": bool(ok), "attempted": attempted, "failed": len(failures), "metrics": metrics}
    report.update(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "environment": _environment()}
    )
    return result, report


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for entry in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, report = run_workload(entry["name"], 0, 0.5, bool(trace), small=True)
            where = f"{entry['name']} --trace {trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: not correct: {report.get('failures')} {report.get('pool')}")
            got = result["metrics"]
            for metric in wanted:
                if metric["name"] not in got:
                    problems.append(f"{where}: missing {metric['name']}")
                elif got[metric["name"]]["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} has unit {got[metric['name']]['unit']}")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for line in problems:
        sys.stderr.write(f"smoke: {line}\n")
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload not in wl.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stderr.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "randomhorizon" / "__init__.py").is_file():
        sys.exit(_fail(f"no package source at {SRC}; run from a source checkout"))
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl

    sys.exit(main())
