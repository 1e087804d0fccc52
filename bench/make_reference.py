"""Regenerate ``reference.json``, the benchmark's expected outputs.

    python3 bench/make_reference.py

* ``campaign``: the sha256 of each instance report for instances 0-99 at
  battery 100, and of the whole ``campaign --instances 100 --seed 0`` report.
  Exact arithmetic makes these platform-independent; a change that alters
  them alters the campaign's output.
* ``mc``: the Monte Carlo seeds on which the benchmark's op (100k paths,
  dt 1e-2) passes the acceptance gates (3 SE at the checkpoints, 4 SE at the
  validation points), and the digest of each seed's estimates and standard
  errors.  A 3-SE gate fails by chance on about one seed in a hundred; the
  workload draws its Monte Carlo seed from this list so that no op fails by
  chance, and a seed that fails is left out here rather than retried there.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as wl  # noqa: E402

MC_CANDIDATES = 40


def main() -> int:
    from randomhorizon.campaign import run_campaign

    doc = run_campaign(wl.CAMPAIGN_POOL, 0, battery=wl.CAMPAIGN_BATTERY, jobs=1)
    campaign = {
        "report_sha256": wl.sha256(wl.dump_json(doc)),
        "instance_digests": [wl.sha256(wl.dump_json(r)) for r in doc["per_instance"]],
    }
    mc = {"seeds": [], "digests": {}}
    for seed in range(MC_CANDIDATES):
        workload = wl.MonteCarlo(0, HERE, small=False)
        try:
            digests = {op.key: op.check(op.call()) for op in workload.ops(seed)}
        except wl.OpFailed as exc:
            print(f"mc seed {seed} left out: {exc}", file=sys.stderr)
            continue
        mc["seeds"].append(seed)
        mc["digests"][str(seed)] = workload.run_digest(digests)
    out = {"campaign": campaign, "mc": mc}
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
