"""Tests of the benchmark itself (run with the package on the path, e.g.
``PYTHONPATH=src python -m pytest bench``)."""

import subprocess
import sys
from pathlib import Path

from randomhorizon import nupbr
from randomhorizon.campaign import run_campaign
from randomhorizon.io import load_builtin

from scenario_gen import write_scenarios
from tracer import Tracer

HERE = Path(__file__).resolve().parent


def test_scenario_files_are_byte_identical_per_seed(tmp_path):
    first = write_scenarios(7, 2, tmp_path / "a")
    again = write_scenarios(7, 2, tmp_path / "b")
    other = write_scenarios(8, 2, tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]


def test_tracer_sees_calls_made_through_from_imports():
    sc = load_builtin("ex1")
    original = nupbr.zero_in_relative_interior
    with Tracer() as tracer:
        nupbr.certify_nupbr(sc.price, sc.filtration, sc.space)
    assert tracer.calls["lp.zero_in_relative_interior"] > 0
    assert tracer.calls["nupbr.certify_nupbr"] == 1
    assert nupbr.zero_in_relative_interior is original


def test_traced_campaign_matches_untraced_and_repeats():
    plain = run_campaign(3, 0, battery=10)
    runs = []
    for _ in range(2):
        with Tracer() as tracer:
            doc = run_campaign(3, 0, battery=10)
        assert doc == plain
        runs.append(tracer.counters())
    assert runs[0] == runs[1]
    assert runs[0]["lp.solve_min"] > 0


def test_smoke_reports_every_metric_with_its_unit():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-3000:]
