import pytest

from randomhorizon import campaign
from randomhorizon.generator import random_instance


@pytest.mark.parametrize(
    "jobs, instances, cpus, expected",
    [
        (1000, 3, 64, 3),  # capped at the instance count
        (1000, 6, 4, 4),  # capped at the CPU count
        (2, 6, 4, 2),
        (3, 1, 8, None),  # one instance runs in-process
        (5, 4, 1, None),  # one CPU runs in-process
        (5, 4, None, None),  # an unknown CPU count counts as one
        (0, 4, 8, None),  # 0 means sequential
    ],
)
def test_campaign_worker_count_is_capped(jobs, instances, cpus, expected, monkeypatch):
    seen = []

    class RecordingPool:
        """Records the worker count and maps in-process: starts nothing."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(campaign, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: cpus)
    monkeypatch.setenv(campaign.JOBS_ENV, str(jobs))
    report = campaign.run_campaign(instances, 0, battery=2)
    assert seen == ([] if expected is None else [expected])
    assert report == campaign.run_campaign(instances, 0, battery=2, jobs=1)


def test_martingale_part_check_covers_the_whole_price(monkeypatch):
    # a two-dimensional price is checked in both components, not the first
    dims = []
    real = campaign.g_martingale_part
    monkeypatch.setattr(
        campaign, "g_martingale_part", lambda M, b: dims.append(M.dim) or real(M, b)
    )
    model = next(m for m in map(random_instance, range(20)) if m.price.dim == 2)
    _, sections, violations = campaign.theorem_suite(model, battery=0)
    assert dims == [2]
    assert sections["projection_identities"]["martingale_part"] is True
    assert violations == []


def test_parallel_campaign_matches_the_sequential_one():
    # two worker processes at most (capped by the CPU count)
    assert campaign.run_campaign(4, 0, battery=5, jobs=2) == campaign.run_campaign(
        4, 0, battery=5, jobs=1
    )
