import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from scipy.special import ndtri

from randomhorizon import mc
from randomhorizon.cli import VALIDATION_POINTS
from randomhorizon.mc import (
    _STREAM_NESTED,
    _STREAM_PRICE,
    McModel,
    McParameterError,
    _normals,
    _uniforms,
    _zero_in_step,
    simulate,
    survival_closed_form,
    validate_survival_formula,
)


def test_control_model_recovers_initial_price():
    r = simulate(McModel(model="CAT-0", dt=5e-3, paths=20_000, seed=7))
    for est, se in zip(r.estimates, r.standard_errors):
        assert abs(est - 1.0) <= 3.0 * se
        assert se > 0


def test_deflated_stopped_price_small_run():
    r = simulate(McModel(model="CAT-1", dt=2e-3, paths=40_000, seed=5))
    for est, se in zip(r.estimates, r.standard_errors):
        assert abs(est - 1.0) <= 3.0 * se
    assert all(se > 0 for se in r.standard_errors)
    assert all(se > 0 for se in r.control_standard_errors)


def test_step_halving_stability():
    a = simulate(McModel(model="CAT-1", dt=2e-3, paths=20_000, seed=9))
    b = simulate(McModel(model="CAT-1", dt=1e-3, paths=20_000, seed=10))
    for ea, sa, eb, sb in zip(
        a.estimates, a.standard_errors, b.estimates, b.standard_errors
    ):
        assert abs(ea - eb) <= 3.0 * math.hypot(sa, sb)


def test_simulation_is_deterministic():
    r1 = simulate(McModel(model="CAT-1", dt=5e-3, paths=5_000, seed=21))
    r2 = simulate(McModel(model="CAT-1", dt=5e-3, paths=5_000, seed=21))
    assert r1 == r2
    r3 = simulate(McModel(model="CAT-1", dt=5e-3, paths=5_000, seed=22))
    assert r3.estimates != r1.estimates


def test_survival_closed_form_limits():
    assert survival_closed_form(0.3, 0.0) == 1.0
    assert survival_closed_form(0.999, 0.3) < 1e-9
    assert 0.0 < survival_closed_form(0.5, 0.5) < 1.0


def test_validate_survival_formula_midpoint():
    model = McModel(model="CAT-1", dt=1e-3, paths=2, seed=2)
    v = validate_survival_formula(model, 0.5, 0.5, 20_000, point_id=1)
    assert abs(v.estimate - v.closed_form) <= 4.0 * v.standard_error
    assert v.within_4se is True
    assert v.standard_error > 0


def test_validate_rejects_bad_time():
    model = McModel(model="CAT-1", dt=1e-3, paths=2, seed=2)
    with pytest.raises(ValueError):
        validate_survival_formula(model, 1.0, 0.5, 100)


def test_validate_rejects_no_subpaths():
    model = McModel(model="CAT-1", dt=1e-3, paths=2, seed=2)
    with pytest.raises(ValueError):
        validate_survival_formula(model, 0.5, 0.5, 0)


def test_zero_in_step_bridge():
    w0 = np.array([1.0, 1.0, -0.5])
    w1 = np.array([-1.0, 1.0, -0.5])
    u = np.array([0.5, 0.5, 0.5])
    hit = _zero_in_step(w0, w1, 1e-3, u)
    assert hit[0]  # sign change
    assert not hit[1] and not hit[2]  # same sign, far from zero
    # near the origin the bridge touches with high probability
    w0 = np.array([0.01])
    w1 = np.array([0.01])
    assert _zero_in_step(w0, w1, 1e-3, np.array([0.5]))[0]


def test_dt_must_divide_checkpoints():
    with pytest.raises(ValueError):
        simulate(McModel(model="CAT-0", dt=4e-3, paths=10, seed=0))


@pytest.mark.parametrize("dt", [0.3, float("inf"), float("nan"), 1e-320])
def test_model_rejects_dt_off_the_checkpoint_grid(dt):
    with pytest.raises(McParameterError) as err:
        McModel(model="CAT-0", dt=dt, paths=10)
    assert err.value.field == "dt"


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        McModel(model="CAT-9")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_model_rejects_seed_outside_the_philox_key(seed):
    with pytest.raises(McParameterError) as err:
        McModel(model="CAT-0", dt=0.25, paths=10, seed=seed)
    assert err.value.field == "seed"


@pytest.mark.parametrize("seed", [1.5, True, "1"])
def test_model_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(McParameterError) as err:
        McModel(model="CAT-0", dt=0.25, paths=10, seed=seed)
    assert err.value.field == "seed"


@pytest.mark.parametrize("paths", [2.5, 1000.0, "100"])
def test_model_rejects_a_path_count_that_is_not_an_integer(paths):
    # these used to build and then fail inside numpy with a bare TypeError
    with pytest.raises(McParameterError) as err:
        McModel(model="CAT-0", dt=0.25, paths=paths)
    assert err.value.field == "paths"


@pytest.mark.parametrize("subpaths", [2.5, 100.0, True])
def test_validation_rejects_a_subpath_count_that_is_not_an_integer(subpaths):
    model = McModel(model="CAT-1", dt=0.25, paths=2, seed=0)
    with pytest.raises(ValueError, match="subpath"):
        validate_survival_formula(model, 0.5, 0.5, subpaths)


def test_validation_rejects_a_dt_that_does_not_divide_the_horizon():
    model = McModel(model="CAT-1", dt=0.25, paths=10, seed=0)  # divides the checkpoints
    with pytest.raises(McParameterError) as err:
        validate_survival_formula(model, 0.9, 0.2, 1000)
    assert err.value.field == "dt"
    with pytest.raises(McParameterError):
        model.check_validation_times([t for t, _ in VALIDATION_POINTS])
    assert validate_survival_formula(model, 0.5, 0.2, 1000).estimate > 0
    McModel(model="CAT-1", dt=1e-3).check_validation_times([t for t, _ in VALIDATION_POINTS])


def test_model_accepts_the_largest_seed():
    r = simulate(McModel(model="CAT-1", dt=0.25, paths=10, seed=2**64 - 1))
    assert all(math.isfinite(v) for v in r.estimates)


# Naive references: the textbook definitions, computed from scratch, with
# every path advanced on every step.


def _uniforms_reference(seed, stream, step, n):
    key = np.array([np.uint64(seed), np.uint64((stream << 40) + step)], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(n)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _zero_in_step_reference(w0, w1, dt, u):
    crossed = w0 * w1 <= 0.0
    prod = np.where(crossed, 1.0, w0 * w1)
    return crossed | (u < np.exp(-2.0 * prod / dt))


def _hit_probability_reference(model, t, x, n, point_id):
    sqdt = math.sqrt(model.dt)
    w = np.full(n, float(x))
    hit = np.zeros(n, dtype=bool)
    base = (point_id + 1) * 10_000_000
    for step in range(int(round((1.0 - t) / model.dt))):
        w1 = w + ndtri(_uniforms_reference(model.seed, _STREAM_NESTED, base + 2 * step, n)) * sqdt
        u = _uniforms_reference(model.seed, _STREAM_NESTED, base + 2 * step + 1, n)
        hit |= _zero_in_step_reference(w, w1, model.dt, u)
        w = w1
    return float(hit.mean())


@pytest.mark.parametrize(
    "seed, stream, step, n",
    [(0, 0, 0, 1), (0, 1, 7, 1000), (3, 2, 74, 4097), (2**64 - 1, 3, 10_000_123, 333)],
)
def test_uniforms_match_the_midpoint_reference(seed, stream, step, n):
    u = _uniforms(seed, stream, step, n)
    want = _uniforms_reference(seed, stream, step, n)
    assert u.tobytes() == want.tobytes()
    assert u.min() > 0.0 and u.max() < 1.0
    # into a caller's buffer, the same draws
    out = np.full(n, np.nan)
    assert _uniforms(seed, stream, step, n, out) is out
    assert out.tobytes() == want.tobytes()


def test_uniforms_grid_ends_round_like_the_reference():
    # k = 0 and k = 2^53 - 1, the ends of the 53-bit grid; the top one
    # rounds (to even) up to 1.0 both ways, so ``_uniforms`` clamps it
    raw = np.array([0, 2**64 - 1], dtype=np.uint64)
    want = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    got = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    assert got.tobytes() == want.tobytes()
    assert got.tolist() == [2.0**-54, 1.0]


# the top of the 53-bit grid, k = 2^53 - 1, as ``Generator.random`` returns it
_TOP = (2**53 - 1) * 2.0**-53


def _generator_with_top_draw(hit):
    """A stand-in for ``np.random.Generator`` whose draw 0 is the top grid
    point on every stream key (seed, stream << 40 + step) with ``hit(key)``;
    every other draw is the real one."""
    real = np.random.Generator

    class Generator:
        def __init__(self, bitgen):
            self._gen = real(bitgen)
            self._hit = hit(tuple(int(k) for k in bitgen.state["state"]["key"]))

        def random(self, n, out=None):
            u = self._gen.random(n, out=out)
            if self._hit:
                u[0] = _TOP
            return u

    return Generator


def test_uniforms_clamp_the_top_grid_point_below_one(monkeypatch):
    # unclamped, the top point rounds up to 1.0 (see above) and ndtri(1.0)
    # is +inf; the clamp moves that one draw to the largest double below 1
    want = _uniforms(3, 1, 7, 1000)
    monkeypatch.setattr(np.random, "Generator", _generator_with_top_draw(lambda key: True))
    got = _uniforms(3, 1, 7, 1000)
    assert got[0] == 1.0 - 2.0**-53
    assert got[1:].tobytes() == want[1:].tobytes()
    assert np.isfinite(_normals(3, 1, 7, 1000)).all()


def test_simulate_runs_through_a_top_grid_draw(monkeypatch):
    # the top point as the first price draw of path 0: before the clamp the
    # path's price became +inf and the checkpoint raised FloatingPointError
    model = McModel(model="CAT-1", dt=0.01, paths=64, seed=2)
    base = simulate(model)
    target = (model.seed, (_STREAM_PRICE << 40) + 0)
    monkeypatch.setattr(np.random, "Generator", _generator_with_top_draw(target.__eq__))
    got = simulate(model)
    for row in (got.estimates, got.standard_errors, got.control_estimates):
        assert all(math.isfinite(v) for v in row)
    assert got.estimates != base.estimates
    # the draw feeds the price only: the survival side of the run is unchanged
    assert got.checkpoints == base.checkpoints
    assert (got.frozen_paths, got.positivity_violations) == (
        base.frozen_paths,
        base.positivity_violations,
    )


def test_zero_in_step_matches_the_reference():
    rng = np.random.default_rng(4)
    n = 20_000
    w0 = rng.normal(scale=0.3, size=n)
    w1 = w0 + rng.normal(scale=0.1, size=n)
    # sign changes, among them exact zeros of both signs and huge steps
    crossings = np.array(
        [[0.0, 0.3], [-0.0, -0.3], [0.0, 0.0], [0.5, -0.5], [-0.5, 0.5], [1e200, -1e200], [3.0, -3.0]]
    )
    # same-sign steps whose bridge probability underflows
    far = np.array([[2.0, 2.5], [-40.0, -40.0], [1e200, 1e200]])
    k, m = len(crossings), len(far)
    w0[: k + m], w1[: k + m] = np.vstack([crossings, far]).T
    u = _uniforms(11, 2, 5, n)
    # the extremes of _uniforms, 1.0 on an exact zero included
    u[:4] = [1.0, 2.0**-54, 1.0, 1.0 - 2.0**-53]
    u[k] = 2.0**-54
    for dt in (1e-2, 1e-3, 0.25):
        with np.errstate(over="ignore"):  # 1e200 * 1e200
            got = _zero_in_step(w0, w1, dt, u)
            assert np.array_equal(got, _zero_in_step_reference(w0, w1, dt, u))
        assert got[:k].all() and not got[k : k + m].any()
        assert 0 < got.sum() < n


@pytest.mark.parametrize("t, x", [(0.25, 0.25), (0.5, 1.5), (0.9, -0.2), (0.5, 0.0)])
def test_validation_matches_the_every_path_reference(t, x):
    model = McModel(model="CAT-1", dt=5e-2, paths=2, seed=6)
    v = validate_survival_formula(model, t, x, 3000, point_id=4)
    assert v.estimate.hex() == _hit_probability_reference(model, t, x, 3000, 4).hex()


def _hexes(values):
    return [float(v).hex() for v in values]


def _simulate_digest(r):
    return hashlib.sha256(
        ",".join(
            _hexes(
                r.estimates + r.standard_errors + r.control_estimates + r.control_standard_errors
            )
            + [str(r.frozen_paths), str(r.positivity_violations)]
        ).encode()
    ).hexdigest()


def _point_digest(v):
    return hashlib.sha256(
        ",".join(_hexes((v.estimate, v.standard_error, v.closed_form))).encode()
    ).hexdigest()


# sha256 of the float.hex of every output, as computed by the unfused
# kernel (a fresh array per operation, Z evaluated twice per step, every
# validation path advanced to the end); dt 1e-2 puts 13 of 75 steps where
# step * dt + dt != (step + 1) * dt, so Z must be recomputed there
PINNED_SIMULATE = {
    "CAT-1": "f277c85717ee86d6060c9411c368f3b4feab7a42e54960aea80ad91380c665b8",
    "CAT-0": "d9ba7f7a766549c7cf6030330c72e872c960e06c4ac9798a8d8d0978e7c08d25",
}
PINNED_POINTS = (
    "efa9637ead00fcbf81e9c0da104bd16db65dac8fffb7c1ebac973f77806dd24a",
    "68a7426c7b7b34322518f2da222f718cb46682bbbdde0c6e297842099855abc0",
    "d50978284912141251711b0de9e0d22c8c52fa8c8d5679ad2009a11c862d3293",
    "9e602ff8ffb005d43d3c4feb1819e09268ad02b5737885a8f3384e8b64bcb354",
    "d73061d8a97ecbb4b8018054d6c28544a50802ff1f3a1f707eeeb282e2d3bec0",
    # (0.5, 0.0): every path is absorbed on the first step
    "b320dc7da6064a4ca6a98b8d34bf2a833630139a0d45de5a212830e6a6b8711d",
)


def test_mc_outputs_bitwise_pinned():
    cat1 = McModel(model="CAT-1", dt=1e-2, paths=20_000, seed=3)
    r = simulate(cat1)
    assert (r.frozen_paths, r.positivity_violations) == (71, 2600)
    assert _simulate_digest(r) == PINNED_SIMULATE["CAT-1"]
    r0 = simulate(McModel(model="CAT-0", dt=1e-2, paths=20_000, seed=3))
    assert _simulate_digest(r0) == PINNED_SIMULATE["CAT-0"]
    points = list(VALIDATION_POINTS) + [(0.5, 0.0)]
    got = [
        validate_survival_formula(cat1, t, x, 20_000, point_id=k)
        for k, (t, x) in enumerate(points)
    ]
    assert got[-1].estimate == 1.0
    assert tuple(_point_digest(v) for v in got) == PINNED_POINTS


# Chunked runs: the paths are split into slices advanced on threads, and no
# output bit may depend on the split.


def _one_chunk(n):
    return [(0, n)]


def _four_path_chunks(n):
    return [(lo, min(lo + 4, n)) for lo in range(0, n, 4)]


def _uneven_three_chunks(n):
    """4 paths, about two thirds of the rest, then the remainder, cut on
    the grid of 4: (0, 4), (4, 2732), (2732, 4099) at 4099 paths, fewer
    chunks when n is small."""
    cuts = sorted({min(c, n) for c in (0, 4, 4 + (n - 4) * 2 // 3 // 4 * 4, n)})
    return list(zip(cuts, cuts[1:]))


def _chunked_outputs(model):
    points = [(0.5, 0.5), (0.25, -0.1)]
    return [
        simulate(model),
        simulate(McModel(model="CAT-0", dt=model.dt, paths=model.paths, seed=model.seed)),
    ] + [
        validate_survival_formula(model, t, x, model.paths, point_id=k)
        for k, (t, x) in enumerate(points)
    ]


@pytest.mark.parametrize("paths", [2, 5, 4099])
def test_chunked_runs_equal_the_one_chunk_run(monkeypatch, paths):
    model = McModel(model="CAT-1", dt=5e-2, paths=paths, seed=8)
    monkeypatch.setattr(mc, "_chunks", _one_chunk)
    want = _chunked_outputs(model)
    for split in (_four_path_chunks, _uneven_three_chunks):
        monkeypatch.setattr(mc, "_chunks", split)
        assert _chunked_outputs(model) == want, split.__name__


def test_more_threads_than_cores_with_fast_switching_change_no_bit(monkeypatch):
    # eight chunks on seven worker threads, the interpreter switching
    # threads every microsecond: a chunk that wrote outside its slice, or
    # a count lost between threads, would move an output
    model = McModel(model="CAT-1", dt=5e-2, paths=300, seed=12)
    monkeypatch.setattr(mc, "_chunks", _one_chunk)
    want = _chunked_outputs(model)
    monkeypatch.setattr(mc, "_usable_cores", lambda: 8)
    monkeypatch.setattr(mc, "_chunks", lambda n: [(lo, min(lo + 40, n)) for lo in range(0, n, 40)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [_chunked_outputs(model) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 3


@pytest.mark.parametrize("n", [1, 2, 5, 4095, 4096, 8191, 8192, 100_000, 100_003])
def test_chunks_cover_the_paths_on_the_counter_grid(n):
    chunks = mc._chunks(n)
    assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
    assert chunks[-1][1] == n
    assert all(lo % 4 == 0 and lo < hi for lo, hi in chunks)
    assert len(chunks) <= max(1, n // mc.MIN_CHUNK)
    if len(chunks) > 1:
        assert min(hi - lo for lo, hi in chunks) > mc.MIN_CHUNK - 4


def test_chunks_follow_the_usable_cores(monkeypatch):
    monkeypatch.setattr(mc, "_usable_cores", lambda: 3)
    assert mc._chunks(100_000) == [(0, 33336), (33336, 66672), (66672, 100_000)]
    monkeypatch.setattr(mc, "_usable_cores", lambda: 1)
    assert mc._chunks(100_000) == [(0, 100_000)]


@pytest.mark.parametrize("first", [0, 4, 8, 100, 500, 4096])
def test_uniforms_from_a_first_draw_are_the_tail_of_the_stream(first):
    n = 5000
    want = _uniforms_reference(7, 2, 11, n)[first:]
    assert _uniforms(7, 2, 11, n - first, first=first).tobytes() == want.tobytes()
    out = np.full(n - first, np.nan)
    assert _normals(7, 2, 11, n - first, out, first) is out
    assert out.tobytes() == ndtri(want).tobytes()


@pytest.mark.parametrize("first", [1, 2, 3, 5, 102])
def test_uniforms_reject_a_first_draw_off_the_counter_grid(first):
    with pytest.raises(ValueError, match="multiple of 4"):
        _uniforms(0, 0, 0, 10, first=first)


def test_an_error_on_a_worker_thread_reaches_the_caller(monkeypatch):
    real = survival_closed_form

    def failing(t, x):
        if threading.current_thread() is not threading.main_thread():
            raise ArithmeticError("worker")
        return real(t, x)

    monkeypatch.setattr(mc, "survival_closed_form", failing)
    monkeypatch.setattr(mc, "_chunks", _uneven_three_chunks)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="worker"):
        simulate(McModel(model="CAT-1", dt=5e-2, paths=100, seed=0))
    assert threading.active_count() == before
