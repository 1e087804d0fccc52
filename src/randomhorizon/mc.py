"""Monte Carlo verification of the continuous-path deflator.

Catalog models (floating point lives only in this module):

* ``CAT-1`` -- the price is the stochastic exponential of a Brownian motion
  B; the random horizon is the last zero before time 1 of an independent
  Brownian motion W.  Conditionally on W_t = x the survival probability of
  the horizon is the probability that W returns to zero on (t, 1], with the
  closed form  Z(t, x) = erfc(|x| / sqrt(2 (1 - t))).  The closed form is
  catalog data: it must be (and is, in the tests) validated against a
  nested simulation before the acceptance run leans on it.
* ``CAT-0`` -- the same price with no horizon (Z = 1, trivial deflator);
  the control experiment.

Along each path the deflator factor is the stochastic exponential of
``dL = -(1/Z) dmhat`` with ``dmhat = dm - (1/Z) d<m>``, where ``dm`` uses
the closed-form spatial derivative of Z times the Brownian increment and
``d<m>`` its square times dt.  (Differencing Z itself across a step would
silently include the local-time drift on steps that straddle a zero of W,
biasing the martingale part; the derivative form does not.)

Estimator.  The target E[E(L)_t S_{t & tau}] splits over {tau > t} (value
(1/Z_t) e^{-A_t} S_t, A the survival drawdown supported on the zeros of W)
and {tau <= t} (the deflator and the price freeze at the last zero seen so
far).  The raw pathwise average of that split has an infinite-variance
tail at t = 0.75: P(alive, Z_t <= z) ~ z^{4/3}, so the 1/Z values follow a
stable law with index 4/3 and sample standard errors are meaningless.  We
therefore average its exact conditional expectation given the driving
paths at time t,

    V_t = D_t Z_t (S_t + (1 - Z_t) S_{g_t}),

where D_t is the running product of the (1 + dL) factors over all steps
up to t (so D_t Z_t = e^{-A_t} <= 1 cancels the heavy tail exactly) and
g_t is the last zero of W observed up to t.  V_t has the same expectation
and finite variance, so the reported standard errors are honest.

Randomness is counter-based (Philox, keyed by (seed, stream, step) with
the path index as counter position), so every draw is reproducible without
storing paths, and a path's draws do not depend on which other paths are
advanced.  Nothing is chunked: each step works on whole arrays, and each
checkpoint reduces over all paths with numpy's mean and std.

The step kernel is written for few passes over memory, with results
bitwise equal to the formulas as written:

* every elementwise quantity is the same IEEE operation on the same
  operands in the same order, only into preallocated ``out=`` buffers;
  masked updates (``where=``, index assignment) touch only copies and
  correctly rounded basic operations, never a transcendental function;
  the few rewritten operations (a negated divisor, a sign dropped before
  squaring, the clipped bridge exponent) say beside them why no bit or
  outcome changes;
* Z is evaluated once per step: Z(t + dt, W_{t+dt}) from step t serves as
  the next step's (and a checkpoint's) Z, but only when ``t + dt`` is the
  same float as ``(step + 1) * dt`` (at dt = 1e-2, 13 of 75 steps are
  not, and recompute it);
* the nested validation advances only the paths that have not hit zero
  yet (a hit is final, so the estimate is unchanged), and stops when none
  is left.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtri

CHECKPOINTS = (0.25, 0.5, 0.75)

# a path whose survival Z falls below this floor freezes its deflator
Z_FLOOR = 1e-6

# stream identifiers for the Philox keys
_STREAM_PRICE = 0
_STREAM_HORIZON = 1
_STREAM_BRIDGE = 2
_STREAM_NESTED = 3

CATALOG = {
    "CAT-0": "stochastic exponential price, no horizon (control)",
    "CAT-1": "stochastic exponential price, horizon = last zero of an "
    "independent Brownian motion before time 1",
}


class McParameterError(ValueError):
    """A model parameter is out of range; ``field`` names it."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


@dataclass(frozen=True)
class McModel:
    model: str = "CAT-1"
    dt: float = 1e-3
    paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.model not in CATALOG:
            raise McParameterError(
                "model", f"unknown model {self.model!r}; catalog: {sorted(CATALOG)}"
            )
        if not self.paths >= 2:
            raise McParameterError("paths", "need paths >= 2 for a standard error")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise McParameterError("seed", f"need an integer seed, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise McParameterError("seed", "need 0 <= seed < 2**64 (a Philox key word)")
        if not self.dt > 0:
            raise McParameterError("dt", "need dt > 0")
        if not _divides(self.dt, CHECKPOINTS):
            raise McParameterError("dt", "dt must divide the checkpoint times")

    def check_validation_times(self, times) -> None:
        """Raise ``McParameterError('dt', ...)`` unless dt divides the
        horizon 1 - t of every validation time t, so that
        :func:`validate_survival_formula` simulates exactly up to time 1."""
        if not _divides(self.dt, [1.0 - t for t in times]):
            raise McParameterError("dt", "dt must divide the validation horizons 1 - t")


def _divides(dt: float, spans) -> bool:
    """Whether every span is a whole number of steps dt, within 1e-12.

    Written so that dt = inf (a NaN product) and a subnormal dt (an
    infinite step count) fail too."""
    return all(
        math.isfinite(s / dt) and abs(round(s / dt) * dt - s) <= 1e-12 for s in spans
    )


@dataclass(frozen=True)
class PathEstimate:
    model: str
    paths: int
    dt: float
    seed: int
    checkpoints: tuple
    estimates: tuple           # E[E(L)_t S_{t & tau}]
    standard_errors: tuple
    control_estimates: tuple   # E[S_{t & tau}], undeflated
    control_standard_errors: tuple
    frozen_paths: int          # deflator frozen after Z fell below the floor
    positivity_violations: int


@dataclass(frozen=True)
class ValidationPoint:
    t: float
    x: float
    closed_form: float
    estimate: float
    standard_error: float


def _uniforms(seed: int, stream: int, step: int, n: int, out=None) -> np.ndarray:
    """Draws 0..n-1 of the Philox stream keyed by (seed, stream, step) as the
    midpoints (k + 1/2) 2^-53 of the 53-bit grid, k the top 53 bits of a
    draw: values in (0, 1).  Only k = 2^53 - 1 would round up to 1.0, where
    ``ndtri`` is infinite; it is clamped to 1 - 2^-53, the largest double
    below 1.

    ``Generator.random`` returns k 2^-53; adding 2^-54 rounds exactly as
    (k + 0.5) 2^-53 does, because the scale is a power of two."""
    key = np.array([np.uint64(seed), np.uint64((stream << 40) + step)], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(n, out=out)
    u += 2.0**-54
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def _normals(seed: int, stream: int, step: int, n: int, out=None) -> np.ndarray:
    u = _uniforms(seed, stream, step, n, out)
    return ndtri(u, out=u)


def survival_closed_form(t, x):
    """P(an independent Brownian motion from x at time t has a zero in (t, 1])."""
    rem = 1.0 - t
    if np.isscalar(x):
        if rem <= 0.0:
            return 1.0 if x == 0.0 else 0.0
        return float(erfc(abs(x) / math.sqrt(2.0 * rem)))
    x = np.asarray(x)
    if rem <= 0.0:
        return np.where(x == 0.0, 1.0, 0.0)
    r = np.abs(x)
    r /= np.sqrt(2.0 * rem)
    return erfc(r, out=r)


def _zero_in_step(w0: np.ndarray, w1: np.ndarray, dt: float, u: np.ndarray) -> np.ndarray:
    """Whether the Brownian bridge from w0 to w1 over dt touches zero.

    Sign changes (w0 w1 <= 0, so the exponent below is >= 0) always do;
    same-sign steps touch with the classical bridge probability
    exp(-2 w0 w1 / dt), sampled with the uniform u.  The exponent is
    clipped to [-700, 0] before exp.  Above 0 only sign changes lie, which
    are decided already.  Below -700 the outcome is "no" for every
    u >= 2^-54, the least value of ``_uniforms`` (exp(-700) < 2^-54), and
    exp is many times slower on arguments whose result underflows."""
    p = w0 * w1
    p *= -2.0
    p /= dt
    crossed = p >= 0.0
    np.clip(p, -700.0, 0.0, out=p)
    np.exp(p, out=p)
    crossed |= u < p
    return crossed


def simulate(model: McModel) -> PathEstimate:
    """Estimate E[E(L)_t S_{t & tau}] and the undeflated control
    E[S_{t & tau}] at the checkpoints, by conditional Monte Carlo."""
    n = model.paths
    dt = model.dt
    cp_steps = [int(round(t / dt)) for t in CHECKPOINTS]
    last_step = max(cp_steps)

    with_horizon = model.model == "CAT-1"
    sqdt = math.sqrt(dt)
    s = np.ones(n)          # price
    s_at_zero = np.ones(n)  # price at the last zero of W seen so far
    defl = np.ones(n)       # running product of (1 + dL), all steps
    alive = np.ones(n, dtype=bool)  # deflator not frozen
    ea_frozen = np.ones(n)  # e^{-A} = defl * Z captured when a path freezes
    w = np.zeros(n)
    violations = 0
    # Z(z_time, w) and its clamp max(Z, 1e-300)
    z, z_time, zsafe = None, None, np.empty(n)

    def survival_at(t):
        """Z(t, w), computed at most once per step: the previous step leaves
        Z(t' + dt, w) behind, reused when t' + dt is the same float as t."""
        nonlocal z, z_time
        if z_time != t:
            z, z_time = survival_closed_form(t, w), t
            np.maximum(z, 1e-300, out=zsafe)
        return z

    est, se, cest, cse = [], [], [], []

    def record(step):
        if with_horizon:
            z_t = survival_at(step * dt)
            # defl * z telescopes to e^{-A}; on a frozen path A no longer
            # grows, so e^{-A} is the value captured at freeze time.  The
            # alive branch keeps full weight e^{-A} S_t: the 1/Z deflator
            # cancels the survival probability exactly.
            e_drawdown = defl * z_t
            np.copyto(e_drawdown, ea_frozen, where=~alive)
            at_zero = (1.0 - z_t) * s_at_zero
            value = e_drawdown * (s + at_zero)
            control = z_t * s + at_zero
        else:
            value = s.copy()
            control = s
        if not np.isfinite(value).all():
            raise FloatingPointError(
                f"non-finite path value at checkpoint {step * dt}"
            )
        est.append(float(value.mean()))
        se.append(float(value.std(ddof=1) / math.sqrt(n)))
        cest.append(float(control.mean()))
        cse.append(float(control.std(ddof=1) / math.sqrt(n)))

    db = np.empty(n)
    if with_horizon:
        w1, absw1, sign, dlocal, z1, a, b, dw = (np.empty(n) for _ in range(8))
        absw = np.zeros(n)
        newly, flag = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    for step in range(last_step):
        t = step * dt
        if with_horizon:
            z = survival_at(t)
            np.less(z, Z_FLOOR, out=newly)
            newly &= alive
            np.multiply(defl, z, out=ea_frozen, where=newly)
            alive ^= newly
            _normals(model.seed, _STREAM_HORIZON, step, n, dw)
            dw *= sqdt
            np.add(w, dw, out=w1)
            # martingale increment of the survival process: difference the
            # closed form along the path and add back the compensator, whose
            # increment is kappa(t) d(local time at 0) by Tanaka differencing
            # (exactly zero off crossing steps):
            # dlocal = |w1| - |w| - sign(w) dw
            np.sign(w, out=sign)
            np.abs(w1, out=absw1)
            np.subtract(absw1, absw, out=dlocal)
            np.multiply(sign, dw, out=a)
            dlocal -= a
            kappa = math.sqrt(2.0 / (math.pi * (1.0 - t)))
            z_next = survival_closed_form(t + dt, w1)
            np.maximum(z_next, 1e-300, out=z1)
            # dm = (z1 - z) + kappa dlocal
            np.multiply(kappa, dlocal, out=b)
            np.subtract(z1, z, out=a)
            a += b
            # dbr = slope^2 dt, slope = -sign(w) kappa exp(-w^2 / (2 (1 - t)))
            # the closed-form d/dx of Z; negating the divisor and dropping
            # the sign of the slope before squaring change no bit
            np.multiply(w, w, out=b)
            b /= -(2.0 * (1.0 - t))
            np.exp(b, out=b)
            b *= sign
            b *= kappa
            b *= b
            b *= dt
            # diagnostic: would the first-order factor 1 + dL have gone
            # nonpositive at this step size?  lin = 1 - (dm - dbr/zsafe)/zsafe
            b /= zsafe
            np.subtract(a, b, out=a)
            a /= zsafe
            np.subtract(1.0, a, out=a)
            np.less_equal(a, 0.0, out=flag)
            flag &= alive
            violations += int(np.count_nonzero(flag))
            # exact per-step solution of the E-increment dL = -(1/Z) dmhat:
            # the factor (zsafe / z1) exp(-kappa dlocal) telescopes so that
            # defl * Z = exp(-sum kappa dlocal)
            np.multiply(-kappa, dlocal, out=b)
            np.exp(b, out=b)
            np.divide(zsafe, z1, out=a)
            a *= b
            np.multiply(defl, a, out=defl, where=alive)
            hit = _zero_in_step(w, w1, dt, _uniforms(model.seed, _STREAM_BRIDGE, step, n, a))
            hit &= alive
            w, w1 = w1, w
            absw, absw1 = absw1, absw
            z, z_time = z_next, t + dt
            zsafe, z1 = z1, zsafe
        _normals(model.seed, _STREAM_PRICE, step, n, db)
        db *= sqdt
        db -= 0.5 * dt
        s *= np.exp(db, out=db)
        if with_horizon:
            hits = np.flatnonzero(hit)
            s_at_zero[hits] = s[hits]
        if (step + 1) in cp_steps:
            record(step + 1)

    return PathEstimate(
        model=model.model,
        paths=n,
        dt=dt,
        seed=model.seed,
        checkpoints=CHECKPOINTS,
        estimates=tuple(est),
        standard_errors=tuple(se),
        control_estimates=tuple(cest),
        control_standard_errors=tuple(cse),
        frozen_paths=n - int(np.count_nonzero(alive)),
        positivity_violations=violations,
    )


def validate_survival_formula(
    model: McModel, t: float, x: float, subpaths: int, point_id: int = 0
) -> ValidationPoint:
    """Nested-simulation check of the catalog survival formula: estimate the
    zero-hitting probability on (t, 1] from (t, x) and compare with the
    closed form.  dt must divide the horizon 1 - t (``McParameterError``
    otherwise), so the simulation ends exactly at time 1.

    A path that has hit zero is done, so each step advances only the paths
    not yet hit; every step still draws both full-length Philox arrays, so
    a path's draws sit at its own counter position whatever the others did."""
    if not 0.0 <= t < 1.0:
        raise ValueError("need t in [0, 1)")
    if subpaths < 1:
        raise ValueError("need subpaths >= 1")
    model.check_validation_times((t,))
    dt = model.dt
    n_steps = int(round((1.0 - t) / dt))
    n = subpaths
    sqdt = math.sqrt(dt)
    alive = np.arange(n)      # path indices not yet hit
    w = np.full(n, float(x))  # their positions
    base = (point_id + 1) * 10_000_000
    draws = np.empty(n)
    for step in range(n_steps):
        if not alive.size:
            break
        w1 = _uniforms(model.seed, _STREAM_NESTED, base + 2 * step, n, draws)[alive]
        ndtri(w1, out=w1)
        w1 *= sqdt
        w1 += w
        u = _uniforms(model.seed, _STREAM_NESTED, base + 2 * step + 1, n, draws)[alive]
        stays = ~_zero_in_step(w, w1, dt, u)
        alive = alive[stays]
        w = w1[stays]
    p_hat = (n - alive.size) / n
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n) / n)
    return ValidationPoint(
        t=t,
        x=x,
        closed_form=survival_closed_form(t, x),
        estimate=p_hat,
        standard_error=se,
    )
