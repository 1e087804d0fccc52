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
storing paths; accumulation order is fixed by path index regardless of how
work is chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtri

CHECKPOINTS = (0.25, 0.5, 0.75)

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
    horizon: float = 1.0
    z_floor: float = 1e-6

    def __post_init__(self):
        if self.model not in CATALOG:
            raise McParameterError(
                "model", f"unknown model {self.model!r}; catalog: {sorted(CATALOG)}"
            )
        if not self.paths >= 1:
            raise McParameterError("paths", "need paths >= 1")
        if not self.dt > 0:
            raise McParameterError("dt", "need dt > 0")
        # written so that dt = inf (a NaN product) and a subnormal dt (an
        # infinite step count) fail too
        if not all(
            math.isfinite(t / self.dt) and abs(round(t / self.dt) * self.dt - t) <= 1e-12
            for t in CHECKPOINTS
        ):
            raise McParameterError("dt", "dt must divide the checkpoint times")


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


def _uniforms(seed: int, stream: int, step: int, n: int) -> np.ndarray:
    key = np.array([np.uint64(seed), np.uint64((stream << 40) + step)], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(n)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _normals(seed: int, stream: int, step: int, n: int) -> np.ndarray:
    return ndtri(_uniforms(seed, stream, step, n))


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
    return erfc(np.abs(x) / np.sqrt(2.0 * rem))


def _survival_slope(t, x):
    """d/dx of the closed form (sign(x) times the Gaussian kernel)."""
    rem = 1.0 - t
    x = np.asarray(x)
    return -np.sign(x) * np.sqrt(2.0 / (np.pi * rem)) * np.exp(-(x * x) / (2.0 * rem))


def _zero_in_step(w0: np.ndarray, w1: np.ndarray, dt: float, u: np.ndarray) -> np.ndarray:
    """Whether the Brownian bridge from w0 to w1 over dt touches zero.

    Sign changes always do; same-sign steps touch with the classical bridge
    probability exp(-2 w0 w1 / dt), sampled with the uniform u."""
    crossed = w0 * w1 <= 0.0
    prod = np.where(crossed, 1.0, w0 * w1)
    p = np.exp(-2.0 * prod / dt)
    return crossed | (u < p)


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
    frozen = np.zeros(n, dtype=bool)
    ea_frozen = np.ones(n)  # e^{-A} = defl * Z captured when a path freezes
    w = np.zeros(n)
    violations = 0

    est, se, cest, cse = [], [], [], []

    def record(step):
        if with_horizon:
            z = survival_closed_form(step * dt, w)
            # defl * z telescopes to e^{-A}; on a frozen path A no longer
            # grows, so e^{-A} is the value captured at freeze time.  The
            # alive branch keeps full weight e^{-A} S_t: the 1/Z deflator
            # cancels the survival probability exactly.
            e_drawdown = np.where(frozen, ea_frozen, defl * z)
            value = e_drawdown * (s + (1.0 - z) * s_at_zero)
            control = z * s + (1.0 - z) * s_at_zero
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

    for step in range(last_step):
        t = step * dt
        if with_horizon:
            z = survival_closed_form(t, w)
            newly = ~frozen & (z < model.z_floor)
            ea_frozen = np.where(newly, defl * z, ea_frozen)
            frozen |= newly
            dw = _normals(model.seed, _STREAM_HORIZON, step, n) * sqdt
            w1 = w + dw
            # martingale increment of the survival process: difference the
            # closed form along the path and add back the compensator, whose
            # increment is kappa(t) d(local time at 0) by Tanaka differencing
            # (exactly zero off crossing steps)
            dlocal = np.abs(w1) - np.abs(w) - np.sign(w) * dw
            kappa = math.sqrt(2.0 / (math.pi * (1.0 - t)))
            z1 = np.maximum(survival_closed_form(t + dt, w1), 1e-300)
            dm = (z1 - z) + kappa * dlocal
            slope = _survival_slope(t, w)
            dbr = slope * slope * dt
            zsafe = np.maximum(z, 1e-300)
            # exact per-step solution of the E-increment dL = -(1/Z) dmhat:
            # the factor telescopes so that defl * Z = exp(-sum kappa dlocal)
            factor = (zsafe / z1) * np.exp(-kappa * dlocal)
            # diagnostic: would the first-order factor 1 + dL have gone
            # nonpositive at this step size?
            lin = 1.0 - (dm - dbr / zsafe) / zsafe
            violations += int((~frozen & (lin <= 0.0)).sum())
            defl = np.where(frozen, defl, defl * factor)
            u = _uniforms(model.seed, _STREAM_BRIDGE, step, n)
            hit = _zero_in_step(w, w1, dt, u) & ~frozen
            w = w1
        db = _normals(model.seed, _STREAM_PRICE, step, n) * sqdt
        s = s * np.exp(db - 0.5 * dt)
        if with_horizon:
            s_at_zero = np.where(hit, s, s_at_zero)
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
        frozen_paths=int(frozen.sum()) if with_horizon else 0,
        positivity_violations=violations,
    )


def validate_survival_formula(
    model: McModel, t: float, x: float, subpaths: int, point_id: int = 0
) -> ValidationPoint:
    """Nested-simulation check of the catalog survival formula: estimate the
    zero-hitting probability on (t, 1] from (t, x) and compare with the
    closed form."""
    if not 0.0 <= t < 1.0:
        raise ValueError("need t in [0, 1)")
    if subpaths < 1:
        raise ValueError("need subpaths >= 1")
    dt = model.dt
    n_steps = int(round((1.0 - t) / dt))
    n = subpaths
    sqdt = math.sqrt(dt)
    w = np.full(n, float(x))
    hit = np.zeros(n, dtype=bool)
    base = (point_id + 1) * 10_000_000
    for step in range(n_steps):
        dw = _normals(model.seed, _STREAM_NESTED, base + 2 * step, n) * sqdt
        w1 = w + dw
        u = _uniforms(model.seed, _STREAM_NESTED, base + 2 * step + 1, n)
        hit |= _zero_in_step(w, w1, dt, u)
        w = w1
    p_hat = float(hit.mean())
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n) / n)
    return ValidationPoint(
        t=t,
        x=x,
        closed_form=survival_closed_form(t, x),
        estimate=p_hat,
        standard_error=se,
    )
