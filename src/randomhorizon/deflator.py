"""Supermartingale deflators for processes stopped at the random time.

The construction runs entirely in the enlarged filtration G:

* the optional stochastic integral ``H (.) N`` is the compensated sum with
  jumps ``H dN - pG(H dN)`` (discrete time has no continuous part),
* the driver ``L = -(K (.) mhat)`` uses the kernel
  ``K = Z_-^2 / (Z_-^2 + d<m>) * (1/Zt)`` on ``]0, tau]`` and the
  G-martingale part ``mhat`` of the survival martingale ``m``; its jumps
  collapse to the closed form ``dL = (-dm/Zt + pF(I_{Zt=0})) I_{]0,tau]}``,
  which the builder re-derives and checks cell by cell,
* the nondecreasing predictable ``drawdown`` accumulates
  ``pF(I_{Zt=0}) I_{]0,tau]}`` -- the mass lost to abrupt survival
  collapse, read from the survival bundle's ``collapse`` on its ``alive``
  interval -- and the candidate deflator is the stochastic exponential of
  ``L - drawdown``, strictly positive since ``1 + dL - d(drawdown)`` equals
  ``Z_-/Zt`` on ``]0, tau]`` and 1 elsewhere.

``verify_deflator`` is the exact arbiter: per node it maximizes the
deflated one-period wealth over the admissibility polytope by rational LP
and demands the supermartingale inequality, reporting the worst node
otherwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

from .enlargement import AzemaBundle, _times, survival_divisor
from .errors import EngineError, InadmissibleStrategy, StructuralViolation
from .lp import maximize_over_admissible
from .projections import (
    assert_martingale,
    condexp,
    dual_predictable,
    is_martingale,
    node_drifts,
)
from .rational import Q
from .space import (
    AdaptedProcess,
    Filtration,
    assert_adapted,
    assert_predictable,
    check_shape,
    condexp_cells,
    stop,
    zip_cells,
    zip_row,
)


def optional_integral(H: AdaptedProcess, N: AdaptedProcess, filt: Filtration) -> AdaptedProcess:
    """Compensated (optional) stochastic integral of a scalar optional H
    against a martingale N: starts at 0, jumps H dN - E[H dN | G_{t-1}]."""
    if H.dim != 1:
        raise ValueError("optional integrand must be scalar")
    assert_martingale(N, filt, "optional-integral driver")
    assert_adapted(H, filt, "optional integrand")
    prod = _times(H.values, N.increments)[1:]
    proj = [condexp_cells(row, filt, t - 1) for t, row in enumerate(prod, 1)]
    increments = zip_cells(prod, proj, lambda p, q: tuple(map(operator.sub, p, q)))
    return AdaptedProcess.from_increments(increments)


def stoch_exp(N: AdaptedProcess) -> AdaptedProcess:
    """Stochastic exponential: the running product of (1 + dN); requires
    N_0 = 0.  Positive exactly when every factor is positive."""
    if N.dim != 1:
        raise ValueError("stochastic exponential of a scalar process")
    if any(cell[0] != 0 for cell in N.values[0]):
        raise EngineError("stochastic exponential requires N_0 = 0")

    def grow(acc, dN):
        return (acc[0] * (1 + dN[0]),)

    rows = [((Q(1),),) * len(N.values[0])]
    for t in range(1, N.horizon + 1):
        rows.append(zip_row(grow, rows[-1], N.increments[t]))
    return AdaptedProcess._trusted(tuple(rows))


@dataclass(frozen=True)
class DeflatorBundle:
    """Kernel, driver, drawdown and the resulting candidate deflator, with
    the survival bundle they were built from (it owns mhat, G and tau)."""

    kernel: AdaptedProcess      # K, supported on ]0, tau]
    driver: AdaptedProcess      # L = -(K (.) mhat), a G-martingale, L_0 = 0
    drawdown: AdaptedProcess    # nondecreasing G-predictable, jumps in [0, 1)
    deflator: AdaptedProcess    # stochastic exponential of (driver - drawdown)
    bundle: AzemaBundle


def build_deflator(bundle: AzemaBundle) -> DeflatorBundle:
    space, enlarged = bundle.space, bundle.enlarged
    Z, Zt = bundle.Z.values, bundle.Ztilde.values
    bracket = dual_predictable(bundle.m_bracket, bundle.filt).increments  # d<m, m>
    zero = (Q(0),)

    def kernel(alive, zprev, ztilde, dbracket):
        if not alive:
            return zero
        zp = survival_divisor(zprev[0], "Z_-")
        z = survival_divisor(ztilde[0], "Zt")
        kappa = zp * zp + dbracket[0]  # > 0: d<m> >= 0
        return (zp * zp / kappa / z,)

    k_rows = [(zero,) * space.n]
    for t in range(1, space.horizon + 1):
        k_rows.append(zip_row(kernel, bundle.alive[t], Z[t - 1], Zt[t], bracket[t]))
    K = AdaptedProcess._trusted(tuple(k_rows))

    L = -optional_integral(K, bundle.mhat, enlarged)

    # the drawdown, and the closed form of the jumps re-derived
    # independently of the integral; both vanish off ]0, tau]
    def drawdown_jump(alive, inc, dm, ztilde, dL):
        cell, expected = zero, 0
        if alive:
            if not 0 <= inc < 1:
                raise StructuralViolation("drawdown jump outside [0, 1)")
            cell = (inc,)
            expected = -dm[0] / ztilde[0] + inc
        jump = dL[0]
        if jump != expected:
            raise StructuralViolation("driver jumps disagree with the closed form")
        if 1 + jump <= 0:
            raise StructuralViolation("driver jump fell to -1 or below")
        return cell

    m_inc, l_inc = bundle.m.increments, L.increments
    drawdown_increments = [
        zip_row(drawdown_jump, bundle.alive[t], bundle.collapse[t], m_inc[t], Zt[t], l_inc[t])
        for t in range(1, space.horizon + 1)
    ]
    drawdown = AdaptedProcess.from_increments(drawdown_increments)

    if not is_martingale(L, enlarged):
        raise StructuralViolation("deflator driver is not a G-martingale")
    deflator = stoch_exp(L - drawdown)
    if any(cell[0] <= 0 for row in deflator.values for cell in row):
        raise StructuralViolation("candidate deflator is not positive")
    return DeflatorBundle(K, L, drawdown, deflator, bundle)


def is_supermartingale(Y: AdaptedProcess, filt: Filtration) -> bool:
    return all(drift <= 0 for drift in node_drifts(Y, filt))


@dataclass(frozen=True)
class WealthDeflation:
    """Output of :func:`supermartingale_deflator`."""

    process: AdaptedProcess
    positive: bool
    supermartingale: bool


def supermartingale_deflator(
    S: AdaptedProcess, theta: AdaptedProcess, deflators: DeflatorBundle
) -> WealthDeflation:
    """Stochastic exponential of
    dX = dL - dD + theta (1 + dL - dD) dS^tau  (D the drawdown),
    the deflated wealth of the one-period strategy theta on the stopped
    price.  theta must be G-predictable and keep theta . S^tau >= -1;
    ``ValueError`` unless S fits the space."""
    bundle = deflators.bundle
    space, enlarged = bundle.space, bundle.enlarged
    check_shape(S, space)
    assert_predictable(theta, enlarged, "strategy")
    if theta.dim != S.dim:
        raise ValueError("strategy dimension must match the price")
    stopped = stop(S, bundle.tau)
    n = space.n
    wealth = [Q(0)] * n
    increments = []
    for t in range(1, space.horizon + 1):
        row = []
        for i in range(n):
            gain = sum(a * b for a, b in zip(theta.values[t][i], stopped.increments[t][i]))
            wealth[i] += gain
            if wealth[i] < -1:
                raise InadmissibleStrategy(
                    f"wealth dropped below -1 at (atom {space.atoms[i]}, time {t})"
                )
            core = deflators.driver.increments[t][i][0] - deflators.drawdown.increments[t][i][0]
            row.append((core + (1 + core) * gain,))
        increments.append(row)
    E = stoch_exp(AdaptedProcess.from_increments(increments))
    positive = all(cell[0] > 0 for row in E.values for cell in row)
    return WealthDeflation(E, positive, is_supermartingale(E, enlarged))


@dataclass(frozen=True)
class DeflatorFailure:
    time: int
    block: tuple          # atom names of the node
    direction: Optional[tuple]  # strategy or recession direction
    unbounded: bool
    excess: Optional[Q]  # achieved value minus the allowed bound


@dataclass(frozen=True)
class DeflatorVerdict:
    passed: bool
    worst: Optional[DeflatorFailure]


def verify_deflator(
    Y: AdaptedProcess, S_stopped: AdaptedProcess, filt: Filtration
) -> DeflatorVerdict:
    """Exact check that Y deflates every admissible one-period wealth.

    Per node, maximize E[Y_t (1 + theta . dS) | node] over the polytope
    {theta : 1 + theta . dS >= 0 on all children}; the supermartingale
    bound is the node value Y_{t-1}.  An LP unbounded along a profitable
    recession direction fails the node outright."""
    if Y.dim != 1:
        raise ValueError("deflator must be scalar")
    space = filt.space
    assert_adapted(Y, filt, "deflator")
    assert_adapted(S_stopped, filt, "stopped price")
    if any(cell[0] <= 0 for row in Y.values for cell in row):
        raise EngineError("deflator must be strictly positive")
    worst: Optional[DeflatorFailure] = None
    names = space.atoms
    gains = _times(Y.values, S_stopped.increments)
    for t in range(1, space.horizon + 1):
        base_row = condexp([cell[0] for cell in Y.values[t]], filt, t - 1)
        g_row = condexp_cells(gains[t], filt, t - 1)
        for parent, kids in filt.nodes(t):
            deltas = [S_stopped.increments[t][c[0]] for c in kids]
            base, g = base_row[parent[0]], g_row[parent[0]]
            status, direction, value = maximize_over_admissible(g, deltas)
            bound = Y.values[t - 1][parent[0]][0]
            if status == "unbounded":
                failure = DeflatorFailure(
                    t, tuple(names[i] for i in parent), direction, True, None
                )
                return DeflatorVerdict(False, failure)
            if base + value > bound:
                excess = base + value - bound
                if worst is None or excess > worst.excess:
                    worst = DeflatorFailure(
                        t, tuple(names[i] for i in parent), direction, False, excess
                    )
    return DeflatorVerdict(worst is None, worst)
