"""Optional/predictable projections, dual projections, Doob decomposition,
predictable covariation and exact martingale tests.

In discrete time the dual projections are cumulative conditional
expectations of increments: the dual optional projection conditions on the
current date, the dual predictable one on the previous date.  No
integrability caveats apply on a finite space.
"""

from __future__ import annotations

from math import lcm
from typing import Optional, Sequence

from .errors import NotMartingale
from .rational import Q
from .space import (
    AdaptedProcess,
    FiniteSpace,
    Filtration,
    assert_adapted,
    check_shape,
    condexp,
    condexp_cells,
    frac,
    weighted_sum,
    zip_cells,
)


def predictable_projection(X: AdaptedProcess, filt: Filtration) -> AdaptedProcess:
    """(pX)_t = E[X_t | F_{t-1}] for t >= 1, E[X_0 | F_0] at t = 0."""
    check_shape(X, filt.space)
    rows = tuple(condexp_cells(X.values[t], filt, max(t - 1, 0)) for t in filt.space.times)
    return AdaptedProcess._trusted(rows)


def _dual(V: AdaptedProcess, filt: Filtration, lag: int) -> AdaptedProcess:
    check_shape(V, filt.space)
    increments = [
        condexp_cells(V.increments[t], filt, t - lag)
        for t in range(1, filt.space.horizon + 1)
    ]
    return AdaptedProcess.from_increments(increments)


def dual_optional(V: AdaptedProcess, filt: Filtration) -> AdaptedProcess:
    """Starts at 0; increments E[dV_t | F_t]."""
    return _dual(V, filt, lag=0)


def dual_predictable(V: AdaptedProcess, filt: Filtration) -> AdaptedProcess:
    """Starts at 0; increments E[dV_t | F_{t-1}]; the compensator of V."""
    return _dual(V, filt, lag=1)


def quadratic_covariation(M: AdaptedProcess, N: AdaptedProcess) -> AdaptedProcess:
    """[M, N]_t = sum_{s<=t} dM_s dN_s, componentwise.

    Scalar inputs give a scalar process; vector inputs give the dM x dN
    matrix process in row-major component order; ``ValueError`` unless M
    and N have the same dates and atoms.
    """
    if M.shape[:2] != N.shape[:2]:
        raise ValueError("grids differ")
    increments = zip_cells(
        M.increments[1:], N.increments[1:], lambda dm, dn: tuple(a * b for a in dm for b in dn)
    )
    return AdaptedProcess.from_increments(increments)


def angle_bracket(M: AdaptedProcess, N: AdaptedProcess, filt: Filtration) -> AdaptedProcess:
    """<M, N>_t = sum_{s<=t} E[dM_s dN_s | F_{s-1}]: the compensator of [M, N]."""
    return dual_predictable(quadratic_covariation(M, N), filt)


def is_martingale(
    M: AdaptedProcess, filt: Filtration, weights: Optional[Sequence[Q]] = None
) -> bool:
    """Exact martingale test, optionally under an absolutely continuous
    reweighting.

    ``weights`` is an atom vector of nonnegative rationals, not all zero,
    defining dQ/dP up to normalization; the test then requires
    E_Q[dM_t | F_{t-1}] = 0 on every node of positive Q-mass and ignores the
    rest (Q only needs to be absolutely continuous).

    Adaptedness is the caller's to check (:func:`assert_martingale` does):
    the test reads only the increments, node by node.  ``ValueError``
    unless M fits ``filt.space`` and the weights are one per atom.
    """
    return not any(node_drifts(M, filt, nonnegative(weights, filt.space)))


def nonnegative(weights: Optional[Sequence], space: FiniteSpace) -> Optional[list]:
    """Atom weights as ``Q`` values (None stays None); ``ValueError`` unless
    there is one weight per atom of ``space``, on a negative weight, and
    when no weight is positive, since no Q normalises then."""
    if weights is None:
        return None
    w = [frac(x) for x in weights]
    if len(w) != space.n:
        raise ValueError("one weight per atom required")
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    if not any(w):
        raise ValueError("some weight must be positive")
    return w


def node_drifts(M: AdaptedProcess, filt: Filtration, weights: Optional[Sequence[Q]] = None):
    """Yield, per one-period node and component, sum q(w) dM_t(w) over the
    node, with q = P, or P * E[weights | F_t] under a reweighting whose
    nonnegative ``weights`` are already validated; nodes of zero Q-mass are
    skipped.  Zero increments and zero Q-weights add nothing.

    Each sum runs on integers (:func:`weighted_sum` with q scaled to ints)
    and only a nonzero one becomes a ``Q``; a zero node yields 0.  On a
    date outside ``M.moving`` every node yields its zeros without
    projecting the weights or summing.  ``ValueError`` unless M
    fits ``filt.space``."""
    check_shape(M, filt.space)
    D, P = filt.space.scaled
    zeros = (0,) * M.dim
    for t in range(1, filt.space.horizon + 1):
        if t not in M.moving:
            for block in filt.parts[t - 1]:
                if weights is None or any(weights[i] for i in block):
                    yield from zeros
            continue
        cols = tuple(zip(*M.increments[t]))
        q, qden = P, D
        if weights is not None:
            # Q-weights P * E[w|F_t]: E_Q[dM_t|F_{t-1}] may use the density
            # projected on F_t since dM_t is F_t-measurable; scaled to ints
            # over D * L, L the common denominator of the projection
            proj = condexp(weights, filt, t)
            L = lcm(*(x.denominator for x in proj))
            q = [p * x.numerator * (L // x.denominator) for p, x in zip(P, proj)]
            qden = D * L
        for block in filt.parts[t - 1]:
            # the weights are nonnegative, so a node has positive Q-mass
            # iff some weight on it is nonzero
            if weights is not None and not any(weights[i] for i in block):
                continue
            for col in cols:
                num, den = weighted_sum(q, col, block)
                yield Q(num, den * qden) if num else 0


def assert_martingale(M, filt, name="process"):
    """:class:`NotAdapted` unless M is adapted, :class:`NotMartingale`
    unless it is a martingale."""
    assert_adapted(M, filt, name)
    if not is_martingale(M, filt):
        raise NotMartingale(f"{name} is not a martingale for the given filtration")


def doob(X: AdaptedProcess, filt: Filtration):
    """Unique decomposition X = X_0 + M + A, M martingale null at 0, A
    predictable null at 0 with increments E[dX_t | F_{t-1}]."""
    A = dual_predictable(X, filt)
    start = AdaptedProcess._trusted((X.values[0],) * len(X.values))
    return X - A - start, A
