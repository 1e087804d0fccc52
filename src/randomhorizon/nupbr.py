"""Exact certification of No-Unbounded-Profit-with-Bounded-Risk (NUPBR).

On a finite space with finite horizon, NUPBR coincides with the classical
no-arbitrage notions and is decided node by node: a process passes iff at
every one-period node the conditional increments over the positive-mass
children admit strictly positive convex weights summing to zero, i.e. zero
lies in the relative interior of their convex hull.  The module never
builds an unbounded-profit sequence; the node-wise reduction is itself a
tested invariant (weights reassemble into an equivalent martingale
measure, and failing nodes yield an explicit arbitrage direction).

Only the dates where the process moves are decided: every node of a date
outside ``X.moving`` passes with uniform weights.  Both witnesses
are built on first read, since most callers read only the verdict: the
arbitrage direction by one LP, the node weights from the weights found
while deciding, so no LP runs twice.

The remaining entry points package the equivalence statements that relate
a base-filtration model to its enlargement: single predictable-jump
processes and their reweighted counterparts, the masked-increment
criterion for thin processes, abrupt-collapse witnesses, and the universal
preservation dichotomy driven by the thin set {Zt = 0 & Z_- > 0}.

Every node walk is :meth:`Filtration.nodes`; the masked criterion's family
is the Zt_t-positive family, the walk over the nodes under {Zt_t > 0}.
Every survival set (the zero sets of Z and Zt, the thin set) is a view of
the bundle, read, never decided here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional, Sequence

from .enlargement import AzemaBundle, jump_time_measures
from .errors import EngineError, PreconditionViolated, StructuralViolation
from .generator import random_martingale
from .lp import separating_direction, zero_in_relative_interior
from .projections import is_martingale, nonnegative
from .rational import Q
from .space import (
    AdaptedProcess,
    FiniteSpace,
    Filtration,
    assert_adapted,
    check_date,
    condexp_cells,
    first_nonconstant,
    frac,
    map_cells,
    stop,
    table_shape,
)


@dataclass(frozen=True)
class NodeWeights:
    time: int
    block: tuple  # atom names of the parts[t-1]-block
    children: tuple  # atom-name blocks, only positive-mass children
    weights: tuple  # strictly positive rationals summing to 1


@dataclass(frozen=True)
class Arbitrage:
    time: int
    block: tuple  # atom names of the failing node
    deltas: tuple  # increments dX over the node's positive-mass children

    @cached_property
    def theta(self) -> tuple:
        """Direction with theta . dX >= 0 on the node, > 0 somewhere.

        Solved on first read: most callers need only the verdict."""
        return separating_direction(self.deltas)


class CertResult:
    """The verdict of :func:`certify_nupbr` with exactly one witness: the
    node weights of a true verdict, the arbitrage of a false one.

    ``node_weights`` is a tuple of :class:`NodeWeights`, one per node of
    positive mass in (date, block) order, or a zero-argument callable that
    builds that tuple.  It is built on first read, like
    :attr:`Arbitrage.theta`: most callers read only the verdict.  Results
    compare by verdict, weights and arbitrage."""

    def __init__(
        self,
        verdict: bool,
        node_weights=None,
        arbitrage: Optional[Arbitrage] = None,
    ):
        if verdict and (node_weights is None or arbitrage is not None):
            raise ValueError("a true verdict carries exactly the weight witness")
        if not verdict and (arbitrage is None or node_weights is not None):
            raise ValueError("a false verdict carries exactly the arbitrage witness")
        self.verdict = verdict
        self.arbitrage = arbitrage
        self._weights = node_weights

    @cached_property
    def node_weights(self) -> Optional[tuple]:
        w = self._weights
        return w() if callable(w) else w

    def __eq__(self, other):
        if not isinstance(other, CertResult):
            return NotImplemented
        return (self.verdict, self.node_weights, self.arbitrage) == (
            other.verdict,
            other.node_weights,
            other.arbitrage,
        )

    def __repr__(self):
        return (
            f"CertResult(verdict={self.verdict!r}, node_weights={self.node_weights!r}, "
            f"arbitrage={self.arbitrage!r})"
        )


def _node_weights(filt: Filtration, w, decided: dict) -> tuple:
    """The weight witness of a true verdict: ``decided[t]`` lists the
    (parent, children, weights) found on a date where the process moves;
    every node of a date outside ``X.moving`` has zero increments and
    uniform weights."""
    names = filt.space.atoms
    out = []
    for t in range(1, filt.space.horizon + 1):
        nodes = decided.get(t)
        if nodes is None:
            nodes = [
                (parent, kids, (Q(1, len(kids)),) * len(kids))
                for parent, kids in filt.nodes(t, w)
            ]
        for parent, kids, lam in nodes:
            out.append(
                NodeWeights(
                    t,
                    tuple(names[i] for i in parent),
                    tuple(tuple(names[i] for i in c) for c in kids),
                    lam,
                )
            )
    return tuple(out)


def certify_nupbr(
    X: AdaptedProcess,
    filt: Filtration,
    space: FiniteSpace,
    weights: Optional[Sequence[Q]] = None,
) -> CertResult:
    """Exact node-wise NUPBR certificate, optionally under an absolutely
    continuous reweighting given by nonnegative atom weights (zero-mass
    nodes and children are ignored).

    The weights are nonnegative and not all zero (``ValueError``
    otherwise), so a node has positive mass iff some weight on it is
    nonzero.

    Only the dates where X moves are decided, read from ``X.moving``: on
    a date outside it every node passes, with the uniform weights of an
    all-zero family.  The weights found on the moving nodes are kept, and
    the witness of a true verdict is built from them on first read of
    ``node_weights``.  ``space`` must be ``filt.space`` (else ValueError)."""
    if space != filt.space:
        raise ValueError("the space must be the space of the filtration")
    assert_adapted(X, filt, "certify_nupbr input")
    w = nonnegative(weights, space)
    decided = {}
    for t in sorted(X.moving):
        row = X.increments[t]
        nodes = decided[t] = []
        for parent, kids in filt.nodes(t, w):
            deltas = [row[child[0]] for child in kids]
            ok, lam = zero_in_relative_interior(deltas)
            if not ok:
                block = tuple(space.atoms[i] for i in parent)
                return CertResult(False, arbitrage=Arbitrage(t, block, tuple(deltas)))
            nodes.append((parent, kids, lam))
    return CertResult(True, node_weights=partial(_node_weights, filt, w, decided))


def _jump_shape(xi_values: Sequence[tuple], T: int, space: FiniteSpace) -> int:
    """The length of the cells of xi; ``ValueError`` unless T lies in
    {1, ..., horizon} and xi has one cell per atom, all of one length."""
    check_date(T, 1, space.horizon, "jump date")
    n, dim = table_shape((xi_values,))
    if n != space.n:
        raise ValueError("xi needs one cell per atom of the space")
    return dim


def single_jump_process(
    xi_values: Sequence[tuple],
    T: int,
    space: FiniteSpace,
    mask: Optional[Sequence[bool]] = None,
) -> AdaptedProcess:
    """xi I_{[T, inf)} with an optional atom mask applied to xi; its only
    nonzero increments are at T, and it hands that table over with its
    rows (its moving dates, T or none when the masked jump is zero, are
    read off the rows as for any process).  Each distinct cell object of
    xi is coerced once (:func:`map_cells`) and the mask applied after, so
    the atoms of an F_T-node keep sharing their jump cell.  The shape rule
    holds: ``ValueError`` unless T lies in {1, ..., horizon}, xi has one
    cell per atom, all of one length, and the mask one flag per atom."""
    zero = (Q(0),) * _jump_shape(xi_values, T, space)
    if mask is not None and len(mask) != space.n:
        raise ValueError("the mask needs one flag per atom of the space")
    jump = map_cells((xi_values,), lambda xi: tuple(map(frac, xi)))[0]
    if mask is not None:
        jump = tuple(cell if on else zero for cell, on in zip(jump, mask))
    flat = (zero,) * space.n
    rows = tuple(jump if t >= T else flat for t in space.times)
    table = tuple(jump if t == T else flat for t in space.times)
    return AdaptedProcess._trusted(rows, table)


def _check_xi(xi_values: Sequence[tuple], T: int, bundle: AzemaBundle) -> None:
    """``ValueError`` unless T is a jump date and xi has one cell per atom,
    all of one length (:func:`_jump_shape`); :class:`EngineError` unless xi
    is F_T-measurable."""
    _jump_shape(xi_values, T, bundle.space)
    if first_nonconstant(xi_values, bundle.filt.parts[T]) is not None:
        raise EngineError("xi must be measurable at the jump date")


@dataclass(frozen=True)
class SingleJumpRecord:
    """The four equivalent certificates for a single predictable jump."""

    T: int
    stopped_in_enlarged: bool
    masked_in_base: bool
    under_jump_measure: bool
    under_ratio_measure: bool

    @property
    def consistent(self) -> bool:
        return (
            self.stopped_in_enlarged
            == self.masked_in_base
            == self.under_jump_measure
            == self.under_ratio_measure
        )


def single_jump_equivalences(
    xi_values: Sequence[tuple], T: int, bundle: AzemaBundle
) -> SingleJumpRecord:
    """Certify xi I_{Z_{T-}>0} I_{[T,inf)} four ways: stopped in G, masked by
    {Zt_T > 0} in F, and in F under the two jump-date reweightings."""
    _check_xi(xi_values, T, bundle)
    space, filt = bundle.space, bundle.filt
    alive_prev = [not dead for dead in bundle.z_zero[T - 1]]
    S = single_jump_process(xi_values, T, space, mask=alive_prev)
    masked = [alive and not dead for alive, dead in zip(alive_prev, bundle.zt_zero[T])]
    S_masked = single_jump_process(xi_values, T, space, mask=masked)
    measures = jump_time_measures(T, bundle)
    return SingleJumpRecord(
        T=T,
        stopped_in_enlarged=certify_nupbr(stop(S, bundle.tau), bundle.enlarged, space).verdict,
        masked_in_base=certify_nupbr(S_masked, filt, space).verdict,
        under_jump_measure=certify_nupbr(S, filt, space, weights=measures.q).verdict,
        under_ratio_measure=certify_nupbr(S, filt, space, weights=measures.q_tilde).verdict,
    )


def thin_set_empty_at(bundle: AzemaBundle, T: int) -> bool:
    """True iff no atom has Zt_T = 0 while Z_{T-1} > 0, i.e. the abrupt
    survival collapse {Zt_T = 0} stays inside {Z_{T-} = 0}; ``ValueError``
    unless T lies in {1, ..., horizon}."""
    check_date(T, 1, bundle.space.horizon, "jump date")
    return not any(bundle.thin[T])


def thin_set_empty(bundle: AzemaBundle) -> bool:
    return not bundle.thin_mask


def witness_martingale(T: int, bundle: AzemaBundle) -> AdaptedProcess:
    """Bounded single-jump martingale xi I_{[T,inf)} with
    xi = I_{Zt_T = 0} - P(Zt_T = 0 | F_{T-}), the projection read from
    ``bundle.collapse``; stopping it at tau fails NUPBR in the enlargement
    exactly when the thin set meets date T."""
    check_date(T, 1, bundle.space.horizon, "jump date")
    xi = [((1 if dead else 0) - c,) for dead, c in zip(bundle.zt_zero[T], bundle.collapse[T])]
    return single_jump_process(xi, T, bundle.space)


def collapse_witness(bundle: AzemaBundle) -> Optional[tuple]:
    """The abrupt-collapse counterexample: None when the thin set is empty,
    else (T, M, certificate) with T the first thin date, M its
    :func:`witness_martingale` and the NUPBR certificate of M stopped at
    tau in the enlargement (false, by the preservation theorem).  Read by
    :func:`preservation_report` and the CLI ``witness`` report."""
    T = next((t for t, row in enumerate(bundle.thin) if any(row)), None)
    if T is None:
        return None
    M = witness_martingale(T, bundle)
    return T, M, certify_nupbr(stop(M, bundle.tau), bundle.enlarged, bundle.space)


@dataclass(frozen=True)
class MaskedCriterionRecord:
    per_delta: dict  # Q -> bool
    all_deltas: bool
    stopped_verdict: bool

    @property
    def consistent(self) -> bool:
        return self.all_deltas == self.stopped_verdict


def _masked_families(S: AdaptedProcess, bundle: AzemaBundle):
    """(Z_{t-1}, increments of S over the children that keep Zt_t > 0) per
    node with Z_{t-1} > 0, in (date, block) order: as Z_{t-1} = E[Zt_t |
    F_{t-1}], the nodes and children that meet {Zt_t > 0}."""
    for t in range(1, bundle.space.horizon + 1):
        row = S.increments[t]
        positive = [not dead for dead in bundle.zt_zero[t]]
        for parent, kids in bundle.filt.nodes(t, positive):
            yield bundle.Z.values[t - 1][parent[0]][0], [row[c[0]] for c in kids]


def masked_increment_criterion(S: AdaptedProcess, bundle: AzemaBundle, delta: Q) -> bool:
    """On every node with Z_{t-1} >= delta, zero must lie in the relative
    interior of the convex hull of the increments over children that keep
    Zt_t > 0 (such a node has at least one)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    assert_adapted(S, bundle.filt, "masked-criterion input")
    return all(
        zero_in_relative_interior(family)[0]
        for z, family in _masked_families(S, bundle)
        if z >= delta
    )


def masked_increment_criterion_all(S: AdaptedProcess, bundle: AzemaBundle) -> MaskedCriterionRecord:
    """Quantify the criterion over the finite set of positive values taken by
    Z_-; the conjunction must match the NUPBR certificate of the stopped
    process in the enlargement.  The verdict at any other threshold is
    :func:`masked_increment_criterion`.

    A node's verdict does not depend on delta, so each node is decided at
    most once: the criterion at delta fails iff some failing node has
    Z_{t-1} >= delta, i.e. iff delta <= the largest such Z_{t-1}.

    Requires S to satisfy NUPBR in the base filtration (theorem
    precondition; violations raise :class:`PreconditionViolated`)."""
    space = bundle.space
    if not certify_nupbr(S, bundle.filt, space).verdict:
        raise PreconditionViolated(
            "masked-increment criterion requires the base process to satisfy NUPBR"
        )
    nodes = list(_masked_families(S, bundle))
    worst = Q(0)  # largest Z_{t-1} over the failing nodes seen
    for z, family in nodes:
        if z <= worst:
            continue  # cannot raise the bound, so the node need not be decided
        if not zero_in_relative_interior(family)[0]:
            worst = z
    per = {d: d > worst for d in sorted({z for z, _ in nodes})}
    combined = all(per.values())
    stopped = certify_nupbr(stop(S, bundle.tau), bundle.enlarged, space).verdict
    return MaskedCriterionRecord(per, combined, stopped)


@dataclass(frozen=True)
class MartingaleTransferRecord:
    """Equivalent martingale statements for a centered single jump at T:
    under the jump-date measure in F, the thin-set mean-zero identity, and
    for the stopped process under the positive enlarged weight."""

    T: int
    under_jump_measure: bool
    thin_mean_zero: bool
    stopped_under_enlarged_weight: bool

    @property
    def consistent(self) -> bool:
        return (
            self.under_jump_measure
            == self.thin_mean_zero
            == self.stopped_under_enlarged_weight
        )


def single_jump_martingale_transfer(
    xi_values: Sequence[tuple], T: int, bundle: AzemaBundle
) -> MartingaleTransferRecord:
    _check_xi(xi_values, T, bundle)
    space, filt = bundle.space, bundle.filt
    if any(any(c) for c in condexp_cells(xi_values, filt, T - 1)):
        raise EngineError("xi must have zero conditional mean at T-")
    M = single_jump_process(xi_values, T, space)
    measures = jump_time_measures(T, bundle)

    zero = (Q(0),) * len(xi_values[0])
    thin = [cell if on else zero for on, cell in zip(bundle.thin[T], xi_values)]
    thin_zero = not any(any(c) for c in condexp_cells(thin, filt, T - 1))

    return MartingaleTransferRecord(
        T=T,
        under_jump_measure=is_martingale(M, filt, weights=measures.q),
        thin_mean_zero=thin_zero,
        stopped_under_enlarged_weight=is_martingale(
            stop(M, bundle.tau), bundle.enlarged, weights=measures.u_enlarged
        ),
    )


@dataclass(frozen=True)
class PreservationReport:
    """Both directions of the universal-preservation dichotomy."""

    thin_set_empty: bool
    martingales_checked: int
    preserved: int
    witness_time: Optional[int]
    witness_fails_enlarged: Optional[bool]

    @property
    def consistent(self) -> bool:
        if self.thin_set_empty:
            return self.preserved == self.martingales_checked
        return bool(self.witness_fails_enlarged)


def preservation_report(
    bundle: AzemaBundle, n_martingales: int = 100, seed: int = 0
) -> PreservationReport:
    """If the thin set is empty, stopping preserves NUPBR for a battery of
    ``n_martingales`` >= 0 random bounded martingales (each certified
    exactly); otherwise the explicit witness martingale at a violating date
    fails in the enlargement.

    A draw whose terminal row is not F_H-measurable raises
    :class:`StructuralViolation`: the backward-induced draw is an
    F-martingale exactly when its terminal row is."""
    if n_martingales < 0:
        raise ValueError("the preservation battery size must be >= 0")
    space, filt, tau, enlarged = bundle.space, bundle.filt, bundle.tau, bundle.enlarged
    witness = collapse_witness(bundle)
    if witness is None:
        rng = random.Random(seed)
        preserved = 0
        terminal = filt.parts[space.horizon]
        for _ in range(n_martingales):
            M = random_martingale(space, filt, rng, dim=1, spread=3)
            if first_nonconstant(M.values[space.horizon], terminal) is not None:
                raise StructuralViolation("battery draw is not F-adapted at the horizon")
            preserved += certify_nupbr(stop(M, tau), enlarged, space).verdict
        return PreservationReport(True, n_martingales, preserved, None, None)
    T, _, stopped = witness
    return PreservationReport(False, 0, 0, T, not stopped.verdict)
