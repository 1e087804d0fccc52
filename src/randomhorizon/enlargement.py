"""Progressive enlargement of a filtration by a random time.

Given a base filtration F and a random time ``tau`` (an arbitrary atom ->
grid-or-INF map), this module builds the smallest filtration G containing F
that makes ``tau`` a stopping time, and computes the survival machinery
attached to the pair:

* ``Z_t  = P(tau >  t | F_t)``   (Azema supermartingale),
* ``Zt_t = P(tau >= t | F_t)``   (its left-closed variant),
* ``m = Z + D^o`` where ``D^o`` is the dual optional projection of the
  default indicator ``I_{[tau, inf)}`` -- an F-martingale,
* the thin set ``{Zt = 0 & Z_- > 0}`` where survival collapses abruptly,
* the death time, the first t with Z_{t-1} = 0, and its sudden part on
  {Zt = 0}.

``azema(filt, tau, space)`` returns an ``AzemaBundle`` that owns its model:
it carries (F, tau, P) as ``filt``, ``tau`` and ``space`` and builds the
enlargement G on first read of ``bundle.enlarged`` (so a caller that only
reads Z never pays for G).  It also owns the two survival views every
reader shares, each built once on first read: the stochastic interval
``]0, tau]`` as ``bundle.alive`` and the abrupt-collapse mass
P(Zt_t = 0 | F_{t-1}) as ``bundle.collapse``.  Every function below that
takes a bundle takes nothing else of the model and decides neither view
itself: the exact transfer formulas between F- and G-compensators and
projections on ``]0, tau]`` and the two change-of-measure weight families
attached to a predictable jump date.  The reduction of G-predictable
processes to F-predictable ones works on any pair of filtrations and keeps
its explicit arguments.

Every transfer formula is an F-predictable projection divided by Z_- on
``]0, tau]``, written once in ``_over_zprev``: the G-compensator of V^tau
projects Zt dV, the G-martingale part of M^tau subtracts the projection of
dM dm, and the rescaled identity pG(dV/Zt) = pF(I_{Zt>0} dV)/Z_- projects
I_{Zt>0} dV.  ``_rescaled_sides`` builds both sides of that identity;
``compensator_of_rescaled`` sums its G-side, and
``projection_transfer_identities`` evaluates it for M and for the clock
V_t = t, whose jump identity is the unit identity pG(1/Zt) = pF(I_{Zt>0})/Z_-.

Key structural facts the engine relies on (and re-checks at build time):
``Zt_t = Z_{t-1} + dm_t`` for t >= 1, and ``{Zt = 0}``, ``{Z_- = 0}`` never
meet ``]0, tau]``.  Every division by Z_- or Zt there reads its divisor
through ``survival_divisor``, which raises ``StructuralViolation`` if not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import NotPredictable, StructuralViolation
from .projections import condexp, is_martingale, quadratic_covariation
from .space import (
    INF,
    AdaptedProcess,
    FiniteSpace,
    Filtration,
    RandomTime,
    assert_adapted,
    check_stopping_time,
    condexp_cells,
    first_nonconstant,
    is_predictable,
    stop,
)
from .projections import assert_martingale

_ZERO = Fraction(0)


def enlarge(filt: Filtration, tau: RandomTime, space: FiniteSpace) -> Filtration:
    """Progressive enlargement: split each F_t-block by {tau = s}, s <= t,
    keeping {tau > t} together."""
    parts = []
    for t in space.times:
        blocks = []
        for block in filt.parts[t]:
            groups = {}
            for i in block:
                v = tau.at(i)
                key = v if (v is not INF and v <= t) else "alive"
                groups.setdefault(key, []).append(i)
            blocks.extend(groups.values())
        parts.append(tuple(tuple(b) for b in blocks))
    enlarged = Filtration(tuple(parts))
    if not check_stopping_time(tau, enlarged, space):
        raise StructuralViolation("enlargement failed to absorb the random time")
    return enlarged


@dataclass(frozen=True)
class AzemaBundle:
    """Survival data of the model (F, tau, P), which the bundle carries as
    ``filt``, ``tau`` and ``space``; the enlargement G is built on first
    read of ``enlarged``.

    ``death`` is the first grid time t >= 1 with Z_{t-1} = 0 (0 when Z_0 = 0,
    INF when Z never dies), so Z_{death-} = 0 wherever it is finite: every
    death is announced.  ``sudden_death`` restricts it to {Zt_death = 0},
    INF elsewhere.  ``thin_mask`` collects the (atom, t) pairs where Zt_t = 0
    while Z_{t-1} > 0.

    The bundle also owns what more than one check reads, each built once
    per bundle, on first read: ``alive``, the stochastic interval
    ``]0, tau]``; ``collapse``, the F-predictable projection of the abrupt
    collapse {Zt = 0}; and the two processes of m, ``mhat``, the
    G-martingale part ``g_martingale_part(m)``, and ``m_bracket``, the
    quadratic variation [m, m].  ``dataclasses.replace`` gives a new bundle
    that builds all of them afresh.
    """

    Z: AdaptedProcess
    Ztilde: AdaptedProcess
    default_compensator: AdaptedProcess  # dual optional projection of I_[tau, inf)
    m: AdaptedProcess
    thin_mask: frozenset
    death: RandomTime
    sudden_death: RandomTime
    filt: Filtration
    tau: RandomTime
    space: FiniteSpace

    def thin_times(self):
        return sorted({t for (_, t) in self.thin_mask})

    @cached_property
    def enlarged(self) -> Filtration:
        return enlarge(self.filt, self.tau, self.space)

    @cached_property
    def alive(self) -> tuple:
        """``alive[t][i]`` is true iff 0 < t <= tau(i), i.e. (atom i, t) lies
        in ]0, tau]."""
        tau = self.tau.values
        return tuple(tuple(0 < t <= v for v in tau) for t in self.space.times)

    @cached_property
    def collapse(self) -> tuple:
        """``collapse[t]`` is the atom vector P(Zt_t = 0 | F_{t-1}) for
        t >= 1 (None at t = 0).  It is 1 on {Z_{t-1} = 0}, where Zt_t
        vanishes too, and elsewhere the mass of the thin set {Zt = 0 < Z_-}
        seen from F."""
        one, space = Fraction(1), self.space
        return (None,) + tuple(
            condexp(
                [one if c[0] == 0 else _ZERO for c in self.Ztilde.values[t]],
                self.filt.parts[t - 1],
                space,
            )
            for t in range(1, space.horizon + 1)
        )

    @cached_property
    def mhat(self) -> AdaptedProcess:
        return g_martingale_part(self.m, self)

    @cached_property
    def m_bracket(self) -> AdaptedProcess:
        return quadratic_covariation(self.m, self.m)

    @cached_property
    def _jump_measures(self) -> dict:
        # jump_time_measures results, keyed by the jump date
        return {}


def azema(filt: Filtration, tau: RandomTime, space: FiniteSpace) -> AzemaBundle:
    n = space.n
    zero = Fraction(0)

    z_rows, zt_rows, default_increments = [], [], []
    for t in space.times:
        gt = [Fraction(1) if tau.at(i) > t else zero for i in range(n)]
        ge = [Fraction(1) if tau.at(i) >= t else zero for i in range(n)]
        z_rows.append(condexp(gt, filt.parts[t], space))
        zt_rows.append(condexp(ge, filt.parts[t], space))
        if t >= 1:
            eq = [(Fraction(1) if tau.at(i) == t else zero,) for i in range(n)]
            default_increments.append(condexp_cells(eq, filt.parts[t], space))

    Z = AdaptedProcess.from_scalar_paths(z_rows)
    Zt = AdaptedProcess.from_scalar_paths(zt_rows)
    Dof = AdaptedProcess.from_increments(1, n, default_increments)
    m = Z + Dof

    # engine self-checks: these identities hold on every valid instance
    assert_martingale(m, filt, space, "survival martingale part")
    for t in space.times:
        for i in range(n):
            z, zt = Z.scalar_at(t, i), Zt.scalar_at(t, i)
            if not (0 <= z <= zt <= 1):
                raise StructuralViolation("survival ordering 0 <= Z <= Zt <= 1 failed")
            if t >= 1 and zt != Z.scalar_at(t - 1, i) + m.delta_at(t, i)[0]:
                raise StructuralViolation("Zt = Z_- + dm failed")
            if t >= 1 and t <= tau.at(i) and (zt == 0 or Z.scalar_at(t - 1, i) == 0):
                raise StructuralViolation("{Zt=0} or {Z_-=0} met ]0, tau]")

    mask = frozenset(
        (space.atoms[i], t)
        for t in range(1, space.horizon + 1)
        for i in range(n)
        if Zt.scalar_at(t, i) == 0 and Z.scalar_at(t - 1, i) > 0
    )

    # 0 when Z_0 = 0, else the first t >= 1 with Z_{t-1} = 0
    death = [
        next((t for t in space.times if Z.scalar_at(max(t - 1, 0), i) == 0), INF)
        for i in range(n)
    ]
    sudden = [d if d is not INF and Zt.scalar_at(d, i) == 0 else INF for i, d in enumerate(death)]

    return AzemaBundle(
        Z=Z,
        Ztilde=Zt,
        default_compensator=Dof,
        m=m,
        thin_mask=mask,
        death=RandomTime(tuple(death)),
        sudden_death=RandomTime(tuple(sudden)),
        filt=filt,
        tau=tau,
        space=space,
    )


def survival_divisor(x: Fraction, name: str) -> Fraction:
    """``x``, a value of ``name`` ("Z_-" or "Zt") divided by on ]0, tau];
    :class:`StructuralViolation` if it vanished there."""
    if x == 0:
        raise StructuralViolation(f"{name} vanished inside ]0, tau]; engine invariant broken")
    return x


def _times(scalars, cells) -> list:
    """The row of cells scaled atom by atom by the cells of a scalar row."""
    return [tuple(s[0] * c for c in cell) for s, cell in zip(scalars, cells)]


def _over_zprev(cells, t: int, bundle: AzemaBundle) -> tuple:
    """The row (1/Z_{t-1}) I_{t <= tau} E[cells | F_{t-1}], zero off ]0, tau].

    The projection and Z_{t-1} are both constant on an F_{t-1}-block, so
    each block divides once and its alive atoms share the resulting cell."""
    space, alive = bundle.space, bundle.alive[t]
    blocks = bundle.filt.parts[t - 1]
    proj = condexp_cells(cells, blocks, space)
    row = [(_ZERO,) * len(cells[0])] * space.n
    for block in blocks:
        inside = [i for i in block if alive[i]]
        if not inside:
            continue
        zprev = survival_divisor(bundle.Z.scalar_at(t - 1, block[0]), "Z_-")
        cell = tuple(c / zprev for c in proj[block[0]])
        for i in inside:
            row[i] = cell
    return tuple(row)


def _rescaled_sides(V: AdaptedProcess, bundle: AzemaBundle) -> list:
    """Per date t = 1..horizon, the pair of rows (pG(dV_t / Zt_t), pF(I_{Zt_t > 0}
    dV_t) / Z_{t-1}), both restricted to ]0, tau].

    On the G-side every G_{t-1}-node lies wholly in {tau >= t} or outside
    it, so averaging over the node is averaging over its alive part."""
    space = bundle.space
    zero = (_ZERO,) * V.dim
    sides = []
    for t in range(1, space.horizon + 1):
        zt, dv, alive = bundle.Ztilde.values[t], V.increments[t], bundle.alive[t]
        rescaled = [zero] * space.n
        for i, (z, cell) in enumerate(zip(zt, dv)):
            if alive[i] and any(cell):
                z_i = survival_divisor(z[0], "Zt")
                rescaled[i] = tuple(c / z_i for c in cell)
        masked = [cell if z[0] > 0 else zero for z, cell in zip(zt, dv)]
        g_side = condexp_cells(rescaled, bundle.enlarged.parts[t - 1], space)
        sides.append((g_side, _over_zprev(masked, t, bundle)))
    return sides


def compensator_of_stopped(V: AdaptedProcess, bundle: AzemaBundle) -> AdaptedProcess:
    """G-compensator of the stopped process V^tau, in F-closed form.

    Increments: (1/Z_{t-1}) I_{t <= tau} E[Zt_t dV_t | F_{t-1}].  Equals
    ``dual_predictable(stop(V, tau), bundle.enlarged)`` exactly; that
    equality is asserted by the test-suite rather than recomputed here.
    """
    assert_adapted(V, bundle.filt, "V")
    increments = [
        _over_zprev(_times(bundle.Ztilde.values[t], V.increments[t]), t, bundle)
        for t in range(1, bundle.space.horizon + 1)
    ]
    return AdaptedProcess.from_increments(V.dim, bundle.space.n, increments)


def compensator_of_rescaled(V: AdaptedProcess, bundle: AzemaBundle) -> AdaptedProcess:
    """G-compensator of U := (1/Zt) I_{]0,tau]} . V, with its F-closed form.

    Asserts the closed form (1/Z_-) I_{]0,tau]} . (I_{Zt>0} . V)^{p,F}
    against the G-compensator, and, when the increments of V are supported
    on {Zt > 0}, the converse identity dV^{p,F} = Z_- dU^{p,G} on ]0, tau].
    """
    space, filt = bundle.space, bundle.filt
    assert_adapted(V, filt, "V")
    sides = _rescaled_sides(V, bundle)
    supported = all(
        not any(V.increments[t][i])
        for t in range(1, space.horizon + 1)
        for i in range(space.n)
        if bundle.Ztilde.scalar_at(t, i) == 0
    )
    for t, (got, closed) in enumerate(sides, 1):
        if got != closed:
            raise StructuralViolation("rescaled-compensator transfer identity failed")
        if not supported:
            continue
        plain = condexp_cells(V.increments[t], filt.parts[t - 1], space)
        for i in range(space.n):
            zprev = bundle.Z.scalar_at(t - 1, i)
            if bundle.alive[t][i] and plain[i] != tuple(zprev * g for g in got[i]):
                raise StructuralViolation("converse compensator identity failed on ]0, tau]")
    return AdaptedProcess.from_increments(V.dim, space.n, [got for got, _ in sides])


def g_martingale_part(M: AdaptedProcess, bundle: AzemaBundle) -> AdaptedProcess:
    """G-martingale part of the stopped F-martingale M:

        Mhat_t = M^tau_t - sum_{s <= t & tau} E[dM_s dm_s | F_{s-1}] / Z_{s-1}.

    The output is verified to be an exact G-martingale.
    """
    space = bundle.space
    assert_martingale(M, bundle.filt, space, "input of g_martingale_part")
    drift = [
        _over_zprev(_times(bundle.m.increments[t], M.increments[t]), t, bundle)
        for t in range(1, space.horizon + 1)
    ]
    result = stop(M, bundle.tau) - AdaptedProcess.from_increments(M.dim, space.n, drift)
    if not is_martingale(result, bundle.enlarged, space):
        raise StructuralViolation("drift-corrected stopped process is not a G-martingale")
    return result


@dataclass(frozen=True)
class TransferIdentities:
    """Both sides of the two projection-ratio identities on ]0, tau], per
    date (not summed), stored as processes that vanish off the interval."""

    jump_lhs: AdaptedProcess   # pG(dM / Zt)
    jump_rhs: AdaptedProcess   # pF(dM I_{Zt>0}) / Z_-
    unit_lhs: AdaptedProcess   # pG(1 / Zt)
    unit_rhs: AdaptedProcess   # pF(I_{Zt>0}) / Z_-

    @property
    def consistent(self) -> bool:
        return (
            self.jump_lhs.values == self.jump_rhs.values
            and self.unit_lhs.values == self.unit_rhs.values
        )


def projection_transfer_identities(
    M: AdaptedProcess, bundle: AzemaBundle
) -> TransferIdentities:
    """Evaluate pG(dM/Zt) = pF(dM I_{Zt>0})/Z_- and pG(1/Zt) = pF(I_{Zt>0})/Z_-
    on ]0, tau] for an F-martingale M; equality is asserted.

    The unit identity is the jump identity of the clock V_t = t."""
    space = bundle.space
    assert_martingale(M, bundle.filt, space, "input of projection_transfer_identities")
    if M.dim != 1:
        raise ValueError("transfer identities are per scalar component")
    n = space.n
    clock = AdaptedProcess.from_increments(1, n, [((Fraction(1),),) * n] * space.horizon)
    first = ((_ZERO,),) * n
    rows = []
    for V in (M, clock):
        sides = _rescaled_sides(V, bundle)
        for k in (0, 1):
            rows.append(AdaptedProcess._trusted(1, (first,) + tuple(s[k] for s in sides)))
    out = TransferIdentities(*rows)
    if not out.consistent:
        raise StructuralViolation("projection-ratio transfer identity failed")
    return out


@dataclass(frozen=True)
class JumpTimeMeasures:
    """Weight vectors attached to a predictable jump date T.

    ``q`` and ``q_tilde`` are absolutely continuous changes of measure with
    expectation exactly 1 under P; ``u_enlarged`` is the strictly positive
    G-weight used to transfer single-jump martingale tests across the
    enlargement.
    """

    q: tuple
    q_tilde: tuple
    u_enlarged: tuple


def jump_time_measures(T: int, bundle: AzemaBundle) -> JumpTimeMeasures:
    """The weights of the jump date T, computed once per bundle and date.

    ``q`` is I_{Zt_T > 0} / P(Zt_T > 0 | F_{T-1}), where that mass is
    1 - ``bundle.collapse[T]`` > 0, and 1 elsewhere."""
    space = bundle.space
    if not 1 <= T <= space.horizon:
        raise ValueError("jump date must lie in {1, ..., horizon}")
    cached = bundle._jump_measures.get(T)
    if cached is not None:
        return cached
    one = Fraction(1)
    zprev = [c[0] for c in bundle.Z.values[T - 1]]
    zt = [c[0] for c in bundle.Ztilde.values[T]]
    q = tuple(
        (one / (one - c) if z > 0 else _ZERO) if c < 1 else one
        for z, c in zip(zt, bundle.collapse[T])
    )
    qt = tuple(z / zp if zp > 0 else one for zp, z in zip(zprev, zt))
    ug = tuple(
        zp / survival_divisor(z, "Zt") if a else one
        for zp, z, a in zip(zprev, zt, bundle.alive[T])
    )
    if space.expectation(q) != 1 or space.expectation(qt) != 1:
        raise StructuralViolation("jump-date measures must have expectation 1")
    if any(u <= 0 for u in ug):
        raise StructuralViolation("enlarged jump-date weight must be positive")
    out = bundle._jump_measures[T] = JumpTimeMeasures(q, qt, ug)
    return out


def reduce_g_predictable(
    H: AdaptedProcess,
    filt: Filtration,
    enlarged: Filtration,
    tau: RandomTime,
    space: FiniteSpace,
) -> AdaptedProcess:
    """F-predictable reduction of a G-predictable process.

    The output agrees with the input on ]0, tau]; strict positivity and
    upper bounds by 1 are preserved (cells not seen on ]0, tau] are filled
    with 1).  On each F_{t-1}-block the sub-block {tau >= t} is a single
    G_{t-1}-atom, so the copied value is well defined.
    """
    if not is_predictable(H, enlarged):
        raise NotPredictable("input of reduce_g_predictable is not G-predictable")
    one = tuple(Fraction(1) for _ in range(H.dim))
    rows = []
    for t in space.times:
        blocks = filt.parts[max(t - 1, 0)]
        alive = [[i for i in block if tau.at(i) >= max(t, 1)] for block in blocks]
        if first_nonconstant(H.values[t], [a for a in alive if a]) is not None:
            raise StructuralViolation(
                "G-predictable process not constant on an alive sub-block"
            )
        row = [one] * space.n
        for block, survivors in zip(blocks, alive):
            if survivors:
                for i in block:
                    row[i] = H.values[t][survivors[0]]
        rows.append(tuple(row))
    return AdaptedProcess(H.dim, tuple(rows))
