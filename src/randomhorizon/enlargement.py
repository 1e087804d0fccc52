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

``azema(filt, tau)`` returns an ``AzemaBundle`` whose fields are the model
(F, tau, P), carried as ``filt``, ``tau`` and ``filt.space``, and its four
processes Z, Zt, D^o and m.  Everything else is a view of these, built once
on first read, so ``dataclasses.replace`` rebuilds it: the enlargement G as
``bundle.enlarged`` (a caller that only reads Z never pays for G), the
stochastic interval ``]0, tau]`` as ``bundle.alive``, the zero sets of Z and
Zt as ``bundle.z_zero`` and ``bundle.zt_zero``, the thin set as
``bundle.thin`` and ``bundle.thin_mask``, the death times, and the
abrupt-collapse mass P(Zt_t = 0 | F_{t-1}) as ``bundle.collapse``.  Every
function below that takes a bundle takes nothing else of the model and
decides none of these sets itself; only a body that divides by Z_- or Zt
reads the value: the exact transfer formulas between F- and
G-compensators and projections on ``]0, tau]``, the two
change-of-measure weight families attached to a predictable jump date,
and the reduction of a G-predictable process to an F-predictable one on
``]0, tau]``, which holds only for the enlargement of F by tau and so
reads G and ``]0, tau]`` from the bundle.

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
Each per-atom body runs once per distinct tuple of the objects it reads
(:func:`space.zip_cells`, :func:`space.zip_row`), so every such check is
decided on each distinct input and raises at the same first atom as an
atom-by-atom loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NotPredictable, StructuralViolation
from .projections import assert_martingale, condexp, is_martingale, quadratic_covariation
from .rational import Q
from .space import (
    INF,
    AdaptedProcess,
    FiniteSpace,
    Filtration,
    RandomTime,
    assert_adapted,
    check_date,
    check_fits,
    check_stopping_time,
    condexp_cells,
    first_nonconstant,
    is_predictable,
    map_cells,
    stop,
    zip_cells,
    zip_row,
)

_ZERO = Q(0)


def enlarge(filt: Filtration, tau: RandomTime) -> Filtration:
    """Progressive enlargement: split each F_t-block by {tau = s}, s <= t,
    keeping {tau > t} together.

    F is canonical and a split keeps each block's order, so sorting the
    blocks of each date makes G canonical; G_t refines G_{t-1}, since F
    does and {tau > t-1} only splits further.  So the children table of
    each date is read off an atom -> block map of the date before, and G
    is built by :meth:`Filtration._trusted` without a second pass of
    checks.  The stopping-time self-check still runs on the result."""
    check_fits(tau, filt.space)
    parts, children = [], [()]
    for t in filt.space.times:
        blocks = []
        for block in filt.parts[t]:
            groups = {}
            for i in block:
                v = tau.values[i]
                key = v if (v is not INF and v <= t) else "alive"
                groups.setdefault(key, []).append(i)
            blocks.extend(map(tuple, groups.values()))
        blocks.sort()
        if parts:
            owner = {i: k for k, b in enumerate(parts[-1]) for i in b}
            kids = [[] for _ in parts[-1]]
            for b in blocks:
                kids[owner[b[0]]].append(b)
            children.append(tuple(map(tuple, kids)))
        parts.append(tuple(blocks))
    enlarged = Filtration._trusted(filt, tuple(parts), tuple(children))
    if not check_stopping_time(tau, enlarged):
        raise StructuralViolation("enlargement failed to absorb the random time")
    return enlarged


@dataclass(frozen=True)
class AzemaBundle:
    """Survival data of the model (F, tau, P): its fields are the model,
    carried as ``filt`` and ``tau`` (P and the grid are ``space``, read from
    ``filt``), and its processes Z, Zt, the compensator D^o and m.

    Everything else is a view of the fields, built once per bundle on first
    read, and ``dataclasses.replace`` gives a new bundle that builds all of
    them afresh: the enlargement G, ``enlarged``; the stochastic interval
    ``]0, tau]``, ``alive``; the zero sets of Z and Zt, ``z_zero`` and
    ``zt_zero``; the thin set {Zt = 0 < Z_-}, ``thin`` and ``thin_mask``;
    the death times ``death`` and ``sudden_death``; ``collapse``, the
    F-predictable projection of the abrupt collapse {Zt = 0}; and the two
    processes of m, ``mhat``, the G-martingale part ``g_martingale_part(m)``,
    and ``m_bracket``, the quadratic variation [m, m].
    """

    Z: AdaptedProcess
    Ztilde: AdaptedProcess
    default_compensator: AdaptedProcess  # dual optional projection of I_[tau, inf)
    m: AdaptedProcess
    filt: Filtration
    tau: RandomTime

    @property
    def space(self) -> FiniteSpace:
        return self.filt.space

    @cached_property
    def enlarged(self) -> Filtration:
        return enlarge(self.filt, self.tau)

    @cached_property
    def alive(self) -> tuple:
        """``alive[t][i]`` is true iff 0 < t <= tau(i), i.e. (atom i, t) lies
        in ]0, tau]."""
        tau = self.tau.values
        return tuple(tuple(0 < t <= v for v in tau) for t in self.space.times)

    @cached_property
    def z_zero(self) -> tuple:
        """``z_zero[t][i]`` is true iff Z_t = 0 at atom i; the atoms of a
        node share one flag."""
        return map_cells(self.Z.values, _vanishes)

    @cached_property
    def zt_zero(self) -> tuple:
        """``zt_zero[t][i]`` is true iff Zt_t = 0 at atom i."""
        return map_cells(self.Ztilde.values, _vanishes)

    @cached_property
    def thin(self) -> tuple:
        """``thin[t][i]`` is true iff Zt_t = 0 < Z_{t-1} at atom i; row 0 is
        all false.  Z >= 0, so Z_{t-1} > 0 is "Z_{t-1} does not vanish"."""
        z, zt = self.z_zero, self.zt_zero
        return ((False,) * self.space.n,) + tuple(
            tuple(now and not before for now, before in zip(zt[t], z[t - 1]))
            for t in range(1, self.space.horizon + 1)
        )

    @cached_property
    def thin_mask(self) -> frozenset:
        """The thin set as (atom name, t) pairs."""
        atoms = self.space.atoms
        return frozenset(
            (atoms[i], t) for t, row in enumerate(self.thin) for i, on in enumerate(row) if on
        )

    @cached_property
    def death(self) -> RandomTime:
        """The first grid time t >= 1 with Z_{t-1} = 0 (0 when Z_0 = 0, INF
        when Z never dies), so Z_{death-} = 0 wherever it is finite: every
        death is announced."""
        z = self.z_zero
        return RandomTime(tuple(
            next((t for t in self.space.times if z[max(t - 1, 0)][i]), INF)
            for i in range(self.space.n)
        ))

    @cached_property
    def sudden_death(self) -> RandomTime:
        """``death`` restricted to {Zt_death = 0}, INF elsewhere."""
        zt = self.zt_zero
        return RandomTime(tuple(
            d if d is not INF and zt[d][i] else INF for i, d in enumerate(self.death.values)
        ))

    @cached_property
    def collapse(self) -> tuple:
        """``collapse[t]`` is the atom vector P(Zt_t = 0 | F_{t-1}) for
        t >= 1 (None at t = 0).  It is 1 on {Z_{t-1} = 0}, where Zt_t
        vanishes too, and elsewhere the mass of the thin set {Zt = 0 < Z_-}
        seen from F."""
        one = Q(1)
        return (None,) + tuple(
            condexp([one if dead else _ZERO for dead in self.zt_zero[t]], self.filt, t - 1)
            for t in range(1, self.space.horizon + 1)
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


def azema(filt: Filtration, tau: RandomTime) -> AzemaBundle:
    """The survival bundle of (F, tau, P).  Z, Zt, m and the compensator hold
    one cell object per F-node.

    Z_t, Zt_t and dD^o_t are :func:`condexp_cells` rows of the indicators
    of {tau > t}, {tau >= t} and {tau = t}, built from two shared cells,
    (1,) and (0,): a block of ``filt.parts[t]`` on which the indicator is
    constant (tau on one side of t) returns that cell object unchanged,
    which is its exact mean, and only a block that tau splits is summed.

    The self-checks on Z, Zt and m are decided at one atom per
    ``filt.parts[t]``-block: Z_t and Zt_t are conditional expectations on
    that partition, Z_{t-1} is constant on its coarser one, and
    :func:`assert_martingale` has checked that m is adapted, so every atom
    of a block carries the values of its first.  Only the check that
    {Zt = 0} and {Z_- = 0} miss ]0, tau] runs per atom, on the bundle's
    views ``alive``, ``z_zero`` and ``zt_zero``."""
    space = filt.space
    check_fits(tau, space)
    on, off = (Q(1),), (_ZERO,)
    times = tau.values

    z_rows, zt_rows, default_increments = [], [], []
    for t in space.times:
        z_rows.append(condexp_cells([on if v > t else off for v in times], filt, t))
        zt_rows.append(condexp_cells([on if v >= t else off for v in times], filt, t))
        if t >= 1:
            eq = [on if v == t else off for v in times]
            default_increments.append(condexp_cells(eq, filt, t))

    Z = AdaptedProcess._trusted(tuple(z_rows))
    Zt = AdaptedProcess._trusted(tuple(zt_rows))
    Dof = AdaptedProcess.from_increments(default_increments)
    m = Z + Dof

    bundle = AzemaBundle(Z=Z, Ztilde=Zt, default_compensator=Dof, m=m, filt=filt, tau=tau)

    # engine self-checks: these identities hold on every valid instance
    assert_martingale(m, filt, "survival martingale part")
    z_dead, zt_dead = bundle.z_zero, bundle.zt_zero
    for t in space.times:
        prev = max(t - 1, 0)
        for block in filt.parts[t]:
            i = block[0]
            (z,), (zt,), (zprev,) = Z.values[t][i], Zt.values[t][i], Z.values[prev][i]
            if not (0 <= z <= zt <= 1):
                raise StructuralViolation("survival ordering 0 <= Z <= Zt <= 1 failed")
            if t >= 1 and zt != zprev + (m.values[t][i][0] - m.values[prev][i][0]):
                raise StructuralViolation("Zt = Z_- + dm failed")
        if t >= 1 and any(
            alive and (zt_dead[t][i] or z_dead[t - 1][i])
            for i, alive in enumerate(bundle.alive[t])
        ):
            raise StructuralViolation("{Zt=0} or {Z_-=0} met ]0, tau]")
    return bundle


def _vanishes(cell) -> bool:
    return cell[0] == 0


def survival_divisor(x: Q, name: str) -> Q:
    """``x``, a value of ``name`` ("Z_-" or "Zt") divided by on ]0, tau];
    :class:`StructuralViolation` if it vanished there."""
    if x == 0:
        raise StructuralViolation(f"{name} vanished inside ]0, tau]; engine invariant broken")
    return x


def _times(scalars, cells) -> tuple:
    """The table of cells scaled by the cells of a scalar table, once per
    distinct pair of cells (:func:`zip_cells`)."""
    return zip_cells(scalars, cells, lambda s, cell: tuple(s[0] * c for c in cell))


def _over_zprev(cells, t: int, bundle: AzemaBundle) -> tuple:
    """The row (1/Z_{t-1}) I_{t <= tau} E[cells | F_{t-1}], zero off ]0, tau].

    The projection and Z_{t-1} are both constant on an F_{t-1}-block, so
    each block divides once, or not at all where the projection is zero,
    and its alive atoms share the resulting cell."""
    space, alive = bundle.space, bundle.alive[t]
    proj = condexp_cells(cells, bundle.filt, t - 1)
    zero = (_ZERO,) * len(cells[0])
    row = [zero] * space.n
    for block in bundle.filt.parts[t - 1]:
        inside = [i for i in block if alive[i]]
        if not inside:
            continue
        zprev = survival_divisor(bundle.Z.values[t - 1][block[0]][0], "Z_-")
        p = proj[block[0]]
        cell = tuple(c / zprev for c in p) if any(p) else zero
        for i in inside:
            row[i] = cell
    return tuple(row)


def _rescaled_sides(V: AdaptedProcess, bundle: AzemaBundle) -> list:
    """Per date t = 1..horizon, the pair of rows (pG(dV_t / Zt_t), pF(I_{Zt_t > 0}
    dV_t) / Z_{t-1}), both restricted to ]0, tau].

    On the G-side every G_{t-1}-node lies wholly in {tau >= t} or outside
    it, so averaging over the node is averaging over its alive part."""
    zero = (_ZERO,) * V.dim

    def rescale(alive, z, cell):
        if alive and any(cell):
            z_i = survival_divisor(z[0], "Zt")
            return tuple(c / z_i for c in cell)
        return zero

    sides = []
    for t in range(1, bundle.space.horizon + 1):
        zt, dv = bundle.Ztilde.values[t], V.increments[t]
        rescaled = zip_row(rescale, bundle.alive[t], zt, dv)
        masked = [zero if dead else cell for dead, cell in zip(bundle.zt_zero[t], dv)]
        g_side = condexp_cells(rescaled, bundle.enlarged, t - 1)
        sides.append((g_side, _over_zprev(masked, t, bundle)))
    return sides


def _f_transfer(scalars, increments, bundle: AzemaBundle) -> AdaptedProcess:
    """The process with increments (1/Z_{t-1}) I_{t <= tau} E[s_t dX_t |
    F_{t-1}], for the scalar table ``scalars`` and the increment table
    ``increments``: :func:`_over_zprev` of their product at each date."""
    weighted = _times(scalars, increments)
    return AdaptedProcess.from_increments(
        [_over_zprev(weighted[t], t, bundle) for t in range(1, bundle.space.horizon + 1)]
    )


def compensator_of_stopped(V: AdaptedProcess, bundle: AzemaBundle) -> AdaptedProcess:
    """G-compensator of the stopped process V^tau, in F-closed form.

    Increments: (1/Z_{t-1}) I_{t <= tau} E[Zt_t dV_t | F_{t-1}].  Equals
    ``dual_predictable(stop(V, tau), bundle.enlarged)`` exactly; that
    equality is asserted by the test-suite rather than recomputed here.
    """
    assert_adapted(V, bundle.filt, "V")
    return _f_transfer(bundle.Ztilde.values, V.increments, bundle)


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
        not any(cell)
        for t in range(1, space.horizon + 1)
        for dead, cell in zip(bundle.zt_zero[t], V.increments[t])
        if dead
    )

    def converse(alive, zprev, plain, got):
        if alive and plain != tuple(zprev[0] * g for g in got):
            raise StructuralViolation("converse compensator identity failed on ]0, tau]")
        return True

    for t, (got, closed) in enumerate(sides, 1):
        if got != closed:
            raise StructuralViolation("rescaled-compensator transfer identity failed")
        if supported:
            plain = condexp_cells(V.increments[t], filt, t - 1)
            zip_row(converse, bundle.alive[t], bundle.Z.values[t - 1], plain, got)
    return AdaptedProcess.from_increments([got for got, _ in sides])


def g_martingale_part(M: AdaptedProcess, bundle: AzemaBundle) -> AdaptedProcess:
    """G-martingale part of the stopped F-martingale M:

        Mhat_t = M^tau_t - sum_{s <= t & tau} E[dM_s dm_s | F_{s-1}] / Z_{s-1}.

    The output is verified to be an exact G-martingale.
    """
    assert_martingale(M, bundle.filt, "input of g_martingale_part")
    result = stop(M, bundle.tau) - _f_transfer(bundle.m.increments, M.increments, bundle)
    if not is_martingale(result, bundle.enlarged):
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
    assert_martingale(M, bundle.filt, "input of projection_transfer_identities")
    if M.dim != 1:
        raise ValueError("transfer identities are per scalar component")
    n = space.n
    clock = AdaptedProcess.from_increments([((Q(1),),) * n] * space.horizon)
    first = ((_ZERO,),) * n
    rows = []
    for V in (M, clock):
        sides = _rescaled_sides(V, bundle)
        for k in (0, 1):
            rows.append(AdaptedProcess._trusted((first,) + tuple(s[k] for s in sides)))
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
    """The weights of the jump date T, computed once per bundle and date,
    and within it once per distinct input (Z_{T-1}, Zt_T, collapse, the
    ]0, tau] flag) by :func:`zip_row`.

    ``q`` is I_{Zt_T > 0} / P(Zt_T > 0 | F_{T-1}), where that mass is
    1 - ``bundle.collapse[T]`` > 0, and 1 elsewhere."""
    space = bundle.space
    check_date(T, 1, space.horizon, "jump date")
    cached = bundle._jump_measures.get(T)
    if cached is not None:
        return cached
    one = Q(1)

    def weights(zprev, ztilde, c, alive):
        zp, z = zprev[0], ztilde[0]
        q = (one / (one - c) if z > 0 else _ZERO) if c < 1 else one
        qt = z / zp if zp > 0 else one
        u = zp / survival_divisor(z, "Zt") if alive else one
        return q, qt, u

    per_atom = zip_row(
        weights,
        bundle.Z.values[T - 1],
        bundle.Ztilde.values[T],
        bundle.collapse[T],
        bundle.alive[T],
    )
    q, qt, ug = map(tuple, zip(*per_atom))
    if space.expectation(q) != 1 or space.expectation(qt) != 1:
        raise StructuralViolation("jump-date measures must have expectation 1")
    if any(u <= 0 for u in ug):
        raise StructuralViolation("enlarged jump-date weight must be positive")
    out = bundle._jump_measures[T] = JumpTimeMeasures(q, qt, ug)
    return out


def reduce_g_predictable(H: AdaptedProcess, bundle: AzemaBundle) -> AdaptedProcess:
    """F-predictable reduction of a process predictable in the enlargement
    G = ``bundle.enlarged``.

    The output agrees with the input on ]0, tau] (``bundle.alive``); strict
    positivity and upper bounds by 1 are preserved (cells not seen on
    ]0, tau] are filled with 1).  On each F_{t-1}-block the sub-block
    {tau >= t} is a single G_{t-1}-atom, so the copied value is well
    defined.
    """
    filt = bundle.filt
    if not is_predictable(H, bundle.enlarged):
        raise NotPredictable("input of reduce_g_predictable is not G-predictable")
    one = tuple(Q(1) for _ in range(H.dim))
    rows = []
    for t in filt.space.times:
        blocks, alive = filt.parts[max(t - 1, 0)], bundle.alive[max(t, 1)]
        survivors = [[i for i in block if alive[i]] for block in blocks]
        if first_nonconstant(H.values[t], [s for s in survivors if s]) is not None:
            raise StructuralViolation(
                "G-predictable process not constant on an alive sub-block"
            )
        row = [one] * filt.space.n
        for block, inside in zip(blocks, survivors):
            if inside:
                for i in block:
                    row[i] = H.values[t][inside[0]]
        rows.append(tuple(row))
    return AdaptedProcess._trusted(tuple(rows))
