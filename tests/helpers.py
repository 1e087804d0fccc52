"""Builders and naive references that only the tests read.

The engine never builds a process from a Python function, a constant, a
scaled copy, a pointwise product or one component, never draws an
arbitrary adapted or predictable process, and never walks a filtration by
atom or by child index; these helpers write those out for the tests to
build inputs and check the engine against.  ``scale``,
``mul_scalar_process`` and ``component`` go through the package's cell
maps, so the tests that compare them with a per-atom reference exercise
:func:`map_cells` and :func:`zip_cells`.
``solve_min_reference`` is the simplex on a dense Fraction tableau that
the engine's integer-row :func:`randomhorizon.lp.solve_min` must match.
"""

import random
from fractions import Fraction
from typing import Callable

from randomhorizon.errors import StructuralViolation
from randomhorizon.lp import LPResult
from randomhorizon.space import (
    AdaptedProcess,
    FiniteSpace,
    Filtration,
    RandomTime,
    TimeValue,
    frac,
    map_cells,
    zip_cells,
)


def from_function(
    space: FiniteSpace, fn: Callable[[int, int], object], dim: int = 1
) -> AdaptedProcess:
    """Build from fn(t, atom) returning a scalar (dim 1) or a tuple."""
    rows = []
    for t in space.times:
        row = []
        for i in range(space.n):
            v = fn(t, i)
            cell = (v,) if dim == 1 and not isinstance(v, tuple) else tuple(v)
            row.append(cell)
        rows.append(tuple(row))
    return AdaptedProcess(dim, tuple(rows))


def constant(space: FiniteSpace, value, dim: int = 1) -> AdaptedProcess:
    cell = (value,) * dim if not isinstance(value, tuple) else value
    rows = tuple(tuple(cell for _ in range(space.n)) for _ in space.times)
    return AdaptedProcess(len(cell), rows)


def zero(space: FiniteSpace, dim: int = 1) -> AdaptedProcess:
    return constant(space, tuple(Fraction(0) for _ in range(dim)))


def unadapted_price():
    """(space, filt, S): atoms a, b, c of mass 1/3, horizon 1, F_1 =
    {a, b}, {c} and S_1 = (1, -5, -1), which is not F_1-measurable."""
    space = FiniteSpace(("a", "b", "c"), (Fraction(1, 3),) * 3, 1)
    filt = Filtration.from_names([[("a", "b", "c")], [("a", "b"), ("c",)]], space)
    S = AdaptedProcess(1, (((0,),) * 3, ((1,), (-5,), (-1,))))
    return space, filt, S


def constant_time(space: FiniteSpace, value: TimeValue) -> RandomTime:
    return RandomTime((value,) * space.n)


def scale(X: AdaptedProcess, q) -> AdaptedProcess:
    """``q X``, computed once per distinct cell by :func:`map_cells`."""
    q = frac(q)
    rows = map_cells(X.values, lambda cell: tuple(q * c for c in cell))
    return AdaptedProcess._trusted(X.dim, rows)


def mul_scalar_process(X: AdaptedProcess, scalar: AdaptedProcess) -> AdaptedProcess:
    """Pointwise product with a dim-1 process (broadcast over components),
    computed once per distinct pair of cells by :func:`zip_cells`."""
    if scalar.dim != 1 or scalar.horizon != X.horizon:
        raise ValueError("need a scalar process on the same grid")
    rows = zip_cells(X.values, scalar.values, lambda cell, s: tuple(s[0] * c for c in cell))
    return AdaptedProcess._trusted(X.dim, rows)


def component(X: AdaptedProcess, k: int) -> AdaptedProcess:
    """The scalar process of component ``k``: one cell per distinct cell
    object of a row, by :func:`map_cells`."""
    return AdaptedProcess._trusted(1, map_cells(X.values, lambda cell: (cell[k],)))


def children(filt: Filtration, t: int, parent_index: int) -> tuple:
    """Indices in parts[t] of the sub-blocks of parts[t-1][parent_index]."""
    parent = set(filt.parts[t - 1][parent_index])
    return tuple(j for j, block in enumerate(filt.parts[t]) if block[0] in parent)


def block_of(filt: Filtration, t: int, atom: int) -> tuple:
    """The block of parts[t] that holds ``atom``."""
    return next(block for block in filt.parts[t] if atom in block)


def mass(space: FiniteSpace, block) -> Fraction:
    return sum((space.prob[i] for i in block), Fraction(0))


def random_adapted(
    space: FiniteSpace, filt: Filtration, rng: random.Random, dim: int = 1, spread: int = 3
) -> AdaptedProcess:
    """An arbitrary adapted process: independent block values at each time."""
    rows = []
    for t in space.times:
        row = [None] * space.n
        for block in filt.parts[t]:
            cell = tuple(
                Fraction(rng.randint(-spread, spread), rng.randint(1, 3))
                for _ in range(dim)
            )
            for i in block:
                row[i] = cell
        rows.append(tuple(row))
    return AdaptedProcess(dim, tuple(rows))


def random_predictable_fv(
    space: FiniteSpace, filt: Filtration, rng: random.Random, nonconstant: bool
) -> AdaptedProcess:
    """Predictable finite-variation scalar process started at 0."""
    if not nonconstant:
        return zero(space)
    while True:
        increments = []
        for t in range(1, space.horizon + 1):
            row = [None] * space.n
            for block in filt.parts[t - 1]:
                inc = (Fraction(rng.randint(-2, 2)),)
                for i in block:
                    row[i] = inc
            increments.append(row)
        if any(cell[0] for row in increments for cell in row):
            return AdaptedProcess.from_increments(1, space.n, increments)


def martingale_measure_from_weights(result, filt: Filtration, space: FiniteSpace):
    """Reassemble the per-node weights of a true NUPBR certificate into atom
    weights dQ/dP.

    Q is the product of the node weights along each atom's path, scaled by
    the P-mass of the time-0 block; under Q the certified process is an
    exact martingale (tested invariant of the certificate)."""
    if not result.verdict:
        raise ValueError("only a true verdict carries deflator weights")
    table = {(nw.time, nw.block): nw for nw in result.node_weights}
    q = []
    for i in range(space.n):
        acc = mass(space, block_of(filt, 0, i))
        for t in range(1, space.horizon + 1):
            parent = tuple(space.atoms[j] for j in block_of(filt, t - 1, i))
            nw = table[(t, parent)]
            child = tuple(space.atoms[j] for j in block_of(filt, t, i))
            acc *= nw.weights[nw.children.index(child)]
        # conditional-measure weight of the atom inside its terminal block,
        # then dQ/dP
        acc *= space.prob[i] / mass(space, block_of(filt, space.horizon, i))
        q.append(acc / space.prob[i])
    return tuple(q)


def _reference_pivot(T, basis, row, col):
    # zero entries are skipped here and in pricing; the arithmetic is exact,
    # so the tableau and every pivot choice are the same as without skipping
    piv = T[row][col]
    if piv != 1:
        T[row] = [v / piv for v in T[row]]
    prow = T[row]
    for r in range(len(T)):
        f = T[r][col]
        if r != row and f != 0:
            T[r] = [a - f * b if b else a for a, b in zip(T[r], prow)]
    basis[row] = col


def _reference_iterate(T, basis, cost, ncols):
    """Run Bland-rule simplex on tableau T (rows [A|b]) minimizing cost.

    Returns ("optimal", None) or ("unbounded", entering_column).
    """
    m = len(T)
    while True:
        priced = [(cost[basis[r]], T[r]) for r in range(m) if cost[basis[r]] != 0]
        entering = -1
        for j in range(ncols):
            red = cost[j] - sum(cb * row[j] for cb, row in priced)
            if red < 0:
                entering = j
                break
        if entering < 0:
            return "optimal", None
        leave, best = -1, None
        for r in range(m):
            if T[r][entering] > 0:
                ratio = T[r][-1] / T[r][entering]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave < 0:
            return "unbounded", entering
        _reference_pivot(T, basis, leave, entering)


def solve_min_reference(A, b, c) -> LPResult:
    """min c.x  s.t.  A x = b, x >= 0 on a dense Fraction tableau: the
    two-phase Bland-rule simplex that :func:`randomhorizon.lp.solve_min`
    must reproduce exactly, status, vertex, objective and ray."""
    m, n = len(A), len(c)
    T = []
    for r in range(m):
        row = [Fraction(v) for v in A[r]] + [Fraction(b[r])]
        if row[-1] < 0:
            row = [-v for v in row]
        T.append(row)

    # phase 1: artificial basis
    for r in range(m):
        art = [Fraction(0)] * m
        art[r] = Fraction(1)
        T[r] = T[r][:-1] + art + [T[r][-1]]
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    basis = [n + r for r in range(m)]
    status, _ = _reference_iterate(T, basis, cost1, n + m)
    if status != "optimal":
        raise StructuralViolation("phase-1 objective is bounded below by 0")
    obj1 = sum(cost1[basis[r]] * T[r][-1] for r in range(m))
    if obj1 != 0:
        return LPResult("infeasible")
    # drive artificials out of the basis; drop rows that are redundant
    keep = []
    for r in range(m):
        if basis[r] >= n:
            piv = next((j for j in range(n) if T[r][j] != 0), None)
            if piv is None:
                continue  # redundant constraint
            _reference_pivot(T, basis, r, piv)
        keep.append(r)
    T = [T[r][:n] + [T[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]

    cost2 = [Fraction(v) for v in c]
    status, entering = _reference_iterate(T, basis, cost2, n)
    if status == "unbounded":
        ray = [Fraction(0)] * n
        ray[entering] = Fraction(1)
        for r in range(len(T)):
            if basis[r] < n:
                ray[basis[r]] = -T[r][entering]
        return LPResult("unbounded", ray=tuple(ray))
    x = [Fraction(0)] * n
    for r in range(len(T)):
        x[basis[r]] = T[r][-1]
    return LPResult("optimal", x=tuple(x), objective=sum(ci * xi for ci, xi in zip(cost2, x)))
