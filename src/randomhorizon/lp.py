"""Exact linear programming over rationals for node-sized problems.

All arithmetic is :class:`fractions.Fraction`, so feasibility, optimality
and unboundedness are decided exactly.  Three entry points cover every use
in the package:

* :func:`zero_in_relative_interior` -- decides whether 0 lies in the
  relative interior of the convex hull of a finite point family, with
  strictly positive convex weights as the witness,
* :func:`separating_direction` -- the Stiemke alternative: a direction
  making a nonnegative, somewhere-positive inner product with every point,
* :func:`maximize_over_admissible` -- maximizes a linear objective over the
  one-period admissibility polytope {theta : 1 + theta . delta >= 0}.

The relative-interior test chooses its method from the shape of the
family (k points in dimension d).  The empty family passes; an all-zero
family passes with uniform weights; a single nonzero point fails.  In one
dimension, with P the sum of the positive points and N minus the sum of
the negative ones, the family passes iff P > 0 and N > 0: weights N on
positives, P on negatives and 1 on zeros, normalised to sum to 1, are the
witness.

In the plane the relative-interior test has two more closed forms.  Two
points a, b pass iff det(a, b) = 0 and a . b < 0 (they point in opposite
directions); the weights come from one nonzero coordinate.  Three
affinely independent points a, b, c (det(b, c) + det(c, a) + det(a, b)
!= 0) pass iff the three cross products share a strict sign; the weights
are the barycentric coordinates of 0, each cross product divided by their
sum.  In both cases the weights are the only positive solution, so they
are exactly what the LP below returns.

Every other family goes to :func:`solve_min`, a dense two-phase primal
simplex with Bland's rule: repeated or collinear triples, four or more
points and three or more dimensions.  The relative-interior test is the LP
in the substitution w_i = eps + v_i,

    max eps  s.t.  eps * sum_i delta_i + sum_i v_i delta_i = 0,
                   k * eps + sum_i v_i = 1,   eps, v >= 0,

with k + 1 variables and d + 1 rows; 0 is relatively interior iff the LP
is feasible with eps* > 0.  The two theta LPs (the separating direction
and the admissible maximization) are one formulation, max g . theta s.t.
rhs + theta . delta_i >= 0 with theta = u - v, built by :func:`_theta_lp`.
The separating direction adds the unit box and is this LP in every
dimension; in one dimension its optimum is the common sign of a failing
family, (1,) or (-1,).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import StructuralViolation


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[tuple] = None
    objective: Optional[Fraction] = None
    ray: Optional[tuple] = None


def _pivot(T, basis, row, col):
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


def _iterate(T, basis, cost, ncols):
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
        _pivot(T, basis, leave, entering)


def solve_min(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction], c: Sequence[Fraction]) -> LPResult:
    """min c.x  s.t.  A x = b, x >= 0, exactly."""
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
    status, _ = _iterate(T, basis, cost1, n + m)
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
            _pivot(T, basis, r, piv)
        keep.append(r)
    T = [T[r][:n] + [T[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]

    cost2 = [Fraction(v) for v in c]
    status, entering = _iterate(T, basis, cost2, n)
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


def zero_in_relative_interior(deltas: Sequence[tuple]):
    """Decide 0 in ri(conv(deltas)) exactly.

    Returns (verdict, weights): strictly positive rational weights summing
    to 1 with sum(w_i * delta_i) = 0 when the verdict is true, else
    (False, None).  The empty family passes vacuously.
    """
    k = len(deltas)
    if k == 0:
        return True, ()
    if all(c == 0 for point in deltas for c in point):
        w = Fraction(1, k)
        return True, tuple(w for _ in range(k))
    if k == 1:
        return False, None
    d = len(deltas[0])
    if d == 1:
        pos = sum(x for (x,) in deltas if x > 0)
        neg = -sum(x for (x,) in deltas if x < 0)
        if pos == 0 or neg == 0:
            return False, None
        raw = [neg if x > 0 else pos if x < 0 else 1 for (x,) in deltas]
        total = Fraction(sum(raw))
        return True, tuple(r / total for r in raw)
    if d == 2 and k == 2:
        (a0, a1), (b0, b1) = deltas
        if a0 * b1 != a1 * b0 or a0 * b0 + a1 * b1 >= 0:
            return False, None
        # antiparallel: w_a * a_j + w_b * b_j = 0 on a coordinate with a_j != 0
        aj, bj = (a0, b0) if a0 else (a1, b1)
        wa = Fraction(bj, bj - aj)
        return True, (wa, 1 - wa)
    if d == 2 and k == 3:
        (a0, a1), (b0, b1), (c0, c1) = deltas
        wa = b0 * c1 - b1 * c0
        wb = c0 * a1 - c1 * a0
        wc = a0 * b1 - a1 * b0
        total = wa + wb + wc
        if total:  # affinely independent: barycentric coordinates of 0
            if (wa > 0 and wb > 0 and wc > 0) or (wa < 0 and wb < 0 and wc < 0):
                return True, (Fraction(wa, total), Fraction(wb, total), Fraction(wc, total))
            return False, None
    # variables: eps, v_1..v_k  (w_i = eps + v_i)
    A = [[sum(p[j] for p in deltas)] + [p[j] for p in deltas] for j in range(d)]
    A.append([k] + [1] * k)
    b = [0] * d + [1]
    c = [-1] + [0] * k
    res = solve_min(A, b, c)
    if res.status == "infeasible":
        return False, None
    if res.status != "optimal":
        raise StructuralViolation("relative-interior LP is bounded by eps <= 1/k")
    eps = res.x[0]
    if eps <= 0:
        return False, None
    return True, tuple(eps + v for v in res.x[1:])


def separating_direction(deltas: Sequence[tuple]) -> tuple:
    """A direction theta with theta . delta_i >= 0 for all i and > 0 for at
    least one i, normalized to the unit box.  Exists exactly when
    :func:`zero_in_relative_interior` fails on a nonempty family; any other
    family raises :class:`StructuralViolation`."""
    if not deltas or all(c == 0 for point in deltas for c in point):
        raise StructuralViolation("no separation: not a failing node")
    d = len(deltas[0])
    res = _theta_lp(tuple(sum(p[j] for p in deltas) for j in range(d)), deltas, 0, box=True)
    if res.status != "optimal" or res.objective >= 0:
        raise StructuralViolation("no separation: not a failing node")
    return tuple(res.x[j] - res.x[d + j] for j in range(d))


def _theta_lp(g: tuple, deltas: Sequence[tuple], rhs, box: bool) -> LPResult:
    """min -g . theta  s.t.  rhs + theta . delta_i >= 0 for every i, with
    theta = u - v and, when ``box``, u_j, v_j <= 1.

    Variables: u_1..u_d, v_1..v_d, a slack s_i per point, then (box only)
    slacks p_j, q_j of u_j, v_j <= 1; rows: one per point, then (box only)
    the u_j and v_j bounds for each j in turn."""
    k, d = len(deltas), len(g)
    nvars = 2 * d + k + (2 * d if box else 0)
    A, b = [], []
    for i, delta in enumerate(deltas):
        row = [Fraction(0)] * nvars
        for j in range(d):
            row[j] = -delta[j]
            row[d + j] = delta[j]
        row[2 * d + i] = Fraction(1)
        A.append(row)
        b.append(rhs)
    if box:
        for col in (c for j in range(d) for c in (j, d + j)):
            row = [Fraction(0)] * nvars
            row[col] = Fraction(1)
            row[2 * d + k + col] = Fraction(1)
            A.append(row)
            b.append(1)
    c = [Fraction(0)] * nvars
    for j in range(d):
        c[j] = -g[j]
        c[d + j] = g[j]
    return solve_min(A, b, c)


def maximize_over_admissible(objective: tuple, deltas: Sequence[tuple]):
    """max objective . theta over {theta : 1 + theta . delta_i >= 0 for all i}.

    Returns ("optimal", theta, value) or ("unbounded", ray, None); theta is
    free (split internally), and theta = 0 is always feasible.
    """
    d = len(objective)
    if all(g == 0 for g in objective):
        return "optimal", tuple(Fraction(0) for _ in range(d)), Fraction(0)
    res = _theta_lp(objective, deltas, 1, box=False)
    if res.status == "unbounded":
        ray = tuple(res.ray[j] - res.ray[d + j] for j in range(d))
        return "unbounded", ray, None
    if res.status != "optimal":
        raise StructuralViolation("theta = 0 is always admissible")
    theta = tuple(res.x[j] - res.x[d + j] for j in range(d))
    return "optimal", theta, -res.objective
