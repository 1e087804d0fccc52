"""Exact linear programming over rationals for node-sized problems.

All arithmetic is exact (ints and :class:`~randomhorizon.rational.Q`), so
feasibility, optimality and unboundedness are decided exactly.  Three entry
points cover every use in the package:

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

Every other family goes to :func:`solve_min`, a two-phase primal simplex
with Bland's rule: repeated or collinear triples, four or more points and
three or more dimensions.  Its tableau holds each row as Python ints over
one positive denominator, with the reduced costs as one more row that is
pivoted with the others; a pivot is fraction-free (cross-multiply, then
divide the row by its gcd), and rationals are built only for the answer.
Every sign test and every ratio comparison (cross-multiplied, as the row
denominator cancels) has the exact value a Fraction tableau gives, so
Bland's rule takes the same pivots and returns the same vertex, objective
and ray.  The relative-interior test is the LP in the substitution
w_i = eps + v_i,

    max eps  s.t.  eps * sum_i delta_i + sum_i v_i delta_i = 0,
                   k * eps + sum_i v_i = 1,   eps, v >= 0,

with k + 1 variables and d + 1 rows; 0 is relatively interior iff the LP
is feasible with eps* > 0.  The two theta LPs (the separating direction
and the admissible maximization) are one formulation, :func:`_theta_lp`;
the separating direction adds the unit box and is this LP in every
dimension, and in one dimension its optimum is the common sign of a
failing family, (1,) or (-1,).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import StructuralViolation
from .rational import EXACT, Q


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[tuple] = None
    objective: Optional[Q] = None
    ray: Optional[tuple] = None


def _lowest(nums, d):
    """The row (nums, d) with its gcd divided out."""
    g = gcd(d, *nums)
    return ([a // g for a in nums], d // g) if g > 1 else (nums, d)


def _pivot(T, basis, row, col):
    # each row of T is (ints, d), the values ints / d with d > 0; the pivot
    # row goes over its entry p in col (made positive), and every other row
    # with an entry f != 0 there becomes (ints * p - f * pivot ints) / (d * p)
    prow, p = T[row][0], T[row][0][col]
    if p < 0:
        prow, p = [-a for a in prow], -p
    prow, p = T[row] = _lowest(prow, p)
    for i, (nums, d) in enumerate(T):
        f = nums[col]
        if f and i != row:
            T[i] = _lowest([a * p - f * b for a, b in zip(nums, prow)], d * p)
    basis[row] = col


def _iterate(T, basis, ncols):
    """Run Bland-rule simplex on tableau T: the rows [A|b] of ``basis``,
    then the reduced-cost row, which pivots with them.

    Returns ("optimal", None) or ("unbounded", entering_column).
    """
    m = len(basis)
    while True:
        z = T[m][0]
        entering = next((j for j in range(ncols) if z[j] < 0), -1)
        if entering < 0:
            return "optimal", None
        # ratio test on top / bot = T[r][-1] / T[r][entering]: the row
        # denominator cancels, so cross-multiplied ints compare exactly
        leave, top, bot = -1, 0, 1
        for r in range(m):
            nums = T[r][0]
            a = nums[entering]
            if a > 0:
                lhs, rhs = nums[-1] * bot, top * a
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, top, bot = r, nums[-1], a
        if leave < 0:
            return "unbounded", entering
        _pivot(T, basis, leave, entering)


def _ints(values):
    """The exact ``values`` (ints and rationals) as ints over the lcm of their
    denominators."""
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def solve_min(A: Sequence[Sequence[Q]], b: Sequence[Q], c: Sequence[Q]) -> LPResult:
    """min c.x  s.t.  A x = b, x >= 0, exactly; every entry an int, a
    Fraction or a ``Q`` (anything else raises TypeError); A has len(b) rows
    of len(c).  The answer is in ``Q``."""
    m, n = len(A), len(c)
    if len(b) != m or any(len(row) != n for row in A):
        raise ValueError(f"solve_min takes len(b) rows of A, each of length len(c) = {n}")
    if not {type(v) for vs in (*A, b, c) for v in vs} <= EXACT:
        named = [(f"A[{r}]", row) for r, row in enumerate(A)] + [("b", b), ("c", c)]
        name, v = next((f"{name}[{i}]", v) for name, vs in named for i, v in enumerate(vs)
                       if type(v) not in EXACT)
        raise TypeError(f"solve_min takes int, Fraction or Q entries: {name} = {v!r}")
    # phase 1: artificial basis, priced by one pivot on each artificial
    T = []
    for r in range(m):
        nums, d = _ints([*A[r], b[r]])
        if nums[-1] < 0:
            nums = [-a for a in nums]
        T.append((nums[:-1] + [d * (i == r) for i in range(m)] + nums[-1:], d))
    T.append(([0] * n + [1] * m + [0], 1))
    basis = [n + r for r in range(m)]
    for r in range(m):
        _pivot(T, basis, r, n + r)
    status, _ = _iterate(T, basis, n + m)
    if status != "optimal":
        raise StructuralViolation("phase-1 objective is bounded below by 0")
    if T[m][0][-1] != 0:  # minus the sum of the artificials
        return LPResult("infeasible")
    # drive artificials out of the basis; drop rows that are redundant
    keep = []
    for r in range(m):
        if basis[r] >= n:
            piv = next((j for j in range(n) if T[r][0][j] != 0), None)
            if piv is None:
                continue  # redundant constraint
            _pivot(T, basis, r, piv)
        keep.append(r)
    cost, dc = _ints(c)
    T = [(T[r][0][:n] + T[r][0][-1:], T[r][1]) for r in keep] + [(cost + [0], dc)]
    basis = [basis[r] for r in keep]
    for r, col in enumerate(basis):
        _pivot(T, basis, r, col)  # prices the phase-2 cost row
    status, entering = _iterate(T, basis, n)
    if status == "unbounded":
        ray = [Q(0)] * n
        ray[entering] = Q(1)
        for col, (nums, d) in zip(basis, T):
            ray[col] = Q(-nums[entering], d)
        return LPResult("unbounded", ray=tuple(ray))
    x = [Q(0)] * n
    for col, (nums, d) in zip(basis, T):
        x[col] = Q(nums[-1], d)
    return LPResult("optimal", x=tuple(x), objective=Q(-T[-1][0][-1], T[-1][1]))


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
        w = Q(1, k)
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
        total = Q(sum(raw))
        return True, tuple(r / total for r in raw)
    if d == 2 and k == 2:
        (a0, a1), (b0, b1) = deltas
        if a0 * b1 != a1 * b0 or a0 * b0 + a1 * b1 >= 0:
            return False, None
        # antiparallel: w_a * a_j + w_b * b_j = 0 on a coordinate with a_j != 0
        aj, bj = (a0, b0) if a0 else (a1, b1)
        wa = Q(bj, bj - aj)
        return True, (wa, 1 - wa)
    if d == 2 and k == 3:
        (a0, a1), (b0, b1), (c0, c1) = deltas
        wa = b0 * c1 - b1 * c0
        wb = c0 * a1 - c1 * a0
        wc = a0 * b1 - a1 * b0
        total = wa + wb + wc
        if total:  # affinely independent: barycentric coordinates of 0
            if (wa > 0 and wb > 0 and wc > 0) or (wa < 0 and wb < 0 and wc < 0):
                return True, (Q(wa, total), Q(wb, total), Q(wc, total))
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
    status, theta, value = _theta_lp(tuple(map(sum, zip(*deltas))), deltas, 0, box=True)
    if status != "optimal" or value <= 0:
        raise StructuralViolation("no separation: not a failing node")
    return theta


def _theta_lp(g: tuple, deltas: Sequence[tuple], rhs, box: bool):
    """max g . theta  s.t.  rhs + theta . delta_i >= 0 for every i (rhs >= 0),
    with theta = u - v and, when ``box``, u_j, v_j <= 1.  Returns ("optimal",
    theta, value) or ("unbounded", ray, None), both in theta.

    Variables: u_1..u_d, v_1..v_d, a slack s_i per point, then (box only)
    slacks p_j, q_j of u_j, v_j <= 1; rows: one per point, then (box only)
    the u_j and v_j bounds for each j in turn.  Bland's rule reads this
    order, so it fixes the vertex returned."""
    k, d = len(deltas), len(g)
    bounded = [col for j in range(d) for col in (j, d + j)] if box else []
    uv = [[-x for x in p] + list(p) for p in deltas]
    uv += [[int(c == col) for c in range(2 * d)] for col in bounded]
    slack = list(range(k)) + [k + col for col in bounded]  # each row's slack column
    A = [row + [int(c == s) for c in range(len(slack))] for row, s in zip(uv, slack)]
    cost = [-x for x in g] + list(g) + [0] * len(slack)
    res = solve_min(A, [rhs] * k + [1] * len(bounded), cost)
    if res.status == "infeasible":
        raise StructuralViolation("theta = 0 is always admissible")
    v, value = (res.ray, None) if res.status == "unbounded" else (res.x, -res.objective)
    return res.status, tuple(v[j] - v[d + j] for j in range(d)), value


def maximize_over_admissible(objective: tuple, deltas: Sequence[tuple]):
    """max objective . theta over {theta : 1 + theta . delta_i >= 0 for all i}.

    Returns ("optimal", theta, value) or ("unbounded", ray, None); theta is
    free (split internally), and theta = 0 is always feasible.
    """
    if all(g == 0 for g in objective):
        return "optimal", tuple(Q(0) for _ in objective), Q(0)
    return _theta_lp(objective, deltas, 1, box=False)
