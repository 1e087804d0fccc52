import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from randomhorizon.errors import StructuralViolation
from randomhorizon.lp import (
    maximize_over_admissible,
    separating_direction,
    solve_min,
    zero_in_relative_interior,
)

from helpers import run_optimized, solve_min_reference


def v(*xs):
    return tuple(F(x) for x in xs)


def test_relative_interior_scalar_cases():
    ok, w = zero_in_relative_interior([v(1), v(-1)])
    assert ok and sum(w) == 1 and all(x > 0 for x in w)
    assert sum(wi * d for wi, d in zip(w, (F(1), F(-1)))) == 0
    assert zero_in_relative_interior([v(-1)]) == (False, None)
    assert zero_in_relative_interior([v(0)])[0]
    assert zero_in_relative_interior([])[0]
    assert not zero_in_relative_interior([v(1), v(2)])[0]
    assert zero_in_relative_interior([v(1), v(1), v(-3)])[0]


def test_relative_interior_planar_cases():
    assert zero_in_relative_interior([v(1, 0), v(-1, 0)])[0]
    assert not zero_in_relative_interior([v(1, 0), v(0, 1)])[0]
    ok, w = zero_in_relative_interior([v(1, 0), v(0, 1), v(-1, -1)])
    assert ok
    assert all(x > 0 for x in w)
    assert not zero_in_relative_interior([v(1, 0), v(2, 0), v(3, 1)])[0]
    # zero vector among points must still get positive weight
    assert zero_in_relative_interior([v(0, 0), v(1, 1), v(-2, -2)])[0]
    assert not zero_in_relative_interior([v(0, 0), v(1, 1)])[0]


def test_separating_direction():
    (theta,) = separating_direction([v(-1)])
    assert theta == F(-1)
    # one-dimensional failing families, zeros and repeats included, are
    # separated by their common sign
    for family, sign in (
        ([v(0), v(2), v(1)], 1),
        ([v(-3), v(0)], -1),
        ([v(2), v(2), v(0), v(0)], 1),
        ([v(F(-1, 2)), v(-1), v(-1), v(0)], -1),
    ):
        assert separating_direction(family) == (F(sign),), family
    theta = separating_direction([v(1, 0), v(0, 1)])
    assert all(
        sum(t * d for t, d in zip(theta, delta)) >= 0
        for delta in [v(1, 0), v(0, 1)]
    )
    assert any(
        sum(t * d for t, d in zip(theta, delta)) > 0
        for delta in [v(1, 0), v(0, 1)]
    )


def test_separating_direction_rejects_passing_families():
    for family in ([v(1), v(-1)], [v(0)], [], [v(1, 0), v(-1, 0)]):
        with pytest.raises(StructuralViolation):
            separating_direction(family)


def test_separating_direction_raises_under_optimize():
    # the guard is a raise, not an assert, so it survives python -O
    code = (
        "from fractions import Fraction as F\n"
        "from randomhorizon.errors import StructuralViolation\n"
        "from randomhorizon.lp import separating_direction\n"
        "try:\n"
        "    separating_direction([(F(1),), (F(-1),)])\n"
        "except StructuralViolation:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    done = run_optimized(code)
    assert done.returncode == 0, done.stderr


def _families(d):
    point = st.tuples(*[st.integers(-2, 2)] * d)
    free = st.lists(point, max_size=5)
    repeated = st.lists(point, min_size=1, max_size=2).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=5)
    )
    collinear = st.tuples(point, st.lists(st.integers(-3, 3), max_size=5)).map(
        lambda spec: [tuple(m * c for c in spec[0]) for m in spec[1]]
    )
    return st.one_of(free, repeated, collinear)


FAMILIES = st.sampled_from([1, 2]).flatmap(_families).map(
    lambda family: [tuple(F(c) for c in point) for point in family]
)


@settings(max_examples=400, deadline=None)
@given(FAMILIES)
def test_node_certificates_are_witnessed(family):
    # the two witnesses exclude each other (Stiemke), so checking whichever
    # one is returned proves the verdict on the closed-form and LP paths
    ok, w = zero_in_relative_interior(family)
    if not family:
        assert (ok, w) == (True, ())  # the empty family passes vacuously
    elif ok:
        assert len(w) == len(family)
        assert all(x > 0 for x in w) and sum(w) == 1
        for j in range(len(family[0])):
            assert sum(wi * point[j] for wi, point in zip(w, family)) == 0
    else:
        assert w is None
        theta = separating_direction(family)
        products = [sum(t * c for t, c in zip(theta, point)) for point in family]
        assert all(x >= 0 for x in products) and any(x > 0 for x in products)


def reduced_lp(family):
    """The reduced relative-interior LP (w_i = eps + v_i) solved directly:
    the reference every closed form must reproduce, weights included."""
    k, d = len(family), len(family[0])
    A = [[sum(p[j] for p in family)] + [p[j] for p in family] for j in range(d)]
    A.append([k] + [1] * k)
    res = solve_min(A, [0] * d + [1], [-1] + [0] * k)
    if res.status != "optimal" or res.x[0] <= 0:
        return False, None
    return True, tuple(res.x[0] + x for x in res.x[1:])


RATIONAL = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
PLANAR = st.tuples(RATIONAL, RATIONAL)


def _scaled(point, factors):
    return [tuple(m * c for c in point) for m in factors]


def _planar_families(k):
    free = st.lists(PLANAR, min_size=k, max_size=k)
    with_zero = st.lists(PLANAR, min_size=k - 1, max_size=k - 1).map(lambda ps: ps + [(F(0), F(0))])
    repeated = st.tuples(PLANAR, st.lists(PLANAR, min_size=k - 2, max_size=k - 2)).map(
        lambda spec: [spec[0], spec[0]] + spec[1]
    )
    positive = st.builds(F, st.integers(1, 4), st.integers(1, 3))
    antiparallel = st.tuples(PLANAR, positive, st.lists(PLANAR, min_size=k - 2, max_size=k - 2)).map(
        lambda spec: _scaled(spec[0], [1, -spec[1]]) + spec[2]
    )
    collinear = st.tuples(PLANAR, st.lists(RATIONAL, min_size=k, max_size=k)).map(
        lambda spec: _scaled(*spec)
    )
    shapes = [free, with_zero, repeated, antiparallel, collinear]
    if k == 3:
        # c = -(alpha a + beta b): 0 is interior unless a and b are parallel
        shapes.append(
            st.tuples(PLANAR, PLANAR, positive, positive).map(
                lambda s: [s[0], s[1], tuple(-(s[2] * x + s[3] * y) for x, y in zip(s[0], s[1]))]
            )
        )
    return st.one_of(*shapes).flatmap(st.permutations)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(_planar_families))
def test_planar_closed_forms_return_the_lps_answer(family):
    assert zero_in_relative_interior(family) == reduced_lp(family)


def theta_lp_reference(g, family, rhs, box):
    """The theta LP max g . theta s.t. rhs + theta . delta_i >= 0 (and, with
    ``box``, u_j, v_j <= 1) on its fixed tableau, solved directly: columns
    u, v, one slack per point, then the box slacks p_1..p_d, q_1..q_d; rows
    the points, then the u_j and v_j bounds for each j in turn.  Bland's
    rule reads this order, so it fixes the vertex every answer must
    reproduce."""
    k, d = len(family), len(g)
    width = 2 * d + k + (2 * d if box else 0)
    A, b = [], []
    for i, point in enumerate(family):
        row = [F(0)] * width
        for j in range(d):
            row[j], row[d + j] = -point[j], point[j]
        row[2 * d + i] = F(1)
        A.append(row)
        b.append(rhs)
    for j in range(d if box else 0):
        for col in (j, d + j):
            row = [F(0)] * width
            row[col] = row[2 * d + k + col] = F(1)
            A.append(row)
            b.append(1)
    cost = [F(0)] * width
    for j in range(d):
        cost[j], cost[d + j] = -g[j], g[j]
    res = solve_min(A, b, cost)
    if res.status == "unbounded":
        return "unbounded", tuple(res.ray[j] - res.ray[d + j] for j in range(d)), None
    assert res.status == "optimal"  # theta = 0 is feasible
    return "optimal", tuple(res.x[j] - res.x[d + j] for j in range(d)), -res.objective


@st.composite
def _theta_problems(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    point = st.tuples(*[RATIONAL] * d)
    family = draw(st.lists(point, max_size=6))
    objective = draw(point.filter(any))
    return family, objective


@settings(max_examples=500, deadline=None)
@given(_theta_problems())
# a failing 3-D family with a bounded maximum, and one with an unbounded ray
@example(([(F(1), F(0), F(2)), (F(0), F(1), F(-1)), (F(1), F(1), F(1))], (F(-2), F(-2), F(-2))))
@example(([(F(-1), F(0), F(0)), (F(0), F(-2), F(1))], (F(-1), F(1), F(0))))
def test_theta_lps_return_the_reference_vertex(problem):
    family, objective = problem
    if family and not zero_in_relative_interior(family)[0]:
        g = tuple(sum(point[j] for point in family) for j in range(len(objective)))
        status, theta, value = theta_lp_reference(g, family, 0, box=True)
        assert status == "optimal" and value > 0
        assert separating_direction(family) == theta
    assert maximize_over_admissible(objective, family) == theta_lp_reference(
        objective, family, 1, box=False
    )


def test_maximize_over_admissible_bounded():
    status, theta, value = maximize_over_admissible(v(1), [v(1), v(-1)])
    assert status == "optimal"
    # polytope is [-1, 1]; optimum at theta = 1
    assert theta == v(1) and value == 1


def test_maximize_over_admissible_unbounded():
    status, ray, value = maximize_over_admissible(v(-1), [v(-1)])
    assert status == "unbounded"
    assert ray[0] < 0  # recession direction with positive payoff


def test_maximize_zero_objective():
    status, theta, value = maximize_over_admissible(v(0), [])
    assert status == "optimal" and value == 0


def test_solve_min_infeasible():
    # x1 + x2 = -1 with x >= 0 is infeasible after sign normalization:
    # x1 + x2 = 1 and x1 + x2 = 2 simultaneously
    res = solve_min(
        [[F(1), F(1)], [F(1), F(1)]],
        [F(1), F(2)],
        [F(0), F(0)],
    )
    assert res.status == "infeasible"


def test_solve_min_redundant_rows():
    res = solve_min(
        [[F(1), F(1)], [F(2), F(2)]],
        [F(1), F(2)],
        [F(1), F(0)],
    )
    assert res.status == "optimal"
    assert res.objective == 0
    assert res.x[1] == 1


ENTRY = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 7])),
)


@st.composite
def _lps(draw):
    """min c.x s.t. A x = b, x >= 0 with m <= 5 rows and n <= 8 columns of
    ints and rationals over mixed denominators; half the systems are
    feasible by construction, and some repeat a row scaled."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 8))
    row = st.lists(ENTRY, min_size=n, max_size=n)
    A = draw(st.lists(row, min_size=m, max_size=m))
    if m >= 2 and draw(st.booleans()):
        A[-1] = [2 * a for a in A[0]]
    if draw(st.booleans()):
        x0 = draw(st.lists(st.sampled_from([0, 1, 2, F(1, 2)]), min_size=n, max_size=n))
        b = [sum(a * x for a, x in zip(r, x0)) for r in A]
    else:
        b = draw(st.lists(ENTRY, min_size=m, max_size=m))
    return A, b, draw(row)


@settings(max_examples=500, deadline=None)
@given(_lps())
# a non-integer phase-2 cost: the objective carries the cost's denominator
@example(([[1, 1, 1]], [1], [F(1, 2), F(-1, 3), F(1, 6)]))
# row 1 keeps its artificial basic at 0 and drives it out on a negative
# entry; row 2 = row 0 + row 1 is redundant and is dropped
@example(([[1, 1], [1, -1], [2, 0]], [0, 0, 0], [1, F(1, 2)]))
# a degenerate ratio-test tie that Bland's rule breaks by basis index, not
# by row order
@example(([[0, 0, 0, F(1, 2)], [F(6, 7), -1, 3, 1]], [0, 0], [-3, F(2, 3), 0, 0]))
# a negative b flips its row
@example(([[1, -1]], [F(-2, 3)], [1, 1]))
# x1 + x2 = 1 and x1 + x2 = 2: infeasible
@example(([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)], [F(0), F(0)]))
# no rows: maximize_over_admissible((1,), []) is unbounded along (1, 0)
@example(([], [], [-1, 1]))
def test_solve_min_matches_the_fraction_tableau(lp):
    # the integer-row kernel takes the same pivots as the Fraction tableau,
    # so status, vertex, objective and ray are equal, value types included
    assert repr(solve_min(*lp)) == repr(solve_min_reference(*lp))


def test_unbounded_ray_without_rows():
    assert maximize_over_admissible((1,), []) == ("unbounded", (F(1),), None)


@pytest.mark.parametrize(
    "A, b, c, name",
    [
        ([[F(1), 0.1]], [1], [0, 0], "A[0][1] = 0.1"),
        ([[1, 1], [1, 2]], [1, 1.5], [0, 0], "b[1] = 1.5"),
        ([[1, 1]], [1], [True, 0], "c[0] = True"),
        ([[1, "1/2"]], [1], [0, 0], "A[0][1] = '1/2'"),
    ],
)
def test_solve_min_rejects_inexact_entries(A, b, c, name):
    # Fraction(0.1) would admit a float as a binary rational; the kernel
    # reads numerator and denominator, so anything but int or Fraction
    # (bool included) is refused by name
    with pytest.raises(TypeError, match=re.escape(name)):
        solve_min(A, b, c)


SHAPES = [
    ([[1, 1], [1]], [1, 2], [1, 1]),  # a short row of A
    ([[1, 1]], [1, 2], [1, 1]),  # an entry of b without a row
    ([[1]], [1], [1, 1]),  # rows shorter than c
]


@pytest.mark.parametrize("A, b, c", SHAPES)
def test_solve_min_rejects_mismatched_shapes(A, b, c):
    # a misaligned tableau answers wrongly without an error: x = (2, -2)
    # "optimal", b[1] ignored, a feasible LP "infeasible"
    with pytest.raises(ValueError, match="rows of A, each of length len"):
        solve_min(A, b, c)


def test_solve_min_rejects_mismatched_shapes_under_optimize():
    code = (
        "from randomhorizon.lp import solve_min\n"
        f"for A, b, c in {SHAPES!r}:\n"
        "    try:\n"
        "        solve_min(A, b, c)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    done = run_optimized(code)
    assert done.returncode == 0, done.stderr


def test_solve_min_rejects_floats_under_optimize():
    code = (
        "from randomhorizon.lp import solve_min\n"
        "try:\n"
        "    solve_min([[1, 1]], [0.5], [0, 0])\n"
        "except TypeError as exc:\n"
        "    raise SystemExit(0 if 'b[0] = 0.5' in str(exc) else 2)\n"
        "raise SystemExit(1)\n"
    )
    done = run_optimized(code)
    assert done.returncode == 0, done.stderr
