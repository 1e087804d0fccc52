import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import randomhorizon
from randomhorizon.errors import StructuralViolation
from randomhorizon.lp import (
    maximize_over_admissible,
    separating_direction,
    solve_min,
    zero_in_relative_interior,
)


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
    src = str(Path(randomhorizon.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
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
