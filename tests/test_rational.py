"""``Q`` against ``fractions.Fraction``, the oracle it must agree with.

Every operator and comparison that ``Q`` writes out must give the value
``Fraction`` gives, for ``Q``, ``Fraction``, ``int`` and ``bool`` operands
on either side, and a ``Q`` whenever both operands are exact; any other
operand (a float) must give exactly what ``Fraction`` gives.  Hashing,
printing, pickling and copying must not tell a ``Q`` from the equal
``Fraction`` except by its type.
"""

import copy
import math
import operator
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from randomhorizon.rational import Q

from helpers import run_optimized

ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]

# small values meet zero, equal values and shared factors often; the big
# ones take the arbitrary-precision path of every gcd
INTS = st.one_of(st.integers(-12, 12), st.integers(-(10**40), 10**40))
FRACTIONS = st.builds(F, INTS, INTS.filter(bool))
QS = FRACTIONS.map(lambda x: Q(x.numerator, x.denominator))
EXACT = st.one_of(QS, FRACTIONS, INTS, st.booleans())


def plain(x):
    """The ``Fraction`` equal to a ``Q``; anything else unchanged."""
    return F(x.numerator, x.denominator) if type(x) is Q else x


def outcome(op, a, b):
    """``op(a, b)``, or the type of the exception it raises."""
    try:
        return op(a, b)
    except ZeroDivisionError as exc:
        return type(exc)


def same_float(got, want) -> bool:
    return type(got) is type(want) and (got == want or (math.isnan(got) and math.isnan(want)))


@settings(max_examples=400, deadline=None)
@given(QS, EXACT, st.booleans(), st.sampled_from(ARITHMETIC))
def test_arithmetic_matches_fraction(q, other, q_left, op):
    a, b = (q, other) if q_left else (other, q)
    got, want = outcome(op, a, b), outcome(op, plain(a), plain(b))
    if want is ZeroDivisionError:
        assert got is ZeroDivisionError
        return
    assert type(got) is Q
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got.numerator) is int and type(got.denominator) is int


@settings(max_examples=400, deadline=None)
@given(QS, EXACT, st.booleans(), st.sampled_from(COMPARISONS))
def test_comparisons_match_fraction(q, other, q_left, op):
    a, b = (q, other) if q_left else (other, q)
    got, want = op(a, b), op(plain(a), plain(b))
    assert type(got) is bool and got == want


@settings(max_examples=200, deadline=None)
@given(QS)
def test_negation_matches_fraction(q):
    got = -q
    assert type(got) is Q and (got.numerator, got.denominator) == ((-plain(q)).numerator, q.denominator)


@settings(max_examples=300, deadline=None)
@given(QS, st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
       st.sampled_from(ARITHMETIC + COMPARISONS))
def test_float_operands_behave_as_with_fraction(q, x, q_left, op):
    a, b = (q, x) if q_left else (x, q)
    got, want = outcome(op, a, b), outcome(op, plain(a), plain(b))
    if isinstance(want, type):
        assert got is want
    elif isinstance(want, bool):
        assert type(got) is bool and got == want
    else:
        assert same_float(got, want)


@settings(max_examples=200, deadline=None)
@given(INTS, INTS)
def test_construction_matches_fraction(n, d):
    for got, want in ((Q(n), F(n)), (Q(str(n)), F(str(n)))):
        assert type(got) is Q and (got.numerator, got.denominator) == (want.numerator, want.denominator)
    if d:
        got, want = Q(n, d), F(n, d)
        assert type(got) is Q and (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert type(Q(want)) is Q and Q(want) == want


@settings(max_examples=200, deadline=None)
@given(QS, QS)
def test_a_quotient_of_two_qs_matches_fraction(a, b):
    got, want = outcome(Q, a, b), outcome(F, plain(a), plain(b))
    if want is ZeroDivisionError:
        assert got is ZeroDivisionError
        return
    assert type(got) is Q and (got.numerator, got.denominator) == (want.numerator, want.denominator)


@settings(max_examples=200, deadline=None)
@given(QS)
def test_hash_print_pickle_and_copy_match_fraction(q):
    f = plain(q)
    assert hash(q) == hash(f)
    assert repr(q) == repr(f) and str(q) == str(f)
    assert {q: 1}[f] == 1
    for back in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
        assert type(back) is Q and back == q


def test_numerator_and_denominator_are_read_only():
    q = Q(6, -4)
    assert (q.numerator, q.denominator) == (-3, 2)
    with pytest.raises(AttributeError):
        q.numerator = 1
    with pytest.raises(AttributeError):
        q.extra = 1  # no instance dict: the two slots of Fraction only


ZERO_DIVISIONS = [
    "Q(1, 0)", "Q(0, 0)", "Q(3, 4) / 0", "Q(3, 4) / Q(0)", "Q(0) / Q(0)",
    "1 / Q(0)", "F(1) / Q(0)", "Q(3, 4) / False", "Q(Q(3, 4), Q(0))",
]


@pytest.mark.parametrize("expr", ZERO_DIVISIONS)
def test_zero_divisors_raise(expr):
    with pytest.raises(ZeroDivisionError):
        eval(expr, {"Q": Q, "F": F})


def test_zero_divisors_raise_under_optimize():
    # the zero checks are raises, not asserts, so they survive python -O
    code = (
        "from fractions import Fraction as F\n"
        "from randomhorizon.rational import Q\n"
        f"for expr in {ZERO_DIVISIONS!r}:\n"
        "    try:\n"
        "        eval(expr)\n"
        "    except ZeroDivisionError:\n"
        "        continue\n"
        "    raise SystemExit(expr)\n"
    )
    done = run_optimized(code)
    assert done.returncode == 0, done.stdout + done.stderr
