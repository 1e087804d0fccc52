"""The engine's one exact rational type.

:class:`Q` is a :class:`fractions.Fraction` whose arithmetic runs in one
frame.  The stdlib operators dispatch through ``numbers`` ABC checks and
two or three nested calls per ``a + b``; here ``+ - * /``, unary ``-``,
``==`` and the four orderings read ``_numerator``/``_denominator``
directly when the other operand is a ``Q``, a ``Fraction``, an ``int`` or
a ``bool``, and normalise with the stdlib's gcd steps, so every result is
the reduced value a Fraction computation gives, as a ``Q``.  Any other
operand (a float, a complex, a foreign ``Rational``) goes to
``Fraction``'s own method and behaves exactly as it does there.
``Q(int)``, ``Q(int, int)`` and ``Q(q, r)`` of two ``Q`` values are built
in one frame too; any other argument takes ``Fraction``'s constructor.

Hashes, ``str`` and ``repr`` are those of the equal ``Fraction``, and a
``Q`` pickles and copies to an equal ``Q``.  No other module of the
package imports :mod:`fractions`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter, ge, gt, le, lt

_new = object.__new__


def _additive(fallback, negate: bool, reflected: bool):
    """``a + b`` (``a - b`` when ``negate``; ``b - a`` when also
    ``reflected``), the sum of two reduced fractions as ``Fraction._add``
    forms it: one gcd of the denominators, a second one only when it
    exceeds 1."""

    def op(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            nb, db = b._numerator, b._denominator
        elif t is int or t is bool:
            nb, db = b, 1
        else:
            return fallback(a, b)
        na, da = a._numerator, a._denominator
        if reflected:
            na, da, nb, db = nb, db, na, da
        if negate:
            nb = -nb
        q = _new(Q)
        g = gcd(da, db)
        if g == 1:
            q._numerator, q._denominator = na * db + da * nb, da * db
            return q
        s = da // g
        n = na * (db // g) + nb * s
        g = gcd(n, g)
        q._numerator, q._denominator = n // g, s * (db // g)
        return q

    return op


def _multiplicative(fallback, invert: bool, reflected: bool):
    """``a * b`` (``a / b`` when ``invert``; ``b / a`` when also
    ``reflected``), as ``Fraction._mul`` forms it: cross-cancel, then
    multiply; ``ZeroDivisionError`` on a zero divisor."""

    def op(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            nb, db = b._numerator, b._denominator
        elif t is int or t is bool:
            nb, db = b, 1
        else:
            return fallback(a, b)
        na, da = a._numerator, a._denominator
        if reflected:
            na, da, nb, db = nb, db, na, da
        if invert:
            nb, db = db, nb
        g = gcd(na, db)
        if g > 1:
            na, db = na // g, db // g
        g = gcd(nb, da)
        if g > 1:
            nb, da = nb // g, da // g
        n, d = na * nb, db * da
        if d <= 0:
            if not d:
                raise ZeroDivisionError(f"Fraction({n}, 0)")
            n, d = -n, -d
        q = _new(Q)
        q._numerator, q._denominator = n, d
        return q

    return op


def _ordering(fallback, compare):
    """``compare(a, b)`` for one of the four orderings, on the cross
    products of numerators and (positive) denominators."""

    def op(a, b):
        t = type(b)
        if t is int or t is bool:
            return compare(a._numerator, a._denominator * b)
        if t is Q or t is Fraction:
            return compare(a._numerator * b._denominator, a._denominator * b._numerator)
        return fallback(a, b)

    return op


class Q(Fraction):
    """An exact rational; see the module docstring."""

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if type(numerator) is int:
            if denominator is None:
                q = _new(cls)
                q._numerator, q._denominator = numerator, 1
                return q
            if type(denominator) is int:
                if not denominator:
                    raise ZeroDivisionError(f"Fraction({numerator}, 0)")
                g = gcd(numerator, denominator)
                if denominator < 0:
                    g = -g
                q = _new(cls)
                q._numerator, q._denominator = numerator // g, denominator // g
                return q
        elif type(numerator) is Q and type(denominator) is Q and cls is Q:
            return numerator / denominator
        return Fraction.__new__(cls, numerator, denominator)

    numerator = property(attrgetter("_numerator"))
    denominator = property(attrgetter("_denominator"))
    __hash__ = Fraction.__hash__

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    __add__ = _additive(Fraction.__add__, False, False)
    __radd__ = _additive(Fraction.__radd__, False, False)
    __sub__ = _additive(Fraction.__sub__, True, False)
    __rsub__ = _additive(Fraction.__rsub__, True, True)
    __mul__ = _multiplicative(Fraction.__mul__, False, False)
    __rmul__ = _multiplicative(Fraction.__rmul__, False, False)
    __truediv__ = _multiplicative(Fraction.__truediv__, True, False)
    __rtruediv__ = _multiplicative(Fraction.__rtruediv__, True, True)

    def __neg__(a):
        q = _new(Q)
        q._numerator, q._denominator = -a._numerator, a._denominator
        return q

    def __eq__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if t is int or t is bool:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    __lt__ = _ordering(Fraction.__lt__, lt)
    __le__ = _ordering(Fraction.__le__, le)
    __gt__ = _ordering(Fraction.__gt__, gt)
    __ge__ = _ordering(Fraction.__ge__, ge)


# the types of the exact values the engine takes in: a ``bool`` is not one
EXACT = frozenset({int, Fraction, Q})
