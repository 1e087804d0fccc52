"""Scenario files, rational serialization, and report writers.

A scenario is a JSON object::

    {"atoms": ["a", ...],
     "probs": ["1/4", ...],
     "horizon": 2,
     "filtration": [[["a","b"], ["c"]], ...]   # one partition per time,
     "tau": {"a": 1, "d": "inf", ...},
     "S": {"dim": 1, "values": {"a": [["0"], ["1"], ...], ...}}}

All rationals travel as strings "p/q" (plain "p" when the denominator is
1); "inf" is the infinite time.  Parsing failures raise
:class:`InvalidScenario` with a stable error code and the offending
location; see the README for the code list.  The parser reads each value
once: a rational in canonical form (``p`` or ``p/q`` in ASCII digits) skips
``Fraction``'s string parser, each price path is checked once, and a cell
whose strings repeat an earlier cell's is one lookup.

:func:`dump_json` is the package's one report encoder: it writes the text of
the stdlib's indented, key-sorted encoder in one recursive pass whose
strings are escaped in C.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import InvalidProbabilities, InvalidScenario
from .rational import Q
from .space import (
    INF,
    AdaptedProcess,
    FiniteSpace,
    Filtration,
    RandomTime,
    first_nonconstant,
)


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any size: past the digit limit of ``int()``
    it is split at a power of ten into halves, each printed the same way."""
    try:
        return str(n)
    except ValueError:
        pass
    k = abs(n).bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    hi, lo = divmod(abs(n), 10**k)
    return ("-" if n < 0 else "") + _decimal(hi) + _decimal(lo).zfill(k)


def format_fraction(x) -> str:
    """``p/q`` of a ``Q`` or an int, or ``p`` when the denominator is 1."""
    num = _decimal(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_decimal(x.denominator)}"


def _is_int(v) -> bool:
    """JSON integers only: ``bool`` subclasses ``int`` but is rejected."""
    return isinstance(v, int) and not isinstance(v, bool)


# the exponent of a rational in exponent notation, as ``Fraction`` reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _max_digits() -> int:
    """The digit count ``int()`` accepts in a decimal string, or its default
    when that limit is switched off.  A rational in exponent notation must
    keep ``10**abs(exponent)`` within it, so one short string cannot make
    the parser build a huge integer, and its numerator and denominator must
    keep within it, so the value can be printed back."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _printable(x: Q, limit: int) -> bool:
    """True iff numerator and denominator have at most ``limit`` decimal
    digits; below ``2**(3 * limit)`` no power of ten is needed."""
    bits = 3 * limit
    if x.numerator.bit_length() <= bits >= x.denominator.bit_length():
        return True
    return max(abs(x.numerator), x.denominator) < 10**limit


# a rational in canonical form, "p" or "p/q" in ASCII digits
_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z")


def parse_fraction(s, location="") -> Q:
    """The rational of a JSON int or a string ``Fraction`` reads, within the
    digit limit (see :func:`_max_digits`); else :class:`InvalidScenario`.
    A canonical string skips ``Fraction``'s string parser."""
    try:
        if _is_int(s):
            return Q(s)
        if isinstance(s, str):
            limit = _max_digits()
            m = _CANONICAL.match(s)
            if m is not None:
                x = Q(int(m[1]), int(m[2] or 1))
            else:
                m = _EXPONENT.search(s)
                x = Q(s) if m is None or abs(int(m[1])) < limit else None
            if x is not None and _printable(x, limit):
                return x
    except (ValueError, ZeroDivisionError):
        pass
    raise InvalidScenario("schema", location, f"not a rational: {s!r}")


def format_time(v) -> object:
    return "inf" if v is INF else v


def parse_time(v, horizon, location=""):
    if v == "inf":
        return INF
    if _is_int(v) and 0 <= v <= horizon:
        return v
    raise InvalidScenario("schema", location, f"not a grid time or 'inf': {v!r}")


@dataclass(frozen=True)
class Scenario:
    """``space`` must be ``filtration.space`` (else ValueError)."""

    space: FiniteSpace
    filtration: Filtration
    tau: RandomTime
    price: AdaptedProcess

    def __post_init__(self):
        if self.space != self.filtration.space:
            raise ValueError("the space must be the space of the filtration")


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise InvalidScenario("schema", "$", "scenario must be a JSON object")
    for key in ("atoms", "probs", "horizon", "filtration", "tau", "S"):
        if key not in doc:
            raise InvalidScenario("schema", f"$.{key}", "missing field")
    atoms = doc["atoms"]
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise InvalidScenario("schema", "$.atoms", "must be a list of strings")
    if not isinstance(doc["probs"], list):
        raise InvalidScenario("schema", "$.probs", "must be a list of rationals")
    probs = [
        parse_fraction(p, f"$.probs[{i}]") for i, p in enumerate(doc["probs"])
    ]
    horizon = doc["horizon"]
    if not _is_int(horizon) or horizon < 1:
        raise InvalidScenario("schema", "$.horizon", "must be an integer >= 1")
    try:
        space = FiniteSpace(tuple(atoms), tuple(probs), horizon)
    except InvalidProbabilities as exc:
        raise InvalidScenario("probabilities", "$.probs", str(exc)) from exc
    except ValueError as exc:  # repeated atom identifiers
        raise InvalidScenario("schema", "$.atoms", str(exc)) from exc

    filt_doc = doc["filtration"]
    if not isinstance(filt_doc, list) or len(filt_doc) != horizon + 1:
        raise InvalidScenario(
            "schema", "$.filtration", "need one partition per grid time"
        )
    index = space.index
    for t, blocks in enumerate(filt_doc):
        if not isinstance(blocks, list):
            raise InvalidScenario("schema", f"$.filtration[{t}]", "must be a list of blocks")
        for b, block in enumerate(blocks):
            if not isinstance(block, list) or not block:
                loc = f"$.filtration[{t}][{b}]"
                raise InvalidScenario("schema", loc, "block must be a non-empty list")
            for a in block:
                if not isinstance(a, str) or a not in index:
                    loc = f"$.filtration[{t}][{b}]"
                    raise InvalidScenario("schema", loc, f"unknown atom {a!r}")
    try:
        filtration = Filtration.from_names(filt_doc, space)
    except ValueError as exc:
        raise InvalidScenario("filtration", "$.filtration", str(exc)) from exc

    tau_doc = doc["tau"]
    if not isinstance(tau_doc, dict) or set(tau_doc) != set(atoms):
        raise InvalidScenario("schema", "$.tau", "need exactly one entry per atom")
    tau = RandomTime(
        tuple(parse_time(tau_doc[a], horizon, f"$.tau.{a}") for a in atoms)
    )

    s_doc = doc["S"]
    if not isinstance(s_doc, dict) or "dim" not in s_doc or "values" not in s_doc:
        raise InvalidScenario("schema", "$.S", "need fields 'dim' and 'values'")
    dim = s_doc["dim"]
    if not _is_int(dim) or dim < 1:
        raise InvalidScenario("schema", "$.S.dim", "must be an integer >= 1")
    vals = s_doc["values"]
    if not isinstance(vals, dict) or set(vals) != set(atoms):
        raise InvalidScenario("schema", "$.S.values", "need exactly one path per atom")
    # Each distinct rational string is parsed once, and the atoms whose cells
    # carry the same strings share one cell, found by one lookup of the
    # cell's tuple.  Only all-string tuples are keys: True == 1 and hash(1.0)
    # == hash(1), so a wider key would let a JSON boolean or float skip its
    # error.  A bad string is never stored and raises at its first location;
    # each path is checked once, at t = 0, which finds errors in the same
    # order as a check at every date.
    paths = [vals[a] for a in atoms]
    parsed, shared = {}, {}
    rows = []
    for t in space.times:
        row = []
        for a, path in zip(atoms, paths):
            if not t and (not isinstance(path, list) or len(path) != horizon + 1):
                raise InvalidScenario("schema", f"$.S.values.{a}", "need one cell per time")
            cell = path[t]
            if isinstance(cell, list):
                try:
                    hit = shared.get(tuple(cell))
                except TypeError:  # a list or a dict inside the cell
                    hit = None
                if hit is not None:
                    row.append(hit)
                    continue
            loc = f"$.S.values.{a}[{t}]"
            if not isinstance(cell, list) or len(cell) != dim:
                raise InvalidScenario("schema", loc, "need one rational per component")
            if not all(isinstance(c, str) for c in cell):
                row.append(tuple(parse_fraction(c, loc) for c in cell))
                continue
            for c in cell:
                if c not in parsed:
                    parsed[c] = parse_fraction(c, loc)
            shared[tuple(cell)] = value = tuple(parsed[c] for c in cell)
            row.append(value)
        rows.append(tuple(row))
    for t, (row, blocks) in enumerate(zip(rows, filtration.parts)):
        i = first_nonconstant(row, blocks)
        if i is not None:
            raise InvalidScenario(
                "adaptedness", f"$.S.values.{atoms[i]}[{t}]",
                "price is not constant on a filtration block",
            )
    # every cell is a dim-tuple of Q values already
    return Scenario(space, filtration, tau, AdaptedProcess._trusted(tuple(rows)))


def serialize_scenario(sc: Scenario) -> dict:
    space = sc.space
    return {
        "atoms": list(space.atoms),
        "probs": [format_fraction(p) for p in space.prob],
        "horizon": space.horizon,
        "filtration": [
            [[space.atoms[i] for i in block] for block in blocks]
            for blocks in sc.filtration.parts
        ],
        "tau": {a: format_time(v) for a, v in zip(space.atoms, sc.tau.values)},
        "S": {
            "dim": sc.price.dim,
            "values": {
                a: [
                    [format_fraction(c) for c in row[i]]
                    for row in sc.price.values
                ]
                for i, a in enumerate(space.atoms)
            },
        },
    }


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            # malformed JSON, bytes that are not UTF-8, or an integer literal
            # past the digit limit of int(); all three subclass ValueError
            raise InvalidScenario("schema", str(path), f"invalid JSON: {exc}") from exc
    return parse_scenario(doc)


def load_builtin(name: str) -> Scenario:
    """Built-in fixtures shipped with the package ('ex1', 'ex2')."""
    text = resources.files("randomhorizon.scenarios").joinpath(f"{name}.json").read_text()
    return parse_scenario(json.loads(text))


_ESCAPE = json.encoder.encode_basestring_ascii
# every leaf that is not a str, an int, a bool or None (a float in ``mc``'s
# reports): the stdlib's text, ``ValueError`` when not finite, and
# ``TypeError`` when it is no JSON value
_LEAF = json.JSONEncoder(allow_nan=False).encode


def _key(k) -> str:
    """A dict key that is not a str, as the stdlib writes it: an int, a
    float, a bool or None by its JSON text; any other key is a TypeError."""
    if not isinstance(k, tuple):
        try:
            return _LEAF(k)
        except TypeError:
            pass
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _encode(o, nl: str) -> str:
    """The text of ``o`` at the indent of ``nl`` ("\\n" and two spaces per
    level): containers open a level, dict items are sorted by key, and a
    list of strings is escaped and joined in one pass."""
    if isinstance(o, str):
        return _ESCAPE(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        if isinstance(o[0], str):
            try:
                return "[" + inner + sep.join(map(_ESCAPE, o)) + nl + "]"
            except TypeError:  # not every item is a str
                pass
        return "[" + inner + sep.join([_encode(v, inner) for v in o]) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        items = [
            _ESCAPE(k if isinstance(k, str) else _key(k)) + ": " + _encode(v, inner)
            for k, v in sorted(o.items())
        ]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return _LEAF(o)


def dump_json(obj) -> str:
    """Report JSON: the text of ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False)`` plus a newline, with the same exceptions (a
    non-finite float raises ``ValueError``; JSON has none), written by one
    recursive pass that escapes strings in C."""
    return _encode(obj, "\n") + "\n"


def write_json(obj, path) -> None:
    Path(path).write_text(dump_json(obj), encoding="utf-8")


def write_csv(rows, header, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
