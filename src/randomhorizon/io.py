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
location; see the README for the code list.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .errors import InvalidProbabilities, InvalidScenario
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


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
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


def _printable(x: Fraction, limit: int) -> bool:
    """True iff numerator and denominator have at most ``limit`` decimal
    digits; below ``2**(3 * limit)`` no power of ten is needed."""
    bits = 3 * limit
    if x.numerator.bit_length() <= bits >= x.denominator.bit_length():
        return True
    return max(abs(x.numerator), x.denominator) < 10**limit


def parse_fraction(s, location="") -> Fraction:
    try:
        if _is_int(s):
            return Fraction(s)
        if isinstance(s, str):
            limit = _max_digits()
            m = _EXPONENT.search(s)
            if m is None or abs(int(m.group(1))) < limit:
                x = Fraction(s)
                if _printable(x, limit):
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
    space: FiniteSpace
    filtration: Filtration
    tau: RandomTime
    price: AdaptedProcess


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
    for t, blocks in enumerate(filt_doc):
        if not isinstance(blocks, list):
            raise InvalidScenario("schema", f"$.filtration[{t}]", "must be a list of blocks")
        for b, block in enumerate(blocks):
            loc = f"$.filtration[{t}][{b}]"
            if not isinstance(block, list) or not block:
                raise InvalidScenario("schema", loc, "block must be a non-empty list")
            for a in block:
                if not isinstance(a, str) or a not in space.index:
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
    rows = []
    for t in space.times:
        row = []
        for a in atoms:
            path = vals[a]
            loc = f"$.S.values.{a}[{t}]"
            if not isinstance(path, list) or len(path) != horizon + 1:
                raise InvalidScenario("schema", f"$.S.values.{a}", "need one cell per time")
            cell = path[t]
            if not isinstance(cell, list) or len(cell) != dim:
                raise InvalidScenario("schema", loc, "need one rational per component")
            row.append(tuple(parse_fraction(c, loc) for c in cell))
        rows.append(tuple(row))
    for t, (row, blocks) in enumerate(zip(rows, filtration.parts)):
        i = first_nonconstant(row, blocks)
        if i is not None:
            raise InvalidScenario(
                "adaptedness", f"$.S.values.{atoms[i]}[{t}]",
                "price is not constant on a filtration block",
            )
    return Scenario(space, filtration, tau, AdaptedProcess(dim, tuple(rows)))


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
        "tau": {a: format_time(sc.tau.at(i)) for i, a in enumerate(space.atoms)},
        "S": {
            "dim": sc.price.dim,
            "values": {
                a: [
                    [format_fraction(c) for c in sc.price.at(t, i)]
                    for t in space.times
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


def dump_json(obj) -> str:
    """Report JSON; a non-finite float raises ``ValueError`` (JSON has none)."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(obj, path) -> None:
    Path(path).write_text(dump_json(obj), encoding="utf-8")


def write_csv(rows, header, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
