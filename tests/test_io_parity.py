"""The report encoder and the scenario parser against their stdlib twins.

``io.dump_json`` must write exactly the text of ``json.dumps(doc, indent=2,
sort_keys=True, allow_nan=False)`` plus a newline, and raise the same
exception type where that call raises; the stdlib answer is computed here,
never pinned.  ``io.parse_fraction`` must accept exactly the strings that
``Fraction``'s parser reads to a printable value, with equal values, and a
scenario with two faults must report the first one the parser always
reported.
"""

import json
import math
from dataclasses import asdict

import pytest

from randomhorizon import cli, mc
from randomhorizon.campaign import run_campaign
from randomhorizon.errors import InvalidScenario
from randomhorizon.generator import random_instance
from randomhorizon.io import (
    _max_digits,
    _printable,
    dump_json,
    load_builtin,
    parse_fraction,
    parse_scenario,
    serialize_scenario,
)
from randomhorizon.rational import Q


def _stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _outcome(encode, doc):
    """The text ``encode`` writes, or the type of the exception it raises."""
    try:
        return encode(doc)
    except Exception as exc:  # the exception type is the answer
        return type(exc)


REPORTS = {"inspect", "certify", "theorems", "witness"}


@pytest.mark.parametrize("name", ["ex1", "ex2"])
@pytest.mark.parametrize("command", sorted(REPORTS))
def test_reports_encode_as_the_stdlib_does(command, name):
    doc = getattr(cli, f"{command}_report")(load_builtin(name))
    assert dump_json(doc) == _stdlib(doc)


def test_campaign_and_scenario_documents_encode_as_the_stdlib_does():
    docs = [run_campaign(20, 0)]
    docs += [serialize_scenario(random_instance(seed)) for seed in range(10)]
    for doc in docs:
        assert dump_json(doc) == _stdlib(doc)


def test_a_monte_carlo_document_encodes_as_the_stdlib_does():
    model = mc.McModel(dt=0.05, paths=200)
    doc = asdict(mc.simulate(model))
    doc["validation"] = [asdict(mc.validate_survival_formula(model, 0.5, 0.5, 200))]
    assert any(type(v) is float for v in doc["estimates"])
    assert dump_json(doc) == _stdlib(doc)


HAND = {
    "empty list": [],
    "empty dict": {},
    "nested empty": {"a": [], "b": {}, "c": [[], {}], "d": [[[]]]},
    "tuples": ("a", ("b", 1), [("c",)]),
    "non-ascii": {"é": ["naïve", "€", "😀", "中文"]},
    "quotes and controls": ['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "</script>"],
    "60-digit int": [10**59 + 1, -(10**59 + 7)],
    "floats": [-0.0, 1e300, 0.1, -2.5e-310],
    "singletons": [True, False, None, 0, -1],
    "mixed list": ["a", 1, None, ["b", 2], {"c": "d"}, "e"],
    "int keys": {10: "x", 2: "y", -3: "z"},
    "float keys": {2.5: 1, -0.0: 2, 1e300: 3},
    "bool keys": {True: "t", False: "f"},
    "None key": {None: [1]},
    "str keys": {"b": 1, "a": {"d": 2, "c": 3}, "": 0},
    "scalar str": "top",
    "scalar int": 7,
    "scalar float": 0.5,
}


@pytest.mark.parametrize("case", sorted(HAND))
def test_hand_cases_encode_as_the_stdlib_does(case):
    assert dump_json(HAND[case]) == _stdlib(HAND[case])


FAILING = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "nested nan": {"a": [1, {"b": [math.nan]}]},
    "inf after strings": ["a", "b", math.inf],
    "nan key": {math.nan: 1},
    "set": {"a": {1, 2}},
    "object": [object()],
    "tuple key": {(1, 2): 3},
    "mixed keys": {"a": 1, 2: 3},
    "bytes after strings": ["a", b"b"],
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_unencodable_values_raise_as_the_stdlib_does(case):
    want = _outcome(_stdlib, FAILING[case])
    assert isinstance(want, type) and issubclass(want, (TypeError, ValueError))
    assert _outcome(dump_json, FAILING[case]) is want


LONG = "7" * 4301
CORPUS = [
    "2/4", "-0", "007", "+3", " 3", "3\n", "3_0", "1/0", "1/-2", "-1/2", "0/5",
    "0.5", "1e3", "١", "", "-", "/2", "1/", "1//2", "inf", "nan", "x",
    LONG, "-" + LONG, LONG + "/3", "3/" + LONG, "0" * 4300 + "1",
    LONG[1:], "-" + LONG[1:], LONG[1:] + "/" + LONG[1:],
]


def _oracle(s):
    """The value ``Fraction``'s parser gives when it is printable, else None."""
    try:
        x = Q(s)
    except (ValueError, ZeroDivisionError):
        return None
    return x if _printable(x, _max_digits()) else None


@pytest.mark.parametrize("s", CORPUS, ids=[f"{s[:12]!r}/{len(s)}" for s in CORPUS])
def test_parse_fraction_accepts_what_fraction_reads(s):
    want = _oracle(s)
    try:
        got = parse_fraction(s, "$.x")
    except InvalidScenario as exc:
        assert (exc.code, exc.location) == ("schema", "$.x")
        got = None
    assert got == want
    assert got is None or type(got) is Q


def _ex1_with(cells: dict, paths: dict = ()) -> dict:
    doc = serialize_scenario(load_builtin("ex1"))
    for (a, t), cell in cells.items():
        doc["S"]["values"][a][t] = cell
    for a, path in dict(paths).items():
        doc["S"]["values"][a] = path
    return doc


# two faults each; the location is the one the parser has always reported,
# rows read time by time and atoms in order, each path checked at t = 0
TWO_FAULTS = {
    "bad first cell before a later short path": (
        _ex1_with({("a", 0): ["x"]}, {"d": [["0"], ["-1"]]}),
        "$.S.values.a[0]",
    ),
    "later short path before a bad cell at t = 1": (
        _ex1_with({("a", 1): ["x"]}, {"d": [["0"], ["-1"]]}),
        "$.S.values.d",
    ),
    "short first path before a bad cell": (
        _ex1_with({("b", 0): ["x"]}, {"a": [["0"]]}),
        "$.S.values.a",
    ),
    "true after its string twin": (
        _ex1_with({("a", 1): ["1"], ("b", 1): [True], ("c", 2): ["1/0"]}),
        "$.S.values.b[1]",
    ),
    "a list inside a cell after its twin": (
        _ex1_with({("a", 1): ["1"], ("b", 1): [["1"]], ("c", 1): ["x"]}),
        "$.S.values.b[1]",
    ),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_the_first_of_two_faults_is_reported(case):
    doc, location = TWO_FAULTS[case]
    with pytest.raises(InvalidScenario) as err:
        parse_scenario(doc)
    assert (err.value.code, err.value.location) == ("schema", location)
