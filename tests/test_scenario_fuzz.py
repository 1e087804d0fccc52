"""Mutated scenario documents either parse or fail with a documented code.

Each example applies one to three mutations to the ex1 or ex2 document:
dropping a key or list entry, duplicating one, retyping a value (booleans,
floats, null, numbers, strings, containers), wrapping it in a list or an
object, or replacing it with a huge, negative or infinite rational, including
exponent notation far past the digit limit of ``int()``.
"""

import contextlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from randomhorizon import cli
from randomhorizon.errors import InvalidScenario
from randomhorizon.io import parse_scenario

CODES = {"schema", "probabilities", "filtration", "adaptedness"}
BASES = {
    name: json.loads(
        resources.files("randomhorizon.scenarios").joinpath(f"{name}.json").read_text()
    )
    for name in ("ex1", "ex2")
}
ODD = [
    None, True, False, 0, 1, -1, 7, 2.5, "inf", "-inf", "nan", "", "a", "z",
    "1/0", "-3/4", "1e400", "1e99999999", "-3e-4000000", str(10**60 + 1) + "/3",
    "-" + str(10**60), [], {},
    [[]], [["a"]], {"a": "inf"},
]
OPS = ["drop", "duplicate", "retype", "wrap_list", "wrap_object", "negate", "huge"]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key in node:
            yield from _paths(node[key], prefix + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _paths(item, prefix + (i,))


def _mutate(doc, path, op, odd):
    if not path:
        return odd if op == "retype" else [doc] if op == "wrap_list" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    if op == "drop":
        del parent[key]
    elif op == "duplicate":
        if isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(value)))
        else:
            parent[f"{key}_copy"] = json.loads(json.dumps(value))
    elif op == "retype":
        parent[key] = odd
    elif op == "wrap_list":
        parent[key] = [value]
    elif op == "wrap_object":
        parent[key] = {"0": value}
    elif op == "negate":
        parent[key] = -value if isinstance(value, int) else f"-{value}"
    elif op == "huge":
        parent[key] = str(10**40 * 7 + 3) if isinstance(value, str) else 10**40
    return doc


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(BASES[draw(st.sampled_from(sorted(BASES)))]))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        doc = _mutate(doc, path, draw(st.sampled_from(OPS)), draw(st.sampled_from(ODD)))
    return doc


def _parse_or_code(doc):
    try:
        parse_scenario(doc)
    except InvalidScenario as exc:
        assert exc.code in CODES, exc
        assert exc.location.startswith("$"), exc
        return exc.code
    return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_mutated_scenarios_parse_or_raise_a_documented_code(doc):
    _parse_or_code(doc)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_documents())
def test_mutated_scenarios_exit_0_or_1_through_inspect(doc):
    code = _parse_or_code(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["inspect", str(path)])
    assert rc == (0 if code is None else 1), err.getvalue()
    if code is not None:
        assert json.loads(err.getvalue())["error"] == code
