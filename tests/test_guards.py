"""Source rules that keep the engine's guards alive under ``python -O``."""

import ast
import importlib
import inspect
from pathlib import Path

import randomhorizon

SOURCES = sorted(Path(randomhorizon.__file__).parent.rglob("*.py"))


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so a guard written as one
    # silently stops guarding; the engine raises its own exceptions instead
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_floats_in_the_exact_engine():
    # Fraction(1, 2) == 0.5 holds and format_fraction(0.5) prints "1/2", so
    # a float that leaks into an exact value passes every equality test and
    # every output pin; only ``mc`` (numpy) and ``cli`` (its options) may
    # use floats, and ``space.frac`` names the type to reject it
    exact = [p for p in SOURCES if p.name not in ("mc.py", "cli.py")]
    assert {p.name for p in exact} >= {"space.py", "projections.py", "io.py"}
    found = []
    for path in exact:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "space.py":
            frac = next(
                n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "frac"
            )
            allowed = {id(n) for n in ast.walk(frac)}
        for node in ast.walk(tree):
            literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
            name = isinstance(node, ast.Name) and node.id == "float"
            if (literal or name) and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_tracer_targets_are_module_level_functions():
    # the benchmark tracer rebinds each (module, name) of its TARGETS by
    # name, so a renamed, moved or nested target would only surface as a
    # crash of a benchmark run; read the table without importing bench/
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    targets = ast.literal_eval(table)
    assert len(targets) > 20
    broken = []
    for module_name, func_name, _ in targets:
        module = importlib.import_module(f"randomhorizon.{module_name}")
        fn = getattr(module, func_name, None)
        if not (
            inspect.isfunction(fn)
            and fn.__module__ == module.__name__
            and fn.__qualname__ == func_name
        ):
            broken.append(f"{module_name}.{func_name}")
    assert broken == []


def _decides_a_survival_view(call) -> bool:
    """``tau.at(...)``, ``<obj>.tau.at(...)`` or ``condexp(...)``."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id == "condexp"
    if not (isinstance(f, ast.Attribute) and f.attr == "at"):
        return False
    owner = f.value
    return (isinstance(owner, ast.Name) and owner.id == "tau") or (
        isinstance(owner, ast.Attribute) and owner.attr == "tau"
    )


def test_survival_views_are_read_from_the_bundle():
    # ]0, tau] is ``AzemaBundle.alive`` and P(Zt_t = 0 | F_{t-1}) is
    # ``AzemaBundle.collapse``: a function that takes a survival bundle (or
    # a deflator bundle) reads them instead of deciding t <= tau(i) per atom
    # or projecting an indicator with the scalar ``condexp`` itself
    readers = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                params = {a.arg for a in node.args.args + node.args.kwonlyargs}
                if params & {"bundle", "deflators"}:
                    readers[f"{path.stem}.{node.name}"] = node
    assert {
        "enlargement._over_zprev",
        "enlargement.jump_time_measures",
        "deflator.build_deflator",
        "deflator.supermartingale_deflator",
        "nupbr.witness_martingale",
    } <= set(readers)
    found = [
        f"{name}:{call.lineno}"
        for name, fn in readers.items()
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and _decides_a_survival_view(call)
    ]
    assert found == []


def test_node_walks_go_through_filtration_nodes():
    # every one-period node walk of the engine is ``Filtration.nodes``; a
    # module that lists children itself writes a second copy of that walk
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "space.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "children"
    ]
    assert found == []
