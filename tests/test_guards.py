"""Source rules that keep the engine's guards alive under ``python -O``."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import randomhorizon

from helpers import (
    date_arguments,
    date_calls,
    date_sweep,
    run_optimized,
    shape_mismatches,
)
from randomhorizon.io import load_builtin

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


def _imports_fractions(tree) -> list:
    """Line numbers of each ``import fractions`` or ``from fractions import``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "fractions" and not node.level)
    ]


def test_one_rational_type():
    # the engine computes in ``rational.Q``: a module that imported
    # ``fractions`` could build plain Fractions, whose operators go through
    # the stdlib's ABC dispatch, and a leaked one passes every equality
    # test; ``rational.py`` is also held to the float and reader rules,
    # since neither exempts it
    sample = "import fractions\nfrom fractions import Fraction\nfrom .fractions import x\n"
    assert _imports_fractions(ast.parse(sample)) == [1, 2]
    assert "rational.py" in {p.name for p in SOURCES}
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "rational.py"
        for line in _imports_fractions(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def _json_writers(tree) -> list:
    """Line numbers of each call of ``json.dump`` or ``json.dumps`` and
    each import of either name from ``json``."""
    names = {"dump", "dumps"}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "json"
            and any(a.name in names for a in node.names)
        )
    )


def test_one_report_encoder():
    # every report goes through ``io.dump_json``, which writes the stdlib's
    # indented, key-sorted text without its pure-Python encoder; a module
    # that called ``json.dumps`` itself could drift from that format or
    # bring the slow encoder back
    sample = (
        "import json\njson.dumps(x)\njson.dump(x, fh)\nfrom json import dumps\n"
        "json.loads(s)\njson.JSONEncoder().encode(x)\n"
    )
    assert _json_writers(ast.parse(sample)) == [2, 3, 4]
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _json_writers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_pivot_loop_never_names_fraction():
    # the simplex pivots on ints over one denominator per row; a rational
    # (Q or Fraction) in the pivot or pricing loop would bring back its
    # per-entry gcd and allocation, and solve_min builds Qs only for its answer
    lp = ast.parse((SOURCES[0].parent / "lp.py").read_text(encoding="utf-8"))
    loops = {n.name: n for n in lp.body if isinstance(n, ast.FunctionDef)}
    found = [
        f"{name}:{node.lineno}"
        for name in ("_pivot", "_iterate")
        for node in ast.walk(loops[name])
        if (isinstance(node, ast.Name) and node.id in ("Fraction", "Q"))
        or (isinstance(node, ast.Attribute) and node.attr in ("Fraction", "Q"))
    ]
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


def _signatures(source: str):
    """``(name, parameter names)`` of each function in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            yield node.name, {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}


def _beside_space(source: str, module: str, names: set) -> list:
    """``module.function`` of each function in ``source`` that takes a
    ``space`` parameter and one named in ``names``."""
    return [
        f"{module}.{name}"
        for name, params in _signatures(source)
        if "space" in params and params & names
    ]


def _package_beside_space(names: set) -> list:
    return sorted(
        name
        for path in SOURCES
        for name in _beside_space(path.read_text(encoding="utf-8"), path.stem, names)
    )


def test_no_function_takes_a_filtration_beside_its_space():
    # a filtration carries its space, so a function that also took the space
    # could read the grid or the measure of another one; the two kept
    # signatures raise on a mismatched pair
    found = _package_beside_space({"filt", "enlarged", "filtration"})
    assert found == ["generator.random_martingale", "nupbr.certify_nupbr"]


def test_no_function_takes_a_partition_beside_a_space():
    # a block list beside a space need not partition that space: conditioning
    # on one that misses an atom gave that atom E = 0, and overlapping blocks
    # passed; conditional expectation is asked of a filtration at a date
    old = (
        "def condexp(values, blocks, space):\n    pass\n\n"
        "def condexp_cells(cells, blocks, space):\n    pass\n"
    )
    partitions = {"blocks", "parts", "partition"}
    assert _beside_space(old, "space", partitions) == ["space.condexp", "space.condexp_cells"]
    assert _package_beside_space(partitions) == []


def _taking(source: str, module: str, name: str) -> list:
    """``module.function`` of each function in ``source`` that takes a
    parameter called ``name``."""
    return [f"{module}.{fn}" for fn, params in _signatures(source) if name in params]


def test_no_function_takes_the_enlargement():
    # G is the enlargement of F by tau, and the survival bundle builds it
    # (``bundle.enlarged``); a function that took G beside F and tau could
    # be handed another filtration, and a caller's mistake then surfaced as
    # the engine-bug class StructuralViolation.  The sample is the
    # reduction's old signature; the bundle's own view takes only ``self``
    sample = (
        "def reduce_g_predictable(H, filt, enlarged, tau):\n    pass\n\n"
        "class AzemaBundle:\n    def enlarged(self):\n        pass\n"
    )
    assert _taking(sample, "enlargement", "enlarged") == ["enlargement.reduce_g_predictable"]
    found = [
        name
        for path in SOURCES
        for name in _taking(path.read_text(encoding="utf-8"), path.stem, "enlarged")
    ]
    assert found == []


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


def _compares_survival_with_zero(node) -> bool:
    """An ``ast.Compare`` with the literal 0 among its operands and a read
    of an attribute ``Z`` or ``Ztilde`` in another."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    zero = any(
        isinstance(o, ast.Constant) and not isinstance(o.value, bool) and o.value == 0
        for o in operands
    )
    return zero and any(
        isinstance(n, ast.Attribute) and n.attr in ("Z", "Ztilde")
        for o in operands
        for n in ast.walk(o)
    )


def _survival_readers(sources: dict) -> dict:
    """``module.function`` -> node of each function that takes a survival
    bundle (``bundle``) or a deflator bundle (``deflators``), for a
    module -> source map."""
    readers = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                params = {a.arg for a in node.args.args + node.args.kwonlyargs}
                if params & {"bundle", "deflators"}:
                    readers[f"{module}.{node.name}"] = node
    return readers


def _survival_view_deciders(readers: dict) -> list:
    """``module.function:line`` of each survival set a reader decides
    itself: a call :func:`_decides_a_survival_view` flags, or a comparison
    :func:`_compares_survival_with_zero` flags."""
    return [
        f"{name}:{node.lineno}"
        for name, fn in readers.items()
        for node in ast.walk(fn)
        if (isinstance(node, ast.Call) and _decides_a_survival_view(node))
        or _compares_survival_with_zero(node)
    ]


def test_survival_views_are_read_from_the_bundle():
    # ]0, tau] is ``AzemaBundle.alive``, P(Zt_t = 0 | F_{t-1}) is
    # ``AzemaBundle.collapse`` and the zero sets of Z and Zt are
    # ``z_zero`` and ``zt_zero``: a function that takes a survival bundle
    # (or a deflator bundle) reads them instead of deciding t <= tau(i) per
    # atom, projecting an indicator with the scalar ``condexp`` itself, or
    # comparing a value of Z or Zt with 0.  The comparison rule sees only an
    # operand that reads ``.Z`` or ``.Ztilde`` itself: a local variable
    # bound to such a value and compared with 0 is not seen.  The sample is
    # the three comparisons the engine made before the bundle owned its
    # zero sets, and a local one the rule does not see.
    sample = {
        "enlargement": (
            "def compensator_of_rescaled(V, bundle):\n"
            "    supported = all(\n"
            "        not any(V.increments[t][i])\n"
            "        for t in range(1, space.horizon + 1)\n"
            "        for i in range(space.n)\n"
            "        if bundle.Ztilde.scalar_at(t, i) == 0\n"
            "    )\n"
        ),
        "nupbr": (
            "def single_jump_equivalences(xi_values, T, bundle):\n"
            "    alive_prev = [bundle.Z.scalar_at(T - 1, i) > 0 for i in range(space.n)]\n"
            "    masked = [\n"
            "        alive_prev[i] and bundle.Ztilde.scalar_at(T, i) > 0 for i in range(space.n)\n"
            "    ]\n"
            "    positive = [z[0] > 0 for z in bundle.Ztilde.values[T]]\n"
        ),
    }
    assert _survival_view_deciders(_survival_readers(sample)) == [
        "enlargement.compensator_of_rescaled:6",
        "nupbr.single_jump_equivalences:2",
        "nupbr.single_jump_equivalences:4",
    ]
    readers = _survival_readers(
        {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    )
    assert {
        "enlargement._over_zprev",
        "enlargement.compensator_of_rescaled",
        "enlargement.jump_time_measures",
        "enlargement.reduce_g_predictable",
        "deflator.build_deflator",
        "deflator.supermartingale_deflator",
        "nupbr.single_jump_equivalences",
        "nupbr.witness_martingale",
    } <= set(readers)
    assert _survival_view_deciders(readers) == []


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


def test_engine_rows_skip_the_coercing_constructor():
    # ``AdaptedProcess(...)`` re-coerces every cell of input from outside
    # the engine; rows the engine built are exact already, so a package
    # module builds its processes with ``AdaptedProcess._trusted`` (or a
    # kernel that does) and never pays that pass
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "AdaptedProcess"
    ]
    assert found == []


def _callers(source: str, module: str, owner: str, attr: str) -> list:
    """``module.function`` of the innermost function around each call of
    ``owner.attr`` in ``source``; ``module`` alone for a call outside
    every function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}.{child.name}")
                continue
            func = getattr(child, "func", None)
            if (
                isinstance(child, ast.Call)
                and isinstance(func, ast.Attribute)
                and func.attr == attr
                and isinstance(func.value, ast.Name)
                and func.value.id == owner
            ):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def test_only_the_enlargement_is_a_trusted_filtration():
    # ``Filtration._trusted`` takes canonical parts without sorting or
    # checking each partition (only the refinement pass that builds the
    # children table runs); ``enlarge`` builds G so from a checked F, and
    # every other filtration, a parsed one first, keeps the constructor's
    # checks and messages
    sample = (
        "def enlarge(f):\n    return Filtration._trusted(f, p)\n\n"
        "class Filtration:\n    def from_names(self):\n"
        "        return [Filtration._trusted(self, p) for _ in ()]\n\n"
        "G = Filtration._trusted(F, p)\n"
    )
    assert _callers(sample, "m", "Filtration", "_trusted") == ["m.enlarge", "m.from_names", "m"]
    found = [
        name
        for path in SOURCES
        for name in _callers(path.read_text(encoding="utf-8"), path.stem, "Filtration", "_trusted")
    ]
    assert found == ["enlargement.enlarge"]


def _unread_parameters(source: str, module: str) -> list:
    """``module.function.parameter`` for each parameter of a function in
    ``source`` that its body (nested functions included) never reads.
    Exempt are dunder methods and ``self``/``cls``, whose signatures
    Python fixes."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [
            f"{module}.{fn.name}.{p.arg}"
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls")
        ]
    return found


def test_every_parameter_is_read():
    # a parameter that nothing reads is an input every caller must supply
    # and that changes nothing
    sample = "def f(used, unused, *rest):\n    def g(self):\n        return used\n"
    assert _unread_parameters(sample, "m") == ["m.f.unused", "m.f.rest"]
    found = [
        name
        for path in SOURCES
        for name in _unread_parameters(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert found == []


ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    """Each module-level function and class, and each method of a
    module-level class, except dunder methods, which Python calls."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                m
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (m.name.startswith("__") and m.name.endswith("__"))
            )


def _reads(node, enclosing=()):
    """``(name, enclosing definitions)`` per ``Name`` or ``Attribute`` read
    under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing + (node,)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, enclosing
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, enclosing)


def _unused_definitions(sources, exported, documented) -> list:
    """``module.name`` of each definition in ``sources`` (path -> text) that
    no package module reads outside the definition itself and that is not
    in ``exported`` or ``documented``.  The match is by name."""
    trees = {Path(p).stem: ast.parse(text) for p, text in sources.items()}
    reads = [r for tree in trees.values() for r in _reads(tree)]
    found = []
    for module, tree in trees.items():
        for d in _definitions(tree):
            if d.name in exported or d.name in documented:
                continue
            if not any(name == d.name and d not in inside for name, inside in reads):
                found.append(f"{module}.{d.name}")
    return found


def _identifiers(text: str) -> set:
    return set(re.findall(r"[A-Za-z_]\w*", text))


def _documented(readme: str) -> set:
    """The identifiers README names as code: every line of a fenced block,
    and outside the fences the text between paired backticks of one line.
    The fences are read first, since their backticks would shift a pairing
    over the whole file onto the prose between two names."""
    names, fenced = set(), False
    for line in readme.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif fenced:
            names |= _identifiers(line)
        else:
            names |= _identifiers(" ".join(re.findall(r"`([^`]+)`", line)))
    return names


def test_every_definition_has_a_reader():
    # a helper that only the tests call belongs in tests/helpers.py, and one
    # that nothing calls is dead: every definition of the package is read by
    # the package, exported by __init__, named in README as code, or used by
    # the benchmark or the packaging metadata.  A pairing of backticks over
    # the whole file reads the sample's fenced block as the start of a code
    # span, so it takes the prose "where" and "and" for names and misses
    # ``alone`` and ``meth``
    readme_sample = "Run:\n```\npython -m tool --flag\n```\nwhere `alone` and `meth` are names.\n"
    assert _documented(readme_sample) == {"python", "m", "tool", "flag", "alone", "meth"}
    sample = {
        "m.py": "def used():\n    return used()\n\ndef caller():\n    return used()\n\n"
        "def alone():\n    return alone()\n\nclass K:\n    def __eq__(self, o):\n"
        "        return True\n    def meth(self):\n        return 1\n"
    }
    assert _unused_definitions(sample, {"caller"}, {"K"}) == ["m.alone", "m.meth"]
    init = ast.parse((SOURCES[0].parent / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        a.asname or a.name for n in init.body if isinstance(n, ast.ImportFrom) for a in n.names
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = _documented(readme)
    for path in sorted((ROOT / "bench").rglob("*")) + [ROOT / "pyproject.toml"]:
        if path.is_file():
            documented |= _identifiers(path.read_text(encoding="utf-8"))
    sources = {str(p): p.read_text(encoding="utf-8") for p in SOURCES}
    assert _unused_definitions(sources, exported, documented) == []


def test_the_engine_reads_its_tables_not_the_checked_accessors():
    # ``at``, ``scalar_at`` and ``delta_at`` check their date and atom on
    # every call; they are the read API for callers outside the engine, and
    # a package module indexes ``values`` or ``increments`` instead, so no
    # check runs per atom on an engine path
    accessors = {"at", "scalar_at", "delta_at"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "space.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in accessors
    ]
    assert found == []


SHAPE_MISMATCHES = shape_mismatches()


@pytest.mark.parametrize("case", sorted(SHAPE_MISMATCHES))
def test_a_process_that_does_not_fit_raises_value_error(case):
    # one row per date, one cell per atom, one length per cell and one
    # weight per atom: a process that breaks the rule where it meets a
    # filtration, a space, weights or a second process is an error, never
    # a truncated result or a verdict
    with pytest.raises(ValueError):
        SHAPE_MISMATCHES[case]()


@pytest.mark.parametrize(
    "case", sorted(c for c in SHAPE_MISMATCHES if c.startswith("Filtration atom index"))
)
def test_a_bad_partition_index_names_its_date(case):
    # an atom index of a partition is an int, not a bool, in {0, ..., n - 1}
    # (``check_date``), and the error names the date of its partition
    with pytest.raises(ValueError, match=r"atom index at time 1 must lie in \{0, \.\.\., 3\}"):
        SHAPE_MISMATCHES[case]()


@pytest.mark.parametrize(
    "case",
    sorted(c for c in SHAPE_MISMATCHES if c.endswith(("partition not a collection",
                                                     "block not a collection"))),
)
def test_a_partition_that_is_not_a_collection_names_its_date(case):
    # a partition is a collection of blocks and a block one of atom
    # indices; anything else is named with the date of its partition
    with pytest.raises(ValueError, match=r"partition at time 1 must be a collection of "):
        SHAPE_MISMATCHES[case]()


def test_shape_guards_raise_under_optimize():
    # every shape guard is a raise, not an assert, so it survives python -O
    code = (
        "from helpers import shape_mismatches\n"
        "missed = []\n"
        "for name, call in shape_mismatches().items():\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    missed.append(name)\n"
        "print(missed)\n"
        "raise SystemExit(1 if missed else 0)\n"
    )
    done = run_optimized(code)
    assert done.returncode == 0, done.stdout + done.stderr


DATE_SWEEP = date_sweep()


def test_the_date_sweep_reaches_every_date_taking_entry_point():
    # the sweep finds its entry points by signature; these are the ones
    # that took a bool, a float or a wrapped-round index before one
    # ``check_date`` decided every date and atom index.  Each base call,
    # with every date and atom in range, runs, so a ValueError of the sweep
    # comes from the value swept and not from another argument
    sc = load_builtin("ex1")
    table = date_arguments(sc)
    calls = date_calls(sc, table)
    assert {name for name, _ in calls} >= {
        "space.condexp",
        "space.condexp_cells",
        "Filtration.nodes",
        "AdaptedProcess.at",
        "AdaptedProcess.scalar_at",
        "AdaptedProcess.delta_at",
        "RandomTime.at",
        "enlargement.jump_time_measures",
        "nupbr.thin_set_empty_at",
        "nupbr.witness_martingale",
        "nupbr.single_jump_equivalences",
        "nupbr.single_jump_martingale_transfer",
        "nupbr.single_jump_process",
    }
    for (name, param), call in calls.items():
        call(table[param])
    # an argument missing from the table fails its entry point's cases
    partial = date_calls(sc, {k: v for k, v in table.items() if k != "bundle"})
    with pytest.raises(KeyError):
        partial[("enlargement.jump_time_measures", "T")](1)


@pytest.mark.parametrize("case", sorted(DATE_SWEEP))
def test_a_date_or_atom_off_its_range_raises_value_error(case):
    # a date or an atom index is an int, not a bool, in its range: True was
    # read as date 1, -1 wrapped round to the last date or atom, a float or
    # a string raised a bare TypeError, and single_jump_process built a
    # process from T = 1.5 whose increment table was all zero
    with pytest.raises(ValueError, match="must lie in"):
        DATE_SWEEP[case]()


def test_date_guards_raise_under_optimize():
    # every date check is a raise, not an assert, so it survives python -O
    code = (
        "from helpers import date_sweep\n"
        "missed = []\n"
        "for name, call in date_sweep().items():\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        if 'must lie in' in str(exc):\n"
        "            continue\n"
        "    missed.append(name)\n"
        "print(missed)\n"
        "raise SystemExit(1 if missed else 0)\n"
    )
    done = run_optimized(code)
    assert done.returncode == 0, done.stdout + done.stderr
