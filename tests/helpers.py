"""Builders and naive references that only the tests read.

The engine never builds a process from a Python function, a constant, a
scaled copy, a pointwise product or one component, never draws an
arbitrary adapted or predictable process, and never walks a filtration by
atom or by child index; these helpers write those out for the tests to
build inputs and check the engine against (``naive_nodes`` is
:meth:`Filtration.nodes` written with ``children``, a scan of the parts
that never reads the cached children table).  ``scale``,
``mul_scalar_process`` and ``component`` go through the package's cell
maps, so the tests that compare them with a per-atom reference exercise
:func:`map_cells` and :func:`zip_cells`.
``solve_min_reference`` is the simplex on a dense Fraction tableau that
the engine's integer-row :func:`randomhorizon.lp.solve_min` must match.
``copy_instance`` splits every atom of a model in copies that share every
F-block (``split_instance`` in two), ``tau_class_draw`` draws a random
time of a class whose survival facts are known a priori, and
``shape_mismatches`` lists the calls whose process does not fit what it
meets, ``date_sweep`` the calls of every date- or atom-taking entry point
with a value off its range; ``run_optimized`` runs a snippet under
``python -O``.  ``scenario_gen`` loads the benchmark's scenario
generator, and ``bench_scenarios`` parses the files it writes for a
seed.  ``moving_scan`` is the full-row reference for
:attr:`AdaptedProcess.moving`, ``lagged`` the filtration of the
F-predictable processes, and ``date_mutants`` the copies of a process
changed at one atom of a quiet, the terminal or the first date.
``battery_columns`` decides the columns of a preservation battery draw
twice, by the engine's one walk and by one certificate per column.
"""

import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

import randomhorizon
from randomhorizon.deflator import build_deflator, supermartingale_deflator
from randomhorizon.enlargement import azema, enlarge
from randomhorizon.errors import StructuralViolation
from randomhorizon.generator import random_instance, random_martingale
from randomhorizon.io import Scenario, dump_json, load_builtin, parse_scenario, serialize_scenario
from randomhorizon.lp import LPResult
from randomhorizon.nupbr import _passing_columns, certify_nupbr, single_jump_process
from randomhorizon.projections import is_martingale, quadratic_covariation
from randomhorizon.space import (
    INF,
    AdaptedProcess,
    FiniteSpace,
    Filtration,
    RandomTime,
    TimeValue,
    check_stopping_time,
    condexp,
    condexp_cells,
    frac,
    is_adapted,
    map_cells,
    stop,
    zip_cells,
)


def from_function(
    space: FiniteSpace, fn: Callable[[int, int], object], dim: int = 1
) -> AdaptedProcess:
    """Build from fn(t, atom) returning a scalar (dim 1) or a tuple."""
    rows = []
    for t in space.times:
        row = []
        for i in range(space.n):
            v = fn(t, i)
            cell = (v,) if dim == 1 and not isinstance(v, tuple) else tuple(v)
            row.append(cell)
        rows.append(tuple(row))
    return AdaptedProcess(tuple(rows))


def constant(space: FiniteSpace, value, dim: int = 1) -> AdaptedProcess:
    cell = (value,) * dim if not isinstance(value, tuple) else value
    rows = tuple(tuple(cell for _ in range(space.n)) for _ in space.times)
    return AdaptedProcess(rows)


def zero(space: FiniteSpace, dim: int = 1) -> AdaptedProcess:
    return constant(space, tuple(Fraction(0) for _ in range(dim)))


def unadapted_price():
    """(space, filt, S): atoms a, b, c of mass 1/3, horizon 1, F_1 =
    {a, b}, {c} and S_1 = (1, -5, -1), which is not F_1-measurable."""
    space = FiniteSpace(("a", "b", "c"), (Fraction(1, 3),) * 3, 1)
    filt = Filtration.from_names([[("a", "b", "c")], [("a", "b"), ("c",)]], space)
    S = AdaptedProcess((((0,),) * 3, ((1,), (-5,), (-1,))))
    return space, filt, S


def copy_space(space, filt, shares):
    """Each atom i as ``len(shares[i])`` copies, one count for every atom:
    copy c carries the share ``shares[i][c]`` of its probability, and every
    copy sits in each block of atom i, so F cannot tell the copies apart."""
    k = len(shares[0])
    atoms = tuple(f"{a}_{c}" for a in space.atoms for c in range(k))
    probs = tuple(p * r for p, rs in zip(space.prob, shares) for r in rs)
    parts = tuple(
        tuple(tuple(k * i + c for i in block for c in range(k)) for block in blocks)
        for blocks in filt.parts
    )
    split = FiniteSpace(atoms, probs, space.horizon)
    return split, Filtration(parts, split)


def copy_instance(inst, shares, tau_of):
    """A generator instance on :func:`copy_space`, its price repeated over
    the copies; ``tau_of(i, c)`` is the random time of copy c of atom i."""
    space, filt = copy_space(inst.space, inst.filtration, shares)
    k = len(shares[0])
    rows = tuple(tuple(cell for cell in row for _ in range(k)) for row in inst.price.values)
    tau = RandomTime(tuple(tau_of(i, c) for i in range(inst.space.n) for c in range(k)))
    return Scenario(space, filt, tau, AdaptedProcess(rows))


def split_space(space, filt, shares):
    """The split space and filtration: copy 0 of atom i carries the share
    ``shares[i]`` of its probability, and both copies sit in its blocks."""
    return copy_space(space, filt, [(r, 1 - r) for r in shares])


def split_instance(inst, shares, tau_of):
    """Split every atom of a generator instance in two; ``tau_of(i, c)`` is
    the random time of copy c of atom i."""
    return copy_instance(inst, [(r, 1 - r) for r in shares], tau_of)


def stopping_time_draw(filt, rng) -> RandomTime:
    """An F-stopping time: each F_t-block, t >= 1, not stopped before t
    stops at t with probability 1/3, and an atom never stopped gets INF."""
    tau = [INF] * filt.space.n
    for t, blocks in enumerate(filt.parts[1:], 1):
        for block in blocks:
            if tau[block[0]] is INF and rng.randrange(3) == 0:
                for i in block:
                    tau[i] = t
    return RandomTime(tuple(tau))


def optional_end_draw(filt, rng) -> RandomTime:
    """The end of an F-optional set Gamma: each F_t-block lies in Gamma_t
    with probability 1/2, and tau is the last t with the atom in Gamma_t
    (INF where the section of Gamma is empty)."""
    tau = [INF] * filt.space.n
    for t, blocks in enumerate(filt.parts):
        for block in blocks:
            if rng.randrange(2) == 0:
                for i in block:
                    tau[i] = t
    return RandomTime(tuple(tau))


def tau_class_draw(family: str, seed: int) -> Scenario:
    """Generator instance ``seed`` with tau drawn from one class of
    ``family``: ``stopping``, an F-stopping time; ``independent``, a tau
    independent of F_H; ``pseudo``, the minimum of the two (these three are
    pseudo-stopping times); or ``optional-end``, the end of an F-optional
    set.  The independent and the minimum draw split each atom into 2 or 3
    copies with one share vector for every atom, and rho reads only the
    copy (one distinct date per copy), so rho is independent of F_H and not
    constant."""
    inst = random_instance(seed)
    space, filt = inst.space, inst.filtration
    rng = random.Random(f"{family}:{seed}")
    if family == "stopping":
        return Scenario(space, filt, stopping_time_draw(filt, rng), inst.price)
    if family == "optional-end":
        return Scenario(space, filt, optional_end_draw(filt, rng), inst.price)
    weights = [rng.randint(1, 5) for _ in range(rng.choice((2, 3)))]
    shares = [Fraction(w, sum(weights)) for w in weights]
    rho = rng.sample(list(space.times) + [INF], len(shares))
    if family == "independent":
        return copy_instance(inst, [shares] * space.n, lambda i, c: rho[c])
    if family != "pseudo":
        raise ValueError(f"unknown tau class {family!r}")
    sigma = stopping_time_draw(filt, rng).values
    return copy_instance(inst, [shares] * space.n, lambda i, c: min(sigma[i], rho[c]))


def shape_mismatches() -> dict:
    """Name -> zero-argument call of a public entry point on ex1 whose
    process, random time or partition does not fit the filtration, space,
    weights or second process it meets, or that conditions on a date off
    the grid; every call must raise ``ValueError``.

    Each would otherwise truncate silently: the ex1 price with a fifth atom
    would pass ``is_adapted``, ``is_martingale`` and ``certify_nupbr``,
    sums and brackets would drop the fifth atom, five weights would make
    ``certify_nupbr`` certify the G-arbitrage S^tau, and a date of -1 would
    condition on the terminal partition; ``condexp_cells`` on a row with no
    cell raised a bare ``IndexError``, and on cells of two lengths it
    dropped the components past the shortest cell (a mean of 11/4 in one
    component at every atom of ex1 at date 0).  ``check_stopping_time`` returned
    ``False`` on a random time with a fifth value or a value past the
    horizon, and raised a bare ``IndexError`` on one with three values.

    A partition took ``1.0`` and ``True`` as atom indices (and ``1.0``
    then broke ``condexp``), and ``"1"`` raised a bare ``TypeError``;
    ``-1`` and ``n`` are the two ends of the range; a partition or a block
    that is not a collection raised a bare ``TypeError``, and so did parts
    of a filtration that are not one.
    ``single_jump_process`` built rows of two lengths from a xi of n - 1 or
    n + 1 cells, and cells of two lengths from one of two cell lengths; a
    short mask raised a bare ``IndexError`` and a long one was cut short.
    ``AdaptedProcess.from_scalar_paths`` built ragged rows, and no row,
    whose ``shape`` raised a bare ``IndexError``."""
    sc = load_builtin("ex1")
    S, filt, space = sc.price, sc.filtration, sc.space
    fifth = AdaptedProcess(tuple(row + row[-1:] for row in S.values))
    short = AdaptedProcess(tuple(row[:3] for row in S.values))
    later = AdaptedProcess(S.values + S.values[-1:])
    flat = AdaptedProcess(tuple(tuple((0,) for _ in row) for row in S.values))
    five = [0, 0, 0, 0, 1]
    one = (Fraction(1),)
    xi = S.increments[1]
    return {
        "constructor ragged rows": lambda: AdaptedProcess((((0,), (0,)), ((1,),))),
        "constructor cell lengths": lambda: AdaptedProcess((((0,), (0, 0)),)),
        "constructor no date": lambda: AdaptedProcess(()),
        "constructor no atom": lambda: AdaptedProcess(((),)),
        "from_increments cell lengths": lambda: AdaptedProcess.from_increments(
            [[one] * 3, [one * 2] * 3]
        ),
        "from_increments atoms": lambda: AdaptedProcess.from_increments(
            [[one * 2] * 2, [one * 2] * 3]
        ),
        "is_adapted fifth atom": lambda: is_adapted(fifth, filt),
        "is_adapted short rows": lambda: is_adapted(short, filt),
        "is_adapted extra date": lambda: is_adapted(later, filt),
        "is_martingale fifth atom": lambda: is_martingale(fifth, filt),
        "is_martingale extra date": lambda: is_martingale(later, filt),
        "is_martingale weights": lambda: is_martingale(S, filt, weights=five),
        "certify_nupbr fifth atom": lambda: certify_nupbr(fifth, filt, space),
        "certify_nupbr weights": lambda: certify_nupbr(
            stop(S, sc.tau), enlarge(filt, sc.tau), space, weights=five
        ),
        "condexp": lambda: condexp([Fraction(1)] * 5, filt, 1),
        "condexp date -1": lambda: condexp([Fraction(1)] * 4, filt, -1),
        "condexp date past horizon": lambda: condexp([Fraction(1)] * 4, filt, space.horizon + 1),
        "condexp_cells date -1": lambda: condexp_cells([one] * 4, filt, -1),
        "condexp_cells no atom": lambda: condexp_cells((), filt, 1),
        "condexp_cells fifth atom": lambda: condexp_cells([one] * 5, filt, 1),
        "condexp_cells cell lengths": lambda: condexp_cells(
            [(Fraction(1), Fraction(2)), (Fraction(3),), (Fraction(5), Fraction(1)),
             (Fraction(2), Fraction(2))], filt, 0
        ),
        "expectation": lambda: space.expectation([Fraction(1)] * 5),
        "add": lambda: fifth + S,
        "sub": lambda: S - fifth,
        "add extra date": lambda: S + later,
        "quadratic_covariation": lambda: quadratic_covariation(fifth, S),
        "supermartingale_deflator extra date": lambda: supermartingale_deflator(
            later, flat, build_deflator(azema(filt, sc.tau))
        ),
        "azema fifth value": lambda: azema(filt, RandomTime(sc.tau.values + (INF,))),
        "azema past horizon": lambda: azema(filt, RandomTime(sc.tau.values[:3] + (9,))),
        "azema short": lambda: azema(filt, RandomTime(sc.tau.values[:3])),
        "check_stopping_time fifth value": lambda: check_stopping_time(
            RandomTime(sc.tau.values + (INF,)), filt
        ),
        "check_stopping_time past horizon": lambda: check_stopping_time(
            RandomTime(sc.tau.values[:3] + (9,)), filt
        ),
        "check_stopping_time short": lambda: check_stopping_time(
            RandomTime(sc.tau.values[:3]), filt
        ),
        "Filtration.nodes date 0": lambda: filt.nodes(0),
        **{
            f"Filtration atom index {i!r}": lambda i=i: Filtration(
                filt.parts[:1] + (((0, i), (2, 3)),) + filt.parts[2:], space
            )
            for i in (1.0, True, "1", -1, space.n)
        },
        "Filtration block not a collection": lambda: Filtration(
            (filt.parts[0], (0, (1, 2, 3)), filt.parts[2]), space
        ),
        "Filtration partition not a collection": lambda: Filtration(
            (filt.parts[0], 5, filt.parts[2]), space
        ),
        "Filtration parts not a collection": lambda: Filtration(5, space),
        "single_jump_process short xi": lambda: single_jump_process(xi[:3], 1, space),
        "single_jump_process long xi": lambda: single_jump_process(xi + xi[-1:], 1, space),
        "single_jump_process cell lengths": lambda: single_jump_process(
            xi[:3] + (one * 2,), 1, space
        ),
        "single_jump_process short mask": lambda: single_jump_process(
            xi, 1, space, mask=[True] * 3
        ),
        "single_jump_process long mask": lambda: single_jump_process(
            xi, 1, space, mask=[True] * 5
        ),
        "from_scalar_paths ragged rows": lambda: AdaptedProcess.from_scalar_paths(
            [[0, 0, 0, 0], [1, 1]]
        ),
        "from_scalar_paths no row": lambda: AdaptedProcess.from_scalar_paths([]),
    }


DATE_PARAMS = {"t": 1, "T": 1, "atom": 0}  # each with a value in range


def date_entry_points(sc: Scenario) -> dict:
    """Qualified name -> callable of every public function defined in an
    exact-engine module (every package module but ``mc``, whose times are
    floats by design) and every public method of a process, a random time
    and a filtration of ``sc``, that takes a parameter in ``DATE_PARAMS``."""
    found = {}
    modules = [m.name for m in pkgutil.iter_modules(randomhorizon.__path__) if m.name != "mc"]
    for name in modules:
        module = importlib.import_module(f"randomhorizon.{name}")
        for fname, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and not fname.startswith("_"):
                found[f"{name}.{fname}"] = fn
    for obj in (sc.price, sc.tau, sc.filtration):
        for fname, _ in inspect.getmembers(type(obj), inspect.isfunction):
            if not fname.startswith("_"):
                found[f"{type(obj).__name__}.{fname}"] = getattr(obj, fname)
    return {
        name: fn
        for name, fn in found.items()
        if set(inspect.signature(fn).parameters) & set(DATE_PARAMS)
    }


def date_arguments(sc: Scenario) -> dict:
    """The sweep's argument table on ``sc``, keyed by parameter name: the
    value in range of a date or an atom index, and each other argument of
    an entry point of :func:`date_entry_points`."""
    bundle = azema(sc.filtration, sc.tau)
    n, one = sc.space.n, Fraction(1)
    return dict(
        DATE_PARAMS,
        values=[one] * n,
        cells=[(one,)] * n,
        filt=sc.filtration,
        space=sc.space,
        bundle=bundle,
        xi_values=sc.price.increments[1],
        lo=0,
        hi=sc.space.horizon,
    )


def date_calls(sc: Scenario, table: dict) -> dict:
    """``(entry point, parameter) -> call(value)`` of each date or atom
    parameter of :func:`date_entry_points`: ``value`` is passed for that
    parameter, every other one without a default is read from ``table`` by
    name, so a call raises ``KeyError`` for an argument the table lacks."""
    calls = {}
    for name, fn in date_entry_points(sc).items():
        params = inspect.signature(fn).parameters.values()
        needed = [p.name for p in params if p.default is p.empty or p.name in DATE_PARAMS]
        for param in [p for p in needed if p in DATE_PARAMS]:

            def call(value, fn=fn, needed=needed, param=param):
                args = {p: table[p] for p in needed}
                args[param] = value
                return fn(**args)

            calls[(name, param)] = call
    return calls


def date_sweep() -> dict:
    """Name -> zero-argument call of every date- and atom-taking entry
    point of :func:`date_entry_points` on ex1 with one value off its range:
    a float equal to a date (2.0), a bool (``True``), 1.5, a string, -1 and
    one past the end (horizon + 1, or n for an atom), and 0 for a jump date
    ``T``.  Every call must raise ``ValueError`` from
    :func:`randomhorizon.space.check_date`.

    Before the one date contract, ``True`` was read as date 1 everywhere,
    -1 wrapped round in ``at``, ``scalar_at``, ``delta_at``,
    ``RandomTime.at`` and ``Filtration.nodes``, floats and strings raised a
    bare ``TypeError``, and ``single_jump_process`` took T = 1.5."""
    sc = load_builtin("ex1")
    cases = {}
    for (name, param), call in date_calls(sc, date_arguments(sc)).items():
        past = sc.space.n if param == "atom" else sc.space.horizon + 1
        bad = [2.0, True, 1.5, "1", -1, past] + ([0] if param == "T" else [])
        for value in bad:
            cases[f"{name} {param}={value!r}"] = lambda call=call, value=value: call(value)
    return cases


def run_optimized(code):
    """Run ``code`` under ``python -O`` with the package and this directory
    on the path."""
    src = str(Path(randomhorizon.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )


def constant_time(space: FiniteSpace, value: TimeValue) -> RandomTime:
    return RandomTime((value,) * space.n)


def scale(X: AdaptedProcess, q) -> AdaptedProcess:
    """``q X``, computed once per distinct cell by :func:`map_cells`."""
    q = frac(q)
    rows = map_cells(X.values, lambda cell: tuple(q * c for c in cell))
    return AdaptedProcess._trusted(rows)


def mul_scalar_process(X: AdaptedProcess, scalar: AdaptedProcess) -> AdaptedProcess:
    """Pointwise product with a dim-1 process (broadcast over components),
    computed once per distinct pair of cells by :func:`zip_cells`."""
    if scalar.dim != 1 or scalar.horizon != X.horizon:
        raise ValueError("need a scalar process on the same grid")
    rows = zip_cells(X.values, scalar.values, lambda cell, s: tuple(s[0] * c for c in cell))
    return AdaptedProcess._trusted(rows)


def component(X: AdaptedProcess, k: int) -> AdaptedProcess:
    """The scalar process of component ``k``: one cell per distinct cell
    object of a row, by :func:`map_cells`."""
    return AdaptedProcess._trusted(map_cells(X.values, lambda cell: (cell[k],)))


def battery_columns(bundle, n: int = 100, seed: int = 0) -> tuple:
    """The columns of the battery draw of ``preservation_report(bundle, n,
    seed)`` that pass in G after stopping at tau, twice: as the engine's
    one walk over the stopped n-column draw decides them, and as
    :func:`certify_nupbr` decides each column stopped as its own 1-D
    process."""
    M = random_martingale(bundle.space, bundle.filt, random.Random(seed), dim=n, spread=3)
    G, tau = bundle.enlarged, bundle.tau
    oracle = [
        j for j in range(n)
        if certify_nupbr(stop(component(M, j), tau), G, bundle.space).verdict
    ]
    return _passing_columns(stop(M, tau), G), oracle


def children(filt: Filtration, t: int, parent_index: int) -> tuple:
    """Indices in parts[t] of the sub-blocks of parts[t-1][parent_index]."""
    parent = set(filt.parts[t - 1][parent_index])
    return tuple(j for j, block in enumerate(filt.parts[t]) if block[0] in parent)


def naive_nodes(filt: Filtration, t: int, w) -> list:
    """The node walk written out with ``children``: every parent and child,
    or only those whose weights sum to a positive mass."""
    out = []
    for p, parent in enumerate(filt.parts[t - 1]):
        kids = [filt.parts[t][j] for j in children(filt, t, p)]
        assert sorted(i for c in kids for i in c) == sorted(parent)
        if w is not None:
            if sum(w[i] for i in parent) == 0:
                continue
            kids = [c for c in kids if sum(w[i] for i in c) > 0]
        out.append((parent, kids))
    return out


def block_of(filt: Filtration, t: int, atom: int) -> tuple:
    """The block of parts[t] that holds ``atom``."""
    return next(block for block in filt.parts[t] if atom in block)


def mass(space: FiniteSpace, block) -> Fraction:
    return sum((space.prob[i] for i in block), Fraction(0))


def random_adapted(
    space: FiniteSpace, filt: Filtration, rng: random.Random, dim: int = 1, spread: int = 3
) -> AdaptedProcess:
    """An arbitrary adapted process: independent block values at each time."""
    rows = []
    for t in space.times:
        row = [None] * space.n
        for block in filt.parts[t]:
            cell = tuple(
                Fraction(rng.randint(-spread, spread), rng.randint(1, 3))
                for _ in range(dim)
            )
            for i in block:
                row[i] = cell
        rows.append(tuple(row))
    return AdaptedProcess(tuple(rows))


def random_predictable_fv(
    space: FiniteSpace, filt: Filtration, rng: random.Random, nonconstant: bool
) -> AdaptedProcess:
    """Predictable finite-variation scalar process started at 0."""
    if not nonconstant:
        return zero(space)
    while True:
        increments = []
        for t in range(1, space.horizon + 1):
            row = [None] * space.n
            for block in filt.parts[t - 1]:
                inc = (Fraction(rng.randint(-2, 2)),)
                for i in block:
                    row[i] = inc
            increments.append(row)
        if any(cell[0] for row in increments for cell in row):
            return AdaptedProcess.from_increments(increments)


def martingale_measure_from_weights(result, filt: Filtration, space: FiniteSpace):
    """Reassemble the per-node weights of a true NUPBR certificate into atom
    weights dQ/dP.

    Q is the product of the node weights along each atom's path, scaled by
    the P-mass of the time-0 block; under Q the certified process is an
    exact martingale (tested invariant of the certificate)."""
    if not result.verdict:
        raise ValueError("only a true verdict carries deflator weights")
    table = {(nw.time, nw.block): nw for nw in result.node_weights}
    q = []
    for i in range(space.n):
        acc = mass(space, block_of(filt, 0, i))
        for t in range(1, space.horizon + 1):
            parent = tuple(space.atoms[j] for j in block_of(filt, t - 1, i))
            nw = table[(t, parent)]
            child = tuple(space.atoms[j] for j in block_of(filt, t, i))
            acc *= nw.weights[nw.children.index(child)]
        # conditional-measure weight of the atom inside its terminal block,
        # then dQ/dP
        acc *= space.prob[i] / mass(space, block_of(filt, space.horizon, i))
        q.append(acc / space.prob[i])
    return tuple(q)


def _reference_pivot(T, basis, row, col):
    # zero entries are skipped here and in pricing; the arithmetic is exact,
    # so the tableau and every pivot choice are the same as without skipping
    piv = T[row][col]
    if piv != 1:
        T[row] = [v / piv for v in T[row]]
    prow = T[row]
    for r in range(len(T)):
        f = T[r][col]
        if r != row and f != 0:
            T[r] = [a - f * b if b else a for a, b in zip(T[r], prow)]
    basis[row] = col


def _reference_iterate(T, basis, cost, ncols):
    """Run Bland-rule simplex on tableau T (rows [A|b]) minimizing cost.

    Returns ("optimal", None) or ("unbounded", entering_column).
    """
    m = len(T)
    while True:
        priced = [(cost[basis[r]], T[r]) for r in range(m) if cost[basis[r]] != 0]
        entering = -1
        for j in range(ncols):
            red = cost[j] - sum(cb * row[j] for cb, row in priced)
            if red < 0:
                entering = j
                break
        if entering < 0:
            return "optimal", None
        leave, best = -1, None
        for r in range(m):
            if T[r][entering] > 0:
                ratio = T[r][-1] / T[r][entering]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave < 0:
            return "unbounded", entering
        _reference_pivot(T, basis, leave, entering)


def solve_min_reference(A, b, c) -> LPResult:
    """min c.x  s.t.  A x = b, x >= 0 on a dense Fraction tableau: the
    two-phase Bland-rule simplex that :func:`randomhorizon.lp.solve_min`
    must reproduce exactly, status, vertex, objective and ray."""
    m, n = len(A), len(c)
    T = []
    for r in range(m):
        row = [Fraction(v) for v in A[r]] + [Fraction(b[r])]
        if row[-1] < 0:
            row = [-v for v in row]
        T.append(row)

    # phase 1: artificial basis
    for r in range(m):
        art = [Fraction(0)] * m
        art[r] = Fraction(1)
        T[r] = T[r][:-1] + art + [T[r][-1]]
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    basis = [n + r for r in range(m)]
    status, _ = _reference_iterate(T, basis, cost1, n + m)
    if status != "optimal":
        raise StructuralViolation("phase-1 objective is bounded below by 0")
    obj1 = sum(cost1[basis[r]] * T[r][-1] for r in range(m))
    if obj1 != 0:
        return LPResult("infeasible")
    # drive artificials out of the basis; drop rows that are redundant
    keep = []
    for r in range(m):
        if basis[r] >= n:
            piv = next((j for j in range(n) if T[r][j] != 0), None)
            if piv is None:
                continue  # redundant constraint
            _reference_pivot(T, basis, r, piv)
        keep.append(r)
    T = [T[r][:n] + [T[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]

    cost2 = [Fraction(v) for v in c]
    status, entering = _reference_iterate(T, basis, cost2, n)
    if status == "unbounded":
        ray = [Fraction(0)] * n
        ray[entering] = Fraction(1)
        for r in range(len(T)):
            if basis[r] < n:
                ray[basis[r]] = -T[r][entering]
        return LPResult("unbounded", ray=tuple(ray))
    x = [Fraction(0)] * n
    for r in range(len(T)):
        x[basis[r]] = T[r][-1]
    return LPResult("optimal", x=tuple(x), objective=sum(ci * xi for ci, xi in zip(cost2, x)))


def moving_scan(X: AdaptedProcess) -> frozenset:
    """The dates t >= 1 whose increment row is not all zero, scanned row by
    row and cell by cell."""
    return frozenset(t for t in range(1, len(X.increments)) if any(map(any, X.increments[t])))


def lagged(filt: Filtration) -> Filtration:
    """F one date late, ``parts[0], parts[0], parts[1], ..., parts[H-1]``:
    the processes adapted to it are the F-predictable ones, and its
    terminal partition is not the atoms."""
    return Filtration(filt.parts[:1] + filt.parts[:-1], filt.space)


def date_mutants(X: AdaptedProcess, filt: Filtration) -> list:
    """``(kind, t, Y)`` per copy Y of X with one cell moved by +1 in its
    first component: at each quiet date of X (``"quiet"``), at the
    terminal date and at date 0.  The atom changed is the last of a
    largest block of ``filt.parts[t]``, so Y breaks adaptedness at t
    whenever that block holds two atoms."""
    H = len(X.values) - 1
    quiet = [t for t in range(1, H + 1) if t not in moving_scan(X)]
    out = []
    for kind, t in [("quiet", t) for t in quiet] + [("terminal", H), ("first", 0)]:
        i = max(filt.parts[t], key=len)[-1]
        rows = [list(row) for row in X.values]
        cell = rows[t][i]
        rows[t][i] = (cell[0] + 1,) + tuple(cell[1:])
        out.append((kind, t, AdaptedProcess(tuple(map(tuple, rows)))))
    return out


def scenario_gen():
    """The benchmark's ``bench/scenario_gen.py`` module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "scenario_gen.py"
    spec = importlib.util.spec_from_file_location("bench_scenario_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_scenarios(seed: int, count: int) -> list:
    """The scenarios of the ``count`` benchmark files of a workload seed,
    parsed from the text each file holds, as ``write_scenarios`` names
    and writes them."""
    gen = scenario_gen()
    horizons = gen.HORIZONS
    return [
        parse_scenario(json.loads(dump_json(serialize_scenario(
            gen.random_scenario(seed * 1000 + k, horizons[k % len(horizons)])
        ))))
        for k in range(count)
    ]
