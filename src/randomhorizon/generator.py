"""Seeded random models for the property and campaign suites.

A model is an :class:`io.Scenario`, the type a scenario file parses to, so
a drawn model serializes to a scenario file and reads back unchanged.

Bounds: at most 12 atoms, horizon at most 4, price dimension at most 2,
branching at most 3, atom probabilities with denominators at most 64; the
random time is drawn uniformly per atom from the grid plus infinity.
Martingale inputs draw one terminal value per terminal block and
backward-induct conditional means, so they are exact martingales by
construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .io import Scenario
from .space import INF, AdaptedProcess, FiniteSpace, Filtration, RandomTime, condexp_cells

MAX_ATOMS = 12
MAX_HORIZON = 4
MAX_BRANCHING = 3


def _random_tree(rng: random.Random, horizon: int):
    """Per-time partitions of a random branching tree with <= MAX_ATOMS
    leaves; returns (atom count, parts) with blocks of atom indices."""
    paths = [()]
    for _ in range(horizon):
        new_paths = []
        remaining = len(paths)
        for p in paths:
            remaining -= 1
            room = MAX_ATOMS - len(new_paths) - remaining
            b = min(rng.randint(1, MAX_BRANCHING), max(1, room))
            for c in range(b):
                new_paths.append(p + (c,))
        paths = new_paths
    parts = []
    for t in range(horizon + 1):
        groups = {}
        for i, p in enumerate(paths):
            groups.setdefault(p[:t], []).append(i)
        parts.append([tuple(v) for v in groups.values()])
    return len(paths), parts


def _random_probs(rng: random.Random, n: int):
    weights = [rng.randint(1, 5) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_martingale(
    space: FiniteSpace,
    filt: Filtration,
    rng: random.Random,
    dim: int = 1,
    spread: int = 4,
) -> AdaptedProcess:
    """Draw one terminal value per F_H-block (blocks in first-atom order),
    then set X_t = E[X_{t+1} | F_t] backwards.

    When the terminal partition is the atoms this is one draw per atom, in
    atom order."""
    terminal = [None] * space.n
    for block in filt.parts[space.horizon]:
        cell = tuple(Fraction(rng.randint(-spread, spread)) for _ in range(dim))
        for i in block:
            terminal[i] = cell
    current = tuple(terminal)
    rows = [None] * (space.horizon + 1)
    rows[space.horizon] = current
    for t in range(space.horizon - 1, -1, -1):
        current = rows[t] = condexp_cells(current, filt.parts[t], space)
    return AdaptedProcess(dim, tuple(rows))


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
    return AdaptedProcess(dim, tuple(rows))


def random_predictable_fv(
    space: FiniteSpace, filt: Filtration, rng: random.Random, nonconstant: bool
) -> AdaptedProcess:
    """Predictable finite-variation scalar process started at 0."""
    if not nonconstant:
        return AdaptedProcess.zero(space)
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
            return AdaptedProcess.from_increments(1, space.n, increments)


def random_tau(space: FiniteSpace, rng: random.Random) -> RandomTime:
    choices = list(space.times) + [INF]
    return RandomTime(tuple(rng.choice(choices) for _ in range(space.n)))


def random_instance(seed: int) -> Scenario:
    """The seeded model; its price is an exact martingale of dim 1 or 2."""
    rng = random.Random(seed)
    horizon = rng.randint(1, MAX_HORIZON)
    n, parts = _random_tree(rng, horizon)
    probs = _random_probs(rng, n)
    atoms = tuple(f"w{i}" for i in range(n))
    space = FiniteSpace(atoms, tuple(probs), horizon)
    named = [[tuple(atoms[i] for i in block) for block in blocks] for blocks in parts]
    filt = Filtration.from_names(named, space)
    tau = random_tau(space, rng)
    dim = rng.choice((1, 1, 2))
    price = random_martingale(space, filt, rng, dim=dim)
    return Scenario(space, filt, tau, price)
