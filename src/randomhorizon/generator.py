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

from .io import Scenario
from .rational import Q
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
    return [Q(w, total) for w in weights]


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
    atom order.  ``space`` must be ``filt.space``, ``dim`` an int >= 1 and
    ``spread`` an int >= 0, neither a bool (else ValueError)."""
    if space != filt.space:
        raise ValueError("the space must be the space of the filtration")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dim must be an int >= 1, got {dim!r}")
    if isinstance(spread, bool) or not isinstance(spread, int) or spread < 0:
        raise ValueError(f"spread must be an int >= 0, got {spread!r}")
    terminal = [None] * space.n
    for block in filt.parts[space.horizon]:
        cell = tuple(Q(rng.randint(-spread, spread)) for _ in range(dim))
        for i in block:
            terminal[i] = cell
    current = tuple(terminal)
    rows = [None] * (space.horizon + 1)
    rows[space.horizon] = current
    for t in range(space.horizon - 1, -1, -1):
        current = rows[t] = condexp_cells(current, filt, t)
    return AdaptedProcess._trusted(tuple(rows))


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
