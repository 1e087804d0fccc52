"""Seeded scenario files beyond the engine generator's bounds.

The engine's own generator stops at 12 atoms and horizon 4.  These files
have up to ``MAX_ATOMS`` atoms, horizon 5 or 6, branching at most 3, a
two-dimensional martingale price and a per-atom random time, so the node
LPs are mostly two-dimensional and the survival tables are long.  They
are built only through the package's public constructors and serialised
with ``io.serialize_scenario``, so the files are what a user would write.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from randomhorizon import io as rio
from randomhorizon.generator import random_martingale, random_tau
from randomhorizon.space import FiniteSpace, Filtration

MAX_ATOMS = 40
HORIZONS = (5, 6)
MAX_BRANCHING = 3
PRICE_DIM = 2


def _tree(rng: random.Random, horizon: int):
    """Per-time partitions (blocks of leaf indices) of a random tree that
    branches 2..MAX_BRANCHING ways per node and stops at MAX_ATOMS leaves."""
    paths = [()]
    for _ in range(horizon):
        grown = []
        for k, p in enumerate(paths):
            room = MAX_ATOMS - len(grown) - (len(paths) - k - 1)
            for c in range(min(rng.randint(2, MAX_BRANCHING), max(1, room))):
                grown.append(p + (c,))
        paths = grown
    parts = []
    for t in range(horizon + 1):
        groups = {}
        for i, p in enumerate(paths):
            groups.setdefault(p[:t], []).append(i)
        parts.append(list(groups.values()))
    return len(paths), parts


def random_scenario(seed: int, horizon: int) -> rio.Scenario:
    rng = random.Random(seed)
    n, parts = _tree(rng, horizon)
    weights = [rng.randint(1, 5) for _ in range(n)]
    atoms = tuple(f"a{i}" for i in range(n))
    space = FiniteSpace(atoms, tuple(Fraction(w, sum(weights)) for w in weights), horizon)
    named = [[[atoms[i] for i in block] for block in blocks] for blocks in parts]
    filt = Filtration.from_names(named, space)
    price = random_martingale(space, filt, rng, dim=PRICE_DIM)
    tau = random_tau(space, rng)
    return rio.Scenario(space, filt, tau, price)


def write_scenarios(workload_seed: int, count: int, directory: Path) -> list:
    """Write ``count`` scenario files for one workload seed; the same seed
    gives byte-identical files.  Returns their paths in order.

    Horizons alternate rather than being drawn: a horizon-6 file costs
    about 1.3 times a horizon-5 one, and a drawn mix would make a run's
    median depend on how many of each the seed happened to give."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in range(count):
        sc = random_scenario(workload_seed * 1000 + k, HORIZONS[k % len(HORIZONS)])
        path = directory / f"s{workload_seed}_{k}.json"
        path.write_text(rio.dump_json(rio.serialize_scenario(sc)), encoding="utf-8")
        paths.append(path)
    return paths
