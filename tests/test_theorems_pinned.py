"""`theorems` stdout pinned on seeded large scenarios.

The trees have up to 40 atoms and horizon 5 or 6, branch two or three ways
per node, and carry a two-dimensional martingale price and a per-atom
random time: the size of the benchmark's scenario files, past the engine
generator's bounds.  The full report covers the survival bundle, the
projection identities, the deflator, the masked criterion and the
single-jump equivalences, so the digests pin every exact kernel's output.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from randomhorizon import cli
from randomhorizon.generator import random_martingale, random_tau
from randomhorizon.io import Scenario, dump_json, serialize_scenario
from randomhorizon.space import FiniteSpace, Filtration

MAX_ATOMS = 40


def large_scenario(seed: int, horizon: int) -> Scenario:
    """A tree branching 2 or 3 ways per node until it holds MAX_ATOMS
    leaves (then once per node), with a 2-D martingale price."""
    rng = random.Random(seed)
    paths = [()]
    for _ in range(horizon):
        grown = []
        for k, p in enumerate(paths):
            room = MAX_ATOMS - len(grown) - (len(paths) - k - 1)
            grown += [p + (c,) for c in range(min(rng.randint(2, 3), max(1, room)))]
        paths = grown
    atoms = tuple(f"a{i}" for i in range(len(paths)))
    weights = [rng.randint(1, 5) for _ in paths]
    space = FiniteSpace(atoms, tuple(F(w, sum(weights)) for w in weights), horizon)
    named = []
    for t in range(horizon + 1):
        blocks = {}
        for a, p in zip(atoms, paths):
            blocks.setdefault(p[:t], []).append(a)
        named.append(list(blocks.values()))
    filt = Filtration.from_names(named, space)
    price = random_martingale(space, filt, rng, dim=2)
    return Scenario(space, filt, random_tau(space, rng), price)


# (seed, horizon) -> sha256 of `theorems` stdout, taken while the kernels
# still ran on Fraction arithmetic throughout
THEOREMS_STDOUT_SHA256 = {
    (1, 5): "550fbf6600e6bed9b9a29b88f8c2ffae176b86c7b20cfaf4d765614df5e1c336",
    (2, 6): "37fe3fe30d369294f4cf97408823a0ff4607ef65651b019615b82fe69dbf9a6f",
    (3, 5): "2754f25098c5521fb552d4b300466ff5045375b01332e359a9b6f10ceba95c73",
    (4, 6): "83ce101ac7b7598342fbc227749abe901417f07841f669124d11136b3973d14e",
}


@pytest.mark.parametrize("seed, horizon", sorted(THEOREMS_STDOUT_SHA256))
def test_theorems_stdout_pinned_on_large_scenarios(seed, horizon, capsys, tmp_path):
    sc = large_scenario(seed, horizon)
    assert sc.space.n <= MAX_ATOMS and sc.space.horizon == horizon
    assert sc.price.dim == 2
    path = tmp_path / f"large{seed}.json"
    path.write_text(dump_json(serialize_scenario(sc)), encoding="utf-8")
    assert cli.main(["theorems", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == THEOREMS_STDOUT_SHA256[
        (seed, horizon)
    ]
