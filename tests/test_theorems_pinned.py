"""`theorems`, `inspect`, `certify` and `witness` stdout pinned on seeded
large scenarios.

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
from randomhorizon.enlargement import azema
from randomhorizon.generator import random_martingale, random_tau
from randomhorizon.io import Scenario, dump_json, load_builtin, parse_scenario, serialize_scenario
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


# (command, seed, horizon) -> sha256 of stdout, taken while every process
# still stored and computed one cell per atom
REPORT_STDOUT_SHA256 = {
    ("inspect", 1, 5): "bed30964503123af387f7384a745e9423248ed6a3fc4493741b9090cfd736651",
    ("inspect", 2, 6): "c5aee4e76751c9f1d13162faf85f93f160740a0f232e86bc0884be2f2904ea6b",
    ("inspect", 3, 5): "32e67633ac7a37976a857cca642b266a75f422f84fa4ebba2888548f8aa2a255",
    ("inspect", 4, 6): "0c3e70d1f192bfc8df7a8598d87b84c5bb01ff35ce840656e4c48e014ef3f9d4",
    ("certify", 1, 5): "2b5eca5c94ef2a4968626aa5c6084dd3e584b346a92632981fcfbcd05570dd9e",
    ("certify", 2, 6): "f921abbf6564609db7d160704aeb26377eaf77541ea7843e0a6bf94e5fdb511d",
    ("certify", 3, 5): "cf4a1dcfbb4a62b5499be52c72b4aa61e3e872604a87c7791668da4b06262916",
    ("certify", 4, 6): "86f238fef69a97fb5b967616e8336c546acbb98ccfb802c309b505d518150f62",
    ("witness", 1, 5): "2eafec8b76a238f063d91fa1d14c68deafcddc05dd9d198ca12508470277dd32",
    ("witness", 2, 6): "7887026da4cac614f3300916679e6650046d4d56155ae19872f78e43e6806c33",
    ("witness", 3, 5): "cf550ea4c64b926465a94683986b9b49224b33972dfd356f8e90cc45be3f0b5d",
    ("witness", 4, 6): "9314751a7acc02666629dfc1e1ad518944d59b17e442613a2c221f278d389c9c",
}


@pytest.mark.parametrize("command, seed, horizon", sorted(REPORT_STDOUT_SHA256))
def test_report_stdout_pinned_on_large_scenarios(command, seed, horizon, capsys, tmp_path):
    path = tmp_path / f"large{seed}.json"
    path.write_text(dump_json(serialize_scenario(large_scenario(seed, horizon))), encoding="utf-8")
    assert cli.main([command, str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_STDOUT_SHA256[
        (command, seed, horizon)
    ]


@pytest.mark.parametrize("seed, horizon", [(None, None)] + sorted(THEOREMS_STDOUT_SHA256))
def test_atoms_of_one_node_share_one_cell(seed, horizon):
    # seed None: the built-in ex1
    sc = load_builtin("ex1") if seed is None else large_scenario(seed, horizon)
    parts = sc.filtration.parts
    b = azema(sc.filtration, sc.tau)
    for X in (b.Z, b.Ztilde, b.m, b.default_compensator):
        for t, row in enumerate(X.values):
            assert len({id(cell) for cell in row}) <= len(parts[t])
    price = parse_scenario(serialize_scenario(sc)).price
    assert price.values == sc.price.values
    for row, blocks in zip(price.values, parts):
        assert all(len({id(row[i]) for i in block}) == 1 for block in blocks)
