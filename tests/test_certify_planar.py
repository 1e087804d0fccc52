"""`certify` stdout pinned on seeded two-dimensional scenarios.

Every node of these trees branches two or three ways and the price is
two-dimensional, so the certificates go through the planar node tests:
two- and three-point families in the plane, and separating directions in
the plane where a node fails.  The digests were taken before the planar
closed forms existed, so they pin the weights and directions the simplex
gives.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from randomhorizon import cli
from randomhorizon.generator import random_martingale, random_tau
from randomhorizon.io import Scenario, dump_json, serialize_scenario
from randomhorizon.space import FiniteSpace, Filtration

from helpers import children, random_adapted

HORIZON = 3


def planar_scenario(seed: int) -> Scenario:
    """A tree branching 2 or 3 ways per node with a 2-D price: a martingale
    on even seeds, an arbitrary adapted process (arbitrage nodes) on odd."""
    rng = random.Random(seed)
    paths = [()]
    for _ in range(HORIZON):
        paths = [p + (c,) for p in paths for c in range(rng.randint(2, 3))]
    atoms = tuple(f"a{i}" for i in range(len(paths)))
    weights = [rng.randint(1, 4) for _ in paths]
    space = FiniteSpace(atoms, tuple(F(w, sum(weights)) for w in weights), HORIZON)
    named = []
    for t in range(HORIZON + 1):
        blocks = {}
        for a, p in zip(atoms, paths):
            blocks.setdefault(p[:t], []).append(a)
        named.append(list(blocks.values()))
    filt = Filtration.from_names(named, space)
    draw = random_martingale if seed % 2 == 0 else random_adapted
    price = draw(space, filt, rng, dim=2)
    return Scenario(space, filt, random_tau(space, rng), price)


# seed -> sha256 of `certify` stdout.  Even seeds: F passes with two- and
# three-point planar weights, G fails with a planar direction; odd seeds:
# both fail.
CERTIFY_STDOUT_SHA256 = {
    0: "792b2ac0e10e08cfa4c1d49c38a176c85a782f5b15a69dbf2132830d6b4601a4",
    1: "ccce1ae6d977b84c6a634d5e56f1ca468fbc0bc1c04980c0d1259054a12eff56",
    2: "ee46e4e99ece9c76b523f6a2394802efd271a40533cfd1087df665febd81f58d",
    3: "42fa7247fa007b7d35b820168b1c891bf1f90a5a8d10ec469e044e8869e1a715",
    4: "8876cbbecf32d194774b2cea424245077e85b2ccd71ffc99b1f25a8989316f9b",
    5: "f960ce8847f59c6bb1dbc32a15b7c4416b183ea4f5fb7133fd6cd91bb25d6d60",
    6: "0e27e2bbb58485f4194865fbf9317b49ff2b5bc08ccfee568250597289aa7e2e",
    7: "dd566c6f8f07dfdf26673eea5109a339b497e987459fbcfe2f0bc5850730732b",
    8: "914d3b18d380ec32997c5280ed86ea046b340682d078f178edf0952e4131e007",
    9: "890e1f0c271fa56fa47335a7de55868cc0ab92fe2dea7f1a36bf993fda6053c7",
}


@pytest.mark.parametrize("seed", sorted(CERTIFY_STDOUT_SHA256))
def test_certify_stdout_pinned_on_planar_scenarios(seed, capsys, tmp_path):
    sc = planar_scenario(seed)
    filt = sc.filtration
    branching = {
        len(children(filt, t, p))
        for t in range(1, HORIZON + 1)
        for p in range(len(filt.parts[t - 1]))
    }
    assert branching == {2, 3}
    path = tmp_path / f"planar{seed}.json"
    path.write_text(dump_json(serialize_scenario(sc)), encoding="utf-8")
    assert cli.main(["certify", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CERTIFY_STDOUT_SHA256[seed]
