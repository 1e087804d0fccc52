"""Metamorphic relations: verdicts that the theory leaves unchanged.

NUPBR and the thin set {Zt = 0 < Z_-} depend only on which events have
positive mass, so every certificate verdict of a model must survive three
transformations that keep its null sets:

* an equivalent change of measure, P reweighted atom by atom by random
  integers 1-9 and renormalized (NUPBR is invariant under an equivalent
  change of measure: Kardaras, Finance Stoch. 16, 2012; Takaoka &
  Schweizer, Finance Stoch. 18, 2014);
* a relabelling of the atoms;
* a split of every atom into two copies that share every F-block and tau.

The relations need no second implementation to check against (Chen,
Cheung & Yiu, HKUST-CS98-01, 1998).  A filtration carries its space, so
the model under Q is ``Filtration(filt.parts, Q)`` with Q the reweighted
space; the price, tau and every call stay as they are.
"""

import random
from fractions import Fraction as F

import pytest

from randomhorizon.campaign import theorem_suite
from randomhorizon.generator import random_instance
from randomhorizon.io import Scenario
from randomhorizon.nupbr import certify_nupbr, thin_set_empty
from randomhorizon.space import AdaptedProcess, FiniteSpace, Filtration, RandomTime, stop

from helpers import split_instance

# instances no other battery draws
SEEDS = range(7_000, 7_200)
BATTERY = 10
FOUR = ("stopped_in_enlarged", "masked_in_base", "under_jump_measure", "under_ratio_measure")
THREE = ("under_jump_measure", "thin_mean_zero", "stopped_under_enlarged_weight")


def verdicts(model):
    """Every verdict a relation compares, and the martingale-transfer
    triples, which only a relabelling keeps (the centring of the jump
    depends on P)."""
    bundle, sections, violations = theorem_suite(model, BATTERY)
    space, S = model.space, model.price
    out = {
        "thin_set_empty": thin_set_empty(bundle),
        "F": certify_nupbr(S, model.filtration, space).verdict,
        "G": certify_nupbr(stop(S, model.tau), bundle.enlarged, space).verdict,
        "single_jump": [tuple(d[k] for k in FOUR) for d in sections["single_jump"]],
        "violations": violations,
    }
    transfer = [tuple(d[k] for k in THREE) for d in sections["martingale_transfer"]]
    return out, transfer


@pytest.fixture(scope="module")
def base_verdicts():
    return {seed: verdicts(random_instance(seed)) for seed in SEEDS}


def reweighted(model, rng):
    space = model.space
    w = [p * rng.randint(1, 9) for p in space.prob]
    total = sum(w)
    Q = FiniteSpace(space.atoms, tuple(x / total for x in w), space.horizon)
    return Scenario(Q, Filtration(model.filtration.parts, Q), model.tau, model.price)


def relabelled(model, rng):
    """The atoms in a random order; each keeps its name, probability, tau
    and price path."""
    space = model.space
    order = list(range(space.n))
    rng.shuffle(order)
    new = {old: k for k, old in enumerate(order)}
    perm = FiniteSpace(
        tuple(space.atoms[i] for i in order), tuple(space.prob[i] for i in order), space.horizon
    )
    parts = tuple(
        tuple(tuple(new[i] for i in block) for block in blocks)
        for blocks in model.filtration.parts
    )
    price = AdaptedProcess(tuple(tuple(row[i] for i in order) for row in model.price.values))
    tau = RandomTime(tuple(model.tau.values[i] for i in order))
    return Scenario(perm, Filtration(parts, perm), tau, price)


def split(model, rng):
    shares = [F(rng.randint(1, 4), 5) for _ in range(model.space.n)]
    return split_instance(model, shares, lambda i, c: model.tau.values[i])


@pytest.mark.parametrize("relation", [reweighted, relabelled, split])
def test_verdicts_are_invariant(relation, base_verdicts):
    rng = random.Random(relation.__name__)
    disagreements = []
    for seed in SEEDS:
        base, base_transfer = base_verdicts[seed]
        got, got_transfer = verdicts(relation(random_instance(seed), rng))
        if got != base or (relation is relabelled and got_transfer != base_transfer):
            disagreements.append(seed)
    assert disagreements == []
