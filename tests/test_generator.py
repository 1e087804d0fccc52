import random

import pytest

from randomhorizon.generator import MAX_ATOMS, MAX_HORIZON, random_instance, random_martingale
from randomhorizon.io import load_builtin
from randomhorizon.projections import is_martingale
from randomhorizon.space import INF


def test_instances_respect_bounds():
    for seed in range(200):
        inst = random_instance(seed)
        assert 1 <= inst.space.n <= MAX_ATOMS
        assert 1 <= inst.space.horizon <= MAX_HORIZON
        assert inst.price.dim in (1, 2)
        for p in inst.space.prob:
            assert p.denominator <= 64
        for i in range(inst.space.n):
            v = inst.tau.at(i)
            assert v is INF or 0 <= v <= inst.space.horizon


def test_price_is_martingale():
    for seed in range(100):
        inst = random_instance(seed)
        assert is_martingale(inst.price, inst.filtration)


def test_generation_is_reproducible():
    a, b = random_instance(42), random_instance(42)
    assert a.space == b.space
    assert a.filtration.parts == b.filtration.parts
    assert a.tau.values == b.tau.values
    assert a.price.values == b.price.values
    assert random_instance(43).price.values != a.price.values or (
        random_instance(43).tau.values != a.tau.values
    )


@pytest.mark.parametrize("dim", [0, -1, True, False, 1.0, "2", None])
def test_random_martingale_rejects_a_dim_that_is_not_an_int_from_1(dim):
    ex2 = load_builtin("ex2")
    with pytest.raises(ValueError, match="dim"):
        random_martingale(ex2.space, ex2.filtration, random.Random(0), dim=dim)


@pytest.mark.parametrize("spread", [-1, True, False, 3.0, "3", None])
def test_random_martingale_rejects_a_spread_that_is_not_an_int_from_0(spread):
    ex2 = load_builtin("ex2")
    with pytest.raises(ValueError, match="spread"):
        random_martingale(ex2.space, ex2.filtration, random.Random(0), spread=spread)


def test_random_martingale_draws_zero_at_spread_0_and_columns_at_dim_n():
    ex2 = load_builtin("ex2")
    M = random_martingale(ex2.space, ex2.filtration, random.Random(0), dim=5, spread=0)
    assert M.shape == (3, 4, 5) and not M.moving
    assert not any(any(cell) for row in M.values for cell in row)
