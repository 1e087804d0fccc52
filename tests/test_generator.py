from randomhorizon.generator import MAX_ATOMS, MAX_HORIZON, random_instance
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
