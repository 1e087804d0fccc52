import random
from fractions import Fraction as F

import pytest

from randomhorizon.errors import NotAdapted
from randomhorizon.generator import random_instance, random_martingale
from randomhorizon.io import Scenario
from randomhorizon.nupbr import certify_nupbr
from randomhorizon.space import (
    INF,
    AdaptedProcess,
    FiniteSpace,
    Filtration,
    RandomTime,
    assert_adapted,
    check_stopping_time,
    condexp,
    is_adapted,
    is_predictable,
    stop,
)

from helpers import constant, constant_time, from_function, naive_nodes


def test_condexp_indicator_of_single_atom(ex1):
    space, filt = ex1.space, ex1.filt
    x = [F(0), F(1), F(0), F(0)]  # indicator of {b}
    out = condexp(x, filt, 1)
    assert out == (F(1, 2), F(1, 2), F(0), F(0))


def test_condexp_constant_is_identity(ex1):
    space, filt = ex1.space, ex1.filt
    c = F(7, 3)
    for t in space.times:
        assert condexp([c] * 4, filt, t) == (c,) * 4


def test_condexp_survival_indicator_is_Z1(ex1):
    space, filt, tau = ex1.space, ex1.filt, ex1.tau
    x = [F(1) if tau.at(i) > 1 else F(0) for i in range(4)]
    out = condexp(x, filt, 1)
    assert out == (F(1, 2),) * 4


def test_condexp_is_projection(ex1):
    space, filt = ex1.space, ex1.filt
    x = [F(3), F(-1), F(2), F(5)]
    once = condexp(x, filt, 1)
    twice = condexp(list(once), filt, 1)
    assert once == twice


def test_condexp_tower(ex1):
    space, filt = ex1.space, ex1.filt
    x = [F(3), F(-1), F(2), F(5)]
    fine = condexp(x, filt, 2)
    coarse_of_fine = condexp(list(fine), filt, 1)
    assert coarse_of_fine == condexp(x, filt, 1)


def test_stopping_time_checks(ex1):
    space, filt = ex1.space, ex1.filt
    assert not check_stopping_time(ex1.tau, filt)
    assert check_stopping_time(constant_time(space, 1), filt)
    assert check_stopping_time(ex1.tau, ex1.enlarged)


def test_stop_at_tau_terminal_values(ex1):
    stopped = stop(ex1.price, ex1.tau)
    assert [stopped.scalar_at(2, i) for i in range(4)] == [F(1), F(0), F(-1), F(-2)]


def test_stop_at_infinity_is_identity(ex1):
    stopped = stop(ex1.price, constant_time(ex1.space, INF))
    assert stopped.values == ex1.price.values


def test_stop_at_zero_freezes(ex1):
    stopped = stop(ex1.price, constant_time(ex1.space, 0))
    for t in ex1.space.times:
        assert stopped.values[t] == ex1.price.values[0]


def test_stopped_process_is_adapted_in_enlargement(ex1):
    stopped = stop(ex1.price, ex1.tau)
    assert_adapted(stopped, ex1.enlarged, "stopped price")
    # the random time itself is not F-measurable on EX1
    ind = from_function(ex1.space, lambda t, i: 1 if ex1.tau.at(i) <= t else 0)
    assert not is_adapted(ind, ex1.filt)
    assert is_adapted(ind, ex1.enlarged)


def test_delta_conventions(ex1):
    X = ex1.price
    assert X.delta_at(0, 0) == (F(0),)
    assert X.delta_at(1, 0) == (F(1),)
    assert X.delta_at(2, 3) == (F(-1),)


def test_infinity_ordering():
    assert INF > 10**9
    assert not (INF < 5)
    assert INF >= INF and INF <= INF and INF == INF
    assert 3 < INF and not (3 > INF)


def test_space_validation():
    with pytest.raises(ValueError):
        FiniteSpace(("a", "b"), (F(1, 2), F(1, 3)), 1)
    with pytest.raises(ValueError):
        FiniteSpace(("a", "b"), (F(1), F(0)), 1)
    with pytest.raises(ValueError):
        FiniteSpace(("a", "a"), (F(1, 2), F(1, 2)), 1)
    with pytest.raises(TypeError):
        FiniteSpace(("a", "b"), (0.5, 0.5), 1)


def test_filtration_must_refine():
    with pytest.raises(ValueError):
        Filtration((((0, 1), (2,)), ((0, 1, 2),)), FiniteSpace((0, 1, 2), (F(1, 3),) * 3, 1))


def test_a_trusted_filtration_is_checked_for_refinement(ex1):
    # ``_trusted`` takes canonical parts unsorted and unchecked, but its
    # children table comes from the constructor's refinement pass: the
    # block (0, 2) at time 2 meets both blocks of time 1.  It used to take
    # any children table as given
    first, coarse = ex1.filt.parts[:2]
    with pytest.raises(ValueError, match="partition at time 2 does not refine time 1"):
        Filtration._trusted(ex1.filt, (first, coarse, ((0, 2), (1,), (3,))))
    G = Filtration._trusted(ex1.filt, ex1.enlarged.parts)
    assert (G.parts, G._children, G.space) == (
        ex1.enlarged.parts, ex1.enlarged._children, ex1.space
    )


def test_a_filtration_reads_its_parts_as_it_reads_their_blocks(ex1):
    # the parts, like each partition and block, may be any collection, a
    # generator included, and anything else is a ValueError; a generator
    # of partitions, or 5, raised a bare TypeError from len()
    lazy = ((iter(block) for block in blocks) for blocks in ex1.filt.parts)
    assert Filtration(lazy, ex1.space) == ex1.filt
    with pytest.raises(ValueError, match="the parts of a filtration must be a collection"):
        Filtration(5, ex1.space)


def test_a_filtration_cannot_be_paired_with_another_space(ex1):
    # ex1 beside a horizon-1 copy of its own space used to give an empty thin
    # set (true: {(a, 2), (c, 2)}), a true certificate for the G-arbitrage
    # S^tau and a martingale pass for the process 0, 0, 1, all silently
    short = FiniteSpace(ex1.space.atoms, ex1.space.prob, 1)
    with pytest.raises(ValueError, match="length must match the time grid"):
        Filtration(ex1.filt.parts, short)
    stopped = stop(ex1.price, ex1.tau)
    mismatch = "the space must be the space of the filtration"
    with pytest.raises(ValueError, match=mismatch):
        certify_nupbr(stopped, ex1.enlarged, short)
    with pytest.raises(ValueError, match=mismatch):
        random_martingale(short, ex1.filt, random.Random(0))
    with pytest.raises(ValueError, match=mismatch):
        Scenario(short, ex1.filt, ex1.tau, ex1.price)
    assert ex1.bundle.thin_mask == {("a", 2), ("c", 2)}
    # an equal space built apart is the same space
    twin = FiniteSpace(ex1.space.atoms, ex1.space.prob, ex1.space.horizon)
    assert not certify_nupbr(stopped, ex1.enlarged, twin).verdict


def test_non_trivial_time_zero_block():
    space = FiniteSpace(("u", "v", "x", "y"), (F(1, 4),) * 4, 1)
    filt = Filtration.from_names(
        [[("u", "v"), ("x", "y")], [("u",), ("v",), ("x",), ("y",)]], space
    )
    x = [F(1), F(3), F(0), F(4)]
    assert condexp(x, filt, 0) == (F(2), F(2), F(2), F(2))


def test_filtration_from_names_must_cover_every_atom():
    # the atom count is the space's: read off a short time-0 partition, it
    # made the complete later partitions fail as "atom index k out of range"
    space = FiniteSpace(("u", "v", "x"), (F(1, 3),) * 3, 1)
    singles = [("u",), ("v",), ("x",)]
    for names, t in [
        ([[("u", "v")], [("u",), ("v",)]], 0),
        ([[], singles], 0),
        ([[("u",)], singles], 0),
        ([[("u", "v")], [("u", "v"), ("x",)]], 0),
        ([[("u", "v", "x")], [("u",), ("v",)]], 1),
    ]:
        message = f"the partition at time {t} does not cover every atom of the space"
        with pytest.raises(ValueError, match=message):
            Filtration.from_names(names, space)


def test_filtration_from_names_rejects_an_unknown_atom():
    space = FiniteSpace(("u", "v"), (F(1, 2),) * 2, 1)
    with pytest.raises(ValueError, match="unknown atom 'x' in the partition at time 1"):
        Filtration.from_names([[("u", "v")], [("u",), ("v", "x")]], space)


def test_partition_errors_are_reported_before_coverage():
    # a time-0 partition that repeats an atom is reported as such, as the
    # scenario parser always has, and not as missing atoms of the space
    space = FiniteSpace(("u", "v", "x"), (F(1, 3),) * 3, 1)
    with pytest.raises(ValueError, match="appears in two blocks"):
        Filtration.from_names([[("u",), ("u",)], [("u",), ("v",), ("x",)]], space)


def test_an_empty_block_names_its_date():
    space = FiniteSpace(("u", "v"), (F(1, 2),) * 2, 1)
    with pytest.raises(ValueError, match="empty block in partition at time 1"):
        Filtration((((0, 1),), ((0,), (1,), ())), space)


def test_predictable_flag_vs_check(ex1):
    assert is_predictable(constant(ex1.space, F(5)), ex1.filt)
    assert not is_predictable(ex1.price, ex1.filt)


def test_assert_adapted_raises(ex1):
    rows = [[(F(i),) for i in range(4)] for _ in ex1.space.times]
    bad = AdaptedProcess(tuple(tuple(r) for r in rows))
    with pytest.raises(NotAdapted):
        assert_adapted(bad, ex1.filt)


def test_nodes_match_the_naive_children_walk(ex1, ex2):
    rng = random.Random(13)
    models = [(ex1.filt, ex1.space), (ex2.filt, ex2.space)] + [
        (inst.filtration, inst.space) for inst in map(random_instance, range(120))
    ]
    for filt, space in models:
        for t in range(1, space.horizon + 1):
            assert list(filt.nodes(t)) == naive_nodes(filt, t, None)
            for _ in range(3):
                w = [F(rng.choice((0, 0, 1, 3)), rng.randint(1, 4)) for _ in range(space.n)]
                assert list(filt.nodes(t, w)) == naive_nodes(filt, t, w)


@pytest.mark.parametrize("bad", [-1, True, False])
def test_random_time_rejects_negative_ints_and_bools(bad):
    # a negative time used to index the rows from the end: stop() read the
    # terminal value at every date
    with pytest.raises(ValueError):
        RandomTime((0, bad))
    assert RandomTime((0, 2, INF)).values == (0, 2, INF)


@pytest.mark.parametrize("bad", [2.5, True, "2", F(2)])
def test_space_horizon_must_be_an_int(bad):
    with pytest.raises(ValueError, match="horizon"):
        FiniteSpace(("a", "b"), (F(1, 2), F(1, 2)), bad)
