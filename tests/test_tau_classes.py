"""Random times whose survival facts are known without the engine.

A pseudo-stopping time tau keeps E[M_tau] = E[M_0] for every bounded
F-martingale M (Nikeghbali & Yor, Ann. Probab. 33, 2005).  An F-stopping
time is one, so is a tau independent of F_H, and so is sigma ^ rho for a
stopping time sigma and a rho independent of F_H.  For each of them the
survival martingale m is constant, hence Zt_t = Z_{t-1} and the thin set
{Zt = 0 < Z_-} is empty, the engine's deflator is 1, and every
F-martingale stopped at tau is a G-martingale.

The end tau of an F-optional set Gamma (the last t with the atom in
Gamma_t) is an honest time: Gamma_tau is F_tau-measurable and contains
every atom of its block, so Zt_tau = P(tau >= tau | F_tau) = 1 on
{tau < inf} (Jeulin, LNM 833, 1980).

The draws (``helpers.tau_class_draw``) use generator instances no other
battery draws.  Each class is first checked to be what it claims by a
per-atom computation that shares no code with the engine, and to reach
beyond the F-stopping times.
"""

import random
from fractions import Fraction as F
from functools import cache

import pytest

from randomhorizon.deflator import build_deflator
from randomhorizon.enlargement import azema
from randomhorizon.generator import random_martingale
from randomhorizon.projections import is_martingale
from randomhorizon.space import INF, stop

from helpers import tau_class_draw

SEEDS = range(9_000, 9_200)
BATTERY = 5
PSEUDO = ("stopping", "independent", "pseudo")


def _is_stopping_time(sc) -> bool:
    tau = sc.tau.values
    return all(
        len({tau[i] <= t for i in block}) == 1
        for t, blocks in enumerate(sc.filtration.parts)
        for block in blocks
    )


def _stopped_mean(sc, M) -> F:
    """E[M_tau], with M_inf := M_horizon, summed atom by atom."""
    H = sc.space.horizon
    return sum(
        p * M.scalar_at(H if v is INF else v, i)
        for i, (p, v) in enumerate(zip(sc.space.prob, sc.tau.values))
    )


def _independent_of_terminal_field(sc) -> bool:
    prob, tau = sc.space.prob, sc.tau.values
    for s in set(tau):
        p_s = sum(p for p, v in zip(prob, tau) if v == s)
        for block in sc.filtration.parts[-1]:
            joint = sum(prob[i] for i in block if tau[i] == s)
            if joint != p_s * sum(prob[i] for i in block):
                return False
    return True


@cache
def _draws(family: str) -> list:
    return [tau_class_draw(family, seed) for seed in SEEDS]


def _martingales(sc, seed) -> list:
    """The price and a battery of bounded F-martingales drawn as the
    preservation battery draws them."""
    rng = random.Random(seed)
    battery = [random_martingale(sc.space, sc.filtration, rng, spread=3) for _ in range(BATTERY)]
    return [sc.price] + battery


@pytest.mark.parametrize("family", PSEUDO)
def test_each_draw_is_a_pseudo_stopping_time(family):
    draws = _draws(family)
    stopping = [_is_stopping_time(sc) for sc in draws]
    if family == "stopping":
        assert all(stopping)
    else:
        assert not all(stopping)
    if family == "independent":
        assert all(map(_independent_of_terminal_field, draws))
    for seed, sc in zip(SEEDS, draws):
        for M in _martingales(sc, seed):
            if M.dim == 1:
                assert _stopped_mean(sc, M) == M.scalar_at(0, 0)


@pytest.mark.parametrize("family", PSEUDO)
def test_pseudo_stopping_times_keep_every_martingale(family):
    for seed, sc in zip(SEEDS, _draws(family)):
        bundle = azema(sc.filtration, sc.tau)
        assert len({cell for row in bundle.m.values for cell in row}) == 1
        for t in range(1, sc.space.horizon + 1):
            assert bundle.Ztilde.values[t] == bundle.Z.values[t - 1]
        assert bundle.thin_mask == frozenset()
        deflator = build_deflator(bundle).deflator
        assert {cell for row in deflator.values for cell in row} == {(F(1),)}
        for M in _martingales(sc, seed):
            assert is_martingale(stop(M, sc.tau), bundle.enlarged)


def test_ends_of_optional_sets_survive_fully_at_their_end():
    draws = _draws("optional-end")
    assert not all(map(_is_stopping_time, draws))
    thin = 0
    for sc in draws:
        bundle = azema(sc.filtration, sc.tau)
        for i, v in enumerate(sc.tau.values):
            if v is not INF:
                assert bundle.Ztilde.scalar_at(v, i) == 1
        thin += bool(bundle.thin_mask)
    assert thin > 0
