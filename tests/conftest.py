from dataclasses import dataclass

import pytest

from randomhorizon.deflator import DeflatorBundle, build_deflator
from randomhorizon.enlargement import AzemaBundle, azema, jump_time_measures
from randomhorizon.io import Scenario, load_builtin
from randomhorizon.space import INF

from helpers import block_of


@dataclass(frozen=True)
class Ctx:
    sc: Scenario
    bundle: AzemaBundle
    deflators: DeflatorBundle

    @property
    def enlarged(self):
        return self.bundle.enlarged

    @property
    def space(self):
        return self.sc.space

    @property
    def filt(self):
        return self.sc.filtration

    @property
    def tau(self):
        return self.sc.tau

    @property
    def price(self):
        return self.sc.price


def _ctx(name):
    sc = load_builtin(name)
    bundle = azema(sc.filtration, sc.tau)
    return Ctx(sc, bundle, build_deflator(bundle))


@pytest.fixture(scope="session")
def ex1():
    return _ctx("ex1")


@pytest.fixture(scope="session")
def ex2():
    return _ctx("ex2")


def _check_survival_views(bundle):
    """Compare the bundle's ]0, tau], zero sets, thin set, death times and
    collapse projection, and the weight q of every jump date, with a
    per-atom recomputation from tau, Z, Zt and P."""
    space, filt, tau = bundle.space, bundle.filt, bundle.tau
    Z, Zt = bundle.Z.scalar_at, bundle.Ztilde.scalar_at
    thin = set()
    for t in space.times:
        assert bundle.alive[t] == tuple(0 < t and t <= tau.at(i) for i in range(space.n))
        assert bundle.z_zero[t] == tuple(Z(t, i) == 0 for i in range(space.n))
        assert bundle.zt_zero[t] == tuple(Zt(t, i) == 0 for i in range(space.n))
        row = tuple(t > 0 and Zt(t, i) == 0 and Z(t - 1, i) > 0 for i in range(space.n))
        assert bundle.thin[t] == row
        thin |= {(space.atoms[i], t) for i in range(space.n) if row[i]}
    assert bundle.thin_mask == thin
    for i in range(space.n):
        if Z(0, i) == 0:
            death = 0
        else:
            death = min((t for t in range(1, space.horizon + 1) if Z(t - 1, i) == 0), default=INF)
        assert bundle.death.at(i) == death
        sudden = death if death is not INF and Zt(death, i) == 0 else INF
        assert bundle.sudden_death.at(i) == sudden
    assert bundle.collapse[0] is None
    for t in range(1, space.horizon + 1):
        zt = [bundle.Ztilde.scalar_at(t, i) for i in range(space.n)]
        q = []
        for i in range(space.n):
            block = block_of(filt, t - 1, i)
            mass = sum(space.prob[j] for j in block)
            dead = sum(space.prob[j] for j in block if zt[j] == 0) / mass
            assert bundle.collapse[t][i] == dead
            if bundle.Z.scalar_at(t - 1, i) == 0:
                assert dead == 1
            # the weight as written before the bundle owned the projection:
            # I_{Zt > 0} over its F_{t-1}-mass, 1 where that mass is 0
            p_pos = sum(space.prob[j] for j in block if zt[j] > 0) / mass
            q.append((1 if zt[i] > 0 else 0) / p_pos if p_pos > 0 else 1)
        assert jump_time_measures(t, bundle).q == tuple(q)


@pytest.fixture(scope="session")
def survival_views_oracle():
    return _check_survival_views
