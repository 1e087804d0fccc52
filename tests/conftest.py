from dataclasses import dataclass

import pytest

from randomhorizon.deflator import DeflatorBundle, build_deflator
from randomhorizon.enlargement import AzemaBundle, azema
from randomhorizon.io import Scenario, load_builtin


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
    bundle = azema(sc.filtration, sc.tau, sc.space)
    return Ctx(sc, bundle, build_deflator(bundle))


@pytest.fixture(scope="session")
def ex1():
    return _ctx("ex1")


@pytest.fixture(scope="session")
def ex2():
    return _ctx("ex2")
