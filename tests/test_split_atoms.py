"""Scenarios whose terminal partition is coarser than the atoms.

The generator's leaves are atoms, so its random time is always
F_H-measurable.  The sampler below splits every atom w of an instance into
two copies w_0 and w_1 that share every F-block and the price path, and
gives each copy its own random time.  When tau depends only on the copy,
tau is independent of F_infinity, and the exact oracles of that textbook
case apply: Z is deterministic, m is constant, the thin set is empty, and
every stopped F-martingale is a G-martingale (tau is a pseudo-stopping
time, Nikeghbali & Yor, Ann. Probab. 33, 2005).
"""

import json
import random
from fractions import Fraction as F

import pytest

from randomhorizon import cli
from randomhorizon.campaign import theorem_suite
from randomhorizon.enlargement import azema
from randomhorizon.errors import StructuralViolation
from randomhorizon.generator import random_instance, random_martingale
from randomhorizon.io import Scenario, dump_json, serialize_scenario
from randomhorizon.nupbr import preservation_report, thin_set_empty
from randomhorizon.projections import is_martingale
from randomhorizon.space import (
    INF,
    AdaptedProcess,
    FiniteSpace,
    Filtration,
    RandomTime,
    condexp_cells,
    first_nonconstant,
)

from helpers import battery_columns, split_instance, split_space


def _grid(horizon):
    return list(range(horizon + 1)) + [INF]


def per_atom_martingale(space, filt, rng, dim=1, spread=4):
    """One terminal draw per atom, then backward conditional means: the
    generator's draw sequence when the leaves are atoms."""
    current = tuple(
        tuple(F(rng.randint(-spread, spread)) for _ in range(dim)) for _ in range(space.n)
    )
    rows = [None] * (space.horizon + 1)
    rows[space.horizon] = current
    for t in range(space.horizon - 1, -1, -1):
        current = rows[t] = condexp_cells(current, filt, t)
    return AdaptedProcess(tuple(rows))


def test_draws_per_atom_when_the_leaves_are_atoms():
    for seed in range(30):
        inst = random_instance(seed)
        for dim in (1, 2):
            got = random_martingale(inst.space, inst.filtration, random.Random(seed), dim)
            want = per_atom_martingale(inst.space, inst.filtration, random.Random(seed), dim)
            assert got.values == want.values


def test_draws_one_terminal_value_per_block_on_split_atoms():
    for seed in range(30):
        inst = random_instance(seed)
        space, filt = split_space(inst.space, inst.filtration, [F(1, 3)] * inst.space.n)
        M = random_martingale(space, filt, random.Random(seed), dim=2)
        assert first_nonconstant(M.values[space.horizon], filt.parts[space.horizon]) is None
        assert is_martingale(M, filt)


@pytest.mark.parametrize("seed", range(40))
def test_tau_independent_of_the_base_filtration(seed):
    inst = random_instance(seed)
    rng = random.Random(seed)
    by_copy = (rng.choice(_grid(inst.space.horizon)), rng.choice(_grid(inst.space.horizon)))
    sc = split_instance(inst, [F(1, 3)] * inst.space.n, lambda i, c: by_copy[c])
    bundle, sections, violations = theorem_suite(sc, battery=10, seed=seed)
    assert all(len(set(row)) == 1 for row in bundle.Z.values)  # deterministic
    assert len({cell for row in bundle.m.values for cell in row}) == 1  # constant
    assert thin_set_empty(bundle)
    pres = sections["preservation"]
    assert pres["preserved"] == pres["martingales_checked"] == 10
    assert violations == []


@pytest.mark.parametrize("seed", range(40))
def test_randomly_split_instances_report_no_violation(seed, survival_views_oracle):
    inst = random_instance(seed)
    rng = random.Random(seed)
    shares = [F(rng.randint(1, 4), 5) for _ in range(inst.space.n)]
    grid = _grid(inst.space.horizon)
    taus = [rng.choice(grid) for _ in range(2 * inst.space.n)]
    sc = split_instance(inst, shares, lambda i, c: taus[2 * i + c])
    bundle, _, violations = theorem_suite(sc, battery=10, seed=seed)
    assert violations == []
    survival_views_oracle(bundle)


def _immortal_copy_scenario(seed, horizon, branching_dates):
    """A binary tree that branches at ``branching_dates``, split in two
    copies per leaf; copy 0 never dies, so Zt > 0 everywhere and the thin
    set is empty.  The price is drawn on the split space."""
    rng = random.Random(seed)
    paths = [()]
    for t in range(1, horizon + 1):
        paths = [p + (c,) for p in paths for c in ((0, 1) if t in branching_dates else (0,))]
    parts = []
    for t in range(horizon + 1):
        groups = {}
        for i, p in enumerate(paths):
            groups.setdefault(p[:t], []).append(i)
        parts.append(tuple(tuple(g) for g in groups.values()))
    n = len(paths)
    weights = [rng.randint(1, 5) for _ in range(n)]
    base = FiniteSpace(
        tuple(f"a{i}" for i in range(n)),
        tuple(F(w, sum(weights)) for w in weights),
        horizon,
    )
    space, filt = split_space(
        base, Filtration(tuple(parts), base), [F(rng.randint(1, 4), 5) for _ in range(n)]
    )
    price = random_martingale(space, filt, rng, dim=1)
    grid = _grid(horizon)
    tau = RandomTime(tuple(INF if k % 2 == 0 else rng.choice(grid) for k in range(space.n)))
    return Scenario(space, filt, tau, price)


def test_64_atom_horizon_8_split_file_preserves_the_whole_battery(capsys, tmp_path):
    sc = _immortal_copy_scenario(8, 8, {1, 2, 4, 6, 8})
    assert sc.space.n == 64
    path = tmp_path / "split64.json"
    path.write_text(dump_json(serialize_scenario(sc)), encoding="utf-8")
    assert cli.main(["theorems", str(path)]) == 0
    pres = json.loads(capsys.readouterr().out)["preservation"]
    assert pres["thin_set_empty"] is True
    assert pres["preserved"] == pres["martingales_checked"] == 100


def test_each_column_of_the_64_atom_battery_is_decided_as_its_own_process():
    sc = _immortal_copy_scenario(8, 8, {1, 2, 4, 6, 8})
    engine, oracle = battery_columns(azema(sc.filtration, sc.tau), 100, 0)
    assert engine == oracle == list(range(100))


def test_a_per_atom_battery_draw_is_an_engine_fault(capsys, monkeypatch, tmp_path):
    from randomhorizon import nupbr

    inst = random_instance(1)
    sc = split_instance(inst, [F(1, 3)] * inst.space.n, lambda i, c: INF if c == 0 else 1)
    bundle = azema(sc.filtration, sc.tau)
    assert thin_set_empty(bundle)
    monkeypatch.setattr(nupbr, "random_martingale", per_atom_martingale)
    with pytest.raises(StructuralViolation):
        preservation_report(bundle, n_martingales=5)
    path = tmp_path / "split.json"
    path.write_text(dump_json(serialize_scenario(sc)), encoding="utf-8")
    assert cli.main(["theorems", str(path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "runtime"
