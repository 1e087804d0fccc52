"""Facts decided once, by the code that builds the object, against
from-scratch references.

* :attr:`AdaptedProcess.moving` against a scan of every increment row, on
  the survival processes of generator models, on every process the
  theorem suite builds, and on hand cases that must cancel;
* the enlargement G, built unchecked by ``enlarge``, against the public
  constructor on its parts: parts, children table and masses;
* :func:`is_adapted` and :func:`is_predictable`, which read row 0 and the
  moving rows only, against a check of every row, on models and on copies
  changed at one atom of a quiet, the terminal or the first date;
* a quiet date inserted at s (F'_s = F_{s-1}, the price held over s, every
  tau value >= s one date later): the moving dates and the node weights
  shift by one date from s on, s never moves, and the NUPBR verdicts in F
  and in G stay; Z, m and D^o repeat a row at s, Zt gains Z_{s-1} there,
  the thin set moves one date later from s on, and ]0, tau] repeats its
  row s.
"""

from dataclasses import replace

import pytest

from randomhorizon.campaign import theorem_suite
from randomhorizon.enlargement import azema, enlarge
from randomhorizon.errors import NotAdapted
from randomhorizon.generator import random_instance
from randomhorizon.io import Scenario, load_builtin
from randomhorizon.nupbr import certify_nupbr, single_jump_process
from randomhorizon.projections import predictable_projection
from randomhorizon.space import (
    INF,
    AdaptedProcess,
    FiniteSpace,
    Filtration,
    RandomTime,
    is_adapted,
    is_predictable,
    stop,
)

from helpers import (
    bench_scenarios,
    constant_time,
    date_mutants,
    lagged,
    moving_scan,
    run_optimized,
)

BUILTINS = ("ex1", "ex2")


def survival_processes(sc):
    b = azema(sc.filtration, sc.tau)
    return sc.price, b.Z, b.Ztilde, b.m, b.default_compensator


def test_moving_matches_a_full_scan_on_generator_models():
    quiet = 0
    for seed in range(1000):
        for X in survival_processes(random_instance(seed)):
            assert X.moving == moving_scan(X), seed
            quiet += X.horizon - len(X.moving)
    assert quiet > 0


@pytest.fixture
def recorded(monkeypatch):
    """Every process built through ``AdaptedProcess._trusted`` while the
    fixture is active: each builder of the package ends there."""
    built = []
    trusted = AdaptedProcess.__dict__["_trusted"].__func__

    def record(cls, *args):
        X = trusted(cls, *args)
        built.append(X)
        return X

    monkeypatch.setattr(AdaptedProcess, "_trusted", classmethod(record))
    return built


def test_moving_matches_a_full_scan_on_every_process_of_the_theorem_suite(recorded):
    # battery 10: the battery draws more martingales of the same kind
    models = [load_builtin(name) for name in BUILTINS] + bench_scenarios(0, 20)
    for sc in models:
        recorded.clear()
        theorem_suite(sc, battery=10)
        assert len(recorded) > 20
        assert [X.moving for X in recorded] == [moving_scan(X) for X in recorded]


def test_moving_is_empty_where_a_builder_cancels(ex1):
    S, space = ex1.price, ex1.space
    assert S.moving == frozenset(range(1, space.horizon + 1))
    assert (S - S).moving == (S + -S).moving == frozenset()
    assert stop(S, constant_time(space, 0)).moving == frozenset()
    xi = S.increments[2]
    assert single_jump_process(xi, 2, space, mask=[False] * space.n).moving == frozenset()
    assert single_jump_process(xi, 2, space).moving == {2}
    # a half cancellation keeps the date that still moves
    late = stop(S, constant_time(space, 1))
    assert (S - late).moving == {2} and late.moving == {1}


def test_the_trusted_enlargement_equals_the_checked_one():
    models = [random_instance(seed) for seed in range(1000)]
    models += [sc for seed in (0, 1, 7) for sc in bench_scenarios(seed, 64)]
    split = 0
    for sc in models:
        G = enlarge(sc.filtration, sc.tau)
        checked = Filtration(G.parts, sc.space)
        assert G.space is sc.space
        assert (G.parts, G._children, G.masses) == (
            checked.parts, checked._children, checked.masses
        )
        split += G.parts != sc.filtration.parts
    assert split > 100


def naive_constant(X, parts) -> bool:
    """Every row ``X.values[t]`` holds one cell on each block of
    ``parts[t]``, every row read."""
    return all(
        len({row[i] for i in block}) == 1
        for row, blocks in zip(X.values, parts)
        for block in blocks
    )


def naive_adapted(X, filt) -> bool:
    return naive_constant(X, filt.parts)


def naive_predictable(X, filt) -> bool:
    return naive_constant(X, filt.parts[:1] + filt.parts[:-1])


def measurability_cases(seed):
    """(filtration, process) pairs of the generator model ``seed``: its
    survival processes in F, and their F-predictable projections, which
    are adapted to F one date late and hold quiet dates."""
    sc = random_instance(seed)
    filt = sc.filtration
    late = lagged(filt)
    for X in survival_processes(sc):
        yield filt, X
        yield late, predictable_projection(X, filt)


def test_measurability_checks_match_an_every_row_check():
    broken = {"quiet": 0, "terminal": 0, "first": 0}
    both = 0  # quiet mutants that move at t and t + 1
    for seed in range(200):
        for filt, X in measurability_cases(seed):
            assert is_adapted(X, filt) == naive_adapted(X, filt) is True
            assert is_predictable(X, filt) == naive_predictable(X, filt)
            for kind, t, Y in date_mutants(X, filt):
                assert Y.moving == moving_scan(Y)
                if kind == "quiet":
                    assert t in Y.moving
                    both += t + 1 in Y.moving
                adapted = naive_adapted(Y, filt)
                assert is_adapted(Y, filt) == adapted
                assert is_predictable(Y, filt) == naive_predictable(Y, filt)
                if not adapted:
                    broken[kind] += 1
                    with pytest.raises(NotAdapted):
                        certify_nupbr(Y, filt, filt.space)
    assert min(broken.values()) > 20 and both > 20, (broken, both)


def test_a_mutant_still_fails_certify_under_optimize():
    code = (
        "from helpers import date_mutants, lagged\n"
        "from randomhorizon.errors import NotAdapted\n"
        "from randomhorizon.generator import random_instance\n"
        "from randomhorizon.nupbr import certify_nupbr\n"
        "from randomhorizon.projections import predictable_projection\n"
        "from randomhorizon.space import is_adapted\n"
        "raised = set()\n"
        "for seed in range(30):\n"
        "    sc = random_instance(seed)\n"
        "    filt, late = sc.filtration, lagged(sc.filtration)\n"
        "    P = predictable_projection(sc.price, filt)\n"
        "    for f, X in ((filt, sc.price), (late, P)):\n"
        "        for kind, t, Y in date_mutants(X, f):\n"
        "            if is_adapted(Y, f):\n"
        "                continue\n"
        "            try:\n"
        "                certify_nupbr(Y, f, f.space)\n"
        "            except NotAdapted:\n"
        "                raised.add(kind)\n"
        "            else:\n"
        "                raise SystemExit(f'seed {seed} {kind} {t}: no NotAdapted')\n"
        "print(sorted(raised))\n"
    )
    result = run_optimized(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[0] == "['first', 'quiet', 'terminal']"


def insert_quiet_date(sc, s):
    """The model with a quiet date inserted at s: F'_s = F_{s-1}, the price
    held over s, and every tau value >= s one date later."""
    space, parts, rows = sc.space, sc.filtration.parts, sc.price.values
    longer = FiniteSpace(space.atoms, space.prob, space.horizon + 1)
    filt = Filtration(parts[:s] + parts[s - 1:], longer)
    price = AdaptedProcess(rows[:s] + rows[s - 1:])
    tau = RandomTime(tuple(v if v is INF or v < s else v + 1 for v in sc.tau.values))
    return Scenario(longer, filt, tau, price)


def certificates(sc):
    """(the price's moving dates, its NUPBR certificate in F), and the same
    for the price stopped at tau in G."""
    S, G = sc.price, enlarge(sc.filtration, sc.tau)
    stopped = stop(S, sc.tau)
    return (
        (S.moving, certify_nupbr(S, sc.filtration, sc.space)),
        (stopped.moving, certify_nupbr(stopped, G, sc.space)),
    )


def test_a_quiet_date_shifts_what_moves_and_keeps_every_verdict():
    models = [load_builtin(name) for name in BUILTINS] + [random_instance(s) for s in range(50)]
    inserted = 0
    for sc in models:
        before = certificates(sc)
        for s in range(1, sc.space.horizon + 1):

            def later(t):
                return t + 1 if t >= s else t

            after = certificates(insert_quiet_date(sc, s))
            for (moving, cert), (moving2, cert2) in zip(before, after):
                assert moving2 == {later(t) for t in moving} and s not in moving2
                assert cert2.verdict == cert.verdict
                if cert.verdict:
                    # each node of the new date s has one child, itself
                    assert all(nw.weights == (1,) for nw in cert2.node_weights if nw.time == s)
                    assert [nw for nw in cert2.node_weights if nw.time != s] == [
                        replace(nw, time=later(nw.time)) for nw in cert.node_weights
                    ]
                else:
                    arb, arb2 = cert.arbitrage, cert2.arbitrage
                    assert arb2 == replace(arb, time=later(arb.time))
            inserted += 1
    assert inserted > 100


def test_a_quiet_date_repeats_the_survival_rows():
    # the survival half of the quiet-date relation: tau' never equals s, so
    # Z', m' and D^o' repeat their row s - 1 at s (dD^o'_s = P(tau' = s |
    # F'_s) = 0) and s stays out of their moving dates, Zt'_s = P(tau' >= s
    # | F_{s-1}) = Z_{s-1}, the thin set moves one date later from s on,
    # and ]0, tau'] holds (i, s) iff tau(i) >= s, its old row s, twice
    models = [load_builtin(name) for name in BUILTINS] + [random_instance(s) for s in range(50)]
    inserted = 0
    for sc in models:
        b = azema(sc.filtration, sc.tau)
        for s in range(1, sc.space.horizon + 1):

            def later(t):
                return t + 1 if t >= s else t

            quiet = insert_quiet_date(sc, s)
            b2 = azema(quiet.filtration, quiet.tau)
            pairs = (b.Z, b2.Z), (b.m, b2.m), (b.default_compensator, b2.default_compensator)
            for X, X2 in pairs:
                assert X2.values == X.values[:s] + X.values[s - 1:]
                assert X2.moving == {later(t) for t in X.moving} == moving_scan(X2)
            zt = b.Ztilde.values
            assert b2.Ztilde.values == zt[:s] + (b.Z.values[s - 1],) + zt[s:]
            assert b2.Ztilde.moving == moving_scan(b2.Ztilde)
            # later(t) is never s, so date s holds no thin pair
            assert b2.thin_mask == {(a, later(t)) for a, t in b.thin_mask}
            assert b2.alive == b.alive[: s + 1] + b.alive[s:]
            inserted += 1
    assert inserted > 100
