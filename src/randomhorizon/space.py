"""Finite probability spaces, filtrations as refining partitions, and exact
adapted processes.

Probabilities and process values are :class:`fractions.Fraction`; every
operator here (conditional expectation, stopping, ...) is closed-form
rational arithmetic, so equality of processes is decidable and exact.

Discrete-time conventions used throughout the package:

* the time grid is ``{0, 1, ..., horizon}``,
* ``X_{t-} := X_{t-1}`` and ``dX_t := X_t - X_{t-1}`` with ``X_{0-} := X_0``
  and ``dX_0 := 0``,
* ``INF`` is a sentinel ordered strictly above every grid point; random
  times take values in the grid or ``INF``.

Exact quantities are computed once per object that owns it:
:meth:`AdaptedProcess.delta_at` reads a per-process increment table
(:attr:`AdaptedProcess.increments`) and :meth:`FiniteSpace.mass` reads a
per-space cache of block masses.  Both objects are frozen, so neither cache
can go stale.  :func:`condexp` skips zero values and never divides on an
all-zero block.

Three kernels carry every process computation of the package:

* :meth:`AdaptedProcess.from_increments` -- the running sum from 0 of a
  table of increments (compensators, dual projections, brackets, optional
  integrals); a zero increment keeps the previous cell without an addition,
* :func:`condexp_cells` -- :func:`condexp` of each component of a row of
  cells,
* :func:`first_nonconstant` -- the first atom whose cell differs from the
  cell of its block's first atom; the body of :func:`is_adapted`,
  :func:`is_predictable` and every measurability check.

A filtration built from atom names must cover every atom of the space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Sequence, Union

from .errors import InvalidProbabilities, NotAdapted, NotPredictable


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are banned in the exact engine; got %r" % (x,))
    return Fraction(x)


class _Infinity:
    """Sentinel ordered above every integer; compares equal only to itself."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("randomhorizon-inf")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


INF = _Infinity()

TimeValue = Union[int, _Infinity]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FiniteSpace:
    """Atoms with strictly positive rational probabilities and a time grid."""

    atoms: tuple
    prob: tuple
    horizon: int

    def __post_init__(self):
        atoms = tuple(self.atoms)
        prob = tuple(frac(p) for p in self.prob)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "prob", prob)
        if len(atoms) != len(set(atoms)):
            raise ValueError("atom identifiers must be unique")
        if len(prob) != len(atoms):
            raise InvalidProbabilities("one probability per atom required")
        if any(p <= 0 for p in prob):
            raise InvalidProbabilities("atom probabilities must be strictly positive")
        if sum(prob) != 1:
            raise InvalidProbabilities("atom probabilities must sum to 1 exactly")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    @property
    def n(self) -> int:
        return len(self.atoms)

    @property
    def times(self) -> range:
        return range(self.horizon + 1)

    @cached_property
    def index(self) -> dict:
        return {a: i for i, a in enumerate(self.atoms)}

    def expectation(self, values: Sequence[Fraction]) -> Fraction:
        return sum(p * v for p, v in zip(self.prob, values))

    @cached_property
    def _masses(self) -> dict:
        return {}

    def mass(self, block: tuple) -> Fraction:
        """P(block) for a tuple of atom indices, summed once per space."""
        m = self._masses.get(block)
        if m is None:
            m = self._masses[block] = sum(self.prob[i] for i in block)
        return m


def _canonical_partition(blocks, n: int):
    seen = []
    covered = set()
    for block in blocks:
        b = tuple(sorted(block))
        if not b:
            raise ValueError("empty block in partition")
        for i in b:
            if not 0 <= i < n:
                raise ValueError(f"atom index {i} out of range")
            if i in covered:
                raise ValueError(f"atom index {i} appears in two blocks")
            covered.add(i)
        seen.append(b)
    if len(covered) != n:
        raise ValueError("partition does not cover all atoms")
    return tuple(sorted(seen))


@dataclass(frozen=True)
class Filtration:
    """Refining partitions, one per grid time; blocks hold atom indices."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a filtration needs at least one time")
        n = sum(len(b) for b in self.parts[0])
        parts = tuple(_canonical_partition(p, n) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        for t in range(len(parts) - 1):
            coarse = {}
            for k, block in enumerate(parts[t]):
                for i in block:
                    coarse[i] = k
            for block in parts[t + 1]:
                owners = {coarse[i] for i in block}
                if len(owners) != 1:
                    raise ValueError(
                        f"partition at time {t + 1} does not refine time {t}"
                    )

    @property
    def horizon(self) -> int:
        return len(self.parts) - 1

    @cached_property
    def _block_of(self):
        # _block_of[t][atom] -> position of the atom's block in parts[t]
        table = []
        for t in range(len(self.parts)):
            row = [0] * sum(len(b) for b in self.parts[t])
            for k, block in enumerate(self.parts[t]):
                for i in block:
                    row[i] = k
            table.append(tuple(row))
        return tuple(table)

    def block_index(self, t: int, atom: int) -> int:
        return self._block_of[t][atom]

    def block_of(self, t: int, atom: int) -> tuple:
        return self.parts[t][self._block_of[t][atom]]

    @cached_property
    def _children(self):
        # _children[t][k] -> indices in parts[t] of the children of block k
        # of parts[t-1]; entry 0 is unused padding.
        table = [()]
        for t in range(1, len(self.parts)):
            kids = [[] for _ in self.parts[t - 1]]
            for j, block in enumerate(self.parts[t]):
                kids[self._block_of[t - 1][block[0]]].append(j)
            table.append(tuple(tuple(k) for k in kids))
        return tuple(table)

    def children(self, t: int, parent_index: int) -> tuple:
        """Indices in parts[t] of the sub-blocks of parts[t-1][parent_index]."""
        return self._children[t][parent_index]

    @staticmethod
    def from_names(blocks_per_time, space: FiniteSpace) -> "Filtration":
        idx = space.index
        parts = tuple(
            tuple(tuple(idx[a] for a in block) for block in blocks)
            for blocks in blocks_per_time
        )
        f = Filtration(parts)
        if f.horizon != space.horizon:
            raise ValueError("filtration length must match the time grid")
        if sum(len(b) for b in f.parts[0]) != space.n:
            raise ValueError("filtration must cover every atom of the space")
        return f


def condexp(values: Sequence[Fraction], blocks, space: FiniteSpace):
    """Exact conditional expectation of an atom vector given a partition.

    Returns a vector over atoms, constant on each block, equal on block B to
    sum(P(w) values(w) for w in B) / P(B).  Zero values are skipped, and a
    block whose sum is zero keeps 0 without a division.
    """
    prob = space.prob
    out = [_ZERO] * space.n
    for block in blocks:
        acc = 0
        for i in block:
            v = values[i]
            if v:
                acc += prob[i] * v
        if acc:
            avg = acc / space.mass(block)
            for i in block:
                out[i] = avg
    return tuple(out)


def condexp_cells(cells: Sequence[tuple], blocks, space: FiniteSpace) -> tuple:
    """:func:`condexp` of each component of an atom vector of cells; returns
    the conditional expectation as a tuple of cells."""
    comps = [condexp([c[k] for c in cells], blocks, space) for k in range(len(cells[0]))]
    return tuple(zip(*comps))


def first_nonconstant(row: Sequence, blocks):
    """The first atom (blocks in order) whose cell differs from the cell of
    its block's first atom, or ``None`` when the row is constant on every
    block."""
    for block in blocks:
        ref = row[block[0]]
        for i in block:
            if row[i] != ref:
                return i
    return None


@dataclass(frozen=True)
class AdaptedProcess:
    """Per-atom, per-time vector of exact rationals.

    ``values[t][atom]`` is a tuple of ``dim`` Fractions.  The ``predictable``
    flag records a claim of one-step-earlier measurability; it is verified by
    :func:`assert_predictable`, not by construction.
    """

    dim: int
    values: tuple
    predictable: bool = False

    def __post_init__(self):
        rows = tuple(
            tuple(tuple(frac(c) for c in cell) for cell in row)
            for row in self.values
        )
        object.__setattr__(self, "values", rows)
        for row in rows:
            for cell in row:
                if len(cell) != self.dim:
                    raise ValueError("cell dimension mismatch")

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def at(self, t: int, atom: int) -> tuple:
        return self.values[t][atom]

    def scalar_at(self, t: int, atom: int) -> Fraction:
        if self.dim != 1:
            raise ValueError("scalar access on a vector process")
        return self.values[t][atom][0]

    @cached_property
    def increments(self) -> tuple:
        """``increments[t][atom]`` is dX_t(atom), with dX_0 := 0.

        A cell equal to its predecessor maps to one shared zero tuple
        without a subtraction."""
        zero = (_ZERO,) * self.dim
        rows = [(zero,) * len(self.values[0])]
        for prev, now in zip(self.values, self.values[1:]):
            rows.append(
                tuple(
                    zero if a == b else tuple(x - y for x, y in zip(a, b))
                    for a, b in zip(now, prev)
                )
            )
        return tuple(rows)

    def delta_at(self, t: int, atom: int) -> tuple:
        """dX_t(atom); dX_0 := 0."""
        return self.increments[t][atom]

    def component(self, k: int) -> "AdaptedProcess":
        rows = tuple(tuple((cell[k],) for cell in row) for row in self.values)
        return AdaptedProcess(1, rows, self.predictable)

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_increments(
        dim: int, n: int, increments, predictable: bool = False
    ) -> "AdaptedProcess":
        """Running sum from 0: ``values[0]`` is zero and ``values[t]`` adds
        ``increments[t - 1][atom]`` (a ``dim``-tuple) to ``values[t - 1]``.

        An all-zero increment keeps the previous cell without an addition."""
        cells = [(_ZERO,) * dim] * n
        rows = [tuple(cells)]
        for inc in increments:
            cells = [
                tuple(a + b for a, b in zip(cell, d)) if any(d) else cell
                for cell, d in zip(cells, inc)
            ]
            rows.append(tuple(cells))
        return AdaptedProcess(dim, tuple(rows), predictable)

    @staticmethod
    def from_function(
        space: FiniteSpace,
        fn: Callable[[int, int], object],
        dim: int = 1,
        predictable: bool = False,
    ) -> "AdaptedProcess":
        """Build from fn(t, atom) returning a scalar (dim 1) or a tuple."""
        rows = []
        for t in space.times:
            row = []
            for i in range(space.n):
                v = fn(t, i)
                cell = (v,) if dim == 1 and not isinstance(v, tuple) else tuple(v)
                row.append(cell)
            rows.append(tuple(row))
        return AdaptedProcess(dim, tuple(rows), predictable)

    @staticmethod
    def from_scalar_paths(space: FiniteSpace, paths) -> "AdaptedProcess":
        """``paths[t][atom]`` is a scalar."""
        rows = tuple(tuple((v,) for v in row) for row in paths)
        return AdaptedProcess(1, rows)

    @staticmethod
    def constant(space: FiniteSpace, value, dim: int = 1) -> "AdaptedProcess":
        cell = (value,) * dim if not isinstance(value, tuple) else value
        rows = tuple(tuple(cell for _ in range(space.n)) for _ in space.times)
        return AdaptedProcess(len(cell), rows, predictable=True)

    @staticmethod
    def zero(space: FiniteSpace, dim: int = 1) -> "AdaptedProcess":
        return AdaptedProcess.constant(space, tuple(Fraction(0) for _ in range(dim)))

    # -- pointwise arithmetic -------------------------------------------

    def _zip(self, other: "AdaptedProcess", op) -> "AdaptedProcess":
        if self.dim != other.dim or self.horizon != other.horizon:
            raise ValueError("shape mismatch")
        rows = tuple(
            tuple(
                tuple(op(a, b) for a, b in zip(ca, cb))
                for ca, cb in zip(ra, rb)
            )
            for ra, rb in zip(self.values, other.values)
        )
        return AdaptedProcess(self.dim, rows)

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        rows = tuple(
            tuple(tuple(-c for c in cell) for cell in row) for row in self.values
        )
        return AdaptedProcess(self.dim, rows, self.predictable)

    def scale(self, q) -> "AdaptedProcess":
        q = frac(q)
        rows = tuple(
            tuple(tuple(q * c for c in cell) for cell in row) for row in self.values
        )
        return AdaptedProcess(self.dim, rows, self.predictable)

    def mul_scalar_process(self, scalar: "AdaptedProcess") -> "AdaptedProcess":
        """Pointwise product with a dim-1 process (broadcast over components)."""
        if scalar.dim != 1 or scalar.horizon != self.horizon:
            raise ValueError("need a scalar process on the same grid")
        rows = tuple(
            tuple(
                tuple(cs[0] * c for c in cell)
                for cell, cs in zip(row, srow)
            )
            for row, srow in zip(self.values, scalar.values)
        )
        return AdaptedProcess(self.dim, rows)


def is_adapted(X: AdaptedProcess, filt: Filtration) -> bool:
    return X.horizon == filt.horizon and all(
        first_nonconstant(row, blocks) is None
        for row, blocks in zip(X.values, filt.parts)
    )


def assert_adapted(X: AdaptedProcess, filt: Filtration, name: str = "process"):
    if not is_adapted(X, filt):
        raise NotAdapted(f"{name} is not adapted to the given filtration")


def is_predictable(X: AdaptedProcess, filt: Filtration) -> bool:
    """Constant on parts[t-1]-blocks for t >= 1 (and adapted at 0)."""
    return X.horizon == filt.horizon and all(
        first_nonconstant(row, blocks) is None
        for row, blocks in zip(X.values, filt.parts[:1] + filt.parts[:-1])
    )


def assert_predictable(X: AdaptedProcess, filt: Filtration, name: str = "process"):
    if not is_predictable(X, filt):
        raise NotPredictable(f"{name} is not predictable for the given filtration")


@dataclass(frozen=True)
class RandomTime:
    """Atom -> grid value or INF.  No measurability requirement."""

    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        for v in vals:
            if v is not INF and not isinstance(v, int):
                raise ValueError("random time values must be grid ints or INF")
        object.__setattr__(self, "values", vals)

    def at(self, atom: int) -> TimeValue:
        return self.values[atom]

    @staticmethod
    def from_mapping(mapping: Mapping[str, TimeValue], space: FiniteSpace) -> "RandomTime":
        return RandomTime(tuple(mapping[a] for a in space.atoms))

    @staticmethod
    def constant(space: FiniteSpace, value: TimeValue) -> "RandomTime":
        return RandomTime((value,) * space.n)


def check_stopping_time(time: RandomTime, filt: Filtration, space: FiniteSpace) -> bool:
    """True iff {time <= t} is a union of parts[t]-blocks for every t."""
    for t in space.times:
        for block in filt.parts[t]:
            flags = {time.at(i) <= t for i in block}
            if len(flags) > 1:
                return False
    return True


def stop(X: AdaptedProcess, sigma: RandomTime) -> AdaptedProcess:
    """Stopped process X^sigma(w, t) = X(w, min(t, sigma(w)))."""
    rows = []
    for t in range(X.horizon + 1):
        row = []
        for i in range(len(X.values[0])):
            s = sigma.at(i)
            u = t if t <= s else s
            row.append(X.values[u][i])
        rows.append(tuple(row))
    return AdaptedProcess(X.dim, tuple(rows))
