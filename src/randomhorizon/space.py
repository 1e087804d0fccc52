"""Finite probability spaces, filtrations as refining partitions, and exact
adapted processes.

Probabilities and process values are :class:`fractions.Fraction`; every
operator here (conditional expectation, stopping, ...) is closed-form
rational arithmetic, so equality of processes is decidable and exact.  The
hot kernels run on integer numerators: :attr:`FiniteSpace.scaled` holds
the probabilities as ints ``P`` over one common denominator ``D``, and
:func:`weighted_sum` adds ``P[i] * v_i`` as one int numerator over a
running common denominator, so :func:`condexp`,
:meth:`FiniteSpace.expectation` and the node drifts of
:mod:`projections` build a single Fraction per block or node.  Python
ints have arbitrary precision, so every result is the exact value a
Fraction computation gives, and every value a kernel returns is a
Fraction.

Discrete-time conventions used throughout the package:

* the time grid is ``{0, 1, ..., horizon}``,
* ``X_{t-} := X_{t-1}`` and ``dX_t := X_t - X_{t-1}`` with ``X_{0-} := X_0``
  and ``dX_0 := 0``,
* ``INF`` is a sentinel ordered strictly above every grid point; random
  times take values in the grid or ``INF``.

Exact quantities are computed once per object that owns it:
:meth:`AdaptedProcess.delta_at` reads a per-process increment table
(:attr:`AdaptedProcess.increments`) and :meth:`FiniteSpace.mass` reads a
per-space cache of block masses (int and Fraction together).  Both objects
are frozen, so neither cache can go stale.  :func:`condexp` skips zero
values and never divides on an all-zero block.  Processes built from
increments (:meth:`AdaptedProcess.from_increments`, :func:`stop`, sums and
differences) receive their increment table with their values, so it is
never rebuilt by subtraction.

Three kernels carry every process computation of the package, and one
walk visits every one-period node:

* :meth:`AdaptedProcess.from_increments` -- the running sum from 0 of a
  table of increments (compensators, dual projections, brackets, optional
  integrals); a zero increment keeps the previous cell without an addition,
* :func:`condexp_cells` -- :func:`condexp` of each component of a row of
  cells,
* :func:`first_nonconstant` -- the first atom whose cell differs from the
  cell of its block's first atom; the body of :func:`is_adapted`,
  :func:`is_predictable` and every measurability check,
* :meth:`Filtration.nodes` -- each ``parts[t-1]`` block with its children,
  or only those of positive mass under atom weights; every node-wise test.

A filtration built from atom names must cover every atom of the space.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Optional, Sequence, Union

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
        D, P = self.scaled
        num, den = weighted_sum(P, values, range(self.n))
        return Fraction(num, den * D)

    @cached_property
    def scaled(self) -> tuple:
        """``(D, P)``: ``D`` the least common denominator of the atom
        probabilities and ``P`` the tuple of ints with ``prob[i] == P[i] / D``."""
        d = lcm(*(p.denominator for p in self.prob))
        return d, tuple(p.numerator * (d // p.denominator) for p in self.prob)

    @cached_property
    def _masses(self) -> dict:
        return {}

    def block_mass(self, block: tuple) -> tuple:
        """``(P_B, P(B))`` for a tuple of atom indices: the int
        ``sum(P[i] for i in block)`` over ``D`` (see :attr:`scaled`) and the
        Fraction ``P_B / D``, computed once per space."""
        m = self._masses.get(block)
        if m is None:
            d, P = self.scaled
            pb = sum(P[i] for i in block)
            m = self._masses[block] = (pb, Fraction(pb, d))
        return m

    def mass(self, block: tuple) -> Fraction:
        """P(block) for a tuple of atom indices, summed once per space."""
        return self.block_mass(block)[1]


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

    def nodes(self, t: int, w=None):
        """``(parent, children)`` per block of ``parts[t-1]``, in order; under
        nonnegative atom weights ``w`` only the blocks of positive mass, i.e.
        with some nonzero weight."""
        blocks = self.parts[t]
        for parent, kids in zip(self.parts[t - 1], self._children[t]):
            if w is not None and not any(w[i] for i in parent):
                continue
            children = [blocks[j] for j in kids]
            if w is not None:
                children = [c for c in children if any(w[i] for i in c)]
            yield parent, children

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


def weighted_sum(weights: Sequence[int], values: Sequence, block) -> tuple:
    """``(num, den)`` with ``num / den == sum(weights[i] * values[i] for i in
    block)`` for int ``weights`` and int or Fraction ``values``.

    The sum runs on one integer numerator over a running common denominator
    (the least common multiple of the denominators met), so no Fraction is
    built; atoms with a zero value or a zero weight are skipped."""
    num, den = 0, 1
    for i in block:
        v = values[i]
        n = v.numerator
        if n and weights[i]:
            d = v.denominator
            if d == den:
                num += weights[i] * n
            elif den % d == 0:
                num += weights[i] * n * (den // d)
            else:
                g = gcd(den, d)
                num = num * (d // g) + weights[i] * n * (den // g)
                den *= d // g
    return num, den


def condexp(values: Sequence[Fraction], blocks, space: FiniteSpace):
    """Exact conditional expectation of an atom vector given a partition.

    Returns a vector over atoms, constant on each block, equal on block B to
    sum(P(w) values(w) for w in B) / P(B).  Values may be ints or Fractions;
    each block sums ``P[i] * values[i]`` as :func:`weighted_sum` and builds
    a single Fraction ``num / (den * P_B)`` (the common denominator D of
    ``prob`` cancels).  A block whose sum is zero keeps 0 without a division.
    """
    P = space.scaled[1]
    out = [_ZERO] * space.n
    for block in blocks:
        num, den = weighted_sum(P, values, block)
        if num:
            avg = Fraction(num, den * space.block_mass(block)[0])
            for i in block:
                out[i] = avg
    return tuple(out)


def condexp_cells(cells: Sequence[tuple], blocks, space: FiniteSpace) -> tuple:
    """:func:`condexp` of each component of an atom vector of cells; returns
    the conditional expectation as a tuple of cells, one cell object shared
    by the atoms of each block."""
    comps = [condexp(col, blocks, space) for col in zip(*cells)]
    out = [None] * len(cells)
    for block in blocks:
        cell = tuple(c[block[0]] for c in comps)
        for i in block:
            out[i] = cell
    return tuple(out)


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

    ``values[t][atom]`` is a tuple of ``dim`` Fractions.  A process carries
    no measurability claim: :func:`is_adapted` and :func:`is_predictable`
    decide it against a filtration.
    """

    dim: int
    values: tuple

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

    @classmethod
    def _trusted(
        cls, dim: int, rows: tuple, increments: Optional[tuple] = None
    ) -> "AdaptedProcess":
        """Internal constructor for rows that are already tuples of
        ``dim``-tuples of Fractions (results of Fraction arithmetic or cells
        of existing processes): skips the coercion of ``__post_init__``.
        ``increments``, when given, is the exact :attr:`increments` table of
        ``rows`` and fills that cache."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "values", rows)
        if increments is not None:
            self.__dict__["increments"] = increments
        return self

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

        A cell equal to (or the same object as) its predecessor maps to one
        shared zero tuple without a subtraction."""
        zero = (_ZERO,) * self.dim
        rows = [(zero,) * len(self.values[0])]
        for prev, now in zip(self.values, self.values[1:]):
            rows.append(
                tuple(
                    zero if a is b or a == b else tuple(x - y for x, y in zip(a, b))
                    for a, b in zip(now, prev)
                )
            )
        return tuple(rows)

    def delta_at(self, t: int, atom: int) -> tuple:
        """dX_t(atom); dX_0 := 0."""
        return self.increments[t][atom]

    def component(self, k: int) -> "AdaptedProcess":
        rows = tuple(tuple((cell[k],) for cell in row) for row in self.values)
        return AdaptedProcess._trusted(1, rows)

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_increments(dim: int, n: int, increments) -> "AdaptedProcess":
        """Running sum from 0: ``values[0]`` is zero and ``values[t]`` adds
        ``increments[t - 1][atom]`` (a ``dim``-tuple of Fractions) to
        ``values[t - 1]``.

        An all-zero increment keeps the previous cell without an addition.
        The increments also fill the :attr:`increments` table of the result,
        so it is never rebuilt by subtraction."""
        zero = (_ZERO,) * dim
        cells = (zero,) * n
        rows, table = [cells], [cells]
        for inc in increments:
            # atoms that share both their cell and their increment object
            # (a block of a conditional expectation) share one sum
            sums = {}
            row, dx = [], []
            for cell, d in zip(cells, inc):
                if not any(d):
                    row.append(cell)
                    dx.append(zero)
                    continue
                key = (id(cell), id(d))
                total = sums.get(key)
                if total is None:
                    total = sums[key] = tuple(map(operator.add, cell, d))
                row.append(total)
                dx.append(tuple(d))
            cells = tuple(row)
            rows.append(cells)
            table.append(tuple(dx))
        return AdaptedProcess._trusted(dim, tuple(rows), tuple(table))

    @staticmethod
    def from_function(
        space: FiniteSpace, fn: Callable[[int, int], object], dim: int = 1
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
        return AdaptedProcess(dim, tuple(rows))

    @staticmethod
    def from_scalar_paths(paths) -> "AdaptedProcess":
        """``paths[t][atom]`` is a scalar."""
        rows = tuple(tuple((frac(v),) for v in row) for row in paths)
        return AdaptedProcess._trusted(1, rows)

    @staticmethod
    def constant(space: FiniteSpace, value, dim: int = 1) -> "AdaptedProcess":
        cell = (value,) * dim if not isinstance(value, tuple) else value
        rows = tuple(tuple(cell for _ in range(space.n)) for _ in space.times)
        return AdaptedProcess(len(cell), rows)

    @staticmethod
    def zero(space: FiniteSpace, dim: int = 1) -> "AdaptedProcess":
        return AdaptedProcess.constant(space, tuple(Fraction(0) for _ in range(dim)))

    # -- pointwise arithmetic -------------------------------------------

    def _zip(self, other: "AdaptedProcess", op) -> "AdaptedProcess":
        """``op`` (``operator.add`` or ``operator.sub``) cell by cell.  A zero
        cell of ``other`` keeps this process's cell without arithmetic, and,
        ``op`` being linear, the increment tables map to the result's."""
        if self.dim != other.dim or self.horizon != other.horizon:
            raise ValueError("shape mismatch")

        def apply(rows_a, rows_b):
            return tuple(
                tuple(
                    tuple(map(op, ca, cb)) if any(cb) else ca
                    for ca, cb in zip(ra, rb)
                )
                for ra, rb in zip(rows_a, rows_b)
            )

        return AdaptedProcess._trusted(
            self.dim,
            apply(self.values, other.values),
            apply(self.increments, other.increments),
        )

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __neg__(self):
        rows = tuple(
            tuple(tuple(-c for c in cell) for cell in row) for row in self.values
        )
        return AdaptedProcess._trusted(self.dim, rows)

    def scale(self, q) -> "AdaptedProcess":
        q = frac(q)
        rows = tuple(
            tuple(tuple(q * c for c in cell) for cell in row) for row in self.values
        )
        return AdaptedProcess._trusted(self.dim, rows)

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
        return AdaptedProcess._trusted(self.dim, rows)


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
    """Stopped process X^sigma(w, t) = X(w, min(t, sigma(w))).

    Its increment table is read off X's: dX^sigma_t = dX_t up to sigma, 0
    after."""
    zero = X.increments[0][0]
    rows, table = [], []
    for t, inc in enumerate(X.increments):
        row, dx = [], []
        for i, d in enumerate(inc):
            s = sigma.at(i)
            if t <= s:
                row.append(X.values[t][i])
                dx.append(d)
            else:
                row.append(X.values[s][i])
                dx.append(zero)
        rows.append(tuple(row))
        table.append(tuple(dx))
    return AdaptedProcess._trusted(X.dim, tuple(rows), tuple(table))
