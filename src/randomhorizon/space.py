"""Finite probability spaces, filtrations as refining partitions, and exact
adapted processes.

Probabilities and process values are :class:`~randomhorizon.rational.Q`,
the package's one exact rational type (a :class:`fractions.Fraction` whose
operators run in one frame); every operator here (conditional expectation, stopping, ...) is closed-form
rational arithmetic, so equality of processes is decidable and exact.  The
hot kernels run on integer numerators: :attr:`FiniteSpace.scaled` holds
the probabilities as ints ``P`` over one common denominator ``D``, and
:func:`weighted_sum` adds ``P[i] * v_i`` as one int numerator over a
running common denominator, so :func:`condexp_cells`,
:meth:`FiniteSpace.expectation` and the node drifts of :mod:`projections`
build a single ``Q`` per block or node and component.  Python ints have
arbitrary precision, so every result is the exact value a Fraction
computation gives, and every value a kernel returns is a ``Q``.

Discrete-time conventions used throughout the package:

* the time grid is ``{0, 1, ..., horizon}``,
* ``X_{t-} := X_{t-1}`` and ``dX_t := X_t - X_{t-1}`` with ``X_{0-} := X_0``
  and ``dX_0 := 0``,
* ``INF`` is a sentinel ordered strictly above every grid point; random
  times take values in the grid or ``INF``,
* a date or an atom index is an ``int`` (not a ``bool``) in its range, and
  :func:`check_date` is the one test of it: ``{0, ..., horizon}`` for
  :func:`condexp`, :func:`condexp_cells` and :meth:`AdaptedProcess.at`,
  ``{1, ..., horizon}`` for :meth:`Filtration.nodes` and a jump date, and
  ``{0, ..., n - 1}`` for an atom, in the checked accessors and in each
  block of a :class:`Filtration` alike.  Anything else is a ``ValueError``,
  never a wrapped index, a ``True`` read as 1 or a bare ``TypeError``,
* a random time fits a space when it has one value per atom and every
  finite value on the grid (:func:`check_fits`).

The checked accessors :meth:`AdaptedProcess.at`,
:meth:`AdaptedProcess.scalar_at`, :meth:`AdaptedProcess.delta_at` and
:meth:`RandomTime.at` are the read API for callers outside the engine; the
engine indexes ``values`` and ``increments`` itself, so no check runs per
atom on its paths.

Conditional expectation is asked of a filtration at a date:
``condexp_cells(cells, filt, t)`` is E[cells | F_t], read off the blocks of
``filt.parts[t]`` and P of ``filt.space``, so no caller can hand it a block
list that does not partition the space; :func:`condexp` is its scalar
entry point.  It runs once per block.  A block whose atoms hold one cell
object, a singleton block or a node of a row that is measurable already,
returns that object: its mean over the block is the cell itself, exactly,
so no arithmetic runs and the object stays shared downstream.  Only a
block of distinct cells sums its components.

Exact quantities are computed once per object that owns it: the
per-process increment table :attr:`AdaptedProcess.increments` with its
moving dates :attr:`AdaptedProcess.moving`, and the per-filtration table
of block masses :attr:`Filtration.masses`, ints over ``D``, which
:func:`condexp_cells` reads.  Both objects are frozen, so neither cache can
go stale.  :func:`condexp_cells` skips zero values and never divides on an
all-zero block.  Processes built from increments
(:meth:`AdaptedProcess.from_increments`, :func:`stop`, sums and
differences) receive their increment table with their values, so it is
never rebuilt by subtraction.  A builder that knows which dates move says
so: the readers of :attr:`AdaptedProcess.moving` (the measurability
checks, the node drifts, the NUPBR certificate) never scan a quiet row.

Atoms of one node share one cell.  A row of ``values`` is indexed by atom,
but an adapted process repeats one value over each block, and the
constructors hand those atoms one cell object: :func:`condexp` and
:func:`condexp_cells` one per block (the input's own cell when the block
shares one), :meth:`AdaptedProcess.from_increments` one per pair of
previous cell and increment,
:meth:`AdaptedProcess.from_scalar_paths` one per source object, and the
increment table :attr:`AdaptedProcess.increments` one per pair of cell and
previous cell.  The cell maps compute once per cell object, not per atom:
:func:`map_cells` (components, negation) once per distinct cell,
:func:`zip_cells` (sums, differences, products, increments) once per
distinct pair, and :func:`zip_row` (a body that reads three or more
inputs, or runs row by row) once per distinct tuple of objects.  So the
sharing holds end to end: the per-atom arithmetic of the transfer
formulas, the deflator construction and the theorem suite runs once per
node.  A memo is keyed by the ``id`` of every input its body reads, is
local to one call, and every key is an object of the caller's tables,
alive for the whole call; a self-check run through it is decided on every
distinct input and raises at the same first atom as an atom-by-atom loop.
Nothing relies on the sharing for correctness: a process whose atoms carry
equal but distinct cells gives the same values, only with more arithmetic.

Three kernels carry every process computation of the package, and one
walk visits every one-period node:

* :meth:`AdaptedProcess.from_increments` -- the running sum from 0 of a
  table of increments (compensators, dual projections, brackets, optional
  integrals); a zero increment keeps the previous cell without an addition,
* :func:`condexp_cells` -- E[row | F_t] once per block of
  ``filt.parts[t]``: a block that shares one cell object returns it, any
  other sums its components; :func:`condexp` is its scalar entry point,
* :func:`first_nonconstant` -- the first atom whose cell differs from the
  cell of its block's first atom; the body of :func:`is_adapted`,
  :func:`is_predictable`, :func:`check_stopping_time` and every
  measurability check,
* :meth:`Filtration.nodes` -- each ``parts[t-1]`` block with its children,
  or only those of positive mass under atom weights; every node-wise test.
  The children table is built once, by the pass that checks refinement,
  or, for the enlargement, by :func:`enlargement.enlarge` as it splits.

A :class:`Filtration` carries its :class:`FiniteSpace` and covers every
atom of it, so no function that takes a filtration also takes the space.

A process reads its shape off its cells: ``AdaptedProcess(values)``,
``AdaptedProcess._trusted(rows)`` and
:meth:`AdaptedProcess.from_increments` take no dimension and no atom
count, and ``dim`` is the length of the first cell.  One shape rule holds
wherever a process meets something it must fit: one row per date, one
cell per atom, one length per cell and one weight per atom.  The public
constructor and :meth:`AdaptedProcess.from_scalar_paths` check their rows
(:func:`table_shape`), ``from_increments`` each row and each new sum,
:func:`check_shape` a process against the space of a filtration (behind
:func:`is_adapted`, :func:`is_predictable` and the node drifts of
:mod:`projections`), :func:`condexp_cells` a row against the space and
its cells against one length, :meth:`FiniteSpace.expectation` a vector
against the space, and sums, differences and brackets one process
against the other.  A mismatch is a ``ValueError``, never a
truncated result.  Only rows the engine built itself enter through
``_trusted`` unchecked, so :func:`check_shape` needs to test row 0 alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .errors import InvalidProbabilities, NotAdapted, NotPredictable
from .rational import Q


def frac(x) -> Q:
    """Coerce ints, strings like '3/4', and Fractions to ``Q``; a ``Q`` is
    returned unchanged."""
    if type(x) is Q:
        return x
    if isinstance(x, float):
        raise TypeError("floats are banned in the exact engine; got %r" % (x,))
    return Q(x)


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

_ZERO = Q(0)


def check_date(t, lo: int, hi: int, what: str = "date") -> int:
    """``t`` when it is an ``int``, not a ``bool``, with ``lo <= t <= hi``;
    else ``ValueError``.  The one test of a date or an atom index."""
    if isinstance(t, bool) or not isinstance(t, int) or not lo <= t <= hi:
        raise ValueError(f"{what} must lie in {{{lo}, ..., {hi}}}, got {t!r}")
    return t


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
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, int):
            raise ValueError("horizon must be an int")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    @cached_property
    def n(self) -> int:
        return len(self.atoms)

    @property
    def times(self) -> range:
        return range(self.horizon + 1)

    @cached_property
    def index(self) -> dict:
        return {a: i for i, a in enumerate(self.atoms)}

    def expectation(self, values: Sequence[Q]) -> Q:
        """E[values] for an atom vector; ``ValueError`` unless it has one
        value per atom."""
        if len(values) != self.n:
            raise ValueError("one value per atom required")
        D, P = self.scaled
        num, den = weighted_sum(P, values, range(self.n))
        return Q(num, den * D)

    @cached_property
    def scaled(self) -> tuple:
        """``(D, P)``: ``D`` the least common denominator of the atom
        probabilities and ``P`` the tuple of ints with ``prob[i] == P[i] / D``."""
        d = lcm(*(p.denominator for p in self.prob))
        return d, tuple(p.numerator * (d // p.denominator) for p in self.prob)


def _members(x, what: str):
    """An iterator over ``x``; ``ValueError`` saying ``what`` it must be
    when ``x`` is not a collection."""
    try:
        return iter(x)
    except TypeError:
        raise ValueError(f"{what}, got {x!r}") from None


def _canonical_partition(blocks, n: int, t: int):
    """The blocks of the partition at time ``t`` as sorted tuples of atom
    indices, in sorted order; an index that is not an int in range goes to
    :func:`check_date` for its message."""
    seen = []
    covered = set()
    what, where = f"atom index at time {t}", f"partition at time {t}"
    not_block = f"a block of the {where} must be a collection of atom indices"
    for block in _members(blocks, f"the {where} must be a collection of blocks"):
        b = tuple(sorted([
            i if type(i) is int and 0 <= i < n else check_date(i, 0, n - 1, what)
            for i in _members(block, not_block)
        ]))
        if not b:
            raise ValueError(f"empty block in {where}")
        for i in b:
            if i in covered:
                raise ValueError(f"atom index {i} appears in two blocks of the {where}")
            covered.add(i)
        seen.append(b)
    if len(covered) != n:
        raise ValueError(f"the {where} does not cover every atom of the space")
    return tuple(sorted(seen))


@dataclass(frozen=True)
class Filtration:
    """Refining partitions of the atoms of ``space``, one per grid time;
    blocks hold atom indices.  The pass that checks refinement also
    records, per block of ``parts[t-1]``, its children in ``parts[t]``: the
    table behind :meth:`nodes`.

    :meth:`_trusted` is the unchecked twin of the constructor, as
    :meth:`AdaptedProcess._trusted` is of the process's: it takes parts
    that are canonical already and their children table.  Only
    :func:`enlargement.enlarge` calls it, since only the enlargement is
    built by the engine from a checked filtration, block by block in
    canonical order; every other filtration, a parsed one included, goes
    through every check of the constructor."""

    parts: tuple
    space: FiniteSpace

    def __post_init__(self):
        if len(self.parts) != self.space.horizon + 1:
            raise ValueError("filtration length must match the time grid")
        n = self.space.n
        parts = tuple(_canonical_partition(p, n, t) for t, p in enumerate(self.parts))
        object.__setattr__(self, "parts", parts)
        # children[t][k] -> the blocks of parts[t] inside block k of
        # parts[t-1]; entry 0 is unused padding
        children = [()]
        for t in range(1, len(parts)):
            owner = {i: k for k, block in enumerate(parts[t - 1]) for i in block}
            kids = [[] for _ in parts[t - 1]]
            for block in parts[t]:
                owners = {owner[i] for i in block}
                if len(owners) != 1:
                    raise ValueError(f"partition at time {t} does not refine time {t - 1}")
                kids[owners.pop()].append(block)
            children.append(tuple(map(tuple, kids)))
        object.__setattr__(self, "_children", tuple(children))

    @classmethod
    def _trusted(cls, base: "Filtration", parts: tuple, children: tuple) -> "Filtration":
        """The filtration on the space of ``base`` whose ``parts`` are
        canonical (sorted tuples of atom indices, in sorted order) and
        refining, with ``children`` its table behind :meth:`nodes`; nothing
        is sorted, checked or derived again."""
        self = object.__new__(cls)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "space", base.space)
        object.__setattr__(self, "_children", children)
        return self

    def nodes(self, t: int, w=None):
        """An iterator of ``(parent, children)`` per block of ``parts[t-1]``,
        in order; under nonnegative atom weights ``w`` only the blocks of
        positive mass, i.e. with some nonzero weight.  ``ValueError`` at
        once unless ``1 <= t <= horizon``."""
        pairs = zip(self.parts[check_date(t, 1, self.space.horizon) - 1], self._children[t])
        return (
            (parent, list(kids) if w is None else [c for c in kids if any(w[i] for i in c)])
            for parent, kids in pairs
            if w is None or any(w[i] for i in parent)
        )

    @cached_property
    def masses(self) -> tuple:
        """``masses[t][k]`` is P(B) for block B = ``parts[t][k]``, as the int
        ``sum(P[i] for i in B)`` over ``D`` (see :attr:`FiniteSpace.scaled`),
        computed once per filtration."""
        P = self.space.scaled[1]
        return tuple(tuple(sum(P[i] for i in block) for block in blocks) for blocks in self.parts)

    @staticmethod
    def from_names(blocks_per_time, space: FiniteSpace) -> "Filtration":
        """The filtration whose blocks list atom names; ``ValueError`` on a
        name that is not an atom of ``space``."""
        idx = space.index
        parts = []
        for t, blocks in enumerate(blocks_per_time):
            try:
                parts.append(tuple(tuple(idx[a] for a in block) for block in blocks))
            except KeyError as exc:
                msg = f"unknown atom {exc.args[0]!r} in the partition at time {t}"
                raise ValueError(msg) from None
        return Filtration(tuple(parts), space)


def weighted_sum(weights: Sequence[int], values: Sequence, block) -> tuple:
    """``(num, den)`` with ``num / den == sum(weights[i] * values[i] for i in
    block)`` for int ``weights`` and int or rational ``values``.

    The sum runs on one integer numerator over a running common denominator
    (the least common multiple of the denominators met), so no rational is
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


_QSET = frozenset((Q,))


def condexp(values: Sequence[Q], filt: Filtration, t: int):
    """Exact conditional expectation E[values | F_t] of an atom vector of
    ints or rationals: a tuple of ``Q`` over atoms, constant on each block
    of ``filt.parts[t]``, equal on block B to sum(P(w) values(w) for w in
    B) / P(B).

    The scalar entry point of :func:`condexp_cells`, which it calls on the
    row with one one-component cell per distinct value object, so a block
    whose atoms share one value object returns that value (as a ``Q``)
    without arithmetic.  ``ValueError`` as :func:`condexp_cells`: unless
    ``t`` is a date and ``values`` has one value per atom."""
    cells = map_cells((values,), lambda v: (v,))[0]
    return tuple(cell[0] for cell in condexp_cells(cells, filt, t))


def condexp_cells(cells: Sequence[tuple], filt: Filtration, t: int) -> tuple:
    """E[cells | F_t] of an atom vector of cells, computed once per block
    of ``filt.parts[t]``; the atoms of a block share one cell object.

    A block whose atoms all hold one cell object (a singleton block, or a
    node of a row that is already F_t-measurable) returns that object: the
    mean over B of a value constant on B is that value, P(B) v / P(B) = v,
    so no arithmetic runs and the result is exact; the cell is coerced to
    ``Q`` only when some component is not one.  Any other block sums each
    component as :func:`weighted_sum` of ``P[i] * cell_i[k]`` over B and
    builds one ``Q`` ``num / (den * P_B)`` per nonzero sum, with ``P_B``
    read from :attr:`Filtration.masses` (the common denominator D of
    ``prob`` cancels); a block whose sums are all zero gets the call's one
    zero cell, without a division.  ``ValueError`` unless ``t`` is a date
    (:func:`check_date`; a negative date would index the terminal
    partition), the row has one cell per atom and every cell one length."""
    space = filt.space
    check_date(t, 0, space.horizon)
    if len(cells) != space.n:
        raise ValueError("one value per atom required")
    if len(set(map(len, cells))) != 1:
        raise ValueError("cell dimension mismatch")
    P = space.scaled[1]
    zero = (_ZERO,) * len(cells[0])
    get = cells.__getitem__
    # a block that shares a cell of Q values keeps it, so only the other
    # blocks are written; the components are transposed once, in C, and
    # only when some block is mixed
    out, cols = list(cells), None
    for block, mass in zip(filt.parts[t], filt.masses[t]):
        cell = get(block[0])
        if len(block) == 1 or all(map(operator.is_, map(get, block), repeat(cell))):
            if _QSET.issuperset(map(type, cell)):
                continue
            cell = tuple(map(frac, cell))
        else:
            if cols is None:
                cols = tuple(zip(*cells))
            sums = [weighted_sum(P, col, block) for col in cols]
            cell = (
                tuple([Q(num, den * mass) if num else _ZERO for num, den in sums])
                if any([num for num, _ in sums])
                else zero
            )
        for i in block:
            out[i] = cell
    return tuple(out)


def map_cells(rows, fn) -> tuple:
    """``fn(cell)`` at every (t, atom) of a table of cells (or of scalars),
    computed once per distinct object: the atoms of one node, which share
    their cell, share the result.

    The memo is keyed by ``id`` and local to the call; the table is the
    caller's, so every keyed cell stays alive for the whole call."""
    memo = {}
    out = []
    for cells in rows:
        row = []
        for cell in cells:
            c = memo.get(id(cell))
            if c is None:
                c = memo[id(cell)] = fn(cell)
            row.append(c)
        out.append(tuple(row))
    return tuple(out)


def zip_cells(rows_a, rows_b, fn) -> tuple:
    """``fn(ca, cb)`` at every (t, atom) of two tables of cells, computed
    once per distinct pair of cell objects, keyed as :func:`map_cells`
    keys."""
    memo = {}
    out = []
    for ra, rb in zip(rows_a, rows_b):
        row = []
        for ca, cb in zip(ra, rb):
            key = (id(ca), id(cb))
            c = memo.get(key)
            if c is None:
                c = memo[key] = fn(ca, cb)
            row.append(c)
        out.append(tuple(row))
    return tuple(out)


def zip_row(fn, *rows) -> tuple:
    """``fn(*objs)`` at every atom of equal-length rows (cells, scalars or
    flags, one per atom), computed once per distinct tuple of objects and
    keyed as :func:`map_cells` keys: the map of a body that reads three or
    more inputs, or that runs row by row.  Atoms are visited in order, so
    a ``fn`` that raises raises at the first atom whose inputs make it
    raise.  A ``None`` result is not memoised, so ``fn`` returns a value
    even when it only checks."""
    memo = {}
    out = []
    for objs in zip(*rows):
        key = tuple(map(id, objs))
        c = memo.get(key)
        if c is None:
            c = memo[key] = fn(*objs)
        out.append(c)
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


def table_shape(rows) -> tuple:
    """``(atoms, dim)`` of a table of cells; ``ValueError`` unless it has a
    row and an atom, every row one cell per atom and every cell one
    length."""
    if not rows or not rows[0]:
        raise ValueError("a process needs at least one date and one atom")
    n, dim = len(rows[0]), len(rows[0][0])
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged rows: one cell per atom required")
        if any(len(cell) != dim for cell in row):
            raise ValueError("cell dimension mismatch")
    return n, dim


@dataclass(frozen=True)
class AdaptedProcess:
    """Per-atom, per-time vector of exact rationals.

    ``values[t][atom]`` is a tuple of ``dim`` ``Q`` values, and the shape is
    read off the cells: one row per date, one cell per atom, one length
    ``dim`` per cell (:func:`table_shape`; ``ValueError`` otherwise).  A
    process carries no measurability claim: :func:`is_adapted` and
    :func:`is_predictable` decide it against a filtration.
    """

    values: tuple

    def __post_init__(self):
        rows = tuple(
            tuple(tuple(frac(c) for c in cell) for cell in row)
            for row in self.values
        )
        object.__setattr__(self, "values", rows)
        table_shape(rows)

    @classmethod
    def _trusted(
        cls, rows: tuple, increments: Optional[tuple] = None, moving: Optional[frozenset] = None
    ) -> "AdaptedProcess":
        """Internal constructor for rows that are already tuples of tuples of
        ``Q`` values of one shape (results of ``Q`` arithmetic or cells of
        existing processes): skips the coercion and the shape check of
        ``__post_init__``.  ``increments``, when given, is the exact
        :attr:`increments` table of ``rows`` and ``moving``, given with it,
        its :attr:`moving` dates; the two fill their caches together."""
        self = object.__new__(cls)
        object.__setattr__(self, "values", rows)
        if increments is not None:
            self.__dict__["increments"] = increments
            self.__dict__["moving"] = moving
        return self

    @property
    def dim(self) -> int:
        return len(self.values[0][0])

    @property
    def shape(self) -> tuple:
        """``(dates, atoms, dim)``."""
        return len(self.values), len(self.values[0]), self.dim

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def at(self, t: int, atom: int) -> tuple:
        """The cell at date ``t`` and atom index ``atom``; ``ValueError``
        unless both lie in range (:func:`check_date`)."""
        row = self.values[check_date(t, 0, self.horizon)]
        return row[check_date(atom, 0, len(row) - 1, "atom")]

    def scalar_at(self, t: int, atom: int) -> Q:
        cell = self.at(t, atom)
        if len(cell) != 1:
            raise ValueError("scalar access on a vector process")
        return cell[0]

    @cached_property
    def increments(self) -> tuple:
        """``increments[t][atom]`` is dX_t(atom), with dX_0 := 0.

        One subtraction per distinct pair of cell and previous cell
        (:func:`zip_cells`), so the atoms of a node share their increment;
        a cell equal to (or the same object as) its predecessor maps to one
        shared zero tuple without a subtraction."""
        zero = (_ZERO,) * self.dim

        def delta(now, prev):
            return zero if now is prev or now == prev else tuple(map(operator.sub, now, prev))

        first = (zero,) * len(self.values[0])
        return (first,) + zip_cells(self.values[1:], self.values, delta)

    @cached_property
    def moving(self) -> frozenset:
        """The dates t >= 1 whose increment row is not all zero, i.e. where
        X_t differs from X_{t-1} at some atom.  A builder that hands its
        increment table to :meth:`_trusted` says which dates move; any
        other process compares its rows, up to the first atom that moved
        (a shared cell compares by identity), without building
        :attr:`increments`."""
        return _moved(self.values)

    def delta_at(self, t: int, atom: int) -> tuple:
        """dX_t(atom); dX_0 := 0.  Checked as :meth:`at`."""
        self.at(t, atom)
        return self.increments[t][atom]

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_increments(increments) -> "AdaptedProcess":
        """Running sum from 0: ``values[0]`` is zero and ``values[t]`` adds
        ``increments[t - 1][atom]`` (a tuple of ``Q`` values) to
        ``values[t - 1]``.  The atoms and the dimension are read off the
        first increment row; ``ValueError`` on a row of another length or a
        nonzero increment of another dimension.

        An all-zero increment keeps the previous cell without an addition.
        The increments also fill the :attr:`increments` table of the result,
        so it is never rebuilt by subtraction, and a date moves iff its row
        made a sum (:attr:`moving`)."""
        if not increments or not increments[0]:
            raise ValueError("increments need at least one row and one atom")
        n, dim = len(increments[0]), len(increments[0][0])
        zero = (_ZERO,) * dim
        cells = (zero,) * n
        rows, table, moving = [cells], [cells], set()
        for t, inc in enumerate(increments, 1):
            if len(inc) != n:
                raise ValueError("ragged rows: one cell per atom required")
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
                    if len(d) != dim:
                        raise ValueError("cell dimension mismatch")
                    total = sums[key] = tuple(map(operator.add, cell, d))
                row.append(total)
                dx.append(tuple(d))
            if sums:
                moving.add(t)
            cells = tuple(row)
            rows.append(cells)
            table.append(tuple(dx))
        return AdaptedProcess._trusted(tuple(rows), tuple(table), frozenset(moving))

    @staticmethod
    def from_scalar_paths(paths) -> "AdaptedProcess":
        """``paths[t][atom]`` is a scalar; each distinct source object is
        coerced (:func:`frac`) once, and the atoms that carry it share one
        cell.  The rows built pass the shape rule (:func:`table_shape`):
        ``ValueError`` on no row or on ragged rows.

        :func:`map_cells` keys its memo by the sources, which the call
        copies into its own table and so keeps alive: a source a generator
        hands over (a string, a Fraction) would otherwise be freed once
        read, and a later one could reuse its address and its cell."""
        sources = [tuple(row) for row in paths]
        rows = map_cells(sources, lambda v: (frac(v),))
        table_shape(rows)
        return AdaptedProcess._trusted(rows)

    # -- pointwise arithmetic -------------------------------------------

    def _zip(self, other: "AdaptedProcess", op) -> "AdaptedProcess":
        """``op`` (``operator.add`` or ``operator.sub``) cell by cell.  A zero
        cell of ``other`` keeps this process's cell without arithmetic, and,
        ``op`` being linear, the increment tables map to the result's.  The
        result moves wherever exactly one operand moves, and only a date
        where both move can cancel, so only such a row is scanned."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch")

        def cell(ca, cb):
            return tuple(map(op, ca, cb)) if any(cb) else ca

        table = zip_cells(self.increments, other.increments, cell)
        both = self.moving & other.moving
        return AdaptedProcess._trusted(
            zip_cells(self.values, other.values, cell),
            table,
            (self.moving ^ other.moving).union(t for t in both if any(map(any, table[t]))),
        )

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __neg__(self):
        rows = map_cells(self.values, lambda cell: tuple(-c for c in cell))
        return AdaptedProcess._trusted(rows)


def _moved(rows) -> frozenset:
    """The dates t >= 1 whose row differs from the row before, compared
    row against row in C up to the first atom that moved; a shared cell, or
    a repeated row object, compares by identity."""
    return frozenset(compress(range(1, len(rows)), map(operator.ne, rows[1:], rows)))


def check_shape(X: AdaptedProcess, space: FiniteSpace) -> None:
    """``ValueError`` unless X has one row per date and one cell per atom
    of ``space``."""
    if len(X.values) != space.horizon + 1 or len(X.values[0]) != space.n:
        raise ValueError("process shape does not fit the space")


def _constant_on(X: AdaptedProcess, filt: Filtration, parts) -> bool:
    """True iff each row ``X.values[t]`` is constant on the blocks of
    ``parts[t]``, one partition per date, each refining the one before;
    ``ValueError`` unless X fits ``filt.space``.

    Only row 0 and the rows of ``X.moving`` are read, with the same answer
    as reading every row: on a quiet date t, X_t = X_{t-1}, which is
    constant on the blocks of ``parts[t-1]`` (checked there, or quiet in
    turn down to a checked date), and ``parts[t]`` refines ``parts[t-1]``.
    So a process that breaks the rule breaks it first at date 0 or at a
    date where it moves, and the check sees it there."""
    check_shape(X, filt.space)
    rows = X.values
    return all(first_nonconstant(rows[t], parts[t]) is None for t in (0, *X.moving))


def is_adapted(X: AdaptedProcess, filt: Filtration) -> bool:
    """X_t constant on the blocks of ``parts[t]`` for every t, read at row
    0 and the moving dates only (:func:`_constant_on`)."""
    return _constant_on(X, filt, filt.parts)


def assert_adapted(X: AdaptedProcess, filt: Filtration, name: str = "process"):
    if not is_adapted(X, filt):
        raise NotAdapted(f"{name} is not adapted to the given filtration")


def is_predictable(X: AdaptedProcess, filt: Filtration) -> bool:
    """Constant on parts[t-1]-blocks for t >= 1 (and adapted at 0), read
    as :func:`is_adapted` is: the partitions ``parts[0], parts[0],
    parts[1], ...`` refine one another too."""
    return _constant_on(X, filt, filt.parts[:1] + filt.parts[:-1])


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
            if v is not INF and (isinstance(v, bool) or not isinstance(v, int) or v < 0):
                raise ValueError("random time values must be grid ints >= 0 or INF")
        object.__setattr__(self, "values", vals)

    def at(self, atom: int) -> TimeValue:
        """The value at atom index ``atom``; ``ValueError`` unless it lies
        in range (:func:`check_date`)."""
        return self.values[check_date(atom, 0, len(self.values) - 1, "atom")]


def check_fits(time: RandomTime, space: FiniteSpace) -> None:
    """``ValueError`` unless ``time`` has one value per atom of ``space``
    and every finite value on its grid."""
    if len(time.values) != space.n or any(v is not INF and v > space.horizon for v in time.values):
        raise ValueError("a random time needs one grid time or inf per atom of the space")


def check_stopping_time(time: RandomTime, filt: Filtration) -> bool:
    """True iff {time <= t} is a union of parts[t]-blocks for every t;
    ``ValueError`` unless ``time`` fits ``filt.space`` (:func:`check_fits`)."""
    check_fits(time, filt.space)
    return all(
        first_nonconstant([v <= t for v in time.values], blocks) is None
        for t, blocks in enumerate(filt.parts)
    )


def stop(X: AdaptedProcess, sigma: RandomTime) -> AdaptedProcess:
    """Stopped process X^sigma(w, t) = X(w, min(t, sigma(w))).

    Its increment table is read off X's: dX^sigma_t = dX_t up to sigma, 0
    after.  Each row copies X's and revisits only the atoms stopped before
    it, and it moves where its row differs from the one before
    (:func:`_moved`); ``ValueError`` unless sigma has one value per atom
    of X."""
    if len(sigma.values) != len(X.values[0]):
        raise ValueError("stopping time must have one value per atom of the process")
    zero = X.increments[0][0]
    ends = {}  # t -> the atoms with sigma = t - 1
    for i, s in enumerate(sigma.values):
        if s is not INF:
            ends.setdefault(s + 1, []).append(i)
    stopped, rows, table = [], [], []
    for t, (cells, inc) in enumerate(zip(X.values, X.increments)):
        stopped += ends.get(t, ())
        # an atom stopped before t keeps its cell of the row before
        row, dx = list(cells), list(inc)
        for i in stopped:
            row[i] = rows[-1][i]
            dx[i] = zero
        rows.append(tuple(row))
        table.append(tuple(dx))
    return AdaptedProcess._trusted(tuple(rows), tuple(table), _moved(rows))
