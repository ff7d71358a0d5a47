"""Cayley-table carriers for finite BCK, Wajsberg and MV algebras.

Elements are dense integer indices 0..n-1; display names ride along and
matter only for I/O. The table convention is row = left operand:
``table.entries[x][y]`` is the value of ``x op y``.

Cells are checked at the boundary only. ``CayleyTable(...)`` checks that the
table is square and that every cell is an element index; it is how every table
from outside enters, by itself or through ``new_algebra`` given raw rows.
``CayleyTable.trusted`` checks no cell: the library's own builders use it for
tables whose cells are lookups into tables that were already checked.

The derived order has one view, ``OrderRelation``: rows and a mark with x <= y
iff ``rows[x][y] == mark``, read off the table. An algebra object is
immutable, so what is read off its table is computed once per object, on first
use, and kept on it: the view, the two O(n) isomorphism invariants the searches
compare (``order_degrees`` and ``occurrence_counts``) and the sorted
``degree_multiset``, and the structure theorem's reading of the table.

That reading is here and nowhere else. Every finite MV (so Wajsberg) algebra is
a product of finite Lukasiewicz chains, and bounded commutative BCK algebras
are MV algebras in another signature. The chains are read off the derived
order (Birkhoff) as coordinates that must be distinct and fill the product;
``chain_product_rows`` builds a chain product of any kind on given
coordinates. An algebra keeps the reading and the product of its kind on it
as one value. ``is_chain_product`` is the certificate that the table equals
that product, with its constants in place, in O(n^2 k) for k chains. It does
not confirm the reading's order: a table isomorphic to a chain product has
that product's order. ``chain_coordinates`` returns the reading when the
plain product order on it is the derived order, and ``chain_rebuild`` is that
product when the reading also puts zero at 0...0 and a declared one at the
tops, as the certificate requires.
The axiom checkers pass a certified table of their kind without scanning n^3
triples, and the misprint diagnosis compares a table that fails with its rebuild.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, product
from math import prod
from operator import sub
from typing import Iterable, Sequence


class AlgebraError(ValueError):
    """Malformed table, inconsistent constants, or invalid operation input."""


class Kind(str, Enum):
    """Signature a table is read under: difference-like, implication-like, or sum-like."""

    BCK = "bck"
    WAJSBERG = "wajsberg"
    MV = "mv"

    @classmethod
    def _missing_(cls, value: object) -> Kind:
        raise AlgebraError(f"unknown kind {value!r}: expected bck, wajsberg or mv")


@dataclass(frozen=True)
class CayleyTable:
    """Square operation table over element indices; closed by construction.

    ``CayleyTable(rows)`` checks the shape and every cell, each bad cell
    raising ``AlgebraError``; ``CayleyTable.trusted(rows)`` checks nothing."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n == 0:
            raise AlgebraError("table must have order >= 1")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise AlgebraError(f"row {i} has {len(row)} entries, expected {n}")
            for j, v in enumerate(row):
                if type(v) is not int or not 0 <= v < n:
                    raise AlgebraError(f"entry ({i},{j})={v!r} is not an element index of an order-{n} table")

    @classmethod
    def trusted(cls, rows: Iterable[Iterable[int]]) -> CayleyTable:
        """The rows as the same tuple-of-tuples ``entries``, with no check of
        the shape or of any cell: only for a table the library built in range
        by construction from tables that were already checked."""
        table = object.__new__(cls)
        object.__setattr__(table, "entries", tuple(map(tuple, rows)))
        return table

    @property
    def order(self) -> int:
        return len(self.entries)


# The constants each kind must carry, designated first: zero for bck and mv, one for wajsberg.
_REQUIRED = {
    Kind.BCK: ("zero",),
    Kind.WAJSBERG: ("unit", "complement", "zero"),
    Kind.MV: ("zero", "complement", "unit"),
}
_WANTED = {"zero": "a designated zero", "unit": "a designated one", "complement": "an explicit complement row"}


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite algebra: kind tag, named elements, one binary table, constants.

    The constructor checks the constants and nothing that depends on the
    table. ``zero`` is always set. ``unit`` is the top/one where known (it may
    be absent for unbounded BCK algebras). ``complement`` stores the unary
    operation as an index map. Wajsberg and MV algebras carry both, with
    zero = complement(one) (wajsberg) and one = complement(zero) (mv).
    Two O(n) isomorphism invariants, ``order_degrees`` and
    ``occurrence_counts``, are counted on first use and kept as tuples on
    the object, which is immutable.
    """

    kind: Kind
    names: tuple[str, ...]
    table: CayleyTable
    zero: int
    unit: int | None = None
    complement: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", Kind(self.kind))
        object.__setattr__(self, "names", tuple(str(s) for s in self.names))
        if self.complement is not None:
            object.__setattr__(self, "complement", tuple(self.complement))
        c = self.complement
        n = self.table.order
        if len(self.names) != n:
            raise AlgebraError(f"{len(self.names)} names for a table of order {n}")
        if len(set(self.names)) != n:
            raise AlgebraError("element names must be pairwise distinct")
        for label, idx in (("designated zero", self.zero), ("designated one", self.unit)):
            if idx is not None and (type(idx) is not int or not 0 <= idx < n):
                raise AlgebraError(f"{label} index {idx!r} out of range for order {n}")
        if c is not None and (len(c) != n or any(type(v) is not int or not 0 <= v < n for v in c)):
            raise AlgebraError("complement row must map every element into the carrier")
        for field in _REQUIRED[self.kind]:
            if getattr(self, field) is None:
                raise AlgebraError(f"{self.kind.value} algebra requires {_WANTED[field]}")
        if self.kind is Kind.WAJSBERG and self.zero != c[self.unit]:
            raise AlgebraError("wajsberg algebra requires zero to be complement(one)")
        if self.kind is Kind.MV and self.unit != c[self.zero]:
            raise AlgebraError("mv algebra requires one to be complement(zero)")

    @property
    def order(self) -> int:
        return self.table.order

    @cached_property
    def _order(self) -> OrderRelation:
        t = self.table.entries
        if self.kind is Kind.BCK:
            return OrderRelation(t, self.zero)
        if self.kind is Kind.WAJSBERG:
            return OrderRelation(t, self.unit)
        return OrderRelation(tuple(t[cx] for cx in self.complement), self.unit)

    @cached_property
    def _degrees(self) -> tuple[tuple[int, int], ...]:
        rel = self._order
        return tuple((col.count(rel.mark), row.count(rel.mark)) for col, row in zip(zip(*rel.rows), rel.rows))

    @cached_property
    def _degree_multiset(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._degrees))

    @cached_property
    def _occurrences(self) -> tuple[int, ...]:
        return _count_occurrences(self.table.entries)

    @cached_property
    def _reading(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] | None:
        found = _read_chains(self)
        return None if found is None else (*found, chain_product_rows(*found, self.kind))

    @cached_property
    def _certified(self) -> bool:
        if self._reading is None:
            return False
        tops, coords, rows = self._reading
        c = self.complement
        return (
            _constants_placed(self, (tops, coords))
            and (self.kind is Kind.BCK or all(coords[cx] == tuple(map(sub, tops, x)) for x, cx in zip(coords, c)))
            and self.table.entries == rows
        )

    def op(self, x: int, y: int) -> int:
        return self.table.entries[x][y]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise AlgebraError(f"unknown element name {name!r}") from None


def _entry(row: Sequence[int] | None, i: int | None) -> int | None:
    """row[i], or None when there is no such entry; FiniteAlgebra then names the fault."""
    return row[i] if row is not None and isinstance(i, int) and 0 <= i < len(row) else None


def new_algebra(
    kind: Kind | str,
    names: Iterable[str],
    table: CayleyTable | Sequence[Sequence[int]],
    *,
    zero: int | None = None,
    one: int | None = None,
    complement: Sequence[int] | None = None,
) -> FiniteAlgebra:
    """Derive the constants a kind leaves out, check the ones that depend on
    the table, and assemble a FiniteAlgebra, which checks the constants
    themselves. No axiom checking happens here. Raw rows are checked cell by
    cell through ``CayleyTable(rows)``; a ``CayleyTable`` is taken as it is.

    * ``bck``: one is optional, but if given every x must satisfy
      x*one = zero; an explicit complement must agree with the top's row when
      a top exists.
    * ``wajsberg``: zero is complement(one) when a complement is given, else
      the unique element whose row is constantly one; the complement is the
      zero column, and an explicit one must match it.
    * ``mv``: one is derived as complement(zero).
    """
    kind = Kind(kind)
    tab = table if isinstance(table, CayleyTable) else CayleyTable(table)
    t = tab.entries
    if kind is Kind.WAJSBERG and one in range(len(t)):
        if complement is None:
            constant_rows = [z for z, row in enumerate(t) if all(v == one for v in row)]
            if len(constant_rows) != 1:
                raise AlgebraError(
                    "cannot derive zero: need an explicit complement or exactly one row constantly equal to one"
                )
            if zero not in (None, constant_rows[0]):
                raise AlgebraError("designated zero disagrees with the derived zero")
            zero = constant_rows[0]
            complement = [row[zero] for row in t]
        elif zero is None:
            zero = _entry(complement, one)
    if kind is Kind.MV and one is None:
        one = _entry(complement, zero)
    alg = FiniteAlgebra(kind, names, tab, zero, one, complement)
    if kind is Kind.WAJSBERG and alg.complement != tuple(row[alg.zero] for row in t):
        raise AlgebraError("explicit complement disagrees with the derived x*zero column")
    if kind is Kind.BCK:
        if one is not None and any(row[one] != zero for row in t):
            raise AlgebraError("designated one is not an upper bound of the derived order")
        if alg.complement is not None:
            top = one if one is not None else order_relation(alg).top()
            if top is not None and alg.complement != t[top]:
                raise AlgebraError("explicit complement disagrees with the derived one*x row")
    return alg


@dataclass(frozen=True)
class OrderRelation:
    """A derived order, x <= y iff ``rows[x][y] == mark`` (see ``order_relation``),
    which ``holds(x, y)`` reads. ``==`` compares the views (rows and mark): for
    "same order" use ``poset_isomorphic``."""

    rows: tuple[tuple[int, ...], ...]
    mark: int

    @property
    def order(self) -> int:
        return len(self.rows)

    def holds(self, x: int, y: int) -> bool:
        return self.rows[x][y] == self.mark

    def top(self) -> int | None:
        return next((t for t in range(self.order) if all(row[t] == self.mark for row in self.rows)), None)


def order_relation(alg: FiniteAlgebra) -> OrderRelation:
    """The derived order as an O(n) view of the table, built once per algebra
    object: x <= y iff x*y = 0 (bck), x.y = 1 (wajsberg), x' + y = 1 (mv: row x
    is the row of x'). No axiom validation, so this also works on defective
    tables under diagnosis."""
    return alg._order


def order_degrees(alg: FiniteAlgebra) -> tuple[tuple[int, int], ...]:
    """(|down-set|, |up-set|) of each element in the order of ``order_relation``,
    counted in the view's rows, once per algebra object."""
    return alg._degrees


def degree_multiset(alg: FiniteAlgebra) -> tuple[tuple[int, int], ...]:
    """``order_degrees`` sorted, which isomorphic orders share; sorted once per algebra object."""
    return alg._degree_multiset


def _count_occurrences(entries: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    counts = Counter(chain.from_iterable(entries))
    return tuple(counts[x] for x in range(len(entries)))


def occurrence_counts(alg: FiniteAlgebra) -> tuple[int, ...]:
    """How often each element occurs in the table, counted once per algebra object."""
    return alg._occurrences


def _read_chains(alg: FiniteAlgebra) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None:
    rel = order_relation(alg)
    rows, mark, n = rel.rows, rel.mark, alg.order
    h = [down for down, _ in order_degrees(alg)]
    below = {}  # h[y] + 1 -> the rows of such y, so x's lower covers are among below[h[x]]
    for row, down in zip(rows, h):
        below.setdefault(down + 1, []).append(row)
    irreducible = [x for x in range(n) if any(row[x] == mark for row in below.get(h[x], ()))]
    chains = [[rows[j] for j in irreducible if rows[a][j] == mark] for a in range(n) if h[a] == 2]
    if prod(len(members) + 1 for members in chains) != n:
        return None
    coords = tuple(tuple([row[x] for row in members].count(mark) for members in chains) for x in range(n))
    return (tuple(map(len, chains)), coords) if len(set(coords)) == n else None


def _confirms_order(alg: FiniteAlgebra, coords: tuple[tuple[int, ...], ...]) -> bool:
    rel, at, ends = order_relation(alg), dict(zip(coords, range(alg.order))), [max(c) + 1 for c in zip(*coords)]
    return all(len(box := [row[at[y]] for y in product(*map(range, x, ends))]) == up == box.count(rel.mark)
               for row, x, (_, up) in zip(rel.rows, coords, order_degrees(alg)))


def _constants_placed(alg: FiniteAlgebra, found: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None) -> bool:
    return found is not None and not any(found[1][alg.zero]) and (alg.unit is None or found[1][alg.unit] == found[0])


def chain_coordinates(alg: FiniteAlgebra) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None:
    """(tops, coords) with x -> coords[x] an isomorphism from the derived
    order of ``alg`` onto the product of the chains 0 < ... < tops[i], or None.
    Birkhoff: with h[x] = |down-set of x|, x is join-irreducible iff some
    y <= x has h[y] = h[x] - 1; those above atom i form chain i less its
    bottom, and coordinate i of x counts those below x. The reading, kept once
    per algebra object, must give distinct coordinates filling the product,
    and on every call its order (x <= y iff each coordinate of x is at most
    y's) must be the derived order: each such pair is read, and x's up-degree
    is its count. Unique up to swapping chains of equal length."""
    found = alg._reading
    return found[:2] if found is not None and _confirms_order(alg, found[1]) else None


# The Lukasiewicz chain 0 < 1 < ... < t as a cell formula per kind. The
# enumeration and the tests build their chains from formulas of their own, so
# that a wrong formula here is not confirmed by the products built from it.
_CHAIN_OPS = {
    Kind.WAJSBERG: lambda t, a, b: min(t, t - a + b),
    Kind.BCK: lambda t, a, b: max(0, a - b),
    Kind.MV: lambda t, a, b: min(t, a + b),
}


def chain_product_rows(
    tops: Sequence[int], coords: Sequence[Sequence[int]], kind: Kind | str
) -> tuple[tuple[int, ...], ...]:
    """The rows of the product of the chains 0 < ... < tops[i], read as
    ``kind``, on a carrier whose element x has the coordinates coords[x],
    which must fill the product once each. Coordinate i of x op y is the
    chain formula at coordinates i of x and y: wajsberg min(t, t - a + b),
    bck max(0, a - b), mv min(t, a + b). Each chain is folded in by
    mixed-radix index arithmetic, u*k + v, as in a direct product, and the
    result is read back onto the carrier in one pass. The rows are plain:
    no ``CayleyTable`` is built here."""
    cell = _CHAIN_OPS[Kind(kind)]
    table, index = [[0]], [0] * len(coords)
    for i, t in enumerate(tops):
        k = t + 1
        cells = [[cell(t, a, b) for b in range(k)] for a in range(k)]
        table = [[u * k + v for u in ra for v in rb] for ra in table for rb in cells]
        index = [u * k + c[i] for u, c in zip(index, coords)]
    element = sorted(range(len(coords)), key=index.__getitem__)
    return tuple(tuple([element[r[j]] for j in index]) for r in map(table.__getitem__, index))


def chain_rebuild(alg: FiniteAlgebra) -> tuple[tuple[int, ...], ...] | None:
    """``chain_product_rows`` of ``alg``'s own kind on its ``chain_coordinates``
    when they put zero at 0...0 and a declared one, if any, at the tops, or None:
    the product kept with the reading, built once per algebra object, which the
    certificate compared with the table."""
    return alg._reading[2] if _constants_placed(alg, chain_coordinates(alg)) else None


def is_chain_product(alg: FiniteAlgebra) -> bool:
    """Whether the table equals the chain product built on the Birkhoff
    reading of its derived order (see ``chain_coordinates``), with zero at
    0...0, a declared one at the tops and, for wajsberg and mv, complement(x)
    at tops - x; decided once per algebra object in O(n^2 k) for k chains.
    The reading's order is not confirmed here: such a table is isomorphic to
    that product, constants included, so its derived order is the product
    order. It is a relabelled chain product, so it satisfies every axiom of its
    kind, and bck tables also commutativity and boundedness. Conversely every
    valid Wajsberg or MV table and every bounded commutative BCK table is one
    (Cignoli, D'Ottaviano and Mundici 2000; Mundici 1986), since the rebuild
    is unique. Other BCK tables are not."""
    return alg._certified


def require_kind(alg: FiniteAlgebra, kind: Kind, taker: str) -> None:
    """Raise "<taker> takes a(n) <kind> algebra" unless ``alg`` is of that kind."""
    if alg.kind is not kind:
        raise AlgebraError(f"{taker} takes {'an' if kind is Kind.MV else 'a'} {kind.value} algebra")


def derived_order(alg: FiniteAlgebra) -> OrderRelation:
    """The relation x <= y iff x*y = zero, read straight off the table."""
    if alg.kind is not Kind.BCK:
        raise AlgebraError("derived order is defined for bck algebras; convert first")
    return order_relation(alg)


def bound_element(alg: FiniteAlgebra) -> int | None:
    """The top element 1 with x <= 1 for all x, or None if the algebra is unbounded."""
    if alg.kind is not Kind.BCK:
        raise AlgebraError("bound search is defined for bck algebras")
    return order_relation(alg).top()


def _complement_row(alg: FiniteAlgebra) -> tuple[int, ...]:
    if alg.complement is not None:
        return alg.complement
    top = alg.unit if alg.unit is not None else order_relation(alg).top()
    if top is None:
        raise AlgebraError("unbounded bck algebra has no complement")
    return alg.table.entries[top]


def complement_of(alg: FiniteAlgebra, x: int) -> int:
    """complement(x): the stored unary operation, or 1*x for a bounded BCK algebra."""
    if type(x) is not int or not 0 <= x < alg.order:
        raise AlgebraError(f"element {x!r} is not an element index for order {alg.order}")
    return _complement_row(alg)[x]


def involutions(alg: FiniteAlgebra) -> set[int]:
    """Elements fixed by the double complement."""
    c = _complement_row(alg)
    return {x for x in range(alg.order) if c[c[x]] == x}
