"""Cayley-table carriers for finite BCK, Wajsberg and MV algebras.

Elements are dense integer indices 0..n-1; display names ride along and
matter only for I/O. The table convention is row = left operand:
``table.entries[x][y]`` is the value of ``x op y``.

The derived order has one view, ``OrderRelation``: rows and a mark with x <= y
iff ``rows[x][y] == mark``, read off the table; its bool matrix is built lazily.
An algebra object is immutable, so the two O(n) isomorphism invariants
the searches compare, ``order_degrees`` and ``occurrence_counts``, are
counted once per object, on first use, and kept as tuples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence


class AlgebraError(ValueError):
    """Malformed table, inconsistent constants, or invalid operation input."""


class Kind(str, Enum):
    """Signature a table is read under: difference-like, implication-like, or sum-like."""

    BCK = "bck"
    WAJSBERG = "wajsberg"
    MV = "mv"


@dataclass(frozen=True)
class CayleyTable:
    """Square operation table over element indices; closed by construction."""

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
    def _degrees(self) -> tuple[tuple[int, int], ...]:
        rel = order_relation(self)
        return tuple((col.count(rel.mark), row.count(rel.mark)) for col, row in zip(zip(*rel.rows), rel.rows))

    @cached_property
    def _occurrences(self) -> tuple[int, ...]:
        return _count_occurrences(self.table.entries)

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
    themselves. No axiom checking happens here.

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
    """A derived order, x <= y iff ``rows[x][y] == mark`` (see ``order_relation``);
    ``leq``, the bool matrix with ``leq[x][y]`` being x <= y, is built on first read.
    ``==`` compares the views (rows and mark): for "same order" compare ``.leq`` or use ``poset_isomorphic``."""

    rows: tuple[tuple[int, ...], ...]
    mark: int

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(tuple(v == self.mark for v in row) for row in self.rows)

    @property
    def order(self) -> int:
        return len(self.rows)

    def holds(self, x: int, y: int) -> bool:
        return self.rows[x][y] == self.mark

    def top(self) -> int | None:
        return next((t for t in range(self.order) if all(row[t] == self.mark for row in self.rows)), None)


def order_relation(alg: FiniteAlgebra) -> OrderRelation:
    """The derived order as an O(n) view of the table: x <= y iff x*y = 0 (bck),
    x.y = 1 (wajsberg), x' + y = 1 (mv: row x is the row of x'). No axiom
    validation, so this also works on defective tables under diagnosis."""
    t = alg.table.entries
    if alg.kind is Kind.BCK:
        return OrderRelation(t, alg.zero)
    if alg.kind is Kind.WAJSBERG:
        return OrderRelation(t, alg.unit)
    return OrderRelation(tuple(t[cx] for cx in alg.complement), alg.unit)


def order_degrees(alg: FiniteAlgebra) -> tuple[tuple[int, int], ...]:
    """(|down-set|, |up-set|) of each element in the order of ``order_relation``,
    counted in the view's rows without its matrix, once per algebra object."""
    return alg._degrees


def _count_occurrences(entries: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    counts = Counter(chain.from_iterable(entries))
    return tuple(counts[x] for x in range(len(entries)))


def occurrence_counts(alg: FiniteAlgebra) -> tuple[int, ...]:
    """How often each element occurs in the table, counted once per algebra object."""
    return alg._occurrences


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
