"""Seeded benchmark inputs, built without importing bckalg.

Every input is a finite Łukasiewicz chain product. A product with factors
(m1, ..., mk) has the tuples of range(m1) x ... x range(mk) as elements, and
each signature's operation acts componentwise by its cell formula:

    wajsberg    x.y = min(m-1, m-1-x+y)
    bck         x*y = max(0, x-y)
    mv          x+y = min(m-1, x+y)
    complement  x'  = m-1-x

A random relabelling then places the elements at shuffled positions, so no
input is in the lexicographic order bckalg's own constructors use. These
formulas and the positions of any corrupted cells are the known answers the
oracle checks against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

_CELL = {
    "wajsberg": lambda m, a, b: min(m - 1, m - 1 - a + b),
    "bck": lambda m, a, b: max(0, a - b),
    "mv": lambda m, a, b: min(m - 1, a + b),
}


@dataclass(frozen=True)
class Corruption:
    """One cell (row, col) whose formula value ``old`` was replaced by ``new``."""

    row: int
    col: int
    old: int
    new: int


@dataclass(frozen=True)
class Table:
    """A relabelled chain product in one signature; every index is a position."""

    kind: str
    factors: tuple[int, ...]
    names: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    zero: int
    one: int
    complement: tuple[int, ...]
    corruption: Corruption | None = None

    @property
    def order(self) -> int:
        return len(self.names)

    @property
    def valid(self) -> bool:
        return self.corruption is None

    @property
    def label(self) -> str:
        return "x".join(map(str, self.factors))


class Carrier:
    """The elements of a chain product at seeded, shuffled positions."""

    def __init__(self, factors: tuple[int, ...], rng: random.Random):
        self.factors = tuple(factors)
        elements = list(product(*(range(m) for m in self.factors)))
        rng.shuffle(elements)
        self.elements = elements
        self.position = {e: p for p, e in enumerate(elements)}
        self.names = tuple(f"a{p}" for p in range(len(elements)))

    def table(self, kind: str) -> Table:
        cell = _CELL[kind]
        fs, els, pos = self.factors, self.elements, self.position
        rows = tuple(
            tuple(pos[tuple(cell(m, a, b) for m, a, b in zip(fs, x, y))] for y in els)
            for x in els
        )
        comp = tuple(pos[tuple(m - 1 - a for m, a in zip(fs, x))] for x in els)
        zero = pos[tuple(0 for _ in fs)]
        one = pos[tuple(m - 1 for m in fs)]
        return Table(kind, fs, self.names, rows, zero, one, comp)


def chain_product(factors: tuple[int, ...], kind: str, rng: random.Random) -> Table:
    return Carrier(factors, rng).table(kind)


def corrupt(table: Table, rng: random.Random) -> Table:
    """Replace one cell so the file still parses and the derived order is kept.

    Neither the old nor the new value is the order's reference constant
    (one for wajsberg and mv, zero for bck), so x <= y is unchanged; the zero
    column of a wajsberg table is left alone because it stores the complement.
    A chain product's operation is determined by its order, so the corrupted
    table satisfies no axiom system of its kind.
    """
    ref = table.zero if table.kind == "bck" else table.one
    n = table.order
    while True:
        x, y, new = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        old = table.rows[x][y]
        if ref in (old, new) or new == old:
            continue
        if table.kind == "wajsberg" and y == table.zero:
            continue
        rows = [list(r) for r in table.rows]
        rows[x][y] = new
        return Table(
            table.kind, table.factors, table.names, tuple(map(tuple, rows)),
            table.zero, table.one, table.complement, Corruption(x, y, old, new),
        )


def render(table: Table) -> str:
    """The table as an ``.alg`` document: bck files declare zero and one,
    wajsberg files one and the complement, mv files zero and the complement."""
    nm = table.names
    lines = [f"kind: {table.kind}", f"order: {table.order}", "elements: " + " ".join(nm)]
    if table.kind in ("bck", "mv"):
        lines.append(f"zero: {nm[table.zero]}")
    if table.kind in ("bck", "wajsberg"):
        lines.append(f"one: {nm[table.one]}")
    if table.kind in ("wajsberg", "mv"):
        lines.append("complement: " + " ".join(nm[c] for c in table.complement))
    lines.append("table:")
    lines.extend(" ".join(nm[v] for v in row) for row in table.rows)
    return "\n".join(lines) + "\n"


def factorizations(n: int) -> list[tuple[int, ...]]:
    """Unordered factorizations of n into factors >= 2, in bckalg's documented
    order: by factor count, then lexicographically."""
    found = []

    def rec(m: int, least: int, acc: tuple[int, ...]) -> None:
        for f in range(least, m + 1):
            if m % f == 0:
                if f == m:
                    found.append(acc + (f,))
                else:
                    rec(m // f, f, acc + (f,))

    rec(n, 2, ())
    return sorted(found, key=lambda fs: (len(fs), fs))


class Deck:
    """Weighted menu dealt in seeded shuffles.

    ``items`` pairs a list of variants (the same op on differently
    relabelled inputs) with a weight. Each pass over the deck deals every
    item exactly ``weight`` times, so the op mix of a run depends on the seed
    only through its order; successive deals of an item rotate through its
    variants, so no timing rests on one relabelling.
    """

    def __init__(self, items: list[tuple[list, int]], rng: random.Random):
        self.variants = [variants for variants, _ in items]
        self.cards = [i for i, (_, weight) in enumerate(items) for _ in range(weight)]
        self.turns = [0] * len(items)
        self.rng = rng
        self.pending: list[int] = []

    def __len__(self) -> int:
        return len(self.cards)

    def deal(self):
        if not self.pending:
            self.pending = list(self.cards)
            self.rng.shuffle(self.pending)
        i = self.pending.pop()
        self.turns[i] += 1
        return self.variants[i][(self.turns[i] - 1) % len(self.variants[i])]
