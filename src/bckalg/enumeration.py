"""Order-n Wajsberg algebra generation and isomorphism testing.

One algebra is produced per unordered factorization of n into factors >= 2
(the single-factor decomposition included): the direct product of totally
ordered chains with those sizes, built by mixed-radix index arithmetic from
one chain per distinct size.
Algebra and order isomorphism share one backtracking search,
``_bijections``, that matches elements by a key, places the scarcest first
and prunes against what is placed. The keys are the two invariants ``core``
keeps once per algebra object: ``order_isomorphism`` keys element x by its
derived-order degrees, ``order_degrees(a)[x]``, and ``find_isomorphism`` by
``(occurrence_counts(a)[x], order_degrees(a)[x])``. Each search rejects in
at most two stages before it searches: both compare the
``degree_multiset`` (the sorted ``order_degrees``), and ``find_isomorphism``
then compares the sorted keys. n stays small, so nothing fancier is
warranted. The chain and product tables are built in range by
construction, so they skip the cell check (``CayleyTable.trusted``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .core import (AlgebraError, CayleyTable, FiniteAlgebra, Kind, degree_multiset, new_algebra, occurrence_counts,
                   order_degrees, order_relation, require_kind)
from .axioms import check_morphism, check_wajsberg, require


@dataclass(frozen=True)
class Factorization:
    """A multiset of integer factors >= 2 with the given product, stored sorted."""

    n: int
    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if any(f < 2 for f in self.factors):
            raise AlgebraError("factors must be >= 2")
        if tuple(sorted(self.factors)) != self.factors:
            raise AlgebraError("factors must be sorted non-decreasing")
        if prod(self.factors) != self.n:
            raise AlgebraError(f"factors {self.factors} do not multiply to {self.n}")

    @property
    def label(self) -> str:
        return "x".join(str(f) for f in self.factors)


def factorizations(n: int) -> list[Factorization]:
    """All unordered factorizations of n into factors >= 2, including (n,)
    itself; empty for n = 1. Sorted by factor count, then lexicographically."""
    if n < 1:
        raise AlgebraError("factorizations need n >= 1")

    def rec(m: int, least: int) -> list[tuple[int, ...]]:
        out = []
        for f in range(least, m + 1):
            if m % f:
                continue
            if f == m:
                out.append((f,))
            else:
                out.extend((f, *rest) for rest in rec(m // f, f))
        return out

    found = rec(n, 2) if n > 1 else []
    found.sort(key=lambda fs: (len(fs), fs))
    return [Factorization(n, fs) for fs in found]


def lukasiewicz_chain(n: int) -> FiniteAlgebra:
    """The totally ordered Wajsberg algebra on e0 < ... < e(n-1):
    ei . ej = e(min(n-1, n-1-i+j)), complement ei -> e(n-1-i)."""
    if n < 2:
        raise AlgebraError("a chain needs at least 2 elements")
    top = n - 1
    rows = [tuple(range(top - i, top)) + (top,) * (n - i) for i in range(n)]
    comp = [top - i for i in range(n)]
    names = [f"e{i}" for i in range(n)]
    return new_algebra(Kind.WAJSBERG, names, CayleyTable.trusted(rows), one=top, complement=comp)


def direct_product(parts: list[FiniteAlgebra]) -> FiniteAlgebra:
    """Componentwise product of Wajsberg algebras; elements are component
    tuples indexed in lexicographic order.

    Every part is checked with ``check_wajsberg``. The product itself is
    trusted, not checked: the wajsberg identities hold componentwise, so a
    product of valid parts is valid."""
    if not parts:
        raise AlgebraError("direct product needs at least one part")
    for part in parts:
        require_kind(part, Kind.WAJSBERG, "direct product")
        require(check_wajsberg(part), part, "wajsberg algebra")
    return _product(parts)


def _product(parts: list[FiniteAlgebra]) -> FiniteAlgebra:
    """The product of ``direct_product`` on parts the caller knows are valid.

    Element indices are mixed-radix numbers over the parts' indices, so each
    part is folded in by index arithmetic: u*k + v joins the index u over the
    parts so far with the index v in a part of order k."""
    if len(parts) == 1:
        return parts[0]
    rows, comp, one = parts[0].table.entries, parts[0].complement, parts[0].unit
    for p in parts[1:]:
        k = p.order
        rows = [[u * k + v for u in ra for v in rb] for ra in rows for rb in p.table.entries]
        comp = [u * k + v for u in comp for v in p.complement]
        one = one * k + p.unit
    names = ["(" + ",".join(t) + ")" for t in product(*(p.names for p in parts))]
    return new_algebra(Kind.WAJSBERG, names, CayleyTable.trusted(rows), one=one, complement=comp)


def enumerate_wajsberg(n: int) -> list[FiniteAlgebra]:
    """One order-n Wajsberg algebra per factorization of n: the chain product
    with the factorization's sizes.

    Nothing is checked: Lukasiewicz chains are wajsberg algebras and so are
    their products, so every result is valid by construction (the tests
    confirm it with ``check_wajsberg``)."""
    if n < 2:
        raise AlgebraError("enumeration needs n >= 2")
    found = factorizations(n)
    chains = {r: lukasiewicz_chain(r) for r in {r for f in found for r in f.factors}}
    return [_product([chains[r] for r in f.factors]) for f in found]


def _bijections(pa: list, pb: list, fixed, fits):
    """Yield, as index tuples, every bijection f with pb[f[x]] == pa[x] for
    each x that extends the fixed (x, f(x)) pairs and passes
    fits(f, x, placed) each time a free element x is placed (f holds -1
    where nothing is placed yet; placed lists the placed elements, x last).
    Free elements go fewest candidates first, ties and candidates by index.
    The caller has checked that pa and pb are equal as multisets."""
    n = len(pa)
    f = [-1] * n
    used = [False] * n
    placed = []
    for x, y in fixed:
        if f[x] == -1 and pa[x] == pb[y] and not used[y]:
            f[x] = y
            used[y] = True
            placed.append(x)
        elif f[x] != y:
            return
    where = {}
    for y, p in enumerate(pb):
        where.setdefault(p, []).append(y)
    candidates = {x: where[pa[x]] for x in range(n) if f[x] == -1}
    order = sorted(candidates, key=lambda x: (len(candidates[x]), x))

    def place(pos: int):
        if pos == len(order):
            yield tuple(f)
            return
        x = order[pos]
        placed.append(x)
        for y in candidates[x]:
            if used[y]:
                continue
            f[x] = y
            used[y] = True
            if fits(f, x, placed):
                yield from place(pos + 1)
            f[x] = -1
            used[y] = False
        placed.pop()

    yield from place(0)


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra) -> tuple[int, ...] | None:
    """A constant-preserving bijection f with f(x op y) = f(x) op f(y), or None.

    For Wajsberg and MV kinds the complement is part of the signature and is
    preserved as well. A bck one declared on one side only is not pinned: the
    order fixes the top. Returned as a tuple: element i of ``a`` maps to f[i]."""
    if a.kind != b.kind:
        raise AlgebraError("isomorphism search needs algebras of the same kind")
    n = a.order
    if b.order != n:
        return None
    ta, tb = a.table.entries, b.table.entries
    match_complement = a.kind is not Kind.BCK
    ca, cb = a.complement, b.complement
    fixed = [(a.zero, b.zero)] if None in (a.unit, b.unit) else [(a.zero, b.zero), (a.unit, b.unit)]

    def consistent(f: list[int], x: int, placed: list[int]) -> bool:
        y = f[x]
        rx, ry = ta[x], tb[y]
        for u in placed:
            v = f[u]
            r = f[rx[u]]
            if r != -1 and ry[v] != r:
                return False
            r = f[ta[u][x]]
            if r != -1 and tb[v][y] != r:
                return False
        return not match_complement or f[ca[x]] == -1 or cb[y] == f[ca[x]]

    def verify(f: tuple[int, ...]) -> bool:
        if not check_morphism(f, a, b).passed:
            return False
        return not match_complement or all(f[ca[x]] == cb[f[x]] for x in range(n))

    # an isomorphism preserves the table, the constants and the complement,
    # so it preserves the derived order and how often each element occurs in
    # the table: an element's key is (occurrences, degrees), and the two
    # stages reject on the sorted degrees, then on the sorted keys; the
    # search matches keys, and a fixed pair whose keys differ ends it at once
    if degree_multiset(a) != degree_multiset(b):
        return None
    pa = list(zip(occurrence_counts(a), order_degrees(a)))
    pb = list(zip(occurrence_counts(b), order_degrees(b)))
    if sorted(pa) != sorted(pb):
        return None
    return next((f for f in _bijections(pa, pb, fixed, consistent) if verify(f)), None)


def order_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra) -> tuple[int, ...] | None:
    """The first bijection f with x <= y iff f(x) <= f(y) between the derived
    orders of a and b (tables otherwise ignored, nothing validated), or None."""
    n = a.order
    if b.order != n:
        return None
    if degree_multiset(a) != degree_multiset(b):
        return None
    da, db = order_degrees(a), order_degrees(b)
    ra, rb = order_relation(a), order_relation(b)
    ta, ma, tb, mb = ra.rows, ra.mark, rb.rows, rb.mark

    def fits(f: list[int], x: int, placed: list[int]) -> bool:
        y = f[x]
        return all(
            u == x or ((ta[x][u] == ma) == (tb[y][f[u]] == mb) and (ta[u][x] == ma) == (tb[f[u]][y] == mb))
            for u in placed
        )

    return next(_bijections(da, db, (), fits), None)


def poset_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    """Whether the derived orders admit an order-isomorphism (tables ignored)."""
    return order_isomorphism(a, b) is not None
