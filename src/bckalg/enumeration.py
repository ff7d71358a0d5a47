"""Order-n Wajsberg algebra generation and isomorphism testing.

One algebra is produced per unordered factorization of n into factors >= 2
(the single-factor decomposition included): the direct product of totally
ordered chains with those sizes, built by mixed-radix index arithmetic.
Algebra and order isomorphism share one backtracking search,
``_bijections``, that matches elements by an invariant (table occurrence
profiles, derived-order degrees), places the scarcest first and prunes
against what is placed; ``find_isomorphism`` returns None before building
profiles when the two tables' sorted occurrence counts differ. n stays
small, so nothing fancier is warranted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .core import AlgebraError, FiniteAlgebra, Kind, new_algebra, order_relation
from .axioms import check_wajsberg, require


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
    rows = [[min(top, top - i + j) for j in range(n)] for i in range(n)]
    comp = [top - i for i in range(n)]
    names = [f"e{i}" for i in range(n)]
    return new_algebra(Kind.WAJSBERG, names, rows, one=top, complement=comp)


def direct_product(parts: list[FiniteAlgebra]) -> FiniteAlgebra:
    """Componentwise product of Wajsberg algebras; elements are component
    tuples indexed in lexicographic order.

    Every part is checked with ``check_wajsberg``. The product itself is
    trusted, not checked: the wajsberg identities hold componentwise, so a
    product of valid parts is valid."""
    if not parts:
        raise AlgebraError("direct product needs at least one part")
    for part in parts:
        if part.kind is not Kind.WAJSBERG:
            raise AlgebraError("direct product takes wajsberg algebras")
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
    return new_algebra(Kind.WAJSBERG, names, rows, one=one, complement=comp)


def enumerate_wajsberg(n: int) -> list[FiniteAlgebra]:
    """One order-n Wajsberg algebra per factorization of n: the chain product
    with the factorization's sizes.

    Nothing is checked: Lukasiewicz chains are wajsberg algebras and so are
    their products, so every result is valid by construction (the tests
    confirm it with ``check_wajsberg``)."""
    if n < 2:
        raise AlgebraError("enumeration needs n >= 2")
    return [
        _product([lukasiewicz_chain(r) for r in f.factors])
        for f in factorizations(n)
    ]


def _occurrence_counts(entries: tuple[tuple[int, ...], ...]) -> list[int]:
    occ = [0] * len(entries)
    for row in entries:
        for v in row:
            occ[v] += 1
    return occ


def _occurrence_profiles(entries: tuple[tuple[int, ...], ...], occ: list[int]) -> list[tuple]:
    n = len(entries)
    return [
        (
            occ[x],
            occ[entries[x][x]],
            tuple(sorted(occ[v] for v in entries[x])),
            tuple(sorted(occ[entries[r][x]] for r in range(n))),
        )
        for x in range(n)
    ]


def _bijections(pa: list, pb: list, fixed, fits):
    """Yield, as index tuples, every bijection f with pb[f[x]] == pa[x] for
    each x that extends the fixed (x, f(x)) pairs and passes fits(f, x) each
    time a free element x is placed (f holds -1 where nothing is placed yet).
    Free elements go fewest candidates first, ties and candidates by index."""
    if sorted(pa) != sorted(pb):
        return
    n = len(pa)
    f = [-1] * n
    used = [False] * n
    for x, y in fixed:
        if f[x] == -1 and pa[x] == pb[y] and not used[y]:
            f[x] = y
            used[y] = True
        elif f[x] != y:
            return
    candidates = {x: [y for y in range(n) if pb[y] == pa[x]] for x in range(n) if f[x] == -1}
    order = sorted(candidates, key=lambda x: (len(candidates[x]), x))

    def place(pos: int):
        if pos == len(order):
            yield tuple(f)
            return
        x = order[pos]
        for y in candidates[x]:
            if used[y]:
                continue
            f[x] = y
            used[y] = True
            if fits(f, x):
                yield from place(pos + 1)
            f[x] = -1
            used[y] = False

    yield from place(0)


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra) -> tuple[int, ...] | None:
    """A constant-preserving bijection f with f(x op y) = f(x) op f(y), or None.

    For Wajsberg and MV kinds the complement is part of the signature and is
    preserved as well. Returned as a tuple: element i of ``a`` maps to f[i].
    """
    if a.kind != b.kind:
        raise AlgebraError("isomorphism search needs algebras of the same kind")
    n = a.order
    if b.order != n or (a.unit is None) != (b.unit is None):
        return None
    ta, tb = a.table.entries, b.table.entries
    match_complement = a.kind is not Kind.BCK
    ca, cb = a.complement, b.complement
    fixed = [(a.zero, b.zero)] if a.unit is None else [(a.zero, b.zero), (a.unit, b.unit)]

    def consistent(f: list[int], x: int) -> bool:
        assigned = [u for u in range(n) if f[u] != -1]
        for u in assigned:
            for p, q in ((x, u), (u, x)):
                r = ta[p][q]
                if f[r] != -1 and tb[f[p]][f[q]] != f[r]:
                    return False
        if match_complement:
            if f[ca[x]] != -1 and cb[f[x]] != f[ca[x]]:
                return False
            for u in assigned:
                if ca[u] == x and cb[f[u]] != f[x]:
                    return False
        return True

    def verify(f: tuple[int, ...]) -> bool:
        if any(f[ta[x][y]] != tb[f[x]][f[y]] for x in range(n) for y in range(n)):
            return False
        return not match_complement or all(f[ca[x]] == cb[f[x]] for x in range(n))

    occ_a, occ_b = _occurrence_counts(ta), _occurrence_counts(tb)
    if sorted(occ_a) != sorted(occ_b):
        return None
    found = _bijections(_occurrence_profiles(ta, occ_a), _occurrence_profiles(tb, occ_b), fixed, consistent)
    return next((f for f in found if verify(f)), None)


def order_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra) -> tuple[int, ...] | None:
    """The first bijection f with x <= y iff f(x) <= f(y) between the derived
    orders of a and b (tables otherwise ignored, nothing validated), or None."""
    n = a.order
    if b.order != n:
        return None
    la, lb = order_relation(a).leq, order_relation(b).leq

    def profile(leq):
        return [(sum(col), sum(row)) for col, row in zip(zip(*leq), leq)]

    def fits(f: list[int], x: int) -> bool:
        y = f[x]
        return all(
            u == x or f[u] == -1 or (la[x][u] == lb[y][f[u]] and la[u][x] == lb[f[u]][y])
            for u in range(n)
        )

    return next(_bijections(profile(la), profile(lb), (), fits), None)


def poset_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    """Whether the derived orders admit an order-isomorphism (tables ignored)."""
    return order_isomorphism(a, b) is not None
