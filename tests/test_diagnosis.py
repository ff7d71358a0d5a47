"""Differential tests of the isomorphism searches and the misprint diagnosis
against reference searches.

The first reference diagnoses a stored wajsberg table the slow way: it
relabels every order-matched chain product along *every* order isomorphism
of the derived orders and keeps the relabelling that deviates from the
stored table in the fewest cells. ``diagnose_wajsberg`` must agree with it
on randomly relabelled chain products with one corrupted cell, both when a
reconstruction exists and when none does. Past the orders that reference
can search, a one-cell corruption of each classify benchmark product (order
24 to 64) must diagnose back to the uncorrupted table.

The other two references are separate backtracking searches for algebra
and order isomorphisms, sharing no code with ``bckalg.enumeration``.
``find_isomorphism`` and ``order_isomorphism`` must return exactly the
bijection they return, or None where they do, on relabelled chain products
of all three kinds, clean or with one corrupted cell.
"""

import dataclasses
import random
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from bckalg import (
    AlgebraError,
    CayleyTable,
    Factorization,
    FiniteAlgebra,
    Kind,
    check_wajsberg,
    enumerate_wajsberg,
    factorizations,
    find_isomorphism,
    new_algebra,
    wajsberg_to_bck,
    wajsberg_to_mv,
)
from bckalg.enumeration import order_isomorphism
from bckalg.golden import cell_mismatches, diagnose_wajsberg

AS_KIND = {Kind.WAJSBERG: lambda w: w, Kind.BCK: wajsberg_to_bck, Kind.MV: wajsberg_to_mv}


def _reference_leq(alg):
    t, c = alg.table.entries, alg.complement
    n = alg.order
    if alg.kind is Kind.BCK:
        return tuple(tuple(t[x][y] == alg.zero for y in range(n)) for x in range(n))
    if alg.kind is Kind.MV:
        return tuple(tuple(t[c[x]][y] == alg.unit for y in range(n)) for x in range(n))
    return tuple(tuple(t[x][y] == alg.unit for y in range(n)) for x in range(n))


def _reference_poset_isos(la, lb):
    n = len(la)
    if len(lb) != n:
        return

    def profile(leq):
        return [
            (sum(leq[u][x] for u in range(n)), sum(leq[x][u] for u in range(n)))
            for x in range(n)
        ]

    pa, pb = profile(la), profile(lb)
    if sorted(pa) != sorted(pb):
        return
    candidates = {x: [y for y in range(n) if pb[y] == pa[x]] for x in range(n)}
    order = sorted(range(n), key=lambda x: (len(candidates[x]), x))
    f = [-1] * n
    used = [False] * n

    def dfs(pos):
        if pos == n:
            yield tuple(f)
            return
        x = order[pos]
        for y in candidates[x]:
            if used[y]:
                continue
            if any(
                f[u] != -1 and (la[x][u] != lb[y][f[u]] or la[u][x] != lb[f[u]][y])
                for u in range(n)
            ):
                continue
            f[x] = y
            used[y] = True
            yield from dfs(pos + 1)
            f[x] = -1
            used[y] = False

    yield from dfs(0)


def reference_diagnosis(alg):
    """(flagged cells as name 4-tuples, corrected rows or None), minimised
    over every order isomorphism of every order-matched chain product."""
    if check_wajsberg(alg).passed:
        return (), alg.table.entries
    n = alg.order
    la = _reference_leq(alg)
    options = []
    for cand in enumerate_wajsberg(n):
        for g in _reference_poset_isos(_reference_leq(cand), la):
            if g[cand.zero] != alg.zero or g[cand.unit] != alg.unit:
                continue
            inv = [0] * n
            for i, gi in enumerate(g):
                inv[gi] = i
            rows = tuple(tuple(g[cand.op(inv[x], inv[y])] for y in range(n)) for x in range(n))
            cells = tuple(
                (x, y, alg.table.entries[x][y], rows[x][y])
                for x in range(n)
                for y in range(n)
                if alg.table.entries[x][y] != rows[x][y]
            )
            options.append((len(cells), cells, rows))
    if not options:
        return (), None
    _, cells, rows = min(options, key=lambda o: (o[0], o[1]))
    names = alg.names
    return tuple((names[x], names[y], names[s], names[e]) for x, y, s, e in cells), rows


def relabelled_chain_product(kind, n, pick, seed, cell=None, shift=0):
    """A randomly relabelled order-n chain product read as ``kind``, keeping
    the product's constants as the stored ones; the cell numbered ``cell``
    is changed if one is given."""
    cands = enumerate_wajsberg(n)
    base = AS_KIND[kind](cands[pick % len(cands)])
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[perm[x]][perm[y]] = perm[base.op(x, y)]
    names = [""] * n
    comp = [0] * n
    for x in range(n):
        names[perm[x]] = base.names[x]
        comp[perm[x]] = perm[base.complement[x]]
    if cell is not None:
        x, y = divmod(cell % (n * n), n)
        rows[x][y] = (rows[x][y] + 1 + shift % (n - 1)) % n
    return FiniteAlgebra(kind, names, CayleyTable(rows), perm[base.zero], perm[base.unit], comp)


def corrupted_chain_product(n, pick, seed, cell, shift):
    """A randomly relabelled order-n wajsberg chain product with one cell changed."""
    return relabelled_chain_product(Kind.WAJSBERG, n, pick, seed, cell, shift)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 16),
    pick=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    cell=st.integers(0, 255),
    shift=st.integers(0, 14),
)
# A corruption that keeps the derived order, so a reconstruction exists ...
@example(n=16, pick=4, seed=0, cell=1, shift=0)
# ... and one that breaks it, so the table cannot be diagnosed.
@example(n=16, pick=4, seed=0, cell=0, shift=0)
def test_diagnosis_matches_exhaustive_reference(n, pick, seed, cell, shift):
    alg = corrupted_chain_product(n, pick, seed, cell, shift)
    cells, rows = reference_diagnosis(alg)
    diag = diagnose_wajsberg(alg)
    assert diag.report == check_wajsberg(alg)
    assert tuple((c.row, c.col, c.stored, c.expected) for c in diag.cells) == cells
    if rows is None:
        assert diag.corrected is None
    else:
        assert diag.corrected.table.entries == rows


def test_pinned_examples_cover_both_outcomes():
    diagnosable = corrupted_chain_product(16, 4, 0, 1, 0)
    undiagnosable = corrupted_chain_product(16, 4, 0, 0, 0)
    assert reference_diagnosis(diagnosable)[1] is not None
    assert reference_diagnosis(undiagnosable)[1] is None


@pytest.mark.parametrize(
    "factors",
    [(2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2), (4, 4, 4), (2, 4, 8), (2, 3, 4), (3, 3, 4), (5, 8)],
    ids=lambda fs: "x".join(map(str, fs)),
)
def test_diagnosis_restores_one_corrupted_cell_beyond_the_reference(factors):
    # too large for the exhaustive reference; chains of unequal length make
    # the rebuild's mixed-radix order matter
    n = prod(factors)
    clean = relabelled_chain_product(Kind.WAJSBERG, n, factorizations(n).index(Factorization(n, factors)), seed=n)
    t, one = clean.table.entries, clean.unit
    rng = random.Random(n)
    # a cell off the unit changed to another value off it: the derived order is kept
    x, y = rng.choice([(x, y) for x in range(n) for y in range(n) if t[x][y] != one])
    new = rng.choice([v for v in range(n) if v not in (one, t[x][y])])
    rows = [list(row) for row in t]
    rows[x][y] = new
    diag = diagnose_wajsberg(dataclasses.replace(clean, table=CayleyTable(rows)))
    assert not diag.report.passed
    assert diag.corrected == clean
    nm = clean.names
    assert [(c.row, c.col, c.stored, c.expected) for c in diag.cells] == [(nm[x], nm[y], nm[new], nm[t[x][y]])]


@pytest.mark.parametrize(
    "alg",
    [
        # the stored one at the bottom of the derived order p < q
        new_algebra(Kind.WAJSBERG, "pq", [[0, 0], [1, 0]], one=0),
        # a chain of three whose stored zero is its middle element
        new_algebra(Kind.WAJSBERG, ["e0", "e1", "e2"], [[2, 2, 2], [1, 2, 2], [1, 1, 2]], one=2, complement=[2, 2, 1]),
        # x.x != 1, so x is not below itself
        corrupted_chain_product(8, 2, 0, 6 * 8 + 6, 0),
    ],
    ids=["one-at-bottom", "zero-off-bottom", "diagonal"],
)
def test_diagnosis_rejects_orders_no_constant_keeping_isomorphism_matches(alg):
    assert not check_wajsberg(alg).passed
    assert reference_diagnosis(alg) == ((), None)
    diag = diagnose_wajsberg(alg)
    assert diag.corrected is None and diag.cells == ()


@pytest.mark.parametrize("kind", [Kind.MV, Kind.BCK])
def test_diagnosis_rejects_other_kinds(corpus, kind):
    # Both carry a unit and a complement, so check_wajsberg would run on them
    # and flag cells of a table that is valid under its own kind.
    alg = AS_KIND[kind](corpus["ex3_1_wajsberg"])
    assert alg.complement is not None and alg.unit is not None
    with pytest.raises(AlgebraError, match="^diagnose_wajsberg takes a wajsberg algebra$"):
        diagnose_wajsberg(alg)


def test_cell_mismatches_needs_one_carrier(corpus):
    with pytest.raises(AlgebraError, match="^cannot compare tables over different carriers$"):
        cell_mismatches(corpus["ex3_1_bck"], corpus["ex3_3_bck"])


def _reference_profiles(entries):
    n = len(entries)
    occ = [0] * n
    for row in entries:
        for v in row:
            occ[v] += 1
    return [
        (
            occ[x],
            occ[entries[x][x]],
            tuple(sorted(occ[v] for v in entries[x])),
            tuple(sorted(occ[entries[r][x]] for r in range(n))),
        )
        for x in range(n)
    ]


def _reference_find_isomorphism(a, b):
    n = a.order
    if b.order != n:
        return None
    if (a.unit is None) != (b.unit is None):
        return None
    ta, tb = a.table.entries, b.table.entries
    pa, pb = _reference_profiles(ta), _reference_profiles(tb)
    if sorted(pa) != sorted(pb):
        return None
    match_complement = a.kind is not Kind.BCK
    ca, cb = a.complement, b.complement

    f = [-1] * n
    used = [False] * n

    def assign(x, y):
        if pa[x] != pb[y] or used[y]:
            return False
        f[x] = y
        used[y] = True
        return True

    if not assign(a.zero, b.zero):
        return None
    if a.unit is not None:
        if f[a.unit] != -1:
            if f[a.unit] != b.unit:
                return None
        elif not assign(a.unit, b.unit):
            return None

    candidates = {x: [y for y in range(n) if pb[y] == pa[x]] for x in range(n) if f[x] == -1}
    order = sorted(candidates, key=lambda x: (len(candidates[x]), x))

    def consistent(x):
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

    def verify():
        for x in range(n):
            for y in range(n):
                if f[ta[x][y]] != tb[f[x]][f[y]]:
                    return False
        if match_complement and any(f[ca[x]] != cb[f[x]] for x in range(n)):
            return False
        return True

    def dfs(pos):
        if pos == len(order):
            return verify()
        x = order[pos]
        for y in candidates[x]:
            if used[y]:
                continue
            f[x] = y
            used[y] = True
            if consistent(x) and dfs(pos + 1):
                return True
            f[x] = -1
            used[y] = False
        return False

    return tuple(f) if dfs(0) else None


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(list(Kind)),
    n=st.integers(2, 16),
    pick=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    cell=st.none() | st.integers(0, 255),
    shift=st.integers(0, 14),
    drop_unit=st.booleans(),
)
# A clean 2^4 and a 2^4 whose corruption keeps the derived order.
@example(kind=Kind.BCK, n=16, pick=4, seed=0, cell=None, shift=0, drop_unit=False)
@example(kind=Kind.WAJSBERG, n=16, pick=4, seed=0, cell=1, shift=0, drop_unit=False)
def test_isomorphism_searches_match_references(kind, n, pick, seed, cell, shift, drop_unit):
    query = relabelled_chain_product(kind, n, pick, seed, cell, shift)
    others = [AS_KIND[kind](c) for c in enumerate_wajsberg(n)]
    if drop_unit and kind is Kind.BCK:
        # Unbounded bck signatures: only the zero is a fixed pair.
        query = dataclasses.replace(query, unit=None)
        others = [dataclasses.replace(c, unit=None) for c in others]
    for other in others:
        for a, b in ((other, query), (query, other)):
            assert find_isomorphism(a, b) == _reference_find_isomorphism(a, b)
            expected = next(_reference_poset_isos(_reference_leq(a), _reference_leq(b)), None)
            assert order_isomorphism(a, b) == expected
