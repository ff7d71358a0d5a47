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

The isomorphism searches are compared with the references in
``tests/references.py``.
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
    Kind,
    check_wajsberg,
    enumerate_wajsberg,
    factorizations,
    find_isomorphism,
    new_algebra,
)
from bckalg.enumeration import order_isomorphism
from bckalg.golden import cell_mismatches, diagnose_wajsberg
from references import (
    AS_KIND,
    reference_find_isomorphism,
    reference_leq,
    reference_order_isomorphism,
    reference_poset_isos,
    relabelled_chain_product,
)


def reference_diagnosis(alg):
    """(flagged cells as name 4-tuples, corrected rows or None), minimised
    over every order isomorphism of every order-matched chain product."""
    if check_wajsberg(alg).passed:
        return (), alg.table.entries
    n = alg.order
    la = reference_leq(alg)
    options = []
    for cand in enumerate_wajsberg(n):
        for g in reference_poset_isos(reference_leq(cand), la):
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


def corrupted_chain_product(n, pick, seed, cell, shift):
    """A randomly relabelled order-n wajsberg chain product with one cell changed."""
    return relabelled_chain_product(Kind.WAJSBERG, n, pick, seed, [(cell, shift)])


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
    query = relabelled_chain_product(kind, n, pick, seed, () if cell is None else [(cell, shift)])
    others = [AS_KIND[kind](c) for c in enumerate_wajsberg(n)]
    if drop_unit and kind is Kind.BCK:
        # Unbounded bck signatures: only the zero is a fixed pair.
        query = dataclasses.replace(query, unit=None)
        others = [dataclasses.replace(c, unit=None) for c in others]
    for other in others:
        for a, b in ((other, query), (query, other)):
            assert find_isomorphism(a, b) == reference_find_isomorphism(a, b)
            assert order_isomorphism(a, b) == reference_order_isomorphism(a, b)
