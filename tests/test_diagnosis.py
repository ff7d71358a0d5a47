"""Differential tests of the misprint diagnosis against a reference search.

The reference diagnoses a stored wajsberg table the slow way: it
relabels every order-matched chain product along *every* order isomorphism
of the derived orders and keeps the relabelling that deviates from the
stored table in the fewest cells. ``diagnose_wajsberg`` must agree with it
on randomly relabelled chain products with one corrupted cell, both when a
reconstruction exists and when none does. Past the orders that reference
can search, a one-cell corruption of each classify benchmark product (order
24 to 64) must diagnose back to the uncorrupted table.
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
    new_algebra,
)
from bckalg import core
from bckalg.golden import cell_mismatches, diagnose_wajsberg
from references import AS_KIND, reference_leq, reference_poset_isos, relabelled_chain_product


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
# A corrupted 4-chain whose Birkhoff reading fills the product but whose
# product order is not the derived order: only the order confirmation refuses it.
@example(n=4, pick=0, seed=0, cell=11, shift=0)
def test_diagnosis_matches_exhaustive_reference(n, pick, seed, cell, shift):
    alg = relabelled_chain_product(Kind.WAJSBERG, n, pick, seed, [(cell, shift)])
    cells, rows = reference_diagnosis(alg)
    diag = diagnose_wajsberg(alg)
    assert diag.report == check_wajsberg(alg)
    assert tuple((c.row, c.col, c.stored, c.expected) for c in diag.cells) == cells
    if rows is None:
        assert diag.corrected is None
    else:
        assert diag.corrected.table.entries == rows


def test_pinned_examples_cover_both_outcomes():
    diagnosable = relabelled_chain_product(Kind.WAJSBERG, 16, 4, 0, [(1, 0)])
    undiagnosable = relabelled_chain_product(Kind.WAJSBERG, 16, 4, 0, [(0, 0)])
    assert reference_diagnosis(diagnosable)[1] is not None
    assert reference_diagnosis(undiagnosable)[1] is None
    misread = relabelled_chain_product(Kind.WAJSBERG, 4, 0, 0, [(11, 0)])
    assert core._read_chains(misread) is not None and core.chain_coordinates(misread) is None
    assert reference_diagnosis(misread) == ((), None)


@pytest.mark.parametrize(
    "factors",
    [(2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2), (4, 4, 4), (2, 4, 8), (2, 3, 4), (3, 3, 4), (5, 8)],
    ids=lambda fs: "x".join(map(str, fs)),
)
def test_diagnosis_restores_one_corrupted_cell_beyond_the_reference(monkeypatch, factors):
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
    builds, build = [], core.chain_product_rows
    monkeypatch.setattr(core, "chain_product_rows", lambda *args: builds.append(args) or build(*args))
    readings, read = [], core._read_chains
    monkeypatch.setattr(core, "_read_chains", lambda alg: readings.append(alg) or read(alg))
    diag = diagnose_wajsberg(dataclasses.replace(clean, table=CayleyTable(rows)))
    assert not diag.report.passed
    # check_wajsberg asked the certificate first, and the diagnosis read the reading and rebuild it made
    assert len(builds) == len(readings) == 1
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
        relabelled_chain_product(Kind.WAJSBERG, 8, 2, 0, [(6 * 8 + 6, 0)]),
    ],
    ids=["one-at-bottom", "zero-off-bottom", "diagonal"],
)
def test_diagnosis_rejects_orders_no_constant_keeping_isomorphism_matches(alg):
    assert not check_wajsberg(alg).passed
    assert reference_diagnosis(alg) == ((), None)
    diag = diagnose_wajsberg(alg)
    assert diag.corrected is None and diag.cells == ()
    # the first two are read and confirmed; their constants are what refuses them
    assert core.chain_rebuild(alg) is None


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
