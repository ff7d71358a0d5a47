"""Differential test of the misprint diagnosis against an exhaustive reference.

The reference below diagnoses a stored wajsberg table the slow way: it
relabels every order-matched chain product along *every* order isomorphism
of the derived orders and keeps the relabelling that deviates from the
stored table in the fewest cells. ``diagnose_wajsberg`` must agree with it
on randomly relabelled chain products with one corrupted cell, both when a
reconstruction exists and when none does.
"""

import random

from hypothesis import example, given, settings, strategies as st

from bckalg import CayleyTable, FiniteAlgebra, Kind, check_wajsberg, enumerate_wajsberg
from bckalg.golden import diagnose_wajsberg


def _reference_leq(alg):
    t = alg.table.entries
    n = alg.order
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


def corrupted_chain_product(n, pick, seed, cell, shift):
    """A randomly relabelled order-n chain product with one cell changed,
    keeping the product's constants as the stored ones."""
    cands = enumerate_wajsberg(n)
    base = cands[pick % len(cands)]
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
    x, y = divmod(cell % (n * n), n)
    rows[x][y] = (rows[x][y] + 1 + shift % (n - 1)) % n
    return FiniteAlgebra(Kind.WAJSBERG, names, CayleyTable(rows), perm[base.zero], perm[base.unit], comp)


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
