"""Second paths for the two isomorphism searches, and the builders of the
relabelled algebras the tests feed them.

The two references are separate backtracking searches for algebra and order
isomorphisms, sharing no code with ``bckalg.enumeration``.
``find_isomorphism`` and ``order_isomorphism`` must return exactly the
bijection they return, or None where they do, on relabelled chain products
of all three kinds, clean or with one corrupted cell. A change that replaces
either library search is compared against these rather than against a frozen
copy of the code it replaced. ``tests/test_layering.py`` checks that this
module takes no search and no private name from the library.
"""

import dataclasses
import random

from bckalg import CayleyTable, FiniteAlgebra, Kind, enumerate_wajsberg, wajsberg_to_bck, wajsberg_to_mv

AS_KIND = {Kind.WAJSBERG: lambda w: w, Kind.BCK: wajsberg_to_bck, Kind.MV: wajsberg_to_mv}


def relabel(alg, perm):
    """alg with element x renamed perm[x], its table and constants moved
    along, and its complement too when it has one."""
    n = alg.order
    inv = sorted(range(n), key=perm.__getitem__)
    rows = [[perm[alg.op(inv[x], inv[y])] for y in range(n)] for x in range(n)]
    names = [alg.names[i] for i in inv]
    unit = None if alg.unit is None else perm[alg.unit]
    comp = None if alg.complement is None else [perm[alg.complement[i]] for i in inv]
    return FiniteAlgebra(alg.kind, names, CayleyTable(rows), perm[alg.zero], unit, comp)


def relabelled(alg, seed):
    """alg with its elements renumbered by a random permutation."""
    perm = list(range(alg.order))
    random.Random(seed).shuffle(perm)
    return relabel(alg, perm)


def relabelled_chain_product(kind, n, pick, seed, cells=()):
    """An order-n chain product read as ``kind``, its elements renumbered at
    random and its constants kept; each (cell, shift) changes one cell."""
    cands = enumerate_wajsberg(n)
    alg = relabelled(AS_KIND[kind](cands[pick % len(cands)]), seed)
    rows = [list(row) for row in alg.table.entries]
    for cell, shift in cells:
        x, y = divmod(cell % (n * n), n)
        rows[x][y] = (rows[x][y] + 1 + shift % (n - 1)) % n
    return dataclasses.replace(alg, table=CayleyTable(rows))


def reference_leq(alg):
    """The derived order as a bool matrix, built cell by cell from the table."""
    t, c = alg.table.entries, alg.complement
    n = alg.order
    if alg.kind is Kind.BCK:
        return tuple(tuple(t[x][y] == alg.zero for y in range(n)) for x in range(n))
    if alg.kind is Kind.MV:
        return tuple(tuple(t[c[x]][y] == alg.unit for y in range(n)) for x in range(n))
    return tuple(tuple(t[x][y] == alg.unit for y in range(n)) for x in range(n))


def reference_poset_isos(la, lb):
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


def reference_order_isomorphism(a, b):
    return next(reference_poset_isos(reference_leq(a), reference_leq(b)), None)


def reference_profiles(entries):
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


def reference_find_isomorphism(a, b):
    n = a.order
    if b.order != n:
        return None
    if (a.unit is None) != (b.unit is None):
        return None
    ta, tb = a.table.entries, b.table.entries
    pa, pb = reference_profiles(ta), reference_profiles(tb)
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
