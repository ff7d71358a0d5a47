"""The substructure enumerator against a frozen copy of the code it replaced,
and the ideal lists against an oracle that enumerates nothing.

The reference below closes frozensets by re-pairing every member on every
call, grows subalgebras from that closure, and finds ideals by scanning
every subset that contains zero, as ``bckalg.substructures`` did before it
held closed sets as int bitsets. Lists must be equal, order included.
"""

from itertools import combinations
from typing import Iterable

import pytest
from hypothesis import example, given, settings, strategies as st

from bckalg import (
    CayleyTable,
    FiniteAlgebra,
    Kind,
    bck_to_mv,
    check_bck,
    closure_of,
    enumerate_wajsberg,
    factorizations,
    ideals,
    is_ideal,
    subalgebras,
)
from references import relabelled_chain_product

# -- frozen reference -----------------------------------------------------


def ref_closure_of(alg: FiniteAlgebra, seed: Iterable[int]) -> frozenset[int]:
    members = set(seed)
    frontier = list(members)
    while frontier:
        fresh = []
        for x in list(members):
            for y in frontier:
                for v in (alg.op(x, y), alg.op(y, x)):
                    if v not in members:
                        members.add(v)
                        fresh.append(v)
        frontier = fresh
    return frozenset(members)


def ref_is_ideal(alg: FiniteAlgebra, members: Iterable[int]) -> bool:
    s = frozenset(members)
    if alg.zero not in s:
        return False
    t = alg.table.entries
    return all(not (t[x][y] in s and x not in s) for y in s for x in range(alg.order))


def _sorted_subsets(subsets: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    return sorted(subsets, key=lambda s: (len(s), tuple(sorted(s))))


def _filter_proper(alg: FiniteAlgebra, subsets: list[frozenset[int]], proper_only: bool) -> list[frozenset[int]]:
    if not proper_only:
        return subsets
    full = frozenset(range(alg.order))
    trivial = frozenset({alg.zero})
    return [s for s in subsets if s != full and s != trivial]


def ref_subalgebras(alg: FiniteAlgebra, proper_only: bool = False) -> list[frozenset[int]]:
    found = {ref_closure_of(alg, {alg.zero})}
    frontier = list(found)
    while frontier:
        fresh = []
        for base in frontier:
            for x in range(alg.order):
                if x in base:
                    continue
                grown = ref_closure_of(alg, base | {x})
                if grown not in found:
                    found.add(grown)
                    fresh.append(grown)
        frontier = fresh
    return _filter_proper(alg, _sorted_subsets(found), proper_only)


def ref_ideals(alg: FiniteAlgebra, proper_only: bool = False) -> list[frozenset[int]]:
    n = alg.order
    t = alg.table.entries
    z = alg.zero
    below = [frozenset(x for x in range(n) if t[x][y] == z) for y in range(n)]
    rest = [x for x in range(n) if x != z]
    found = []
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            s = frozenset((z, *extra))
            if any(not below[y] <= s for y in s):
                continue
            if ref_is_ideal(alg, s):
                found.append(s)
    return _filter_proper(alg, _sorted_subsets(found), proper_only)


# -- comparison -----------------------------------------------------------


def assert_same_closures(alg, seeds):
    for seed in seeds:
        assert closure_of(alg, seed) == ref_closure_of(alg, seed), seed


def assert_same_subalgebras(alg):
    for proper in (False, True):
        assert subalgebras(alg, proper) == ref_subalgebras(alg, proper)


def assert_same_ideals(alg):
    for proper in (False, True):
        assert ideals(alg, proper) == ref_ideals(alg, proper)


def test_lists_match_reference_on_fixtures(corpus):
    # all 14 tables, the two defective difference tables and the implication tables included
    for alg in corpus.values():
        assert_same_subalgebras(alg)
        assert_same_ideals(alg)
        assert_same_closures(alg, [{x} for x in range(alg.order)] + list(combinations(range(alg.order), 2)))


@pytest.mark.parametrize("n", range(2, 17))
def test_lists_match_reference_on_every_chain_product(n):
    for pick in range(len(enumerate_wajsberg(n))):
        alg = relabelled_chain_product(Kind.BCK, n, pick, seed=n * 100 + pick)
        assert_same_subalgebras(alg)
        assert_same_ideals(alg)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 16),
    pick=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    cells=st.lists(st.tuples(st.integers(0, 255), st.integers(0, 14)), min_size=1, max_size=2),
    seeds=st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=3), min_size=1, max_size=4),
)
@example(n=16, pick=4, seed=0, cells=[(255, 0)], seeds=[[15]])
@example(n=12, pick=2, seed=1, cells=[(17, 3), (140, 9)], seeds=[[3, 7]])
def test_subalgebras_and_closures_match_reference_on_corrupted_tables(n, pick, seed, cells, seeds):
    # ideals are not compared with the subset scan: on a table that is not BCK
    # an absorbing set need not be closed, so ``ideals`` is pinned instead as
    # the subalgebras that pass ``is_ideal``
    alg = relabelled_chain_product(Kind.BCK, n, pick, seed, cells)
    assert_same_subalgebras(alg)
    assert_same_closures(alg, [{x % n for x in s} for s in seeds])
    for proper in (False, True):
        assert ideals(alg, proper) == [s for s in subalgebras(alg, proper) if is_ideal(alg, s)]


# -- an oracle that enumerates nothing ------------------------------------


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 24), pick=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
@example(n=24, pick=6, seed=7)  # 2x2x2x3
@example(n=16, pick=4, seed=0)  # 2x2x2x2
def test_ideals_are_the_down_sets_of_boolean_elements(n, pick, seed):
    # In a finite bounded commutative BCK algebra, read as an MV algebra, the
    # ideals are exactly the down-sets of the elements b with b + b = b, and a
    # product of k chains has 2^k of them.
    k = len(factorizations(n)[pick % len(factorizations(n))].factors)
    alg = relabelled_chain_product(Kind.BCK, n, pick, seed)
    mv = bck_to_mv(alg)
    boolean = [b for b in range(n) if mv.op(b, b) == b]
    down_sets = {frozenset(x for x in range(n) if mv.op(mv.complement[x], b) == mv.unit) for b in boolean}
    found = ideals(alg)
    assert len(found) == len(down_sets) == 2**k
    assert set(found) == down_sets


def test_hostile_family_lists_every_subset_containing_zero():
    # 0*x = 0, x*x = 0, otherwise x*y = x: every subset containing 0 is a
    # subalgebra and an ideal, 2^(n-1) of each
    n = 8
    rows = [[0 if x in (0, y) else x for y in range(n)] for x in range(n)]
    alg = FiniteAlgebra(Kind.BCK, [f"a{x}" for x in range(n)], CayleyTable(rows), 0)
    assert check_bck(alg).passed
    assert len(subalgebras(alg)) == len(ideals(alg)) == 2 ** (n - 1)
    assert subalgebras(alg) == ideals(alg) == ref_ideals(alg)
    assert_same_subalgebras(alg)
