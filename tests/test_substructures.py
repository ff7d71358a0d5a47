import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import bckalg.substructures as substructures
from bckalg import (
    AlgebraError,
    CayleyTable,
    FiniteAlgebra,
    Kind,
    check_bck,
    closure_of,
    enumerate_wajsberg,
    factorizations,
    ideals,
    induced_subalgebra,
    is_ideal,
    is_subalgebra,
    iseki_extension,
    lukasiewicz_chain,
    new_algebra,
    subalgebras,
    wajsberg_to_bck,
    wajsberg_to_mv,
)
from references import name_sets, relabel, sets_of


def test_is_subalgebra(corpus):
    a = corpus["ex3_1_bck"]
    assert is_subalgebra(a, {0, 1, 2})
    assert not is_subalgebra(a, {1, 2})
    s7 = corpus["ex3_7_bck"]
    assert is_subalgebra(s7, {s7.index(n) for n in "OTYV"})


def test_is_subalgebra_rejects_empty(corpus):
    with pytest.raises(AlgebraError):
        is_subalgebra(corpus["ex3_1_bck"], set())


def test_is_ideal(corpus):
    two = corpus["ex3_2_bck"]
    assert is_ideal(two, {0, 1})
    one = corpus["ex3_1_bck"]
    assert not is_ideal(one, {0, 1})  # B*A = A but B is outside
    assert is_ideal(one, range(4))
    assert not is_ideal(one, {1})  # zero missing


def test_closure_growth(corpus):
    a = corpus["ex3_1_bck"]
    assert closure_of(a, {3}) == {0, 3}
    assert closure_of(a, {0}) == {0}
    assert closure_of(a, {1, 3}) == {0, 1, 2, 3}


def test_subalgebras_chain(corpus):
    a = corpus["ex3_1_bck"]
    assert name_sets(a, subalgebras(a, proper_only=True)) == sets_of("OA", "OB", "OE", "OAB")


def test_subalgebras_order_six_chain(corpus):
    a = corpus["ex3_3_bck"]
    assert name_sets(a, subalgebras(a, proper_only=True)) == sets_of(
        "OA", "OB", "OC", "OD", "OE", "OAB", "OBD", "OABC", "OABCD"
    )


def test_subalgebras_of_ex3_4_include_stored_lists(corpus):
    a = corpus["ex3_4_bck"]
    found = name_sets(a, subalgebras(a, proper_only=True))
    assert frozenset("OAC") in found and frozenset("OACD") in found


def test_ideals_golden_lists(corpus):
    assert ideals(corpus["ex3_1_bck"], proper_only=True) == []
    assert name_sets(corpus["ex3_4_bck"], ideals(corpus["ex3_4_bck"], proper_only=True)) == sets_of("OAB", "OC")
    assert name_sets(corpus["ex3_5_bck"], ideals(corpus["ex3_5_bck"], proper_only=True)) == sets_of("OCD", "OB")
    assert name_sets(corpus["ex3_7_bck"], ideals(corpus["ex3_7_bck"], proper_only=True)) == sets_of("OYTV", "OX")


def test_proper_flag_semantics(corpus):
    a = corpus["ex3_1_bck"]
    everything = subalgebras(a)
    proper = subalgebras(a, proper_only=True)
    assert frozenset({0}) in everything and frozenset(range(4)) in everything
    assert frozenset({0}) not in proper and frozenset(range(4)) not in proper
    assert len(everything) == len(proper) + 2
    assert frozenset(range(4)) in ideals(a)


def test_output_is_sorted_by_size_then_members(corpus):
    subs = subalgebras(corpus["ex3_3_bck"])
    keys = [(len(s), tuple(sorted(s))) for s in subs]
    assert keys == sorted(keys)


def test_ideals_are_downward_closed(corpus):
    for name, a in sorted(corpus.items()):
        if not name.endswith("_bck"):
            continue
        t = a.table.entries
        for s in ideals(a):
            for y in s:
                assert all(t[x][y] != a.zero or x in s for x in range(a.order))


def test_closed_ideals_appear_among_subalgebras(corpus, valid_bck):
    for a in valid_bck:
        subs = set(subalgebras(a))
        for s in ideals(a):
            if all(a.op(x, y) in s for x in s for y in s):
                assert s in subs


def test_every_subalgebra_is_a_bck_algebra(valid_bck):
    for a in valid_bck:
        for s in subalgebras(a):
            assert check_bck(induced_subalgebra(a, s)).passed


def test_each_fixture_has_a_subalgebra_one_smaller(corpus):
    for name, a in sorted(corpus.items()):
        if name.endswith("_bck"):
            assert any(len(s) == a.order - 1 for s in subalgebras(a))


def test_extension_base_is_ideal(valid_bck):
    for a in valid_bck:
        ext = iseki_extension(a)
        base = frozenset(range(a.order))
        assert is_ideal(ext, base)
        assert base in ideals(ext)


def test_induced_subalgebra_errors(corpus):
    a = corpus["ex3_1_bck"]
    with pytest.raises(AlgebraError):
        induced_subalgebra(a, {1, 2})
    # {1} is closed here (1*1 = 1) but leaves out zero
    idem = new_algebra("bck", ["z", "a", "b"], [[0, 0, 0], [1, 1, 0], [2, 2, 0]], zero=0)
    with pytest.raises(AlgebraError, match="^subset does not contain zero$"):
        induced_subalgebra(idem, [1])


@pytest.mark.parametrize("kind", [Kind.WAJSBERG, Kind.MV])
def test_induced_subalgebra_takes_bck_algebras_only(kind):
    # {e0, e2} is closed in the 3-chain's implication table, which once came
    # back as a bck algebra that fails check_bck
    chain = lukasiewicz_chain(3)
    alg = chain if kind is Kind.WAJSBERG else wajsberg_to_mv(chain)
    with pytest.raises(AlgebraError, match="^induced_subalgebra takes a bck algebra$"):
        induced_subalgebra(alg, [0, 2])


def test_ideals_never_hold_the_subalgebra_list():
    # ideals filters closed sets as they are generated; a filter over the
    # finished subalgebra list would need as much memory as subalgebras itself
    alg = wajsberg_to_bck(enumerate_wajsberg(16)[-1])  # 2x2x2x2
    tracemalloc.start()
    try:
        subs = len(subalgebras(alg))
        sub_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert len(ideals(alg)) == 16
        ideal_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert subs > 16
    assert ideal_peak <= sub_peak / 4, (ideal_peak, sub_peak)


OUT_OF_RANGE = [-1, 4, 7, 1.5, "A", None]


@pytest.mark.parametrize("bad", OUT_OF_RANGE, ids=repr)
def test_closure_of_rejects_members_out_of_range(corpus, bad):
    with pytest.raises(AlgebraError):
        closure_of(corpus["ex3_1_bck"], {bad})


@pytest.mark.parametrize("bad", OUT_OF_RANGE, ids=repr)
def test_is_subalgebra_rejects_members_out_of_range(corpus, bad):
    # {0, 3, -1} once passed: -1 wrapped round to the last element, E
    with pytest.raises(AlgebraError):
        is_subalgebra(corpus["ex3_1_bck"], {0, 3, bad})


@pytest.mark.parametrize("bad", OUT_OF_RANGE, ids=repr)
def test_is_ideal_rejects_members_out_of_range(corpus, bad):
    # {0, 1, 2, 3, -1} once passed, and {0, 7} raised IndexError
    with pytest.raises(AlgebraError):
        is_ideal(corpus["ex3_1_bck"], {0, 1, 2, 3, bad})


@pytest.mark.parametrize("bad", OUT_OF_RANGE, ids=repr)
def test_induced_subalgebra_rejects_members_out_of_range(corpus, bad):
    with pytest.raises(AlgebraError):
        induced_subalgebra(corpus["ex3_1_bck"], [0, 3, bad])


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda a: closure_of(a, [True]), True),
        (lambda a: is_subalgebra(a, [False, True]), False),
        (lambda a: is_ideal(a, [0, True]), True),
        (lambda a: induced_subalgebra(a, [0, 1, True]), True),
    ],
    ids=["closure_of", "is_subalgebra", "is_ideal", "induced_subalgebra"],
)
def test_bool_is_not_a_member_index(corpus, call, bad):
    # False == 0 and True == 1, so closure_of(a, [True]) once returned {0, 1}
    # and is_subalgebra(a, [False, True]) passed; in a set, [1, True] folds into {1}
    with pytest.raises(AlgebraError, match=f"^member {bad} is not an element index for order 4$"):
        call(corpus["ex3_1_bck"])


@pytest.mark.parametrize("factors", [(2, 2, 2, 2, 2), (3, 3, 3)])
def test_closures_per_closed_set_stay_bounded(monkeypatch, factors):
    # the natural numbering of a chain product is the worst case for walking
    # the elements by index: 6.96 and 6.64 closures per closed set
    n = math.prod(factors)
    assert factorizations(n)[-1].factors == factors
    alg = wajsberg_to_bck(enumerate_wajsberg(n)[-1])
    calls = []
    close = substructures._close

    def counted(*args):
        calls.append(None)
        return close(*args)

    monkeypatch.setattr(substructures, "_close", counted)
    found = subalgebras(alg)
    assert len(calls) <= 2.5 * len(found), (len(calls), len(found))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 9),
    cells=st.lists(st.integers(0, 80), min_size=81, max_size=81),
    seed=st.lists(st.integers(0, 8), max_size=3),
    fresh=st.lists(st.integers(0, 8), max_size=3),
    stop=st.integers(0, 2**9 - 1),
)
def test_close_stops_exactly_when_the_closure_meets_stop(n, cells, seed, fresh, stop):
    # any table, not only BCK ones: a closure is returned unless it adds an
    # element of stop, and then -1 is
    t = [[cells[x * 9 + y] % n for y in range(n)] for x in range(n)]
    base = substructures._close(t, 0, [], [x % n for x in seed])
    members = substructures._elements(base)
    fresh = [x % n for x in fresh]
    plain = substructures._close(t, base, members, fresh)
    got = substructures._close(t, base, members, fresh, stop)
    assert got == (-1 if plain & ~base & stop else plain)
    assert members == substructures._elements(base)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    pick=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    cell=st.none() | st.tuples(st.integers(0, 143), st.integers(0, 10)),
)
@example(n=12, pick=3, seed=0, cell=None)  # 2x2x3
@example(n=8, pick=2, seed=5, cell=(9, 0))
def test_substructures_follow_a_relabelling(n, pick, seed, cell):
    # the walk order is read off the table, so renumbering the elements must
    # move every list along and change nothing else, on corrupted tables too
    cands = enumerate_wajsberg(n)
    base = wajsberg_to_bck(cands[pick % len(cands)])
    rows = [list(r) for r in base.table.entries]
    if cell is not None:
        x, y = divmod(cell[0] % (n * n), n)
        rows[x][y] = (rows[x][y] + 1 + cell[1] % (n - 1)) % n
    alg = FiniteAlgebra(Kind.BCK, base.names, CayleyTable(rows), base.zero)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    moved = relabel(alg, perm)
    for family in (subalgebras, ideals):
        for proper in (False, True):
            expected = sorted((frozenset(perm[x] for x in s) for s in family(alg, proper)), key=lambda s: (len(s), sorted(s)))
            assert family(moved, proper) == expected


def test_induced_subalgebra_relabels(corpus):
    a = corpus["ex3_3_bck"]
    sub = induced_subalgebra(a, {0, 2, 4})
    assert sub.names == ("O", "B", "D")
    assert sub.table.entries == ((0, 0, 0), (1, 0, 0), (2, 1, 0))
