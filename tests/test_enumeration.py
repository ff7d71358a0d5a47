import dataclasses
import gc
import random
import time
import weakref
from functools import reduce
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from bckalg import (
    AlgebraError,
    CayleyTable,
    Factorization,
    FiniteAlgebra,
    Kind,
    bound_element,
    check_bck,
    check_morphism,
    check_wajsberg,
    complement_of,
    direct_product,
    enumerate_wajsberg,
    factorizations,
    find_isomorphism,
    ideals,
    is_commutative,
    is_implicative,
    is_positive_implicative,
    lukasiewicz_chain,
    new_algebra,
    poset_isomorphic,
    subalgebras,
    wajsberg_to_bck,
    wajsberg_to_mv,
)
from bckalg import axioms, core, enumeration
from bckalg.core import (chain_coordinates, chain_rebuild, is_chain_product, occurrence_counts, order_degrees,
                         order_relation)
from bckalg.enumeration import order_isomorphism
from test_axioms_reference import ref_check_wajsberg
from references import (
    AS_KIND,
    reference_chain_product,
    reference_factorizations,
    reference_find_isomorphism,
    reference_leq,
    reference_order_isomorphism,
    relabel,
    relabelled,
    relabelled_chain_product,
)


def test_factorizations_of_4():
    assert [f.factors for f in factorizations(4)] == [(4,), (2, 2)]


def test_factorizations_of_prime():
    assert [f.factors for f in factorizations(7)] == [(7,)]


def test_factorizations_of_12():
    assert [f.factors for f in factorizations(12)] == [(12,), (2, 6), (3, 4), (2, 2, 3)]


def test_factorizations_match_the_reference_up_to_1000():
    assert [n for n in range(2, 1001) if [f.factors for f in factorizations(n)] != reference_factorizations(n)] == []


def test_factorizations_of_a_large_prime_are_quick():
    # only divisors up to sqrt(m) can start a factorization, so a prime near 10^7
    # costs about 3,000 trial divisions, not 10^7
    start = time.perf_counter()
    found = factorizations(10_000_019)
    elapsed = time.perf_counter() - start
    assert [f.factors for f in found] == [(10_000_019,)]
    assert elapsed < 0.05


def test_factorizations_edge_cases():
    assert factorizations(1) == []
    with pytest.raises(AlgebraError):
        factorizations(0)


def test_factorization_validation():
    with pytest.raises(AlgebraError):
        Factorization(6, (3, 2))  # not sorted
    with pytest.raises(AlgebraError):
        Factorization(6, (1, 6))  # factor < 2
    with pytest.raises(AlgebraError):
        Factorization(6, (2, 2))  # wrong product
    assert Factorization(8, (2, 2, 2)).label == "2x2x2"


@pytest.mark.parametrize("bad", [4.0, "4", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize(
    "call",
    [factorizations, enumerate_wajsberg, lukasiewicz_chain, lambda v: Factorization(v, (2, 2)),
     lambda v: Factorization(4, (2, v))],
    ids=["factorizations", "enumerate_wajsberg", "lukasiewicz_chain", "Factorization.n", "Factorization.factors"],
)
def test_counts_are_ints_and_never_bools(call, bad):
    # a float, a string or a bool is refused by name, never compared or counted as an int
    with pytest.raises(AlgebraError, match="must be an int"):
        call(bad)


@given(st.integers(min_value=1, max_value=300))
def test_factorization_properties(n):
    from math import prod

    found = factorizations(n)
    seen = set()
    for f in found:
        assert prod(f.factors) == n
        assert all(x >= 2 for x in f.factors)
        assert tuple(sorted(f.factors)) == f.factors
        seen.add(f.factors)
    assert len(seen) == len(found)
    if n >= 2:
        assert (n,) in seen


def test_chain_shape():
    c = lukasiewicz_chain(2)
    assert c.table.entries == ((1, 1), (0, 1))
    assert c.complement == (1, 0) and c.unit == 1 and c.zero == 0
    with pytest.raises(AlgebraError):
        lukasiewicz_chain(1)


@pytest.mark.parametrize("n", range(2, 10))
def test_chains_are_wajsberg(n):
    assert check_wajsberg(lukasiewicz_chain(n)).passed


def test_product_of_one_is_identity():
    c = lukasiewicz_chain(3)
    assert direct_product([c]) is c


def test_product_layout():
    p = direct_product([lukasiewicz_chain(2), lukasiewicz_chain(3)])
    assert p.names == ("(e0,e0)", "(e0,e1)", "(e0,e2)", "(e1,e0)", "(e1,e1)", "(e1,e2)")
    assert p.zero == 0 and p.unit == 5
    assert p.complement == (5, 4, 3, 2, 1, 0)
    assert check_wajsberg(p).passed


def test_product_componentwise_cell():
    p = direct_product([lukasiewicz_chain(2), lukasiewicz_chain(2)])
    # (e0,e1).(e1,e0) = (e1,e0)
    assert p.table.entries[1][2] == 2


def test_product_rejects_empty_and_bad_parts(corpus):
    with pytest.raises(AlgebraError):
        direct_product([])
    with pytest.raises(AlgebraError):
        direct_product([corpus["ex3_1_bck"]])


def corrupted_chain():
    """chain(4) with (e2,e1) raised from e2 to e3: still a wajsberg-kind table."""
    c = lukasiewicz_chain(4)
    rows = [list(r) for r in c.table.entries]
    rows[2][1] = 3
    return new_algebra("wajsberg", c.names, rows, one=3)


@pytest.mark.parametrize("before", [0, 1])
def test_product_rejects_part_failing_wajsberg_axioms(before):
    parts = [lukasiewicz_chain(2)] * before + [corrupted_chain()]
    with pytest.raises(AlgebraError) as exc:
        direct_product(parts)
    assert str(exc.value) == "input is not a valid wajsberg algebra: wajsberg-3 fails at (e1,e2)"


def test_product_matches_stored_diamond(corpus):
    p = direct_product([lukasiewicz_chain(2), lukasiewicz_chain(2)])
    assert find_isomorphism(p, corpus["ex3_2_wajsberg"]) is not None


def test_product_matches_stored_six_element_examples(corpus):
    p = direct_product([lukasiewicz_chain(2), lukasiewicz_chain(3)])
    for key in ("ex3_4_wajsberg", "ex3_5_wajsberg"):
        f = find_isomorphism(p, corpus[key])
        assert f is not None


def test_product_commutes_and_associates_up_to_isomorphism():
    c2, c3 = lukasiewicz_chain(2), lukasiewicz_chain(3)
    assert find_isomorphism(direct_product([c2, c3]), direct_product([c3, c2])) is not None
    nested = direct_product([direct_product([c2, c2]), c2])
    flat = direct_product([c2, c2, c2])
    assert find_isomorphism(nested, flat) is not None


def reference_product(parts):
    """The product of the given parts, whatever their numbering: each cell is
    a component tuple looked up in an index of all tuples, and the table is
    checked as ``new_algebra`` checks raw rows."""
    if len(parts) == 1:
        return parts[0]
    tuples = list(product(*(range(p.order) for p in parts)))
    index = {t: i for i, t in enumerate(tuples)}
    rows = [
        [index[tuple(p.op(a, b) for p, a, b in zip(parts, ta, tb))] for tb in tuples]
        for ta in tuples
    ]
    comp = [index[tuple(p.complement[a] for p, a in zip(parts, t))] for t in tuples]
    names = ["(" + ",".join(p.names[a] for p, a in zip(parts, t)) + ")" for t in tuples]
    one = index[tuple(p.unit for p in parts)]
    return new_algebra("wajsberg", names, rows, one=one, complement=comp)


def reversed_chain(n):
    """chain(n) relabelled by x -> n-1-x, so zero is at index n-1 and one at 0."""
    c = lukasiewicz_chain(n)
    top = n - 1
    rows = [[top - c.op(top - x, top - y) for y in range(n)] for x in range(n)]
    return new_algebra("wajsberg", [f"r{i}" for i in range(n)], rows, one=0)


def test_product_matches_reference_on_every_factorization():
    # whole algebras against the chain formulas, which share no code with the
    # chains and products the library builds without checking a cell
    for n in range(2, 65):
        assert enumerate_wajsberg(n) == [reference_chain_product(fs) for fs in reference_factorizations(n)]


def test_product_matches_reference_on_fixture_pairs(valid_wajsberg):
    for a in valid_wajsberg:
        for b in valid_wajsberg:
            assert direct_product([a, b]) == reference_product([a, b])


def test_product_matches_reference_on_relabelled_part():
    r = reversed_chain(4)
    assert (r.zero, r.unit) == (3, 0)
    c3 = lukasiewicz_chain(3)
    for parts in ([r, c3], [c3, r], [c3, r, lukasiewicz_chain(2)], [r, r]):
        assert direct_product(parts) == reference_product(parts)


def test_product_matches_reference_when_nested():
    c2 = lukasiewicz_chain(2)
    nested = direct_product([direct_product([c2, c2]), c2])
    assert nested == reference_product([reference_product([c2, c2]), c2])


def test_enumerate_counts():
    assert len(enumerate_wajsberg(5)) == 1
    four = enumerate_wajsberg(4)
    assert [a.order for a in four] == [4, 4]
    assert four[0].table == lukasiewicz_chain(4).table
    eight = enumerate_wajsberg(8)
    assert len(eight) == 3
    for a in eight:
        assert a.order == 8 and check_wajsberg(a).passed
    with pytest.raises(AlgebraError):
        enumerate_wajsberg(1)


def test_enumerate_runs_no_checker(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_wajsberg called an axiom checker")

    checkers = [name for name, v in vars(enumeration).items() if getattr(v, "__module__", "") == axioms.__name__]
    assert "check_wajsberg" in checkers
    for name in checkers:
        monkeypatch.setattr(enumeration, name, refuse)
    for n in range(2, 33):
        assert [a.order for a in enumeration.enumerate_wajsberg(n)] == [n] * len(factorizations(n))


@pytest.mark.parametrize("n", [12, 24, 64])
def test_a_repeated_order_shares_its_products_and_builds_nothing(monkeypatch, n):
    # the second call builds no chain and no product, and the objects it
    # returns already hold their invariants, so no occurrence is counted again
    def refuse(*args, **kwargs):
        raise AssertionError("an order among the last 8 asked for was built again")

    first = enumerate_wajsberg(n)
    copies = [relabelled(a, seed=n) for a in first]
    assert all(find_isomorphism(a, b) is not None for a, b in zip(first, copies))
    monkeypatch.setattr(enumeration, "_product", refuse)
    monkeypatch.setattr(enumeration, "lukasiewicz_chain", refuse)
    second = enumerate_wajsberg(n)
    assert second is not first and second == first
    assert len(second) == len(first) and all(a is b for a, b in zip(first, second))
    assert second == [reference_chain_product(fs) for fs in reference_factorizations(n)]
    # each call returns a list of its own: changing one leaves the next whole
    second.clear()
    first.append(first[0])
    assert enumerate_wajsberg(n) == [reference_chain_product(fs) for fs in reference_factorizations(n)]
    counted = counting(monkeypatch, core, "_count_occurrences")
    assert all(find_isomorphism(a, b) is not None for a, b in zip(enumerate_wajsberg(n), copies))
    assert counted == []


def test_the_catalogue_keeps_the_last_8_orders_only():
    # a bound on memory: an order's products are dropped once 8 other orders
    # have been asked for since, and are then built again, equal to the reference
    held = weakref.ref(enumerate_wajsberg(12)[0])
    for n in range(13, 20):
        enumerate_wajsberg(n)
    gc.collect()
    assert held() is not None
    enumerate_wajsberg(20)
    gc.collect()
    assert held() is None
    assert enumerate_wajsberg(12) == [reference_chain_product(fs) for fs in reference_factorizations(12)]


@pytest.mark.parametrize("n", range(2, 25))
def test_enumerated_algebras_pass_wajsberg_axioms(n):
    # from axioms._CERTIFY_FROM up check_wajsberg passes these by certificate,
    # which rebuilds the very products it is given, so the reference scans them too
    for a in enumerate_wajsberg(n):
        assert check_wajsberg(a).passed
        assert ref_check_wajsberg(a).passed


def counting(monkeypatch, module, name):
    """Wrap module.name so that each call is recorded; returns the record."""
    calls = []
    real = getattr(module, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, record)
    return calls


def test_find_isomorphism_rejects_candidates_on_degrees(monkeypatch):
    # no two chain products of one order have the same sorted derived-order
    # degrees, so the first stage rejects every pair of them and no
    # occurrence count is taken
    def refuse(*args, **kwargs):
        raise AssertionError("occurrence counts computed for orders whose degrees differ")

    wajsberg = {n: enumerate_wajsberg(n) for n in range(2, 65)}
    unbounded = {n: [dataclasses.replace(wajsberg_to_bck(a), unit=None) for a in algs] for n, algs in wajsberg.items()}
    monkeypatch.setattr(core, "_count_occurrences", refuse)
    pairs = 0
    for candidates in (wajsberg, unbounded):
        for algs in candidates.values():
            for i, a in enumerate(algs):
                for j, b in enumerate(algs):
                    if i != j:
                        assert find_isomorphism(a, b) is None
                        pairs += 1
    assert pairs == 2 * 858
    monkeypatch.undo()
    counted = counting(monkeypatch, core, "_count_occurrences")
    for candidates in (wajsberg, unbounded):
        for algs in candidates.values():
            for a in algs:
                assert find_isomorphism(a, relabelled(a, seed=a.order)) is not None
    # the guard above is not vacuous: isomorphic pairs do reach the counts,
    # once for each of the two objects
    assert len(counted) == 2 * 2 * sum(map(len, wajsberg.values()))


@pytest.mark.parametrize(
    "kind, n, pick, seed, cell, shift",
    [
        (Kind.BCK, 12, 0, 15, 31, 3),
        (Kind.BCK, 24, 2, 13, 526, 2),
        (Kind.WAJSBERG, 24, 2, 4, 179, 1),
        (Kind.WAJSBERG, 36, 1, 15, 932, 19),
        (Kind.MV, 24, 4, 93, 150, 19),
        (Kind.MV, 36, 6, 80, 298, 1),
    ],
    ids=lambda v: v.value if isinstance(v, Kind) else None,
)
def test_find_isomorphism_rejects_candidates_on_keys(monkeypatch, kind, n, pick, seed, cell, shift):
    # the changed cell moves one occurrence between two elements whose counts
    # differ by one: the sorted counts and the derived order stay, and the
    # (occurrences, degrees) keys change, since the two degrees differ
    clean = relabelled_chain_product(kind, n, pick, seed)
    corrupted = relabelled_chain_product(kind, n, pick, seed, [(cell, shift)])
    assert sorted(reference_degrees(corrupted)) == sorted(reference_degrees(clean))
    assert sorted(reference_occurrences(corrupted)) == sorted(reference_occurrences(clean))
    keys = [sorted(zip(reference_occurrences(alg), reference_degrees(alg))) for alg in (clean, corrupted)]
    assert keys[0] != keys[1]
    candidates = [AS_KIND[kind](c) for c in enumerate_wajsberg(n)]
    searched = counting(monkeypatch, enumeration, "_bijections")
    for c in candidates:
        assert find_isomorphism(c, corrupted) is None and find_isomorphism(corrupted, c) is None
    assert searched == []
    # the guard above is not vacuous: the clean product does reach the search
    assert find_isomorphism(candidates[pick], clean) is not None
    assert len(searched) == 1


def test_find_isomorphism_self_map(corpus):
    a = corpus["ex3_5_bck"]
    f = find_isomorphism(a, a)
    assert f is not None and sorted(f) == list(range(a.order))
    assert check_morphism(f, a, a).passed


def test_find_isomorphism_respects_constants(corpus):
    a = corpus["ex3_1_bck"]
    target = wajsberg_to_bck(lukasiewicz_chain(4))
    f = find_isomorphism(a, target)
    assert f is not None
    assert f[a.zero] == target.zero and f[a.unit] == target.unit


@pytest.mark.parametrize("swap", [False, True], ids=["declared-bare", "bare-declared"])
def test_find_isomorphism_needs_no_unit_on_both_sides(corpus, swap):
    # a bck isomorphism maps the top to the top, so a one declared on one side
    # only is no obstacle; a missing one once made every such pair non-isomorphic
    product = wajsberg_to_bck(direct_product([lukasiewicz_chain(2), lukasiewicz_chain(3)]))
    for a, b in ((corpus["ex3_1_bck"], corpus["ex3_1_bck"]), (product, relabelled(product, seed=6))):
        a, b = (dataclasses.replace(b, unit=None), a) if swap else (a, dataclasses.replace(b, unit=None))
        f = find_isomorphism(a, b)
        assert f is not None and check_morphism(f, a, b).passed
        top_a, top_b = bound_element(a), bound_element(b)
        assert None not in (top_a, top_b) and f[top_a] == top_b


def test_find_isomorphism_distinguishes_orders(corpus):
    assert find_isomorphism(corpus["ex3_1_bck"], corpus["ex3_2_bck"]) is None


def test_find_isomorphism_nontrivial_relabelling(corpus):
    target = wajsberg_to_bck(direct_product([lukasiewicz_chain(2), lukasiewicz_chain(3)]))
    for key in ("ex3_4_bck", "ex3_5_bck"):
        f = find_isomorphism(corpus[key], target)
        assert f is not None
        assert check_morphism(f, corpus[key], target).passed


def test_find_isomorphism_kind_and_order(corpus):
    with pytest.raises(AlgebraError):
        find_isomorphism(corpus["ex3_1_bck"], corpus["ex3_1_wajsberg"])
    assert find_isomorphism(corpus["ex3_1_bck"], corpus["ex3_3_bck"]) is None


def test_find_isomorphism_checks_the_table_of_each_complete_map():
    # the search reaches f = (0, 3, 1, 2) with every partial check passed,
    # yet f(0*0) = f(1) = 3 while f(0) op f(0) = 0 op 0 = 1; no map is an isomorphism
    a = FiniteAlgebra(Kind.BCK, "0123", CayleyTable([[1, 2, 2, 1], [0, 0, 0, 2], [1, 1, 2, 1], [2, 2, 1, 0]]), 0)
    b = FiniteAlgebra(Kind.BCK, "0123", CayleyTable([[1, 1, 3, 3], [3, 1, 3, 3], [1, 3, 0, 1], [0, 0, 1, 0]]), 0)
    assert not any(f[0] == 0 and check_morphism(f, a, b).passed for f in permutations(range(4)))
    assert find_isomorphism(a, b) is None


def test_find_isomorphism_refuses_fixed_pairs_that_conflict(monkeypatch):
    # one table, zero at index 0 on both sides, one declared at index 0 on
    # one side and index 1 on the other: every invariant agrees, so the
    # search starts; element 0 is pinned to 0 and to 1, so its fixed level
    # has an empty candidate list and the search ends there
    rows = [[0, 0, 1, 1]] * 4
    a = new_algebra("bck", "0abc", rows, zero=0, one=0)
    b = new_algebra("bck", "0abc", rows, zero=0, one=1)
    searched = counting(monkeypatch, enumeration, "_bijections")
    assert find_isomorphism(a, b) is None and reference_find_isomorphism(a, b) is None
    assert len(searched) == 1


def test_mv_search_makes_the_wajsberg_search(monkeypatch):
    # x' + y is x -> y, so the order view of a product read as mv is its
    # wajsberg table: both readings place and check alike, check for check
    checks = []
    real = enumeration._bijections

    def search(pa, pb, fixed, fits):
        def counted(*args):
            checks.append(args[1])
            return fits(*args)

        return real(pa, pb, fixed, counted)

    monkeypatch.setattr(enumeration, "_bijections", search)
    products = [a for n in range(2, 65) for a in enumerate_wajsberg(n)]
    products.append(direct_product([lukasiewicz_chain(4), lukasiewicz_chain(4), lukasiewicz_chain(8)]))
    for a in products:
        found = []
        # relabelling commutes with the translation, so each product is translated once
        for c in (a, wajsberg_to_mv(a)):
            checks.clear()
            found.append((find_isomorphism(c, relabelled(c, seed=a.order)), len(checks)))
        assert found[0][0] is not None
        assert found[0] == found[1], a.names[-1]


def test_searches_go_as_deep_as_the_order():
    # one loop over levels, not one stack frame per element: a chain of order
    # 1,100 places more elements than the default recursion limit allows frames
    n = 1100
    chain = lukasiewicz_chain(n)
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    moved = relabel(chain, perm)
    for search in (find_isomorphism, order_isomorphism):
        assert search(chain, chain) == tuple(range(n))
        # a chain has no automorphism but the identity, so perm is the only map
        assert search(chain, moved) == tuple(perm)


def mv_family(complement, neutral_zero=True):
    """An mv-kind table with x + 0 = 0 + x = x (or, without ``neutral_zero``,
    only 0 + 0 = 0) and every other sum 1, over the given complement. Only the
    complement tells such tables apart, and ``bckalg iso`` searches mv files
    without validating them."""
    n = len(complement)
    rows = [[x if y == 0 else y if x == 0 else 1 for y in range(n)] for x in range(n)]
    if not neutral_zero:
        rows = [[0 if x == y == 0 else 1 for y in range(n)] for x in range(n)]
    return new_algebra("mv", [f"m{x}" for x in range(n)], rows, zero=0, one=1, complement=complement)


@pytest.mark.parametrize(
    "ca, cb, neutral_zero",
    [
        # involutions fixing the middle on one side and swapping it in pairs on the other:
        # without the complement checks, all (n - 2)! = 24 maps of the middle reach check_morphism
        ((1, 0, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4), True),
        ((1, 0, 3, 2, 5, 4), (1, 0, 2, 3, 4, 5), True),
        # not involutions: f(x') = f(x)' for an x' placed before x is checked in the zero column
        ((1, 0, 2, 2), (1, 0, 2, 3), True),
        # x + 0 = 1 for x != 0, so every view is the same and only the complement prune refuses
        ((1, 0, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4), False),
        ((1, 0, 3, 2, 5, 4), (1, 0, 2, 3, 4, 5), False),
    ],
    ids=["fixed-swapped", "swapped-fixed", "x-after-its-complement", "zero-absorbed-fixed-swapped", "zero-absorbed-swapped-fixed"],
)
def test_find_isomorphism_prunes_on_the_complement(monkeypatch, ca, cb, neutral_zero):
    # the search prunes on the order view, x' + y, and on f(x') = f(x)' as it
    # places x; where x + 0 = x the view's zero column is x' and makes that
    # check too (zero is placed first), elsewhere only the complement prune does
    a, b = mv_family(ca, neutral_zero), mv_family(cb, neutral_zero)
    assert (order_degrees(a), occurrence_counts(a)) == (order_degrees(b), occurrence_counts(b))
    checked = counting(monkeypatch, enumeration, "check_morphism")
    assert find_isomorphism(a, b) is None and reference_find_isomorphism(a, b) is None
    assert checked == []


def test_find_isomorphism_leaves_a_complement_that_is_no_involution_to_verify(monkeypatch):
    # 2' = 3' = 3 on one side: the search checks f(x') = f(x)' as it places x,
    # also in the zero column of the order view, which for involutions covers
    # every placed u with u' = x; here the two maps that fix 0 and 1 pass the
    # table and are refused by the full complement check after check_morphism
    a, b = mv_family((1, 0, 3, 3)), mv_family((1, 0, 2, 3))
    assert (order_degrees(a), occurrence_counts(a)) == (order_degrees(b), occurrence_counts(b))
    checked = counting(monkeypatch, enumeration, "check_morphism")
    assert find_isomorphism(a, b) is None and reference_find_isomorphism(a, b) is None
    assert len(checked) == 2


def test_isomorphic_algebras_share_check_profile(corpus):
    a, b = corpus["ex3_4_bck"], corpus["ex3_5_bck"]
    assert find_isomorphism(a, b) is not None
    for check in (is_commutative, is_implicative, is_positive_implicative):
        assert check(a).passed == check(b).passed


def test_poset_isomorphic_chains(corpus):
    assert poset_isomorphic(wajsberg_to_bck(lukasiewicz_chain(4)), corpus["ex3_1_bck"])
    assert not poset_isomorphic(corpus["ex3_1_bck"], corpus["ex3_2_bck"])
    assert not poset_isomorphic(corpus["ex3_1_bck"], corpus["ex3_3_bck"])


def test_poset_isomorphic_across_kinds(corpus):
    p = direct_product([lukasiewicz_chain(2), lukasiewicz_chain(2)])
    assert poset_isomorphic(p, corpus["ex3_2_wajsberg"])
    assert poset_isomorphic(p, corpus["ex3_2_bck"])


def test_enumerated_posets_pairwise_distinct():
    for n in (8, 12):
        algs = enumerate_wajsberg(n)
        for i in range(len(algs)):
            for j in range(i + 1, len(algs)):
                assert not poset_isomorphic(algs[i], algs[j])


def test_poset_isomorphic_rejects_candidates_on_degree_counts(monkeypatch):
    # the sorted (down-set, up-set) sizes already tell these orders apart,
    # so no order view is built for a candidate that does not match
    def refuse(*args, **kwargs):
        raise AssertionError("order relation built for orders whose degree counts differ")

    candidates = {n: enumerate_wajsberg(n) for n in (24, 32, 36, 40, 64)}
    monkeypatch.setattr(enumeration, "order_relation", refuse)
    for algs in candidates.values():
        for i, a in enumerate(algs):
            for j, b in enumerate(algs):
                if i != j:
                    assert not poset_isomorphic(a, b)
    monkeypatch.undo()
    for algs in candidates.values():
        for a in algs:
            assert poset_isomorphic(a, relabelled(a, seed=a.order))


def assert_order_view_matches_reference(alg):
    rel, leq, n = order_relation(alg), reference_leq(alg), alg.order
    assert all(rel.holds(x, y) == leq[x][y] for x in range(n) for y in range(n))
    assert rel.top() == next((t for t in range(n) if all(row[t] for row in leq)), None)
    assert rel.order == n
    hash(rel)


def reference_degrees(alg):
    leq = reference_leq(alg)
    return tuple((sum(col), sum(row)) for col, row in zip(zip(*leq), leq))


def reference_occurrences(alg):
    cells = [v for row in alg.table.entries for v in row]
    return tuple(cells.count(x) for x in range(alg.order))


@settings(max_examples=30, deadline=None)
@given(
    read=st.sampled_from([AS_KIND[Kind.WAJSBERG], wajsberg_to_bck, wajsberg_to_mv]),
    n=st.integers(2, 64),
    pick=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    cell=st.integers(0, 64 * 64 - 1),
    shift=st.integers(0, 62),
)
# The largest order with the most candidates, read as each kind.
@example(read=AS_KIND[Kind.WAJSBERG], n=64, pick=4, seed=1, cell=100, shift=0)
@example(read=wajsberg_to_bck, n=64, pick=10, seed=2, cell=4095, shift=5)
@example(read=wajsberg_to_mv, n=64, pick=0, seed=3, cell=0, shift=62)
# The classify benchmark's other products: 2x3x4, 3x3x4 and 5x8.
@example(read=AS_KIND[Kind.WAJSBERG], n=24, pick=5, seed=4, cell=300, shift=7)
@example(read=wajsberg_to_bck, n=36, pick=7, seed=5, cell=1000, shift=11)
@example(read=wajsberg_to_mv, n=40, pick=3, seed=6, cell=1599, shift=20)
def test_memoized_invariants_and_maps_match_reference_search(read, n, pick, seed, cell, shift):
    candidates = [read(c) for c in enumerate_wajsberg(n)]
    clean = relabelled(candidates[pick % len(candidates)], seed)
    x, y = divmod(cell % (n * n), n)
    rows = [list(row) for row in clean.table.entries]
    rows[x][y] = (rows[x][y] + 1 + shift % (n - 1)) % n
    for alg in (clean, clean):  # the second pass reads the memo
        assert order_degrees(alg) == reference_degrees(alg)
        assert occurrence_counts(alg) == reference_occurrences(alg)
    # a copy is a new object and counts its own table, not the memo it came from
    corrupted = dataclasses.replace(clean, table=CayleyTable(rows))
    assert isinstance(order_degrees(corrupted), tuple) and isinstance(occurrence_counts(corrupted), tuple)
    assert order_degrees(corrupted) == reference_degrees(corrupted)
    assert occurrence_counts(corrupted) == reference_occurrences(corrupted)
    for query in (clean, corrupted):
        assert_order_view_matches_reference(query)
        for c in candidates:
            for a, b in ((c, query), (query, c)):
                assert find_isomorphism(a, b) == reference_find_isomorphism(a, b)
                assert order_isomorphism(a, b) == reference_order_isomorphism(a, b)


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


@st.composite
def arbitrary_algebras(draw, kind, n, bounded):
    """An order-n table of the given kind with arbitrary cells; only the
    constants are set so that ``new_algebra`` accepts them, and a bck one is
    declared iff ``bounded``."""
    rows = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    names = [f"x{i}" for i in range(n)]
    zero, one = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind is Kind.MV:
        complement = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        return new_algebra(kind, names, rows, zero=zero, complement=complement)
    if kind is Kind.WAJSBERG:
        # the complement is the zero column, and it takes one to zero
        rows[one][zero] = zero
        return new_algebra(kind, names, rows, one=one, complement=[row[zero] for row in rows])
    if not bounded:
        return new_algebra(kind, names, rows, zero=zero)
    for row in rows:
        row[one] = zero
    return new_algebra(kind, names, rows, zero=zero, one=one)


@st.composite
def arbitrary_pairs(draw):
    """An arbitrary table of order 2-5 and either a random relabelling of it
    or another arbitrary table of the same kind, order and signature; a bck
    second side may have its declared one dropped."""
    kind, n, bounded = draw(st.sampled_from(list(Kind))), draw(st.integers(2, 5)), draw(st.booleans())
    a = draw(arbitrary_algebras(kind, n, bounded))
    if draw(st.booleans()):
        b = relabel(a, draw(st.permutations(range(n))))
    else:
        b = draw(arbitrary_algebras(kind, n, bounded))
    if kind is Kind.BCK and bounded and draw(st.booleans()):
        b = dataclasses.replace(b, unit=None)
    return a, b


# The first complete map the search reaches is the identity. It passes every
# check made while placing, since 1 is placed before 1 * 1 = 3, and fails
# the table: f(1 * 1) = 3 while f(1) * f(1) = 2 on the relabelled side.
TWISTED = new_algebra("bck", "0123", [[0, 2, 2, 3], [0, 3, 0, 0], [0, 0, 3, 2], [0, 0, 3, 2]], zero=0)


@settings(max_examples=300, deadline=None)
@given(arbitrary_pairs())
@example((TWISTED, relabel(TWISTED, [0, 1, 3, 2])))
def test_isomorphism_searches_match_references_on_arbitrary_tables(pair):
    # ``bckalg iso`` searches files it does not validate
    a, b = pair
    for x, y in ((a, b), (b, a)):
        assert find_isomorphism(x, y) == reference_find_isomorphism(x, y)
        assert order_isomorphism(x, y) == reference_order_isomorphism(x, y)


def test_order_view_readers_find_isomorphisms_substructures_bound_and_complement():
    # the poset search, the substructure walk, the bound and the complement all read the order view
    pairs = [
        (read(a), relabelled(read(a), seed=n))
        for n in (24, 64)
        for a in enumerate_wajsberg(n)
        for read in AS_KIND.values()
    ]
    bck = wajsberg_to_bck(direct_product([lukasiewicz_chain(3), lukasiewicz_chain(2), lukasiewicz_chain(2)]))
    bare = new_algebra("bck", bck.names, bck.table, zero=bck.zero)
    closed = subalgebras(bck), ideals(bck)
    for a, b in pairs:
        assert poset_isomorphic(a, b)
    assert (subalgebras(bck), ideals(bck)) == closed
    assert bound_element(bare) == bck.unit
    assert complement_of(bare, bck.zero) == bck.unit
    given = new_algebra("bck", bck.names, bck.table, zero=bck.zero, complement=bck.complement)
    assert given == dataclasses.replace(bck, unit=None)


@pytest.mark.parametrize(
    "read, max_n", [(lambda w: w, 64), (wajsberg_to_bck, 32), (wajsberg_to_mv, 32)], ids=["wajsberg", "bck", "mv"]
)
def test_chain_coordinates_recover_every_enumerated_factorization(read, max_n):
    # a second path for the main claim: the factors are read off the derived
    # order alone, sharing no code with the enumeration that built the table
    for n in range(2, max_n + 1):
        for fact, alg in zip(factorizations(n), enumerate_wajsberg(n)):
            alg = relabelled(read(alg), seed=n)
            tops, coords = chain_coordinates(alg)
            assert sorted(t + 1 for t in tops) == list(fact.factors)
            chains = read(enumeration._product([lukasiewicz_chain(t + 1) for t in tops]))
            index = [reduce(lambda u, ct: u * (ct[1] + 1) + ct[0], zip(c, tops), 0) for c in coords]
            assert sorted(index) == list(range(n))
            assert (index[alg.zero], index[alg.unit]) == (chains.zero, chains.unit)
            assert check_morphism(index, alg, chains).passed


def test_chain_coordinates_reject_an_order_that_is_no_product_of_chains():
    # 0*x = 0, x*x = 0, x*y = x otherwise: a bck algebra whose four nonzero
    # elements are pairwise incomparable atoms
    rows = [[0 if x in (0, y) else x for y in range(5)] for x in range(5)]
    alg = new_algebra("bck", "01234", rows, zero=0)
    assert check_bck(alg).passed
    assert chain_coordinates(alg) is None


@pytest.mark.parametrize(
    "kind, keep_one",
    [(Kind.WAJSBERG, True), (Kind.BCK, True), (Kind.BCK, False), (Kind.MV, True)],
    ids=["wajsberg", "bck", "bck-without-one", "mv"],
)
def test_a_certified_table_reads_and_rebuilds_as_its_order_confirms(kind, keep_one):
    alg = relabelled_chain_product(kind, 24, 2, 7)
    # a bck chain product with no declared one is certified and rebuilt all the same
    alg = alg if keep_one else dataclasses.replace(alg, unit=None)
    assert is_chain_product(alg)
    assert chain_coordinates(alg) is not None and chain_rebuild(alg) == alg.table.entries
    # one cell changed, the derived order kept: the same reading, the clean table rebuilt
    mark = order_relation(alg).mark
    rows = [list(row) for row in alg.table.entries]
    x, y = next((x, y) for x, row in enumerate(rows) for y, v in enumerate(row) if v != mark)
    rows[x][y] = next(v for v in range(alg.order) if v not in (mark, rows[x][y]))
    bad = dataclasses.replace(alg, table=CayleyTable(rows))
    assert not is_chain_product(bad)
    assert chain_coordinates(bad) == chain_coordinates(alg)
    assert chain_rebuild(bad) == alg.table.entries


def test_chain_coordinates_confirm_the_reading_when_the_cube_gains_a_pair_or_trades_two():
    # the subset order on 3 bits, as the bck table x*y = 0 if x R y else 1, with one
    # pair added or two traded (x <= y and u <= v for x <= v and u <= y, which keeps
    # every up- and down-degree); the coordinates are kept iff the product order
    # on the reading is R, and 12 of the 15 readings refused are trades
    n, cells = 8, list(product(range(8), repeat=2))
    cube = {(x, y) for x, y in cells if x & y == x}
    relations = [cube | {c} for c in cells if c not in cube]
    relations += [cube - {(x, y), (u, v)} | {(x, v), (u, y)}
                  for (x, y), (u, v) in product(sorted(cube), repeat=2) if (x, v) not in cube and (u, y) not in cube]
    kept = refused = 0
    for r in relations:
        alg = new_algebra("bck", "abcdefgh", [[0 if (x, y) in r else 1 for y in range(n)] for x in range(n)], zero=0)
        reading = core._read_chains(alg)
        product_order = reading and {(x, y) for x, y in cells if all(map(int.__le__, reading[1][x], reading[1][y]))}
        assert chain_coordinates(alg) == (reading if product_order == r else None)
        kept += product_order == r
        refused += reading is not None and product_order != r
    assert (len(relations), kept, refused) == (85, 6, 15)


def test_chain_coordinates_confirm_the_reading_on_every_reflexive_relation_of_four_elements():
    # each of the 4,096 reflexive relations R on four elements as the bck table
    # x*y = 0 if x R y else 1, whose derived order is R; the coordinates are kept
    # iff the product order on the Birkhoff reading is R, which holds exactly for
    # the relabelled 4-chains and 2x2 squares
    n, elements = 4, range(4)
    bits = lambda leq: sum(1 << (n * x + y) for x in elements for y in elements if leq(x, y))
    shapes = [lambda x, y: x <= y, lambda x, y: x & y == x]
    products = {bits(lambda x, y: leq(p[x], p[y])) for leq in shapes for p in permutations(elements)}
    diagonal = bits(int.__eq__)
    filled = []
    for r in range(1 << n * n):
        if r & diagonal != diagonal:
            continue
        rows = [[0 if r >> (n * x + y) & 1 else 1 for y in elements] for x in elements]
        alg = new_algebra("bck", "abcd", rows, zero=0)
        reading = core._read_chains(alg)
        if reading is not None:
            coords = reading[1]
            product_order = bits(lambda x, y: all(map(int.__le__, coords[x], coords[y])))
            filled.append(product_order == r)
        assert chain_coordinates(alg) == (reading if reading is not None and product_order == r else None)
        assert (chain_coordinates(alg) is not None) == (r in products)
        assert not is_chain_product(alg)
    assert (len(filled), filled.count(False), len(products)) == (60, 24, 36)
