from itertools import product

import pytest
from hypothesis import given, strategies as st

from bckalg import (
    AlgebraError,
    Factorization,
    check_morphism,
    check_wajsberg,
    direct_product,
    enumerate_wajsberg,
    factorizations,
    find_isomorphism,
    is_commutative,
    is_implicative,
    is_positive_implicative,
    lukasiewicz_chain,
    new_algebra,
    poset_isomorphic,
    wajsberg_to_bck,
)
from bckalg import axioms, enumeration


def test_factorizations_of_4():
    assert [f.factors for f in factorizations(4)] == [(4,), (2, 2)]


def test_factorizations_of_prime():
    assert [f.factors for f in factorizations(7)] == [(7,)]


def test_factorizations_of_12():
    assert [f.factors for f in factorizations(12)] == [(12,), (2, 6), (3, 4), (2, 2, 3)]


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


def test_chain_tables_match_fixtures(corpus):
    assert lukasiewicz_chain(4).table == corpus["ex3_1_wajsberg"].table
    assert lukasiewicz_chain(6).table == corpus["ex3_3_wajsberg"].table
    assert lukasiewicz_chain(8).table == corpus["ex3_6_wajsberg"].table


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
    """The tuple/dict product builder that ``_product`` replaced: each cell is
    a component tuple looked up in an index of all tuples."""
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
    for n in range(2, 65):
        expected = [reference_product([lukasiewicz_chain(r) for r in f.factors]) for f in factorizations(n)]
        assert enumerate_wajsberg(n) == expected


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


@pytest.mark.parametrize("n", range(2, 25))
def test_enumerated_algebras_pass_wajsberg_axioms(n):
    for a in enumerate_wajsberg(n):
        assert check_wajsberg(a).passed


def test_find_isomorphism_rejects_candidates_on_occurrence_counts(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("occurrence profiles built for non-isomorphic candidates")

    candidates = {n: enumerate_wajsberg(n) for n in range(2, 65)}
    monkeypatch.setattr(enumeration, "_occurrence_profiles", refuse)
    pairs = 0
    for algs in candidates.values():
        for i, a in enumerate(algs):
            for j, b in enumerate(algs):
                if i != j:
                    assert find_isomorphism(a, b) is None
                    pairs += 1
    assert pairs == 858
    monkeypatch.undo()
    for algs in candidates.values():
        for a in algs:
            f = find_isomorphism(a, a)
            assert f is not None and check_morphism(f, a, a).passed


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
