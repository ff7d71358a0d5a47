import ast
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bckalg import (
    check_bci,
    check_bck,
    check_morphism,
    check_mv,
    check_wajsberg,
    bck_to_mv,
    find_isomorphism,
    is_commutative,
    is_implicative,
    is_positive_implicative,
    iseki_extension,
    lukasiewicz_chain,
    new_algebra,
    wajsberg_to_bck,
    wajsberg_to_mv,
    AlgebraError,
    FiniteAlgebra,
    Kind,
)
from bckalg import axioms

TWO_CHAIN = [[0, 0], [1, 0]]


def two_chain():
    return new_algebra("bck", ["z", "a"], TWO_CHAIN, zero=0)


def trivial():
    return new_algebra("bck", ["t"], [[0]], zero=0)


def test_two_chain_is_bci():
    assert check_bci(two_chain()).passed


def test_fixtures_pass_bck(valid_bck):
    for a in valid_bck:
        assert check_bck(a).passed


def test_extension_of_two_chain_passes_bck():
    assert check_bck(iseki_extension(two_chain())).passed


def test_reflexivity_failure_reported():
    a = new_algebra("bck", ["a", "b", "c"], [[0, 0, 0], [0, 1, 0], [0, 0, 2]], zero=0)
    rep = check_bck(a)
    assert rep.witness_for("bci-3") == (1,)


def test_zero_row_failure_reported():
    a = new_algebra("bck", ["z", "a"], [[0, 1], [1, 0]], zero=0)
    assert check_bck(a).witness_for("bck-5") == (1,)


def test_commutative(corpus):
    assert is_commutative(corpus["ex3_1_bck"]).passed
    assert is_commutative(trivial()).passed


def test_extension_breaks_commutativity():
    rep = is_commutative(iseki_extension(two_chain()))
    assert rep.witness_for("commutative") == (1, 2)


def test_implicative(corpus):
    assert is_implicative(trivial()).passed
    assert is_implicative(corpus["ex3_2_bck"]).passed
    assert is_implicative(corpus["ex3_1_bck"]).witness_for("implicative") == (1, 2)


def test_positive_implicative(corpus):
    assert is_positive_implicative(trivial()).passed
    assert is_positive_implicative(two_chain()).passed
    rep = is_positive_implicative(corpus["ex3_1_bck"])
    assert rep.witness_for("positive-implicative") == (2, 1, 1)


def test_mv_image_of_chain(corpus):
    assert check_mv(bck_to_mv(corpus["ex3_1_bck"])).passed


def test_mv_image_of_two_chain():
    m = bck_to_mv(two_chain())
    assert check_mv(m).passed
    assert m.table.entries == ((0, 1), (1, 1))


def test_mv_rejects_non_commutative_sum():
    m = new_algebra("mv", ["z", "o"], [[0, 1], [0, 0]], zero=0, complement=[1, 0])
    assert check_mv(m).witness_for("mv-comm") is not None


def test_mv_checks_monoid_identity():
    # x + zero = x is checked explicitly, not assumed
    m = new_algebra("mv", ["z", "o"], [[1, 1], [1, 1]], zero=0, complement=[1, 0])
    assert check_mv(m).witness_for("mv-zero-identity") == (0,)


def test_wajsberg_fixtures(valid_wajsberg):
    for a in valid_wajsberg:
        assert check_wajsberg(a).passed


def test_wajsberg_chain_5():
    assert check_wajsberg(lukasiewicz_chain(5)).passed


def test_wajsberg_broken_unit_row():
    rows = [list(r) for r in lukasiewicz_chain(3).table.entries]
    rows[2] = [0, 1, 1]
    a = new_algebra("wajsberg", ["a", "b", "c"], rows, one=2, complement=[2, 1, 0])
    assert check_wajsberg(a).witness_for("wajsberg-1") == (2,)


def test_wajsberg_check_requires_signature(corpus):
    with pytest.raises(AlgebraError):
        check_wajsberg(corpus["ex3_1_bck"])


def test_wajsberg_check_rejects_a_zero_that_is_not_the_complement_of_one():
    c = lukasiewicz_chain(3)
    assert c.complement[2] == 0
    with pytest.raises(AlgebraError, match="complement"):
        check_wajsberg(FiniteAlgebra(Kind.WAJSBERG, c.names, c.table, 1, 2, c.complement))


def test_mv_check_rejects_a_unit_that_is_not_the_complement_of_zero():
    m = wajsberg_to_mv(lukasiewicz_chain(3))
    assert m.complement[m.zero] == 2
    with pytest.raises(AlgebraError, match="complement"):
        check_mv(FiniteAlgebra(Kind.MV, m.names, m.table, m.zero, 1, m.complement))


def test_mv_check_requires_a_unit():
    # an unbounded bck algebra may store a complement, but it has no one
    a = new_algebra("bck", ["z", "p", "q"], [[0, 0, 0], [1, 0, 1], [2, 2, 0]], zero=0, complement=[2, 1, 0])
    with pytest.raises(AlgebraError, match="check_mv takes an mv algebra"):
        check_mv(a)


def test_kind_checkers_refuse_other_kinds(corpus):
    # a valid mv algebra and its bck source, given its complement, are no wajsberg
    # algebras, and the bck one is no mv algebra: a failing report would mislead
    b = corpus["ex3_1_bck"]
    b = new_algebra("bck", b.names, b.table.entries, zero=b.zero, one=b.unit, complement=b.table.entries[b.unit])
    m = bck_to_mv(b)
    assert check_mv(m).passed
    for alg in (m, b):
        with pytest.raises(AlgebraError, match="^check_wajsberg takes a wajsberg algebra$"):
            check_wajsberg(alg)
    with pytest.raises(AlgebraError, match="^check_mv takes an mv algebra$"):
        check_mv(b)


def test_morphism_identity(corpus):
    a = corpus["ex3_1_bck"]
    assert check_morphism(list(range(4)), a, a).passed


def test_morphism_swap_breaks_chain(corpus):
    a = corpus["ex3_1_bck"]
    rep = check_morphism([0, 2, 1, 3], a, a)
    assert rep.witness_for("morphism") == (1, 2)


def test_morphism_from_isomorphism_search(corpus):
    from bckalg import direct_product

    target = wajsberg_to_bck(direct_product([lukasiewicz_chain(2), lukasiewicz_chain(2)]))
    f = find_isomorphism(corpus["ex3_2_bck"], target)
    assert f is not None
    assert check_morphism(f, corpus["ex3_2_bck"], target).passed


def test_morphism_must_be_total(corpus):
    a = corpus["ex3_1_bck"]
    with pytest.raises(AlgebraError):
        check_morphism([0, 1], a, a)
    with pytest.raises(AlgebraError):
        check_morphism([0, 1, 2, 9], a, a)
    with pytest.raises(AlgebraError, match="total"):
        check_morphism({0: 0, 1: 1, 2: 2, 4: 3}, a, a)
    assert check_morphism({3: 3, 2: 2, 1: 1, 0: 0}, a, a).passed


@pytest.mark.parametrize("keys", [(False, True), (0, True), (False, 1), (0.0, 1.0)], ids=["bools", "1-bool", "0-bool", "floats"])
def test_morphism_map_keys_are_element_indices(keys):
    # False == 0 and True == 1 hash alike, so a bool-keyed map once read as total
    a = new_algebra("bck", "ab", TWO_CHAIN, zero=0)
    with pytest.raises(AlgebraError, match="^morphism map must be total on the source carrier$"):
        check_morphism(dict(zip(keys, (0, 1))), a, a)


def test_bck_implies_bci(corpus):
    for name, a in corpus.items():
        if name.endswith("_bck") and check_bck(a).passed:
            assert check_bci(a).passed


@st.composite
def arbitrary_tables(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    rows = [
        [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]
        for _ in range(n)
    ]
    return new_algebra("bck", [f"x{i}" for i in range(n)], rows, zero=0)


@given(arbitrary_tables())
def test_witnesses_are_self_certifying(alg):
    """Replaying any reported witness against an independent evaluation of the
    named axiom must re-violate it."""
    t = alg.table.entries
    z = alg.zero
    violates = {
        "bci-1": lambda w: t[t[t[w[0]][w[1]]][t[w[0]][w[2]]]][t[w[2]][w[1]]] != z,
        "bci-2": lambda w: t[t[w[0]][t[w[0]][w[1]]]][w[1]] != z,
        "bci-3": lambda w: t[w[0]][w[0]] != z,
        "bci-4": lambda w: t[w[0]][w[1]] == z and t[w[1]][w[0]] == z and w[0] != w[1],
        "bck-5": lambda w: t[z][w[0]] != z,
        "commutative": lambda w: t[w[0]][t[w[0]][w[1]]] != t[w[1]][t[w[1]][w[0]]],
        "implicative": lambda w: t[w[0]][t[w[1]][w[0]]] != w[0],
        "positive-implicative": lambda w: t[t[w[0]][w[1]]][w[2]] != t[t[w[0]][w[2]]][t[w[1]][w[2]]],
    }
    reports = [check_bck(alg), is_commutative(alg), is_implicative(alg), is_positive_implicative(alg)]
    for rep in reports:
        for v in rep.failures:
            assert violates[v.axiom](v.witness)


@given(arbitrary_tables())
def test_report_passed_iff_no_failures(alg):
    rep = check_bck(alg)
    assert rep.passed == (not rep.failures)


def test_checks_are_fast_at_order_12():
    big = wajsberg_to_bck(lukasiewicz_chain(12))
    start = time.perf_counter()
    assert check_bck(big).passed
    assert is_commutative(big).passed
    assert time.perf_counter() - start < 1.0


AXIOMS_SOURCE = ast.parse(Path(axioms.__file__).read_text(encoding="utf-8"))


def test_axioms_module_has_no_lambda_and_no_product_scan():
    nodes = list(ast.walk(AXIOMS_SOURCE))
    assert not [node.lineno for node in nodes if isinstance(node, ast.Lambda)]
    imported = {(getattr(node, "module", None), alias.name) for node in nodes
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not [pair for pair in imported if "itertools" in pair]
    assert not [node for node in nodes if isinstance(node, ast.Attribute) and node.attr == "product"]


def test_each_axiom_id_is_in_the_term_table_once():
    table = next(
        node.value for node in AXIOMS_SOURCE.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_TERMS"
    )
    ids = [key.value for key in table.keys]
    assert len(ids) == len(set(ids))
    checked = {
        const.value
        for node in ast.walk(AXIOMS_SOURCE)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_report"
        for const in ast.walk(node.args[1])
        if isinstance(const, ast.Constant)
    }
    assert checked == set(ids)


def render(node, operand=False):
    """A parsed term in the docstring's notation, parenthesizing nested products."""
    if isinstance(node, ast.Compare):
        return f"{render(node.left)} = {render(node.comparators[0])}"
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.Call):
        return f"f({render(node.args[0])})" if node.args else render(node.func, True) + "'"
    op = "*" if isinstance(node.op, ast.Mult) else " op "
    text = render(node.left, True) + op + render(node.right, True)
    return f"({text})" if operand else text


@pytest.mark.parametrize("axiom", [a for a in axioms._TERMS if a != "bci-4"])
def test_term_renders_as_its_docstring_line(axiom):
    term = axioms._TERMS[axiom]
    assert render(axioms._parse(term)) == term
    assert f"\n  {axiom}  {term}\n" in axioms.__doc__


def test_bci_4_is_a_predicate_not_a_term():
    assert axioms._kernel("bci-4") is axioms._antisymmetry
    assert check_bci(new_algebra("bck", "ab", [[0, 0], [0, 0]], zero=0)).witness_for("bci-4") == (0, 1)


def every_checker():
    w = lukasiewicz_chain(3)
    b, m = wajsberg_to_bck(w), wajsberg_to_mv(w)
    for check in (check_bci, check_bck, is_commutative, is_implicative, is_positive_implicative):
        check(b)
    check_mv(m)
    check_wajsberg(w)
    check_morphism([0, 1, 2], b, b)


def test_checker_calls_compile_nothing_once_each_identity_is_compiled(monkeypatch):
    compiled = []
    compile_term = axioms._compile

    def counting(term):
        compiled.append(term)
        return compile_term(term)

    every_checker()
    monkeypatch.setattr(axioms, "_compile", counting)
    every_checker()
    every_checker()
    assert compiled == []
    # the counter does see compiles: with the kernels dropped, each identity compiles once
    axioms._kernel.cache_clear()
    every_checker()
    every_checker()
    assert sorted(compiled) == sorted(term for axiom, term in axioms._TERMS.items() if axiom != "bci-4")
