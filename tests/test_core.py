import dataclasses
import re

import pytest

from bckalg import (
    AlgebraError,
    CayleyTable,
    FiniteAlgebra,
    Kind,
    bck_to_mv,
    bound_element,
    check_bck,
    check_morphism,
    complement_of,
    derived_order,
    involutions,
    iseki_extension,
    lukasiewicz_chain,
    new_algebra,
    parse_algebra,
    render_algebra,
    wajsberg_to_mv,
)
from bckalg.core import chain_product_rows, order_relation
from references import TWO_CHAIN, trivial, two_chain

# two incomparable atoms over zero; passes every bck axiom but has no top
TWO_ATOMS = [[0, 0, 0], [1, 0, 1], [2, 2, 0]]


def test_trivial_algebra_valid():
    a = trivial()
    assert a.order == 1 and a.zero == 0 and a.unit is None


def test_fixture_algebra_valid(corpus):
    a = corpus["ex3_1_bck"]
    assert a.kind is Kind.BCK
    assert a.names == ("O", "A", "B", "E")
    assert a.zero == 0 and a.unit == 3


def test_out_of_range_entry_rejected():
    with pytest.raises(AlgebraError):
        CayleyTable(((0, 5), (1, 0)))


def test_non_square_table_rejected():
    with pytest.raises(AlgebraError):
        CayleyTable(((0, 1), (1,)))


def test_empty_table_rejected():
    with pytest.raises(AlgebraError):
        CayleyTable(())


def test_duplicate_names_rejected():
    with pytest.raises(AlgebraError):
        new_algebra("bck", ["a", "a"], TWO_CHAIN, zero=0)


def test_name_count_mismatch_rejected():
    with pytest.raises(AlgebraError):
        new_algebra("bck", ["a", "b", "c"], TWO_CHAIN, zero=0)


def test_designated_zero_out_of_range():
    with pytest.raises(AlgebraError):
        new_algebra("bck", ["a", "b"], TWO_CHAIN, zero=7)


def test_bck_requires_zero():
    with pytest.raises(AlgebraError):
        new_algebra("bck", ["a", "b"], TWO_CHAIN)


def test_derived_order_chain(corpus):
    leq = derived_order(corpus["ex3_1_bck"])
    assert all(leq.holds(x, y) == (x <= y) for x in range(4) for y in range(4))


def test_derived_order_diamond(corpus):
    # read off the stored ex3_2 table: A and B incomparable, O bottom, E top
    leq = derived_order(corpus["ex3_2_bck"])
    assert leq.holds(0, 1) and leq.holds(0, 2) and leq.holds(1, 3) and leq.holds(2, 3)
    assert not leq.holds(1, 2) and not leq.holds(2, 1)
    assert all(leq.holds(x, x) for x in range(4))
    assert leq.top() == 3


def test_order_view_is_built_once_per_algebra(corpus):
    for alg in corpus.values():
        assert order_relation(alg) is order_relation(alg)
    bck = corpus["ex3_1_bck"]
    assert order_relation(dataclasses.replace(bck)) is not order_relation(bck)


def test_derived_order_trivial():
    assert derived_order(trivial()).holds(0, 0)


def test_derived_order_needs_bck(corpus):
    with pytest.raises(AlgebraError):
        derived_order(corpus["ex3_1_wajsberg"])


def test_bound_element(corpus):
    assert bound_element(corpus["ex3_1_bck"]) == 3
    assert bound_element(trivial()) == 0


def test_bound_element_needs_bck(corpus):
    with pytest.raises(AlgebraError, match="^bound search is defined for bck algebras$"):
        bound_element(corpus["ex3_1_wajsberg"])


def test_complement_outside_carrier_rejected():
    with pytest.raises(AlgebraError, match="^complement row must map every element into the carrier$"):
        new_algebra("bck", ["O", "A"], TWO_CHAIN, zero=0, complement=[1, 7])


def test_unknown_element_name(corpus):
    assert corpus["ex3_1_bck"].index("A") == 1
    with pytest.raises(AlgebraError, match="^unknown element name 'Q'$"):
        corpus["ex3_1_bck"].index("Q")


def test_bound_of_extension():
    assert bound_element(iseki_extension(two_chain())) == 2


def test_unbounded_algebra_has_no_bound():
    a = new_algebra("bck", ["z", "p", "q"], TWO_ATOMS, zero=0)
    assert check_bck(a).passed
    assert bound_element(a) is None
    with pytest.raises(AlgebraError):
        complement_of(a, 1)


def test_complements_on_chain(corpus):
    a = corpus["ex3_1_bck"]
    assert complement_of(a, 1) == 2  # A -> B
    assert complement_of(a, 0) == 3  # O -> E


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: new_algebra("bck", "ab", [[False, False], [True, False]], zero=0), "entry (0,0)=False is not"),
        (lambda: new_algebra("bck", "ab", TWO_CHAIN, zero=False), "designated zero index False"),
        (lambda: new_algebra("bck", "ab", TWO_CHAIN, zero=0, one=True), "designated one index True"),
        (lambda: FiniteAlgebra(Kind.BCK, "ab", CayleyTable(TWO_CHAIN), 0, 1, (True, 0)), "complement row"),
        (lambda: check_morphism([0, True], two_chain(), two_chain()), "morphism image"),
    ],
    ids=["table entry", "zero", "one", "complement", "morphism image"],
)
def test_bool_is_not_an_element_index(build, message):
    # False == 0 and True == 1, so each of these once passed as an index
    with pytest.raises(AlgebraError, match=f"^{re.escape(message)}"):
        build()


@pytest.mark.parametrize("index", [-1, True, 9, "1"])
def test_complement_of_rejects_what_is_no_element_index(corpus, index):
    # -1 would wrap round to the last element and True would read as 1
    with pytest.raises(AlgebraError, match=re.escape(f"element {index!r} is not an element index for order 4")):
        complement_of(corpus["ex3_1_bck"], index)


def test_complement_of_unit_is_zero(corpus, valid_bck):
    for a in valid_bck:
        assert complement_of(a, a.unit) == a.zero


def test_explicit_complement_must_agree():
    with pytest.raises(AlgebraError):
        new_algebra("bck", ["z", "a"], TWO_CHAIN, zero=0, complement=[0, 1])


def test_unbounded_with_stored_complement_is_allowed():
    a = new_algebra("bck", ["z", "p", "q"], TWO_ATOMS, zero=0, complement=[2, 1, 0])
    assert complement_of(a, 0) == 2


def test_involutions(corpus):
    assert involutions(corpus["ex3_1_bck"]) == {0, 1, 2, 3}
    assert involutions(corpus["ex3_3_bck"]) == {0, 1, 2, 3, 4, 5}
    assert involutions(trivial()) == {0}


def test_wajsberg_zero_derived_from_constant_row(corpus):
    ref = corpus["ex3_1_wajsberg"]
    a = new_algebra("wajsberg", ref.names, ref.table, one=ref.unit)
    assert a.zero == ref.zero
    assert a.complement == ref.complement


def test_wajsberg_zero_underivable():
    with pytest.raises(AlgebraError):
        new_algebra("wajsberg", ["a", "b"], [[1, 1], [1, 1]], one=1)


def test_wajsberg_derived_zero_must_be_complement_of_one():
    # row 0 is still the only row constantly one, but one.0 = 1, so 0 is not complement(one)
    c = lukasiewicz_chain(3)
    rows = [list(r) for r in c.table.entries]
    assert new_algebra("wajsberg", c.names, rows, one=2).zero == 0
    rows[2][0] = 1
    with pytest.raises(AlgebraError, match="complement"):
        new_algebra("wajsberg", c.names, rows, one=2)


def test_wajsberg_explicit_zero_must_match(corpus):
    ref = corpus["ex3_1_wajsberg"]
    with pytest.raises(AlgebraError):
        new_algebra("wajsberg", ref.names, ref.table, zero=1, one=ref.unit)


def test_mv_requires_complement():
    with pytest.raises(AlgebraError):
        new_algebra("mv", ["z", "o"], [[0, 1], [1, 1]], zero=0)


def test_mv_one_is_complement_of_zero(corpus):
    m = bck_to_mv(corpus["ex3_1_bck"])
    assert m.unit == m.complement[m.zero]


def test_designated_one_must_be_a_bound(corpus):
    ref = corpus["ex3_1_bck"]
    with pytest.raises(AlgebraError):
        new_algebra("bck", ref.names, ref.table, zero=0, one=1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: new_algebra("BCK", "ab", TWO_CHAIN, zero=0),
        lambda: FiniteAlgebra("x", ("a", "b"), CayleyTable(TWO_CHAIN), 0),
        lambda: chain_product_rows((1,), ((0,), (1,)), "x"),
        lambda: Kind(None),
    ],
    ids=["new_algebra", "FiniteAlgebra", "chain_product_rows", "Kind"],
)
def test_an_unknown_kind_is_an_algebra_error(build):
    with pytest.raises(AlgebraError, match="unknown kind .*: expected bck, wajsberg or mv"):
        build()


def test_finite_algebra_requires_a_zero():
    with pytest.raises(AlgebraError, match="requires a designated zero"):
        FiniteAlgebra(Kind.BCK, ("a", "b"), CayleyTable(TWO_CHAIN), None)


@pytest.mark.parametrize(
    "kind, field, key", [(Kind.WAJSBERG, "zero", "zero"), (Kind.MV, "unit", "one")], ids=["wajsberg", "mv"]
)
def test_inconsistent_constants_rejected_on_every_path(kind, field, key):
    # e1 is neither complement(one) = e0 nor complement(zero) = e2
    c = lukasiewicz_chain(3)
    a = c if kind is Kind.WAJSBERG else wajsberg_to_mv(c)
    constants = {"zero": a.zero, "one": a.unit, key: 1}
    text = render_algebra(a).replace(f"{key}: {a.names[getattr(a, field)]}\n", f"{key}: e1\n")
    assert text != render_algebra(a)
    builds = [
        lambda: FiniteAlgebra(kind, a.names, a.table, constants["zero"], constants["one"], a.complement),
        lambda: FiniteAlgebra(kind.value, a.names, a.table, constants["zero"], constants["one"], a.complement),
        lambda: dataclasses.replace(a, **{field: 1}),
        lambda: new_algebra(kind, a.names, a.table, complement=a.complement, **constants),
        lambda: parse_algebra(text),
    ]
    for build in builds:
        with pytest.raises(AlgebraError, match="complement"):
            build()
