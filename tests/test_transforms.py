import pytest

from bckalg import (
    AlgebraError,
    Kind,
    bck_to_mv,
    bck_to_wajsberg,
    check_bck,
    check_mv,
    check_wajsberg,
    derive_mv_ops,
    enumerate_wajsberg,
    is_commutative,
    is_ideal,
    is_positive_implicative,
    iseki_extension,
    mv_to_bck,
    mv_to_wajsberg,
    new_algebra,
    wajsberg_to_bck,
    wajsberg_to_mv,
)
from bckalg.golden import diagnose_wajsberg
from references import TWO_CHAIN, trivial, two_chain


def test_iseki_of_trivial_is_two_chain():
    ext = iseki_extension(trivial())
    assert ext.table.entries == ((0, 0), (1, 0))
    assert ext.unit == 1 and ext.zero == 0


def test_iseki_of_two_chain():
    ext = iseki_extension(two_chain())
    assert ext.table.entries == ((0, 0, 0), (1, 0, 0), (2, 2, 0))
    assert ext.op(2, 1) == 2 and ext.op(1, 2) == 0


def test_iseki_embeds_base(valid_bck):
    for a in valid_bck:
        ext = iseki_extension(a)
        assert ext.order == a.order + 1
        block = tuple(row[: a.order] for row in ext.table.entries[: a.order])
        assert block == a.table.entries
        assert check_bck(ext).passed
        assert is_ideal(ext, range(a.order))


def test_iseki_fresh_name_avoids_collision():
    base = new_algebra("bck", ["z", "1"], TWO_CHAIN, zero=0)
    assert iseki_extension(base).names == ("z", "1", "1'")


def test_iseki_rejects_other_kinds(corpus):
    with pytest.raises(AlgebraError):
        iseki_extension(corpus["ex3_1_wajsberg"])


def test_bck_to_mv_sum_cells(corpus):
    m = bck_to_mv(corpus["ex3_1_bck"])
    assert m.kind is Kind.MV
    assert m.op(1, 2) == 3  # A + B = E
    assert m.op(m.zero, m.zero) == m.zero


def test_bck_to_mv_requires_commutative():
    with pytest.raises(AlgebraError):
        bck_to_mv(iseki_extension(two_chain()))


def test_bck_to_mv_requires_bound():
    unbounded = new_algebra("bck", ["z", "p", "q"], [[0, 0, 0], [1, 0, 1], [2, 2, 0]], zero=0)
    with pytest.raises(AlgebraError):
        bck_to_mv(unbounded)


def test_bck_to_wajsberg_requires_bound():
    unbounded = new_algebra("bck", ["z", "p", "q"], [[0, 0, 0], [1, 0, 1], [2, 2, 0]], zero=0)
    with pytest.raises(AlgebraError, match="bck_to_wajsberg requires a bounded algebra"):
        bck_to_wajsberg(unbounded)


def test_bck_to_wajsberg_rejects_invalid(corpus):
    for key in ("ex3_6_bck", "ex3_7_bck"):
        with pytest.raises(AlgebraError) as direct:
            bck_to_wajsberg(corpus[key])
        with pytest.raises(AlgebraError) as via_mv:
            bck_to_mv(corpus[key])
        assert str(direct.value) == str(via_mv.value)


def test_bck_to_mv_rejects_invalid(corpus):
    with pytest.raises(AlgebraError):
        bck_to_mv(corpus["ex3_6_bck"])


def test_mv_roundtrip_on_fixtures(valid_bck):
    for a in valid_bck:
        back = mv_to_bck(bck_to_mv(a))
        assert back.table == a.table
        assert (back.zero, back.unit) == (a.zero, a.unit)


def test_two_element_boolean_mv_is_two_chain():
    m = new_algebra("mv", ["z", "o"], [[0, 1], [1, 1]], zero=0, complement=[1, 0])
    assert check_mv(m).passed
    b = mv_to_bck(m)
    assert b.table.entries == ((0, 0), (1, 0))
    assert check_bck(b).passed and is_commutative(b).passed


def test_wajsberg_to_mv_cells(corpus):
    m = wajsberg_to_mv(corpus["ex3_1_wajsberg"])
    assert m.op(1, 1) == 2  # A + A = B
    assert m.zero == 0
    assert check_mv(m).passed


def test_wajsberg_to_mv_zero_is_identity(valid_wajsberg):
    for w in valid_wajsberg:
        m = wajsberg_to_mv(w)
        assert all(m.op(m.zero, x) == x for x in range(m.order))


def test_wajsberg_mv_roundtrips(valid_wajsberg):
    for w in valid_wajsberg:
        m = wajsberg_to_mv(w)
        back = mv_to_wajsberg(m)
        assert back.table == w.table
        assert back.complement == w.complement and back.unit == w.unit
        assert wajsberg_to_mv(mv_to_wajsberg(m)).table == m.table


def test_wajsberg_to_bck_flags_ex3_6_cell(corpus):
    rec = wajsberg_to_bck(corpus["ex3_6_wajsberg"])
    stored = corpus["ex3_6_bck"]
    diffs = [
        (i, j)
        for i in range(8)
        for j in range(8)
        if rec.table.entries[i][j] != stored.table.entries[i][j]
    ]
    assert diffs == [(7, 5)]  # row E, column U
    assert rec.names[rec.table.entries[7][5]] == "Y"
    assert stored.names[stored.table.entries[7][5]] == "T"


def test_stored_ex3_7_rejected_by_converters(corpus):
    with pytest.raises(AlgebraError):
        wajsberg_to_mv(corpus["ex3_7_wajsberg"])
    with pytest.raises(AlgebraError):
        wajsberg_to_bck(corpus["ex3_7_wajsberg"])


def test_triangle_coherence(valid_wajsberg):
    for w in valid_wajsberg + enumerate_wajsberg(6) + enumerate_wajsberg(8):
        direct = wajsberg_to_bck(w)
        via_mv = mv_to_bck(wajsberg_to_mv(w))
        assert direct.table == via_mv.table
        assert (direct.zero, direct.unit) == (via_mv.zero, via_mv.unit)


def test_converters_validate_output_kind(valid_wajsberg, valid_bck):
    for w in valid_wajsberg:
        assert check_mv(wajsberg_to_mv(w)).passed
        b = wajsberg_to_bck(w)
        assert check_bck(b).passed and is_commutative(b).passed
    for b in valid_bck:
        assert check_mv(bck_to_mv(b)).passed
        assert check_wajsberg(bck_to_wajsberg(b)).passed


def test_bck_to_wajsberg_roundtrip(valid_bck):
    for b in valid_bck:
        assert wajsberg_to_bck(bck_to_wajsberg(b)).table == b.table


def test_bck_to_wajsberg_matches_route_through_mv(valid_bck):
    # The direct formula complement(x*y) against the composite through the MV sum.
    products = [wajsberg_to_bck(w) for n in range(2, 33) for w in enumerate_wajsberg(n)]
    for b in valid_bck + products:
        assert bck_to_wajsberg(b) == mv_to_wajsberg(bck_to_mv(b))


def test_derive_mv_ops(corpus):
    for key in ("ex3_1_bck", "ex3_4_bck"):
        b = corpus[key]
        mv = bck_to_mv(b)
        ops = derive_mv_ops(mv)
        assert ops.ominus == b.table
        assert ops.ominus == mv_to_bck(mv).table
        # x (.) 1 = x
        one = mv.unit
        assert all(ops.odot.entries[x][one] == x for x in range(mv.order))


def test_derive_mv_ops_rejects_non_mv(corpus):
    with pytest.raises(AlgebraError):
        derive_mv_ops(corpus["ex3_1_bck"])


def test_extension_preserves_positive_implicative(corpus):
    # ex3_2 is the only stored difference table satisfying the identity
    a = corpus["ex3_2_bck"]
    assert is_positive_implicative(a).passed
    assert is_positive_implicative(iseki_extension(a)).passed


def test_corrected_ex3_7_behaves(corpus):
    diag = diagnose_wajsberg(corpus["ex3_7_wajsberg"])
    fixed = diag.corrected
    assert check_wajsberg(fixed).passed
    assert mv_to_wajsberg(wajsberg_to_mv(fixed)).table == fixed.table
    b = wajsberg_to_bck(fixed)
    assert check_bck(b).passed and is_commutative(b).passed
