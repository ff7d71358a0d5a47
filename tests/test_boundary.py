"""Cells are checked where a table enters, and only there.

Every way a table comes in from outside (``CayleyTable(...)``,
``new_algebra`` given raw rows, the parser, ``bckalg verify``) refuses each
bad cell with the message it always gave. The library's own builders use
``CayleyTable.trusted``, which checks no cell; on random valid inputs of
each kind, every table they build equals the one the checked constructor
builds from the same rows. ``tests/test_layering.py`` pins which modules
call ``CayleyTable.trusted``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from bckalg import (
    AlgebraError,
    CayleyTable,
    Kind,
    ParseError,
    derive_mv_ops,
    direct_product,
    enumerate_wajsberg,
    induced_subalgebra,
    iseki_extension,
    lukasiewicz_chain,
    new_algebra,
    parse_algebra,
    subalgebras,
)
from bckalg.cli import main
from bckalg.golden import diagnose_wajsberg
from bckalg.transforms import TRANSLATIONS
from references import relabelled_chain_product

# name: (raw rows, their message; the document's two table rows, its message)
BAD_TABLES = {
    "out-of-range cell": (
        [[0, 2], [1, 0]], "entry (0,1)=2 is not an element index of an order-2 table",
        ("a c", "b a"), "line 6: undeclared element name 'c'",
    ),
    "True cell": (
        [[0, 0], [True, 0]], "entry (1,0)=True is not an element index of an order-2 table",
        ("a a", "True a"), "line 7: undeclared element name 'True'",
    ),
    "float cell": (
        [[0, 0.0], [1, 0]], "entry (0,1)=0.0 is not an element index of an order-2 table",
        ("a 0.0", "b a"), "line 6: undeclared element name '0.0'",
    ),
    "short row": (
        [[0, 0], [1]], "row 1 has 1 entries, expected 2",
        ("a a", "b"), "line 7: table row has 1 entries, expected 2",
    ),
    "empty table": ([], "table must have order >= 1", None, "order must be >= 1, got 0"),
}


def document(rows):
    """A bck document on the elements a b, or of order 0 when rows is None."""
    if rows is None:
        return "kind: bck\norder: 0\nelements:\nzero: a\ntable:\n"
    return "kind: bck\norder: 2\nelements: a b\nzero: a\ntable:\n" + "".join(f"{row}\n" for row in rows)


@pytest.mark.parametrize("case", BAD_TABLES)
def test_cayley_table_refuses_a_bad_cell(case):
    rows, message = BAD_TABLES[case][:2]
    with pytest.raises(AlgebraError) as exc:
        CayleyTable(rows)
    assert str(exc.value) == message


@pytest.mark.parametrize("case", BAD_TABLES)
def test_new_algebra_refuses_a_bad_cell_in_raw_rows(case):
    rows, message = BAD_TABLES[case][:2]
    with pytest.raises(AlgebraError) as exc:
        new_algebra("bck", "ab", rows, zero=0)
    assert str(exc.value) == message


@pytest.mark.parametrize("case", BAD_TABLES)
def test_parser_refuses_a_bad_cell(case):
    rows, message = BAD_TABLES[case][2:]
    with pytest.raises(ParseError) as exc:
        parse_algebra(document(rows))
    assert str(exc.value) == message


@pytest.mark.parametrize("case", BAD_TABLES)
def test_verify_refuses_a_bad_cell(tmp_path, capsys, case):
    rows, message = BAD_TABLES[case][2:]
    path = tmp_path / "bad.alg"
    path.write_text(document(rows))
    assert main(["verify", "--kind", "bck", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def trusted_tables(kind, n, pick, seed):
    """Each table that a library builder which skips the cell check makes
    from a relabelled order-n chain product read as ``kind``, or from the
    order-n chains."""
    alg = relabelled_chain_product(kind, n, pick, seed)
    yield lukasiewicz_chain(n).table
    yield from (a.table for a in enumerate_wajsberg(n))
    for (source, _), (translate, _) in TRANSLATIONS.items():
        if source is kind:
            yield translate(alg).table
    if kind is Kind.BCK:
        yield iseki_extension(alg).table
        subs = subalgebras(alg)
        yield induced_subalgebra(alg, subs[pick % len(subs)]).table
    elif kind is Kind.MV:
        ops = derive_mv_ops(alg)
        yield from (ops.odot, ops.ominus)
    else:
        yield direct_product([alg, lukasiewicz_chain(2)]).table
        corrupted = relabelled_chain_product(kind, n, pick, seed, cells=[(pick, seed)])
        corrected = diagnose_wajsberg(corrupted).corrected
        if corrected is not None:
            yield corrected.table


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Kind)), st.integers(2, 12), st.integers(0, 10**6), st.integers(0, 10**6))
def test_trusted_builders_agree_with_the_checked_constructor(kind, n, pick, seed):
    for table in trusted_tables(kind, n, pick, seed):
        assert CayleyTable([list(row) for row in table.entries]) == table
