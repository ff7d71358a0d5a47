import re
import traceback

import pytest
from hypothesis import given, strategies as st

from bckalg import (
    AlgebraError,
    ParseError,
    bck_to_mv,
    fixture_dir,
    new_algebra,
    parse_algebra,
    render_algebra,
    save_algebra,
)
from bckalg.golden import EXAMPLES

TRIVIAL_DOC = """kind: bck
order: 1
elements: t
zero: t
table:
t
"""


def test_fixture_corpus_is_canonical(corpus):
    for ex in EXAMPLES:
        for kind in ("wajsberg", "bck"):
            text = (fixture_dir() / f"{ex}_{kind}.alg").read_text()
            assert render_algebra(parse_algebra(text)) == text


def test_parse_render_fixed_point(corpus):
    for alg in corpus.values():
        assert parse_algebra(render_algebra(alg)) == alg


def test_render_trivial():
    assert render_algebra(new_algebra("bck", ["t"], [[0]], zero=0)) == TRIVIAL_DOC


def test_comments_and_blank_lines_ignored():
    noisy = "# a remark\n\nkind: bck\norder: 2\n# another\nelements: z a\nzero: z\ntable:\nz z\n\na z\n# trailing\n"
    alg = parse_algebra(noisy)
    assert alg.table.entries == ((0, 0), (1, 0))


def test_mv_document_roundtrip(corpus):
    m = bck_to_mv(corpus["ex3_1_bck"])
    assert parse_algebra(render_algebra(m)) == m


def test_wajsberg_without_complement_line(corpus):
    ref = corpus["ex3_1_wajsberg"]
    text = "\n".join(
        line for line in render_algebra(ref).splitlines() if not line.startswith("complement:")
    ) + "\n"
    assert parse_algebra(text) == ref


def test_chain_render_matches_fixture_table_block(corpus):
    from bckalg import lukasiewicz_chain

    rendered = render_algebra(lukasiewicz_chain(4))
    fixture_text = (fixture_dir() / "ex3_1_wajsberg.alg").read_text()
    table_block = lambda text: text.split("table:\n", 1)[1]
    # same cells up to the chain's e0..e3 names
    relabel = dict(zip("OABE", ("e0", "e1", "e2", "e3")))
    expected = "\n".join(
        " ".join(relabel[cell] for cell in line.split())
        for line in table_block(fixture_text).splitlines()
    ) + "\n"
    assert table_block(rendered) == expected


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("kind: ring", "unknown kind"),
        ("order: four", "order must be an integer"),
        ("order: 0", "order must be >= 1"),
        ("order: 3", "names"),
        ("elements: O A B B", "distinct"),
        ("zero: Q", "undeclared element"),
    ],
)
def test_header_errors(mutation, fragment):
    base = (fixture_dir() / "ex3_1_bck.alg").read_text()
    key = mutation.split(":")[0]
    text = "\n".join(
        mutation if line.startswith(f"{key}:") else line for line in base.splitlines()
    ) + "\n"
    with pytest.raises(ParseError, match=fragment):
        parse_algebra(text)


def test_missing_table_section():
    with pytest.raises(ParseError, match="missing 'table:'"):
        parse_algebra("kind: bck\norder: 1\nelements: t\nzero: t\n")


def test_missing_elements_key():
    with pytest.raises(ParseError, match="^missing required key 'elements'$"):
        parse_algebra("kind: bck\norder: 1\nzero: t\ntable:\nt\n")


def test_short_table():
    with pytest.raises(ParseError, match="table has"):
        parse_algebra("kind: bck\norder: 2\nelements: z a\nzero: z\ntable:\nz z\n")


def test_ragged_table_row():
    with pytest.raises(ParseError, match="row has"):
        parse_algebra("kind: bck\norder: 2\nelements: z a\nzero: z\ntable:\nz z a\na z\n")


def test_undeclared_table_entry():
    with pytest.raises(ParseError, match="undeclared"):
        parse_algebra("kind: bck\norder: 2\nelements: z a\nzero: z\ntable:\nz q\na z\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("kind: bck\norder: 3\nelements: z a b\nzero: z\ntable:\nz z z\n# two undeclared names\na q r\nb a z\n",
         "line 8: undeclared element name 'q'"),
        ("kind: mv\norder: 3\nelements: z h o\nzero: z\ncomplement: o w v\ntable:\nz h o\nh o o\no o o\n",
         "complement: undeclared element name 'w'"),
        ("kind: bck\norder: 2\nelements: z a\nzero: z\none: a b\ntable:\nz z\na z\n",
         "one: undeclared element name 'a b'"),
    ],
    ids=["row", "complement", "one"],
)
def test_only_the_first_undeclared_name_is_reported(text, message):
    with pytest.raises(ParseError) as caught:
        parse_algebra(text)
    assert str(caught.value) == message
    assert "KeyError" not in "".join(traceback.format_exception(caught.value))


def test_trailing_content_rejected():
    with pytest.raises(ParseError, match="unexpected content"):
        parse_algebra("kind: bck\norder: 1\nelements: t\nzero: t\ntable:\nt\nt\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_algebra("kind: bck\nkind: bck\norder: 1\nelements: t\nzero: t\ntable:\nt\n")


def test_unknown_header_key_rejected():
    with pytest.raises(ParseError, match="header key"):
        parse_algebra("kind: bck\nflavour: sour\norder: 1\nelements: t\nzero: t\ntable:\nt\n")


def test_missing_designated_constant():
    with pytest.raises(AlgebraError, match="requires a designated zero"):
        parse_algebra("kind: bck\norder: 1\nelements: t\ntable:\nt\n")


def test_complement_length_checked():
    text = "kind: mv\norder: 2\nelements: z o\nzero: z\ncomplement: o\ntable:\nz o\no o\n"
    with pytest.raises(ParseError, match="complement lists"):
        parse_algebra(text)


def test_tampered_complement_row_rejected():
    base = (fixture_dir() / "ex3_1_wajsberg.alg").read_text()
    text = base.replace("complement: E B A O", "complement: E A B O")
    with pytest.raises(AlgebraError, match="complement disagrees"):
        parse_algebra(text)


_NAME = st.from_regex(r"[A-Za-z][A-Za-z0-9_']{0,3}", fullmatch=True)


@st.composite
def random_bck_documents(draw, name=_NAME):
    n = draw(st.integers(min_value=1, max_value=6))
    names = draw(st.lists(name, min_size=n, max_size=n, unique=True))
    rows = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    return new_algebra("bck", names, rows, zero=draw(st.integers(0, n - 1)))


@given(random_bck_documents())
def test_roundtrip_on_arbitrary_tables(alg):
    assert parse_algebra(render_algebra(alg)) == alg


@given(random_bck_documents(name=st.text()))
def test_render_refuses_a_name_or_round_trips(alg):
    # an empty name, one with whitespace or one starting with '#' would be
    # written into a document that parses to something else, or not at all
    try:
        text = render_algebra(alg)
    except AlgebraError as err:
        assert "cannot be written" in str(err)
    else:
        assert parse_algebra(text) == alg


@pytest.mark.parametrize("name", ["", "a b", "\u2028", "#a", "a\t"])
def test_render_and_save_name_the_first_unwritable_name(tmp_path, name):
    alg = new_algebra("bck", ["ok", name, "#z"], [[0, 0, 0], [1, 0, 1], [2, 2, 0]], zero=0)
    with pytest.raises(AlgebraError, match=re.escape(repr(name))):
        render_algebra(alg)
    with pytest.raises(AlgebraError, match=re.escape(repr(name))):
        save_algebra(alg, tmp_path / "x.alg")
    assert not (tmp_path / "x.alg").exists()


def test_parser_refuses_an_element_name_starting_with_hash():
    text = "kind: bck\norder: 2\nelements: #a b\nzero: b\ntable:\nb b\n#a b\n"
    with pytest.raises(ParseError, match="line 3: element name '#a'"):
        parse_algebra(text)
