import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from bckalg import check_morphism, check_mv, check_wajsberg, fixture_dir, parse_algebra, save_algebra
from bckalg import direct_product, lukasiewicz_chain, wajsberg_to_bck, wajsberg_to_mv
from bckalg import cli, golden, substructures
from bckalg.cli import main
from references import reference_chain_product, reference_factorizations, relabelled


ROOT = Path(__file__).resolve().parents[1]


def fx(name):
    return str(fixture_dir() / name)


def test_verify_pass(capsys):
    assert main(["verify", "--kind", "bck", fx("ex3_1_bck.alg")]) == 0
    assert "PASS bck" in capsys.readouterr().out


def test_verify_extra_checks(capsys):
    rc = main(["verify", "--kind", "bck", "--commutative", fx("ex3_1_bck.alg")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS bck" in out and "PASS commutative" in out


def test_verify_failure_prints_witnesses(capsys):
    rc = main(["verify", "--kind", "bck", fx("ex3_6_bck.alg")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL bci-1 at (E,O,Y)" in out


def test_verify_implicative_failure(capsys):
    rc = main(["verify", "--kind", "bck", "--implicative", fx("ex3_1_bck.alg")])
    assert rc == 1
    assert "FAIL implicative at (A,B)" in capsys.readouterr().out


def test_verify_kind_mismatch(capsys):
    assert main(["verify", "--kind", "bck", fx("ex3_1_wajsberg.alg")]) == 2
    assert "declares kind" in capsys.readouterr().err


def test_verify_flags_need_bck(capsys):
    rc = main(["verify", "--kind", "wajsberg", "--commutative", fx("ex3_1_wajsberg.alg")])
    assert rc == 2


def test_verify_missing_file(capsys):
    assert main(["verify", "--kind", "bck", "no_such.alg"]) == 2
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'no_such.alg'\n"


def test_verify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("kind: bck\norder: 4\nelements: a b c\nzero: a\ntable:\n")
    assert main(["verify", "--kind", "bck", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: elements lists 3 names, order says 4\n"


def test_usage_error_returns_2(capsys):
    assert main(["verify", fx("ex3_1_bck.alg")]) == 2
    assert main(["frobnicate"]) == 2


def test_convert_to_mv(capsys):
    assert main(["convert", "--to", "mv", fx("ex3_1_bck.alg")]) == 0
    out = parse_algebra(capsys.readouterr().out)
    assert out.kind.value == "mv" and check_mv(out).passed


def test_convert_wajsberg_to_bck_matches_fixture(capsys, corpus):
    assert main(["convert", "--to", "bck", fx("ex3_2_wajsberg.alg")]) == 0
    out = parse_algebra(capsys.readouterr().out)
    assert out.table == corpus["ex3_2_bck"].table


def test_convert_identity(capsys, corpus):
    assert main(["convert", "--to", "bck", fx("ex3_1_bck.alg")]) == 0
    assert parse_algebra(capsys.readouterr().out) == corpus["ex3_1_bck"]


def test_convert_source_mismatch(capsys):
    assert main(["convert", "--from", "mv", "--to", "bck", fx("ex3_1_bck.alg")]) == 2


def test_convert_invalid_input_is_semantic_failure(capsys):
    assert main(["convert", "--to", "mv", fx("ex3_6_bck.alg")]) == 1
    assert "not a valid" in capsys.readouterr().err


def test_iseki(capsys, corpus):
    assert main(["iseki", fx("ex3_1_bck.alg")]) == 0
    ext = parse_algebra(capsys.readouterr().out)
    assert ext.order == 5 and ext.unit == 4


def test_iseki_needs_bck(capsys):
    assert main(["iseki", fx("ex3_1_wajsberg.alg")]) == 2
    assert capsys.readouterr().err == f"error: {fx('ex3_1_wajsberg.alg')} declares kind wajsberg, not bck\n"


NOT_BCK = "kind: bck\norder: 3\nelements: 0 a b\nzero: 0\ntable:\n0 0 0\na a a\nb a b\n"


def test_iseki_rejects_table_failing_bck_axioms(tmp_path, capsys):
    bad = tmp_path / "not_bck.alg"
    bad.write_text(NOT_BCK)
    assert main(["iseki", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: input is not a valid bck algebra: bci-1 fails at (a,0,0)\n"


@pytest.mark.parametrize("to", ["bck", "wajsberg"])
def test_convert_validates_like_every_target(tmp_path, capsys, to):
    # converting to the file's own kind fails the same way as to another kind
    bad = tmp_path / "not_bck.alg"
    bad.write_text(NOT_BCK)
    assert main(["convert", "--to", to, str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input is not a valid bck algebra: bci-1 fails at (a,0,0)\n"


def test_convert_to_own_kind_rejects_misprinted_wajsberg_table(capsys):
    assert main(["convert", "--to", "wajsberg", fx("ex3_7_wajsberg.alg")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input is not a valid wajsberg algebra: ")


def test_enumerate_prints_count(capsys):
    assert main(["enumerate", "--order", "4"]) == 0
    assert capsys.readouterr().out.startswith("pi_4 = 2\n")


def test_enumerate_writes_files(tmp_path, capsys):
    assert main(["enumerate", "--order", "8", "--out", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.glob("*.alg"))
    assert names == ["w8_2x2x2.alg", "w8_2x4.alg", "w8_8.alg"]
    for p in tmp_path.glob("*.alg"):
        assert check_wajsberg(parse_algebra(p.read_text())).passed


def test_enumerate_bck_kind(tmp_path, capsys):
    assert main(["enumerate", "--order", "4", "--kind", "bck", "--out", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.glob("*.alg"))
    assert names == ["bck4_2x2.alg", "bck4_4.alg"]


def expected_enumerate_files(n, kind):
    """{file name: text} that ``enumerate --order n --kind kind --out D``
    writes, rendered here from ``reference_chain_product``, which shares no
    code with the enumeration, in the order of ``reference_factorizations``."""
    files = {}
    for sizes in reference_factorizations(n):
        alg = reference_chain_product(sizes, kind)
        names = alg.names
        lines = [
            f"kind: {kind}",
            f"order: {n}",
            "elements: " + " ".join(names),
            f"zero: {names[alg.zero]}",
            f"one: {names[alg.unit]}",
            "complement: " + " ".join(names[c] for c in alg.complement),
            "table:",
            *(" ".join(names[v] for v in row) for row in alg.table.entries),
        ]
        prefix = "w" if kind == "wajsberg" else "bck"
        files[f"{prefix}{n}_{'x'.join(map(str, sizes))}.alg"] = "\n".join(lines) + "\n"
    return files


@pytest.mark.parametrize("n, kind", [(24, "wajsberg"), (64, "wajsberg"), (24, "bck")])
def test_enumerate_output_is_pinned(tmp_path, capsys, n, kind):
    expected = expected_enumerate_files(n, kind)
    assert main(["enumerate", "--order", str(n), "--kind", kind, "--out", str(tmp_path)]) == 0
    written = "".join(f"wrote {tmp_path / name}\n" for name in expected)
    assert capsys.readouterr().out == f"pi_{n} = {len(expected)}\n" + written
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode()


def run_with_stdout_closed(argv, unbuffered):
    """``python -m bckalg.cli argv`` writing to a pipe whose read end is closed
    before the child starts: (exit status, stderr)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "bckalg.cli", *argv], stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_141_quietly(tmp_path, unbuffered):
    # 128 + SIGPIPE, as a shell reports `yes | head -1`, and no error text: the reader
    # that stopped is no input error; enumerate has written every file before it prints
    bck = tmp_path / "bck"
    assert main(["enumerate", "--order", "32", "--kind", "bck", "--out", str(bck)]) == 0
    assert run_with_stdout_closed(["sub", "--all", str(bck / "bck32_2x2x2x2x2.alg")], unbuffered) == (141, "")
    assert run_with_stdout_closed(["check-paper"], unbuffered) == (141, "")
    out = tmp_path / "w"
    assert run_with_stdout_closed(["enumerate", "--order", "32", "--out", str(out)], unbuffered) == (141, "")
    assert sorted(p.name for p in out.iterdir()) == sorted(expected_enumerate_files(32, "wajsberg"))


def test_enumerate_out_existing_file_is_input_error(tmp_path, capsys):
    target = tmp_path / "F"
    target.write_text("")
    assert main(["enumerate", "--order", "4", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err


def test_enumerate_unwritable_file_is_input_error(tmp_path, capsys):
    (tmp_path / "w4_4.alg").mkdir()
    assert main(["enumerate", "--order", "4", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path / 'w4_4.alg'}'\n"


def test_enumerate_rejects_small_order(capsys):
    assert main(["enumerate", "--order", "1"]) == 2


def test_enumerate_rejects_order_above_cap_before_building(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"enumerate_wajsberg({n}) called")

    monkeypatch.setattr(cli, "enumerate_wajsberg", refuse)
    assert main(["enumerate", "--order", str(cli.MAX_ENUMERATE_ORDER + 1)]) == 2
    assert f"--order must be <= {cli.MAX_ENUMERATE_ORDER}" in capsys.readouterr().err


def test_enumerate_accepts_order_at_cap(monkeypatch, capsys):
    assert cli.MAX_ENUMERATE_ORDER >= 128  # the largest order the benchmark enumerates
    monkeypatch.setattr(cli, "enumerate_wajsberg", lambda n: [])
    assert main(["enumerate", "--order", str(cli.MAX_ENUMERATE_ORDER)]) == 0
    assert capsys.readouterr().out == f"pi_{cli.MAX_ENUMERATE_ORDER} = 0\n"


def test_sub_lists(capsys):
    assert main(["sub", "--ideals", fx("ex3_4_bck.alg")]) == 0
    out = capsys.readouterr().out
    assert "ideals (proper, 2):" in out and "{O,C}" in out and "{O,A,B}" in out
    assert "subalgebras" not in out


def test_sub_defaults_to_both(capsys):
    assert main(["sub", fx("ex3_1_bck.alg")]) == 0
    out = capsys.readouterr().out
    assert "subalgebras (proper, 4):" in out and "ideals (proper, 0):" in out


def test_sub_all_includes_trivial(capsys):
    assert main(["sub", "--subalgebras", "--all", fx("ex3_1_bck.alg")]) == 0
    out = capsys.readouterr().out
    assert "subalgebras (all, 6):" in out and "{O}" in out and "{O,A,B,E}" in out


def test_sub_generates_the_closed_sets_once(monkeypatch, capsys):
    # with both lists printed, the ideals are filtered from the subalgebra list
    generated = []
    real = substructures._closed_sets

    def recording(alg):
        generated.append(alg)
        return real(alg)

    monkeypatch.setattr(substructures, "_closed_sets", recording)
    assert main(["sub", fx("ex3_4_bck.alg")]) == 0
    out = capsys.readouterr().out
    assert "subalgebras (proper, " in out and "ideals (proper, 2):" in out
    assert len(generated) == 1


def test_sub_needs_bck(capsys):
    assert main(["sub", fx("ex3_1_wajsberg.alg")]) == 2
    assert capsys.readouterr().err == f"error: {fx('ex3_1_wajsberg.alg')} declares kind wajsberg, not bck\n"


def test_sub_rejects_table_failing_bck_axioms(tmp_path, capsys):
    # fails bci-1, bci-2, bci-3 and bck-5, yet has a closed {O,A} that the
    # subalgebra and ideal searches would list
    bad = tmp_path / "not_bck.alg"
    bad.write_text("kind: bck\norder: 3\nelements: O A B\nzero: O\ntable:\nO O A\nO O O\nB B A\n")
    assert main(["sub", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: input is not a valid bck algebra: bci-1 fails at (O,O,B)\n"


def test_iso_mapping(tmp_path, capsys):
    chain = wajsberg_to_bck(lukasiewicz_chain(4))
    path = tmp_path / "chain4_bck.alg"
    save_algebra(chain, path)
    assert main(["iso", fx("ex3_1_bck.alg"), str(path)]) == 0
    out = capsys.readouterr().out
    assert "O -> e0" in out and "E -> e3" in out


def test_iso_pairs_a_file_with_its_copy_without_one(tmp_path, capsys):
    bare = tmp_path / "ex3_1_bck.alg"
    bare.write_text(re.sub(r"(?m)^one: .*\n", "", Path(fx("ex3_1_bck.alg")).read_text(encoding="utf-8")))
    assert "one:" not in bare.read_text()
    for pair in ([fx("ex3_1_bck.alg"), str(bare)], [str(bare), fx("ex3_1_bck.alg")]):
        assert main(["iso", *pair]) == 0
        assert capsys.readouterr().out == "O -> O\nA -> A\nB -> B\nE -> E\n"


def test_iso_maps_an_mv_product_onto_its_relabelling(tmp_path, capsys):
    # the corpus has no mv file; 4x4x8 read as mv has large classes of equal keys
    a = wajsberg_to_mv(direct_product([lukasiewicz_chain(r) for r in (4, 4, 8)]))
    b = relabelled(a, seed=7)
    paths = [str(tmp_path / "a_mv.alg"), str(tmp_path / "b_mv.alg")]
    save_algebra(a, paths[0])
    save_algebra(b, paths[1])
    assert main(["iso", *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 128
    image = dict(line.split(" -> ") for line in lines)
    f = tuple(b.index(image[name]) for name in a.names)
    assert check_morphism(f, a, b).passed
    assert all(f[a.complement[x]] == b.complement[f[x]] for x in range(a.order))


def test_iso_non_isomorphic(capsys):
    assert main(["iso", fx("ex3_1_bck.alg"), fx("ex3_2_bck.alg")]) == 1
    assert "non-isomorphic" in capsys.readouterr().out


def test_iso_kind_mismatch(capsys):
    assert main(["iso", fx("ex3_1_bck.alg"), fx("ex3_1_wajsberg.alg")]) == 2
    assert capsys.readouterr().err == "error: isomorphism search needs algebras of the same kind\n"


def test_iso_poset(capsys):
    assert main(["iso", "--poset", fx("ex3_4_bck.alg"), fx("ex3_5_bck.alg")]) == 0
    assert "poset-isomorphic" in capsys.readouterr().out
    assert main(["iso", "--poset", fx("ex3_1_bck.alg"), fx("ex3_2_bck.alg")]) == 1


def test_iso_goes_as_deep_as_the_order(tmp_path, capsys):
    # a valid file of order 1,010 places more elements than the default
    # recursion limit allows frames; both searches must still answer
    path = str(tmp_path / "chain1010.alg")
    save_algebra(lukasiewicz_chain(1010), path)
    capsys.readouterr()
    assert main(["iso", path, path]) == 0
    assert capsys.readouterr().out.splitlines() == [f"e{i} -> e{i}" for i in range(1010)]
    assert main(["iso", "--poset", path, path]) == 0
    assert capsys.readouterr().out == "poset-isomorphic\n"


def test_check_paper_flags_and_passes(capsys):
    assert main(["check-paper"]) == 0
    out = capsys.readouterr().out
    assert "(E,U) stored=T expected=Y" in out
    assert "(U,T) stored=T expected=V" in out
    assert "(U,T) stored=Z expected=X" in out
    assert out.rstrip().endswith("check-paper: OK (7 examples, 3 flagged cell(s))")


def test_check_paper_output_is_pinned(capsys):
    # byte for byte: rewrite the expected file only for an intended change of output
    expected = (Path(__file__).parent / "expected" / "check_paper.txt").read_text(encoding="utf-8")
    assert main(["check-paper"]) == 0
    assert capsys.readouterr().out == expected


def test_cli_corpus_transcript_is_pinned(capsys):
    # iso and iso --poset on every ordered pair of fixtures and sub --all on
    # every bck fixture: the exit code and stdout of each, byte for byte, so
    # the map that iso prints is pinned whatever search produces it
    text = (Path(__file__).parent / "expected" / "cli_corpus.txt").read_text(encoding="utf-8")
    runs = re.findall(r"(?m)^\$ bckalg (.*)\n((?:(?!exit |\$ ).*\n)*)exit (\d+)\n", text)
    assert "".join(f"$ bckalg {c}\n{out}exit {rc}\n" for c, out, rc in runs) == text
    assert len(runs) == 2 * 14 * 14 + 7
    for command, out, rc in runs:
        argv = [fx(w) if w.endswith(".alg") else w for w in command.split()]
        assert (main(argv), capsys.readouterr().out) == (int(rc), out), command


def test_check_paper_deterministic(capsys):
    main(["check-paper", str(fixture_dir())])
    first = capsys.readouterr().out
    main(["check-paper", str(fixture_dir())])
    assert capsys.readouterr().out == first


def test_check_paper_checks_each_stored_implication_table_once(monkeypatch, capsys, corpus):
    checked = []

    def recording(alg):
        checked.append(alg)
        return check_wajsberg(alg)

    monkeypatch.setattr(golden, "check_wajsberg", recording)
    assert main(["check-paper"]) == 0
    assert checked == [corpus[f"{ex}_wajsberg"] for ex in golden.EXAMPLES]


def test_check_paper_missing_dir(tmp_path, capsys):
    assert main(["check-paper", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: missing fixture {tmp_path / 'ex3_1_wajsberg.alg'}\n"


def test_check_paper_detects_tampering(tmp_path, capsys):
    # a cell edit that creates a proper ideal in ex3_1 must fail the golden
    # list, not just get flagged as a recomputation mismatch
    for p in fixture_dir().glob("*.alg"):
        (tmp_path / p.name).write_text(p.read_text())
    target = tmp_path / "ex3_1_bck.alg"
    target.write_text(target.read_text().replace("\nB A O O\n", "\nB B O O\n"))
    rc = main(["check-paper", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "check-paper: FAIL" in out
    assert "ex3_1: expected ideals: FAIL" in out


@pytest.mark.parametrize(
    "fixture, row, edited_row, difference, flagged",
    [
        # a new recomputation mismatch that no declared misprint names
        ("ex3_1_bck", "A O O O", "A A O O", "unexpected ex3_1_bck (A,A) stored=A expected=O", 4),
        # a known misprint corrected in the copy, so it is no longer flagged
        ("ex3_6_bck", "E V U T Z T X O", "E V U T Z Y X O", "missing ex3_6_bck (E,U) stored=T expected=Y", 2),
    ],
)
def test_check_paper_fails_unless_flags_match_known_misprints(
    tmp_path, capsys, fixture, row, edited_row, difference, flagged
):
    for p in fixture_dir().glob("*.alg"):
        (tmp_path / p.name).write_text(p.read_text())
    target = tmp_path / f"{fixture}.alg"
    target.write_text(target.read_text().replace(f"\n{row}\n", f"\n{edited_row}\n"))
    rc = main(["check-paper", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert f"check-paper: flagged cells differ from the known misprints: {difference}" in out
    assert out.rstrip().endswith(f"check-paper: FAIL (7 examples, {flagged} flagged cell(s))")


@pytest.mark.parametrize(
    "fixture, old, new, fail_line, after",
    [
        # the stored difference table loses its designated one
        (
            "ex3_1_bck",
            "\none: E\n",
            "\n",
            "ex3_1: bck axioms (stored): FAIL bound missing or not the designated one",
            "ex3_1: subalgebras ",
        ),
        # an implication table whose derived order is no chain product ends its example
        (
            "ex3_1_wajsberg",
            "\nE E E E\n",
            "\nE O E E\n",
            "ex3_1: wajsberg axioms: FAIL wajsberg-2 at (O,B,A); no order-matched reconstruction",
            "ex3_2: wajsberg axioms: ",
        ),
    ],
)
def test_check_paper_prints_failing_verdicts(tmp_path, capsys, fixture, old, new, fail_line, after):
    for p in fixture_dir().glob("*.alg"):
        (tmp_path / p.name).write_text(p.read_text())
    target = tmp_path / f"{fixture}.alg"
    target.write_text(target.read_text().replace(old, new, 1))
    rc = main(["check-paper", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines[lines.index(fail_line) + 1].startswith(after)
    assert lines[-1] == "check-paper: FAIL (7 examples, 3 flagged cell(s))"


FIXTURE_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(fixture_dir().glob("*.alg"))]


@st.composite
def mangled_fixtures(draw):
    """A fixture's text with up to three lines or tokens dropped, duplicated or
    swapped, replaced by an unknown name, or its order made out of range."""
    lines = draw(st.sampled_from(FIXTURE_TEXTS)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        tokens = lines[i].split()
        k, m = (draw(st.integers(0, max(len(tokens) - 1, 0))) for _ in range(2))
        edit = draw(st.sampled_from(["drop", "dup", "swap", "drop token", "dup token", "swap tokens", "unknown", "order"]))
        if edit == "drop":
            if len(lines) > 1:
                del lines[i]
        elif edit == "dup":
            lines.insert(i, lines[i])
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "order":
            lines = [f"order: {draw(st.sampled_from([-1, 0, 1, 7, 9, 10**6]))}" if ln.startswith("order:") else ln
                     for ln in lines]
        elif tokens:
            if edit == "drop token":
                del tokens[k]
            elif edit == "dup token":
                tokens.insert(k, tokens[k])
            elif edit == "swap tokens":
                tokens[k], tokens[m] = tokens[m], tokens[k]
            else:
                tokens[k] = "Q"
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mangled")


# no shrinking: once main lets an error escape, nearly every mangled input fails
# and shrinking takes minutes, while the first failing draw already names the command
@settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(
    a=mangled_fixtures(),
    b=mangled_fixtures(),
    kind=st.sampled_from(["bck", "wajsberg", "mv"]),
    extra=st.sampled_from([[], ["--commutative"], ["--implicative"], ["--positive-implicative"]]),
)
def test_mangled_input_keeps_the_exit_code_contract(fuzz_dir, a, b, kind, extra):
    # 0 pass, 1 semantic failure, 2 input error on stderr alone; nothing escapes main
    pa, pb = fuzz_dir / "a.alg", fuzz_dir / "b.alg"
    pa.write_text(a, encoding="utf-8")
    pb.write_text(b, encoding="utf-8")
    pa, pb = str(pa), str(pb)
    for argv in (
        ["verify", "--kind", kind, *extra, pa],
        ["convert", "--to", kind, pa],
        ["iseki", pa],
        ["sub", pa],
        ["iso", pa, pb],
        ["iso", "--poset", pa, pb],
    ):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2), argv
        if rc == 2:
            assert err.getvalue().startswith("error: ") and out.getvalue() == "", argv
