"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 1 checks the seven stored implication tables against the corpus's
declared misprint: the stored ex3_7 table carries a one-cell misprint at
(U,T) (stored T, expected V), so it cannot satisfy the wajsberg axioms, and
fixtures are never edited. The test asserts that the declared cell holds its
stored value, that the checker rejects exactly the stored table with a
declared misprint, and that every table passes once its declared cells are
corrected. The companion tests pin the defect down independently and show
that each declared correction is the only one-cell repair; README.md
documents the corpus defects.
"""

import time
from itertools import product

import pytest

from bckalg import (
    AlgebraError,
    bck_to_mv,
    check_bck,
    check_morphism,
    check_wajsberg,
    derive_mv_ops,
    direct_product,
    enumerate_wajsberg,
    factorizations,
    find_isomorphism,
    fixture_dir,
    is_commutative,
    is_ideal,
    is_positive_implicative,
    iseki_extension,
    lukasiewicz_chain,
    mv_to_bck,
    mv_to_wajsberg,
    new_algebra,
    poset_isomorphic,
    subalgebras,
    ideals,
    wajsberg_to_bck,
    wajsberg_to_mv,
    bound_element,
)
from bckalg.golden import cell_mismatches, diagnose_wajsberg, run_check_paper
from references import name_sets, reference_factorizations, sets_of, trivial, two_chain


def _report(num, ok, note=""):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}"
    print(line + (f" ({note})" if note else ""))


# The one misprint the corpus declares among its implication tables (README,
# "The bundled corpus and its known defects"), written out here rather than
# taken from diagnose_wajsberg: fixture -> {(row, col): (stored, expected)}.
DECLARED_WAJSBERG_MISPRINTS = {"ex3_7_wajsberg": {("U", "T"): ("T", "V")}}


def test_criterion_01_golden_wajsberg_verification(corpus):
    start = time.perf_counter()
    problems = []
    for k in range(1, 8):
        name = f"ex3_{k}_wajsberg"
        stored = corpus[name]
        declared = DECLARED_WAJSBERG_MISPRINTS.get(name, {})
        index = {s: i for i, s in enumerate(stored.names)}
        rows = [list(r) for r in stored.table.entries]
        for (r, c), (was, fixed) in declared.items():
            held = stored.names[rows[index[r]][index[c]]]
            if held != was:
                problems.append(f"{name}: declared cell ({r},{c}) holds {held}, not {was}")
            rows[index[r]][index[c]] = index[fixed]
        if check_wajsberg(stored).passed != (not declared):
            verdict = "passes despite a declared misprint" if declared else "fails with no misprint declared"
            problems.append(f"{name}: stored table {verdict}")
        corrected = new_algebra("wajsberg", stored.names, rows, one=stored.unit)
        if not check_wajsberg(corrected).passed:
            problems.append(f"{name}: corrected table fails the wajsberg axioms")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 1.0
    _report(1, ok, "; ".join(problems))
    assert elapsed < 1.0
    assert not problems


def test_criterion_01_defect_diagnosis(corpus):
    """The six clean tables pass; ex3_7's defect is exactly one cell, shared
    by both of its stored tables, and the corrected table is the 2x4 chain
    product."""
    for k in range(1, 7):
        assert check_wajsberg(corpus[f"ex3_{k}_wajsberg"]).passed

    w7 = corpus["ex3_7_wajsberg"]
    assert not check_wajsberg(w7).passed
    diag = diagnose_wajsberg(w7)
    assert diag.corrected is not None
    assert [str(c) for c in diag.cells] == ["(U,T) stored=T expected=V"]
    assert check_wajsberg(diag.corrected).passed

    product_24 = direct_product([lukasiewicz_chain(2), lukasiewicz_chain(4)])
    assert find_isomorphism(diag.corrected, product_24) is not None

    # the stored difference table shares the same defect: it equals
    # complement(x.y) of the stored implication table on every cell
    b7 = corpus["ex3_7_bck"]
    comp = w7.complement
    mirrored = tuple(
        tuple(comp[w7.table.entries[x][y]] for y in range(8)) for x in range(8)
    )
    assert mirrored == b7.table.entries
    _report(1, True, "defect diagnosis companion")


def _one_cell_repairs(alg, check, **constants):
    """Every single-cell edit of alg's table that makes check pass, by name.

    An edit that new_algebra rejects (say, one that leaves no row constantly
    one in an implication table) is not a repair.
    """
    n = alg.order
    rows = [list(r) for r in alg.table.entries]
    repairs = []
    for x, y in product(range(n), repeat=2):
        stored = rows[x][y]
        for v in range(n):
            if v == stored:
                continue
            rows[x][y] = v
            try:
                edited = new_algebra(alg.kind, alg.names, rows, **constants)
            except AlgebraError:
                continue
            if check(edited).passed:
                repairs.append((alg.names[x], alg.names[y], alg.names[v]))
        rows[x][y] = stored
    return repairs


@pytest.mark.parametrize(
    "fixture, check, repair",
    [
        ("ex3_7_wajsberg", check_wajsberg, ("U", "T", "V")),
        ("ex3_6_bck", check_bck, ("E", "U", "Y")),
        ("ex3_7_bck", check_bck, ("U", "T", "X")),
    ],
    ids=["ex3_7_wajsberg", "ex3_6_bck", "ex3_7_bck"],
)
def test_criterion_01_declared_corrections_are_unique(corpus, fixture, check, repair):
    """Each stored table with a declared misprint fails its checker, and of
    all n*n*(n-1) single-cell edits exactly the declared correction passes."""
    alg = corpus[fixture]
    constants = {"one": alg.unit} if fixture.endswith("_wajsberg") else {"zero": alg.zero}
    assert not check(alg).passed
    assert _one_cell_repairs(alg, check, **constants) == [repair]


def test_criterion_02_golden_bck_verification(corpus):
    expected_flags = {
        "ex3_6": {"wajsberg": [], "bck": ["(E,U) stored=T expected=Y"]},
        "ex3_7": {"wajsberg": ["(U,T) stored=T expected=V"], "bck": ["(U,T) stored=Z expected=X"]},
    }
    ok = True
    for k in range(1, 8):
        ex = f"ex3_{k}"
        w, b = corpus[f"{ex}_wajsberg"], corpus[f"{ex}_bck"]
        diag = diagnose_wajsberg(w)
        assert diag.corrected is not None
        recomputed = wajsberg_to_bck(diag.corrected)
        diffs = cell_mismatches(b, recomputed)
        flags = expected_flags.get(ex, {"wajsberg": [], "bck": []})
        assert [str(c) for c in diag.cells] == flags["wajsberg"], ex
        assert [str(c) for c in diffs] == flags["bck"], ex
        target = b if not diffs else recomputed
        ok &= check_bck(target).passed
        ok &= is_commutative(target).passed
        ok &= bound_element(target) == target.unit
    # check-paper lists every flagged cell with coordinates
    lines, suite_ok = run_check_paper(fixture_dir())
    text = "\n".join(lines)
    assert "(E,U) stored=T expected=Y" in text
    assert "(U,T) stored=T expected=V" in text
    assert "(U,T) stored=Z expected=X" in text
    ok &= suite_ok
    _report(2, ok)
    assert ok


def test_criterion_03_difference_table_reproduction(corpus):
    ok = (
        wajsberg_to_bck(corpus["ex3_1_wajsberg"]).table.entries
        == corpus["ex3_1_bck"].table.entries
        and wajsberg_to_bck(corpus["ex3_2_wajsberg"]).table.entries
        == corpus["ex3_2_bck"].table.entries
    )
    _report(3, ok)
    assert ok


def test_criterion_04_substructure_golden_lists(corpus):
    checks = []

    def expect(ex, computed, wanted):
        checks.append((ex, computed == wanted))

    a1 = corpus["ex3_1_bck"]
    expect("ex3_1 subs", name_sets(a1, subalgebras(a1, proper_only=True)), sets_of("OA", "OB", "OE", "OAB"))
    expect("ex3_1 ideals", name_sets(a1, ideals(a1, proper_only=True)), set())

    a2 = corpus["ex3_2_bck"]
    expect("ex3_2 ideals", name_sets(a2, ideals(a2, proper_only=True)), sets_of("OA", "OB"))

    a3 = corpus["ex3_3_bck"]
    expect(
        "ex3_3 subs",
        name_sets(a3, subalgebras(a3, proper_only=True)),
        sets_of("OA", "OB", "OC", "OD", "OE", "OAB", "OBD", "OABC", "OABCD"),
    )
    expect("ex3_3 ideals", name_sets(a3, ideals(a3, proper_only=True)), set())

    a4 = corpus["ex3_4_bck"]
    expect("ex3_4 ideals", name_sets(a4, ideals(a4, proper_only=True)), sets_of("OAB", "OC"))
    found4 = name_sets(a4, subalgebras(a4, proper_only=True))
    checks.append(("ex3_4 subs contain", sets_of("OAC", "OACD") <= found4))

    a5 = corpus["ex3_5_bck"]
    expect("ex3_5 ideals", name_sets(a5, ideals(a5, proper_only=True)), sets_of("OCD", "OB"))

    a7 = corpus["ex3_7_bck"]
    expect("ex3_7 ideals", name_sets(a7, ideals(a7, proper_only=True)), sets_of("OYTV", "OX"))

    ok = all(passed for _, passed in checks)
    _report(4, ok)
    assert ok, [ex for ex, passed in checks if not passed]


def test_criterion_05_chain_reconstruction(corpus):
    pairs = [(4, "ex3_1"), (6, "ex3_3"), (8, "ex3_6")]
    ok = all(
        lukasiewicz_chain(n).table.entries == corpus[f"{ex}_wajsberg"].table.entries
        for n, ex in pairs
    )
    _report(5, ok)
    assert ok


def test_criterion_06_enumeration_counts():
    ok = True
    for n in range(2, 13):
        ok &= [f.factors for f in factorizations(n)] == reference_factorizations(n)
    ok &= [len(factorizations(n)) for n in (4, 6, 8, 9, 12)] == [2, 2, 3, 2, 4]
    for n in range(2, 10):
        algebras = enumerate_wajsberg(n)
        ok &= len(algebras) == len(factorizations(n))
        for i in range(len(algebras)):
            for j in range(i + 1, len(algebras)):
                ok &= not poset_isomorphic(algebras[i], algebras[j])
    _report(6, ok)
    assert ok


def test_criterion_07_structure_matching(corpus):
    chain_image = wajsberg_to_bck(lukasiewicz_chain(4))
    square_image = wajsberg_to_bck(direct_product([lukasiewicz_chain(2), lukasiewicz_chain(2)]))
    f1 = find_isomorphism(corpus["ex3_1_bck"], chain_image)
    f2 = find_isomorphism(corpus["ex3_2_bck"], square_image)
    ok = f1 is not None and f2 is not None
    if ok:
        ok &= check_morphism(f1, corpus["ex3_1_bck"], chain_image).passed
        ok &= check_morphism(f2, corpus["ex3_2_bck"], square_image).passed
    _report(7, ok)
    assert ok


def test_criterion_08_roundtrip_suite(corpus):
    wajsberg_pool = [corpus[f"ex3_{k}_wajsberg"] for k in range(1, 7)]
    wajsberg_pool.append(diagnose_wajsberg(corpus["ex3_7_wajsberg"]).corrected)
    for n in range(2, 10):
        wajsberg_pool.extend(enumerate_wajsberg(n))

    bck_pool = [corpus[f"ex3_{k}_bck"] for k in range(1, 6)]
    bck_pool.extend(wajsberg_to_bck(w) for w in wajsberg_pool)

    ok = True
    for w in wajsberg_pool:
        m = wajsberg_to_mv(w)
        ok &= mv_to_wajsberg(m).table == w.table
        ok &= wajsberg_to_mv(mv_to_wajsberg(m)).table == m.table
        ok &= wajsberg_to_bck(w).table == mv_to_bck(m).table
    for b in bck_pool:
        m = bck_to_mv(b)
        ok &= mv_to_bck(m).table == b.table
        ok &= derive_mv_ops(m).ominus == b.table
    _report(8, ok)
    assert ok


def _bck_census(n, free_zero_column=False):
    """Backtracking over the free cells of an order-n table.

    Diagonal, zero row and zero column are forced in every table satisfying
    the five axioms. With ``free_zero_column`` the search fills the zero
    column too, which criterion 09 uses to cross-check that.
    """
    cells = [(i, j) for i in range(1, n) for j in range(0 if free_zero_column else 1, n) if i != j]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][0] = i
    found = []

    def fill(k):
        if k == len(cells):
            alg = new_algebra("bck", [f"x{i}" for i in range(n)], [r[:] for r in rows], zero=0)
            if check_bck(alg).passed:
                found.append(alg)
            return
        i, j = cells[k]
        for v in range(n):
            rows[i][j] = v
            fill(k + 1)
        rows[i][j] = 0

    fill(0)
    return found


def test_criterion_09_extension_suite(corpus):
    ok = True

    # the census constraint is sound: freeing the zero column finds no extras
    assert {a.table for a in _bck_census(3)} == {a.table for a in _bck_census(3, free_zero_column=True)}

    # (i) extension preserves positive implicativity, all orders <= 4
    extensions_built = []
    for n in (1, 2, 3, 4):
        algebras = _bck_census(n) if n > 1 else [trivial()]
        for a in algebras:
            ext = iseki_extension(a)
            extensions_built.append((a, ext))
            if is_positive_implicative(a).passed:
                ok &= is_positive_implicative(ext).passed

    # (ii) the two-chain's extension is not commutative, witnessed at (a, 1)
    rep = is_commutative(iseki_extension(two_chain()))
    ok &= rep.witness_for("commutative") == (1, 2)

    # (iii) the base carrier is an ideal of every extension built
    for a, ext in extensions_built:
        ok &= check_bck(ext).passed
        ok &= is_ideal(ext, range(a.order))

    # (iv) every ideal of every fixture is downward closed: each subset that
    # contains zero and passes is_ideal, so is_ideal is tested, not ideals
    from itertools import combinations

    for name in sorted(corpus):
        if not name.endswith("_bck"):
            continue
        alg = corpus[name]
        t = alg.table.entries
        others = [x for x in range(alg.order) if x != alg.zero]
        for k in range(len(others) + 1):
            for extra in combinations(others, k):
                s = frozenset((alg.zero, *extra))
                if is_ideal(alg, s):
                    for y in s:
                        ok &= all(t[x][y] != alg.zero or x in s for x in range(alg.order))
    _report(9, ok)
    assert ok


def test_criterion_10_performance_floor():
    start = time.perf_counter()
    lines, ok = run_check_paper(fixture_dir())
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0

    start = time.perf_counter()
    assert check_bck(wajsberg_to_bck(lukasiewicz_chain(12))).passed
    ok &= time.perf_counter() - start < 1.0
    _report(10, ok, f"check-paper {elapsed:.2f}s")
    assert ok
