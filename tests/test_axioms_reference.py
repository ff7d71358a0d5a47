"""Every axiom checker against the one reference for the axioms.

The reference below writes each identity as a lambda and scans it one tuple
at a time through ``itertools.product``. It shares no code with
``bckalg.axioms``, which compiles each identity into a row kernel, and takes
only the report classes from it. Reports must be equal: the same failed
axioms, the same witnesses, in the same order. Tables come from the corpus,
from chain products of all three kinds with up to two corrupted cells, and
from arbitrary small tables.
"""

import dataclasses
from itertools import product
from typing import Callable, Mapping, Sequence
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from bckalg import (
    AlgebraError,
    FiniteAlgebra,
    Kind,
    VerificationReport,
    Violation,
    check_bci,
    check_bck,
    check_morphism,
    check_mv,
    check_wajsberg,
    find_isomorphism,
    is_commutative,
    is_implicative,
    is_positive_implicative,
    iseki_extension,
    new_algebra,
    wajsberg_to_mv,
)
from bckalg import axioms
from bckalg.core import chain_coordinates, is_chain_product, order_degrees
from references import reference_chain_product, reference_factorizations, relabelled_chain_product

# -- reference ------------------------------------------------------------


def _first_failure(n: int, arity: int, holds: Callable[..., bool]) -> tuple[int, ...] | None:
    for tup in product(range(n), repeat=arity):
        if not holds(*tup):
            return tup
    return None


def _collect(checked: str, n: int, axioms: Sequence[tuple[str, int, Callable[..., bool]]]) -> VerificationReport:
    failures = []
    for axiom_id, arity, holds in axioms:
        witness = _first_failure(n, arity, holds)
        if witness is not None:
            failures.append(Violation(axiom_id, witness))
    return VerificationReport(checked, tuple(failures))


def _bci_axioms(alg: FiniteAlgebra) -> list[tuple[str, int, Callable[..., bool]]]:
    t = alg.table.entries
    z = alg.zero
    return [
        ("bci-1", 3, lambda x, y, zz: t[t[t[x][y]][t[x][zz]]][t[zz][y]] == z),
        ("bci-2", 2, lambda x, y: t[t[x][t[x][y]]][y] == z),
        ("bci-3", 1, lambda x: t[x][x] == z),
        ("bci-4", 2, lambda x, y: not (t[x][y] == z and t[y][x] == z and x != y)),
    ]


def ref_check_bci(alg: FiniteAlgebra) -> VerificationReport:
    return _collect("bci", alg.order, _bci_axioms(alg))


def ref_check_bck(alg: FiniteAlgebra) -> VerificationReport:
    t = alg.table.entries
    z = alg.zero
    axioms = _bci_axioms(alg) + [("bck-5", 1, lambda x: t[z][x] == z)]
    return _collect("bck", alg.order, axioms)


def ref_is_commutative(alg: FiniteAlgebra) -> VerificationReport:
    t = alg.table.entries
    return _collect(
        "commutative",
        alg.order,
        [("commutative", 2, lambda x, y: t[x][t[x][y]] == t[y][t[y][x]])],
    )


def ref_is_implicative(alg: FiniteAlgebra) -> VerificationReport:
    t = alg.table.entries
    return _collect(
        "implicative",
        alg.order,
        [("implicative", 2, lambda x, y: t[x][t[y][x]] == x)],
    )


def ref_is_positive_implicative(alg: FiniteAlgebra) -> VerificationReport:
    t = alg.table.entries
    return _collect(
        "positive-implicative",
        alg.order,
        [("positive-implicative", 3, lambda x, y, z: t[t[x][y]][z] == t[t[x][z]][t[y][z]])],
    )


def ref_check_mv(alg: FiniteAlgebra) -> VerificationReport:
    if alg.complement is None:
        raise AlgebraError("mv check requires a complement")
    t = alg.table.entries
    z = alg.zero
    c = alg.complement
    top = c[z]
    axioms = [
        ("mv-assoc", 3, lambda x, y, zz: t[t[x][y]][zz] == t[x][t[y][zz]]),
        ("mv-comm", 2, lambda x, y: t[x][y] == t[y][x]),
        ("mv-zero-identity", 1, lambda x: t[x][z] == x),
        ("mv-double-negation", 1, lambda x: c[c[x]] == x),
        ("mv-top-absorbing", 1, lambda x: t[x][top] == top),
        ("mv-lukasiewicz", 2, lambda x, y: t[c[t[c[x]][y]]][y] == t[c[t[c[y]][x]]][x]),
    ]
    return _collect("mv", alg.order, axioms)


def ref_check_wajsberg(alg: FiniteAlgebra) -> VerificationReport:
    if alg.unit is None or alg.complement is None:
        raise AlgebraError("wajsberg check requires a unit and a complement")
    t = alg.table.entries
    one = alg.unit
    c = alg.complement
    axioms = [
        ("wajsberg-1", 1, lambda x: t[one][x] == x),
        ("wajsberg-2", 3, lambda x, y, z: t[t[x][y]][t[t[y][z]][t[x][z]]] == one),
        ("wajsberg-3", 2, lambda x, y: t[t[x][y]][y] == t[t[y][x]][x]),
        ("wajsberg-4", 2, lambda x, y: t[t[c[x]][c[y]]][t[y][x]] == one),
    ]
    return _collect("wajsberg", alg.order, axioms)


def ref_check_morphism(
    f: Sequence[int] | Mapping[int, int],
    source: FiniteAlgebra,
    target: FiniteAlgebra,
) -> VerificationReport:
    n = source.order
    if isinstance(f, Mapping):
        if set(f.keys()) != set(range(n)):
            raise AlgebraError("morphism map must be total on the source carrier")
        images = tuple(f[x] for x in range(n))
    else:
        images = tuple(f)
        if len(images) != n:
            raise AlgebraError("morphism map must be total on the source carrier")
    m = target.order
    if any(not isinstance(v, int) or not 0 <= v < m for v in images):
        raise AlgebraError("morphism image out of range of the target carrier")
    ts, tt = source.table.entries, target.table.entries
    return _collect(
        "morphism",
        n,
        [("morphism", 2, lambda x, y: images[ts[x][y]] == tt[images[x]][images[y]])],
    )


# -- comparison -----------------------------------------------------------

TABLE_CHECKERS = [
    (check_bci, ref_check_bci),
    (check_bck, ref_check_bck),
    (is_commutative, ref_is_commutative),
    (is_implicative, ref_is_implicative),
    (is_positive_implicative, ref_is_positive_implicative),
]
KIND_CHECKERS = {
    Kind.BCK: [],
    Kind.MV: [(check_mv, ref_check_mv)],
    Kind.WAJSBERG: [(check_wajsberg, ref_check_wajsberg)],
}


def outcome(check, *args):
    """The report of a check, or AlgebraError if it raised one."""
    try:
        return check(*args)
    except AlgebraError:
        return AlgebraError


def assert_same_reports(alg):
    for new, ref in TABLE_CHECKERS + KIND_CHECKERS[alg.kind]:
        assert outcome(new, alg) == outcome(ref, alg), new.__name__


@st.composite
def arbitrary_tables(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    rows = [
        [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]
        for _ in range(n)
    ]
    return new_algebra("bck", [f"x{i}" for i in range(n)], rows, zero=0)


@given(arbitrary_tables())
def test_reports_match_reference_on_arbitrary_tables(alg):
    assert_same_reports(alg)


@given(arbitrary_tables())
def test_report_passed_iff_no_failures(alg):
    rep = check_bck(alg)
    assert rep.passed == (not rep.failures)


def test_reports_match_reference_on_fixtures(corpus):
    for alg in corpus.values():
        assert_same_reports(alg)
    for name, alg in corpus.items():
        if name.endswith("_wajsberg") and check_wajsberg(alg).passed:
            assert_same_reports(wajsberg_to_mv(alg))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from([Kind.WAJSBERG, Kind.BCK, Kind.MV]),
    n=st.integers(2, 16),
    pick=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    cells=st.lists(st.tuples(st.integers(0, 255), st.integers(0, 14)), min_size=0, max_size=2),
)
@example(kind=Kind.WAJSBERG, n=16, pick=4, seed=0, cells=[(255, 0)])
@example(kind=Kind.MV, n=12, pick=2, seed=1, cells=[(17, 3), (140, 9)])
def test_reports_match_reference_on_corrupted_chain_products(kind, n, pick, seed, cells):
    assert_same_reports(relabelled_chain_product(kind, n, pick, seed, cells))


@pytest.mark.parametrize("kind", [Kind.WAJSBERG, Kind.BCK, Kind.MV], ids=lambda k: k.value)
def test_reports_match_reference_at_order_64(kind):
    # 2^6 renumbered, one cell changed near the end so the scans run long
    assert_same_reports(relabelled_chain_product(kind, 64, 0, 64, [(64 * 64 - 2, 5)]))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 8),
    m=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    images=st.lists(st.integers(0, 7), min_size=8, max_size=8),
)
def test_morphism_reports_match_reference(n, m, seed, images):
    source = relabelled_chain_product(Kind.BCK, n, seed, seed)
    target = relabelled_chain_product(Kind.BCK, m, seed >> 8, seed >> 16)
    f = [v % m for v in images[:n]]
    assert outcome(check_morphism, f, source, target) == outcome(ref_check_morphism, f, source, target)
    as_map = dict(enumerate(f))
    assert outcome(check_morphism, as_map, source, target) == outcome(ref_check_morphism, as_map, source, target)
    iso = find_isomorphism(source, relabelled_chain_product(Kind.BCK, n, seed, seed >> 4))
    if iso is not None:
        copy = relabelled_chain_product(Kind.BCK, n, seed, seed >> 4)
        assert check_morphism(iso, source, copy) == ref_check_morphism(iso, source, copy)
        assert check_morphism(iso, source, copy).passed


# -- certificate ----------------------------------------------------------
# From axioms._CERTIFY_FROM up, a checker of a kind's axioms passes a table of
# that kind that is a chain product (core.is_chain_product) without a scan;
# is_positive_implicative only a bck-kind product of two-element chains. The
# reports must still equal the reference's, and every table that is no chain
# product of the checker's kind must reach the kernels.

BCK_AXIOMS = {"bci-1", "bci-2", "bci-3", "bci-4", "bck-5"}


def kernel_calls(monkeypatch):
    """Record the axiom of each kernel a checker runs from now on."""
    calls = []
    real = axioms._kernel

    def record(axiom):
        calls.append(axiom)
        return real(axiom)

    monkeypatch.setattr(axioms, "_kernel", record)
    return calls


def with_complement_changed(alg, flips):
    """alg with complement entry x moved by 1 + shift for each (x, shift); the
    entry its kind ties to a constant (wajsberg one, mv zero) is left alone."""
    n, c = alg.order, list(alg.complement)
    tied = alg.unit if alg.kind is Kind.WAJSBERG else alg.zero
    for x, shift in flips:
        if x % n != tied:
            c[x % n] = (c[x % n] + 1 + shift % (n - 1)) % n
    return dataclasses.replace(alg, complement=c)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from([Kind.WAJSBERG, Kind.BCK, Kind.MV]),
    n=st.integers(2, 32),
    pick=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    changes=st.lists(st.tuples(st.booleans(), st.integers(0, 1023), st.integers(0, 30)), max_size=2),
)
@example(kind=Kind.WAJSBERG, n=32, pick=3, seed=5, changes=[])
@example(kind=Kind.MV, n=24, pick=2, seed=1, changes=[(False, 7, 4)])
@example(kind=Kind.WAJSBERG, n=18, pick=1, seed=2, changes=[(False, 5, 0)])
@example(kind=Kind.BCK, n=30, pick=4, seed=3, changes=[(True, 300, 2), (False, 9, 1)])
@example(kind=Kind.BCK, n=32, pick=6, seed=4, changes=[])
@example(kind=Kind.BCK, n=32, pick=6, seed=4, changes=[(True, 500, 3)])
@example(kind=Kind.BCK, n=16, pick=1, seed=2, changes=[])
def test_certified_reports_match_reference_on_corrupted_chain_products(kind, n, pick, seed, changes):
    # table cells (True) and complement entries (False) changed; every order is
    # certified here, so each checker of the table's kind asks the certificate
    # first: check_bci and is_positive_implicative too, against ref_check_bci and
    # ref_is_positive_implicative (the 2^5 and 2^4 examples pass the latter, 2x8 fails it)
    alg = relabelled_chain_product(kind, n, pick, seed, [(cell, shift) for table, cell, shift in changes if table])
    alg = with_complement_changed(alg, [(x, shift) for table, x, shift in changes if not table])
    assert changes or is_chain_product(alg)
    with patch.object(axioms, "_CERTIFY_FROM", 2):
        assert_same_reports(alg)


@pytest.mark.parametrize("kind, check", [(Kind.WAJSBERG, check_wajsberg), (Kind.MV, check_mv),
                                         (Kind.BCK, check_bck), (Kind.BCK, is_commutative), (Kind.BCK, check_bci)],
                         ids=["wajsberg", "mv", "bck", "commutative", "bci"])
def test_chain_products_are_certified_from_the_order_floor(monkeypatch, kind, check):
    calls = kernel_calls(monkeypatch)
    at = relabelled_chain_product(kind, axioms._CERTIFY_FROM, 1, 3)
    assert check(at).passed and calls == []
    below = relabelled_chain_product(kind, axioms._CERTIFY_FROM - 1, 1, 3)
    assert check(below).passed and calls


@pytest.mark.parametrize("one, certified", [("top", True), ("none", True), ("off-top", False)])
def test_bck_chain_products_with_and_without_a_declared_one(monkeypatch, one, certified):
    # check_bck never reads the one, so a missing one or one off the top makes
    # no difference to the report; only a one off the top blocks the certificate
    alg = relabelled_chain_product(Kind.BCK, 24, 2, 5)
    alg = dataclasses.replace(alg, unit={"top": alg.unit, "none": None, "off-top": alg.zero}[one])
    assert is_chain_product(alg) is certified
    calls = kernel_calls(monkeypatch)
    for new, ref in ((check_bck, ref_check_bck), (is_commutative, ref_is_commutative)):
        assert new(alg) == ref(alg) == VerificationReport(ref(alg).checked, ())
    assert set(calls) == (set() if certified else BCK_AXIOMS | {"commutative"})


@pytest.mark.parametrize("kind", [Kind.MV, Kind.WAJSBERG], ids=lambda k: k.value)
def test_a_complement_off_the_coordinates_reaches_the_kernels(monkeypatch, kind):
    alg = relabelled_chain_product(kind, 24, 1, 8)
    tied = alg.unit if kind is Kind.WAJSBERG else alg.zero
    x, y = [v for v in range(alg.order) if v not in (tied, alg.complement[tied])][:2]
    c = list(alg.complement)
    c[x], c[y] = c[y], c[x]
    bad = dataclasses.replace(alg, complement=c)
    assert is_chain_product(alg) and not is_chain_product(bad)
    calls = kernel_calls(monkeypatch)
    (check, ref), = KIND_CHECKERS[kind]
    assert check(bad) == ref(bad) and not check(bad).passed
    assert calls


def test_positive_implicative_certifies_products_of_two_element_chains_only(monkeypatch):
    # of the seven factorizations of 32, only 2x2x2x2x2 (the last) is Boolean;
    # the others are certified chain products and still scanned for a witness
    calls = kernel_calls(monkeypatch)
    boolean = relabelled_chain_product(Kind.BCK, 32, 6, 4)
    assert is_chain_product(boolean)
    assert is_positive_implicative(boolean) == ref_is_positive_implicative(boolean) and calls == []
    for pick in range(6):
        alg = relabelled_chain_product(Kind.BCK, 32, pick, 4)
        assert is_chain_product(alg)
        report = is_positive_implicative(alg)
        assert report == ref_is_positive_implicative(alg) and not report.passed
        assert calls.pop() == "positive-implicative" and calls == []


def test_positive_implicative_never_certifies_a_product_with_a_longer_chain(monkeypatch):
    # the degree test refuses the six non-Boolean factorizations of 32 (the
    # 32-chain, 2x16, ...) before any certificate is asked
    def refuse(alg):
        raise AssertionError("certificate asked")

    algebras = [relabelled_chain_product(Kind.BCK, 32, pick, 11) for pick in range(6)]
    monkeypatch.setattr(axioms, "is_chain_product", refuse)
    for alg in algebras:
        report = is_positive_implicative(alg)
        assert report == ref_is_positive_implicative(alg) and not report.passed


def test_degree_test_tells_boolean_chain_products():
    # d * u = n for every element iff every chain read off the order has two elements
    for n in range(2, 49):
        for sizes in reference_factorizations(n):
            alg = reference_chain_product(sizes, Kind.BCK)
            tops, _ = chain_coordinates(alg)
            assert all(d * u == n for d, u in order_degrees(alg)) == (set(tops) == {1})


def hostile_bck(n):
    """0*x = 0, x*x = 0, x*y = x otherwise: a valid bck algebra whose nonzero
    elements are pairwise incomparable, so no chain product past order 2."""
    return new_algebra("bck", [f"a{i}" for i in range(n)], [[0 if x in (0, y) else x for y in range(n)]
                                                            for x in range(n)], zero=0)


@pytest.mark.parametrize("build", [lambda: iseki_extension(relabelled_chain_product(Kind.BCK, 16, 2, 4)),
                                   lambda: hostile_bck(20)], ids=["iseki", "hostile"])
def test_bck_tables_that_are_no_chain_product_reach_the_kernels(monkeypatch, build):
    alg = build()
    assert not is_chain_product(alg)
    calls = kernel_calls(monkeypatch)
    assert check_bck(alg) == ref_check_bck(alg) and check_bck(alg).passed
    assert check_bci(alg) == ref_check_bci(alg) and check_bci(alg).passed
    assert is_commutative(alg) == ref_is_commutative(alg)
    assert is_positive_implicative(alg) == ref_is_positive_implicative(alg)
    assert set(calls) == BCK_AXIOMS | {"commutative", "positive-implicative"}


@pytest.mark.parametrize("kind", [Kind.WAJSBERG, Kind.MV], ids=lambda k: k.value)
def test_bck_checkers_never_certify_other_kinds(monkeypatch, kind):
    calls = kernel_calls(monkeypatch)
    for pick in (3, 6):  # 2x2x8, and 2x2x2x2x2, which is_positive_implicative would certify as bck
        alg = relabelled_chain_product(kind, 32, pick, 9)
        assert is_chain_product(alg)
        assert check_bck(alg) == ref_check_bck(alg) and not check_bck(alg).passed
        assert check_bci(alg) == ref_check_bci(alg)
        assert is_commutative(alg) == ref_is_commutative(alg)
        assert is_positive_implicative(alg) == ref_is_positive_implicative(alg)
        assert set(calls) == BCK_AXIOMS | {"commutative", "positive-implicative"}
        calls.clear()
