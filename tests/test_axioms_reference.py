"""Every axiom checker against the one reference for the axioms.

The reference below writes each identity as a lambda and scans it one tuple
at a time through ``itertools.product``. It shares no code with
``bckalg.axioms``, which compiles each identity into a row kernel, and takes
only the report classes from it. Reports must be equal: the same failed
axioms, the same witnesses, in the same order. Tables come from the corpus,
from chain products of all three kinds with up to two corrupted cells, and
from arbitrary small tables.
"""

from itertools import product
from typing import Callable, Mapping, Sequence

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
    new_algebra,
    wajsberg_to_mv,
)
from references import relabelled_chain_product

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
