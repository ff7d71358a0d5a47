import pytest

from bckalg import enumeration, fixture_dir, load_algebra
from bckalg.golden import EXAMPLES


@pytest.fixture(autouse=True)
def fresh_catalogue():
    """Each test starts with no chain products kept by ``enumerate_wajsberg``,
    so no test sees invariants that an earlier test left counted or uncounted."""
    enumeration._catalogue.cache_clear()


@pytest.fixture(scope="session")
def corpus():
    """All 14 bundled fixtures, keyed ex3_k_wajsberg / ex3_k_bck."""
    return {
        f"{ex}_{kind}": load_algebra(fixture_dir() / f"{ex}_{kind}.alg")
        for ex in EXAMPLES
        for kind in ("wajsberg", "bck")
    }


@pytest.fixture(scope="session")
def valid_wajsberg(corpus):
    """The stored implication tables that satisfy the wajsberg axioms.

    ex3_7 is excluded: its stored table carries a one-cell misprint.
    """
    return [corpus[f"ex3_{k}_wajsberg"] for k in (1, 2, 3, 4, 5, 6)]


@pytest.fixture(scope="session")
def valid_bck(corpus):
    """The stored difference tables that satisfy the bck axioms (1-5)."""
    return [corpus[f"ex3_{k}_bck"] for k in (1, 2, 3, 4, 5)]
