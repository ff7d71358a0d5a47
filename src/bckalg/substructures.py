"""Subalgebra and ideal enumeration for finite BCK tables.

Subalgebras are found by monotone closure growth from {zero}; ideals by a
scan of the downward-closed subsets containing zero (only those can be
ideals). Results are ordered by size, then by member indices, so printed
lists are deterministic. "Proper" excludes the full carrier and the bare
{zero} singleton.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .core import AlgebraError, FiniteAlgebra, Kind, new_algebra


def closure_of(alg: FiniteAlgebra, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subset containing the seed and closed under the table."""
    members = set(seed)
    frontier = list(members)
    while frontier:
        fresh = []
        for x in list(members):
            for y in frontier:
                for v in (alg.op(x, y), alg.op(y, x)):
                    if v not in members:
                        members.add(v)
                        fresh.append(v)
        frontier = fresh
    return frozenset(members)


def is_subalgebra(alg: FiniteAlgebra, members: Iterable[int]) -> bool:
    s = frozenset(members)
    if not s:
        raise AlgebraError("a subalgebra is a nonempty subset")
    return all(alg.op(x, y) in s for x in s for y in s)


def is_ideal(alg: FiniteAlgebra, members: Iterable[int]) -> bool:
    s = frozenset(members)
    if alg.zero not in s:
        return False
    t = alg.table.entries
    return all(not (t[x][y] in s and x not in s) for y in s for x in range(alg.order))


def _sorted_subsets(subsets: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    return sorted(subsets, key=lambda s: (len(s), tuple(sorted(s))))


def _filter_proper(alg: FiniteAlgebra, subsets: list[frozenset[int]], proper_only: bool) -> list[frozenset[int]]:
    if not proper_only:
        return subsets
    full = frozenset(range(alg.order))
    trivial = frozenset({alg.zero})
    return [s for s in subsets if s != full and s != trivial]


def subalgebras(alg: FiniteAlgebra, proper_only: bool = False) -> list[frozenset[int]]:
    """All table-closed subsets (every one contains zero, since x*x = zero
    in any valid BCK table).

    The input is not validated. The search starts from {zero} and so assumes
    x*x = zero; on a table that fails the BCK axioms it still returns a list
    that looks plausible. Run ``check_bck`` first, as ``bckalg sub`` does."""
    found = {closure_of(alg, {alg.zero})}
    frontier = list(found)
    while frontier:
        fresh = []
        for base in frontier:
            for x in range(alg.order):
                if x in base:
                    continue
                grown = closure_of(alg, base | {x})
                if grown not in found:
                    found.add(grown)
                    fresh.append(grown)
        frontier = fresh
    return _filter_proper(alg, _sorted_subsets(found), proper_only)


def ideals(alg: FiniteAlgebra, proper_only: bool = False) -> list[frozenset[int]]:
    """All subsets containing zero that absorb downward under x*y.

    The input is not validated: on a table that fails the BCK axioms it
    still returns a list that looks plausible. Run ``check_bck`` first, as
    ``bckalg sub`` does."""
    n = alg.order
    t = alg.table.entries
    z = alg.zero
    below = [frozenset(x for x in range(n) if t[x][y] == z) for y in range(n)]
    rest = [x for x in range(n) if x != z]
    found = []
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            s = frozenset((z, *extra))
            if any(not below[y] <= s for y in s):
                continue
            if is_ideal(alg, s):
                found.append(s)
    return _filter_proper(alg, _sorted_subsets(found), proper_only)


def induced_subalgebra(alg: FiniteAlgebra, members: Iterable[int]) -> FiniteAlgebra:
    """The standalone BCK algebra on a closed subset, indices compacted in order."""
    s = sorted(set(members))
    if not is_subalgebra(alg, s):
        raise AlgebraError("subset is not closed under the table")
    if alg.zero not in s:
        raise AlgebraError("subset does not contain zero")
    position = {x: i for i, x in enumerate(s)}
    rows = [[position[alg.op(x, y)] for y in s] for x in s]
    return new_algebra(Kind.BCK, [alg.names[x] for x in s], rows, zero=position[alg.zero])
