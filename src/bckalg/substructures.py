"""Subalgebra and ideal enumeration for finite BCK tables.

One generator lists the closed subsets containing zero, each once, by
close-by-one (Kuznetsov 1993; a relative of Ganter's NextClosure, 1984). It walks
the elements largest down-set first (by ``core.order_degrees``) and keeps a set
grown by x only if its closure adds no element that comes before x; the closure
stops at the first such element. So about two closures are computed per closed
set, however the elements are numbered. Closed sets are int bitsets, and closing
looks up only the pairs that involve a new element. Ideals are the generated
sets that pass ``is_ideal``, filtered as they come: in a BCK algebra every ideal
is closed, since x, y in I and (x*y)*x = 0 put x*y in I. On a table that is not
BCK, ``ideals`` lists only the closed absorbing sets. Results are ordered by
size, then by member indices. "Proper" excludes the full carrier and {zero}.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .core import AlgebraError, CayleyTable, FiniteAlgebra, Kind, new_algebra, order_degrees, require_kind


def _members(alg: FiniteAlgebra, members: Iterable[int]) -> frozenset[int]:
    """The members as a set, each checked to be an element index (a bool is not)."""
    s = tuple(members)
    for x in s:
        if type(x) is not int or not 0 <= x < alg.order:
            raise AlgebraError(f"member {x!r} is not an element index for order {alg.order}")
    return frozenset(s)


def _elements(bits: int) -> list[int]:
    return [x for x in range(bits.bit_length()) if bits >> x & 1]


def _close(t: Sequence[Sequence[int]], bits: int, members: list[int], fresh: Iterable[int], stop: int = 0) -> int:
    """The closure of the closed bitset ``bits`` (listed in ``members``, which
    is left unchanged) with the elements ``fresh``, or -1 at the first element
    of the bitset ``stop`` it would add. Each new element is paired both ways
    with itself and every element before it, so no old pair is looked up."""
    done = members.copy()
    queue = []
    for v in fresh:
        if not bits >> v & 1:
            if stop >> v & 1:
                return -1
            bits |= 1 << v
            queue.append(v)
    for m in queue:
        row = t[m]
        done.append(m)
        for y in done:
            v = row[y]
            if not bits >> v & 1:
                if stop >> v & 1:
                    return -1
                bits |= 1 << v
                queue.append(v)
            v = t[y][m]
            if not bits >> v & 1:
                if stop >> v & 1:
                    return -1
                bits |= 1 << v
                queue.append(v)
    return bits


def closure_of(alg: FiniteAlgebra, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subset containing the seed and closed under the table."""
    return frozenset(_elements(_close(alg.table.entries, 0, [], _members(alg, seed))))


def is_subalgebra(alg: FiniteAlgebra, members: Iterable[int]) -> bool:
    s = _members(alg, members)
    if not s:
        raise AlgebraError("a subalgebra is a nonempty subset")
    return all(alg.op(x, y) in s for x in s for y in s)


def is_ideal(alg: FiniteAlgebra, members: Iterable[int]) -> bool:
    s = _members(alg, members)
    if alg.zero not in s:
        return False
    t = alg.table.entries
    return all(not (t[x][y] in s and x not in s) for y in s for x in range(alg.order))


def _closed_sets(alg: FiniteAlgebra) -> Iterator[list[int]]:
    """Every closed set containing zero, each once. ``before[i]`` holds the
    first i elements of the walk (largest down-set first, ties by index); a set
    grown by the i-th is kept only if its closure adds nothing in it."""
    t = alg.table.entries
    walk = sorted(range(alg.order), key=[-down for down, _ in order_degrees(alg)].__getitem__)
    before = [0]
    for x in walk:
        before.append(before[-1] | 1 << x)
    stack = [(_close(t, 0, [], (alg.zero,)), 0)]
    while stack:
        base, start = stack.pop()
        members = _elements(base)
        yield members
        for i, x in enumerate(walk[start:], start):
            if not base >> x & 1:
                grown = _close(t, base, members, (x,), before[i] & ~base)
                if grown >= 0:
                    stack.append((grown, i + 1))


def _listed(alg: FiniteAlgebra, sets: Iterable[list[int]], proper_only: bool) -> list[frozenset[int]]:
    drop = ([alg.zero], list(range(alg.order))) if proper_only else ()
    return [frozenset(s) for s in sorted((s for s in sets if s not in drop), key=lambda s: (len(s), s))]


def subalgebras(alg: FiniteAlgebra, proper_only: bool = False) -> list[frozenset[int]]:
    """All table-closed subsets (every one contains zero, since x*x = zero
    in any valid BCK table).

    The input is not validated. The search starts from {zero} and so assumes
    x*x = zero; on a table that fails the BCK axioms it still returns a list
    that looks plausible. Run ``check_bck`` first, as ``bckalg sub`` does."""
    return _listed(alg, _closed_sets(alg), proper_only)


def ideals(alg: FiniteAlgebra, proper_only: bool = False) -> list[frozenset[int]]:
    """The subalgebras that absorb downward under x*y (``is_ideal``).

    The input is not validated: on a table that fails the BCK axioms it
    still returns a list that looks plausible. Run ``check_bck`` first, as
    ``bckalg sub`` does."""
    return _listed(alg, (s for s in _closed_sets(alg) if is_ideal(alg, s)), proper_only)


def induced_subalgebra(alg: FiniteAlgebra, members: Iterable[int]) -> FiniteAlgebra:
    """The standalone BCK algebra on a closed subset of a bck algebra, indices
    compacted in order; its cells, read from a closed subset, are not checked again."""
    require_kind(alg, Kind.BCK, "induced_subalgebra")
    s = sorted(_members(alg, members))
    if not is_subalgebra(alg, s):
        raise AlgebraError("subset is not closed under the table")
    if alg.zero not in s:
        raise AlgebraError("subset does not contain zero")
    position = {x: i for i, x in enumerate(s)}
    rows = [[position[alg.op(x, y)] for y in s] for x in s]
    return new_algebra(Kind.BCK, [alg.names[x] for x in s], CayleyTable.trusted(rows), zero=position[alg.zero])
