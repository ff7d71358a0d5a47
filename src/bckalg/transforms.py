"""Structure-to-structure constructions.

The six translations share one driver: check the source kind and axioms,
fill the target table from a one-line cell formula, assemble it with
``new_algebra``. ``TRANSLATIONS`` maps (source kind, target kind) to the
public function and its formula. The carrier (indices and names) never
changes, so roundtrip equality is literal table equality. BCK and Wajsberg
tables translate directly into each other, x*y = complement(x.y) one way
and x.y = complement(x*y) the other; the routes through the MV sum are
deliberately left as independent paths for coherence testing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import AlgebraError, CayleyTable, FiniteAlgebra, Kind, bound_element, new_algebra, require_kind
from .axioms import CHECKERS, is_commutative, require


@dataclass(frozen=True)
class DerivedMvOps:
    """Product and difference tables derived from an MV sum:
    x (.) y = (x' + y')' and x (-) y = (x' + y)'."""

    odot: CayleyTable
    ominus: CayleyTable


def _validated(alg: FiniteAlgebra, kind: Kind, caller: str) -> tuple[int, int, tuple[int, ...]]:
    """Check the kind and the axioms of a translation source; return its
    (zero, one, complement), the complement of a BCK source being 1*x."""
    require_kind(alg, kind, caller)
    require(CHECKERS[kind](alg), alg, f"{kind.value} algebra")
    if kind is not Kind.BCK:
        return alg.zero, alg.unit, alg.complement
    require(is_commutative(alg), alg, "commutative bck algebra")
    top = alg.unit if alg.unit is not None else bound_element(alg)
    if top is None:
        raise AlgebraError(f"{caller} requires a bounded algebra")
    return alg.zero, top, alg.table.entries[top]


def _translate(alg: FiniteAlgebra, source: Kind, target: Kind) -> FiniteAlgebra:
    zero, one, c = _validated(alg, source, f"{source.value}_to_{target.value}")
    cell = TRANSLATIONS[(source, target)][1]
    t = alg.table.entries
    carrier = range(alg.order)
    rows = [[cell(t, c, x, y) for y in carrier] for x in carrier]
    return new_algebra(target, alg.names, rows, zero=zero, one=one, complement=c)


def iseki_extension(alg: FiniteAlgebra) -> FiniteAlgebra:
    """Adjoin a fresh top to a BCK algebra:
    x.y = x*y on the old carrier, x.1 = 0, 1.y = 1 for old y, 1.1 = 0.
    The input is not validated: run ``check_bck`` first, as ``bckalg iseki`` does."""
    require_kind(alg, Kind.BCK, "iseki extension")
    n = alg.order
    z = alg.zero
    rows = [list(row) + [z] for row in alg.table.entries]
    rows.append([n] * n + [z])
    fresh = "1"
    while fresh in alg.names:
        fresh += "'"
    return new_algebra(Kind.BCK, alg.names + (fresh,), rows, zero=z, one=n)


def bck_to_mv(alg: FiniteAlgebra) -> FiniteAlgebra:
    """x + y = (x'*y)' with x' = 1*x, on a bounded commutative BCK algebra."""
    return _translate(alg, Kind.BCK, Kind.MV)


def mv_to_bck(alg: FiniteAlgebra) -> FiniteAlgebra:
    """x*y = (x'+y)', the difference of the MV sum; bounded by 1 = 0'."""
    return _translate(alg, Kind.MV, Kind.BCK)


def wajsberg_to_mv(alg: FiniteAlgebra) -> FiniteAlgebra:
    """x + y = complement(x).y, with zero = complement(1)."""
    return _translate(alg, Kind.WAJSBERG, Kind.MV)


def mv_to_wajsberg(alg: FiniteAlgebra) -> FiniteAlgebra:
    """x.y = x' + y, with unit 1 = 0'."""
    return _translate(alg, Kind.MV, Kind.WAJSBERG)


def wajsberg_to_bck(alg: FiniteAlgebra) -> FiniteAlgebra:
    """x*y = complement(x.y): the bounded commutative BCK algebra of a Wajsberg table."""
    return _translate(alg, Kind.WAJSBERG, Kind.BCK)


def bck_to_wajsberg(alg: FiniteAlgebra) -> FiniteAlgebra:
    """x.y = (x*y)' with x' = 1*x: the Wajsberg algebra of a bounded
    commutative BCK algebra, equal to mv_to_wajsberg(bck_to_mv(alg))."""
    return _translate(alg, Kind.BCK, Kind.WAJSBERG)


# (source kind, target kind) -> (public translation, cell formula over the
# source table t and complement c).
TRANSLATIONS = {
    (Kind.BCK, Kind.MV): (bck_to_mv, lambda t, c, x, y: c[t[c[x]][y]]),
    (Kind.MV, Kind.BCK): (mv_to_bck, lambda t, c, x, y: c[t[c[x]][y]]),
    (Kind.WAJSBERG, Kind.MV): (wajsberg_to_mv, lambda t, c, x, y: t[c[x]][y]),
    (Kind.MV, Kind.WAJSBERG): (mv_to_wajsberg, lambda t, c, x, y: t[c[x]][y]),
    (Kind.WAJSBERG, Kind.BCK): (wajsberg_to_bck, lambda t, c, x, y: c[t[x][y]]),
    (Kind.BCK, Kind.WAJSBERG): (bck_to_wajsberg, lambda t, c, x, y: c[t[x][y]]),
}


def derive_mv_ops(alg: FiniteAlgebra) -> DerivedMvOps:
    """The product and difference tables of a valid MV algebra, the difference by ``mv_to_bck``'s formula."""
    _, _, c = _validated(alg, Kind.MV, "derive_mv_ops")
    t, carrier = alg.table.entries, range(alg.order)
    minus = TRANSLATIONS[(Kind.MV, Kind.BCK)][1]
    odot = CayleyTable(tuple(tuple(c[t[c[x]][c[y]]] for y in carrier) for x in carrier))
    ominus = CayleyTable(tuple(tuple(minus(t, c, x, y) for y in carrier) for x in carrier))
    return DerivedMvOps(odot, ominus)
