"""Axiom checkers producing the counterexample-bearing report of an exhaustive scan.

Each identity is written once, in ``_TERMS``, over x, y, z, the constants 0
and 1, the table's operation *, the complement ' and, for a morphism, the
map f and the target's operation op. A report carries every failed axiom,
each with its first witness in lexicographic index order.

A checker scans n^3 triples, or n^2 pairs, unless it can certify the table.
From order ``_CERTIFY_FROM`` up, ``check_wajsberg``, ``check_mv``, and
``check_bci``, ``check_bck`` and ``is_commutative`` on a bck-kind algebra,
return the passing report without a scan when the table is a chain product of
the checker's kind (``core.is_chain_product``, O(n^2 k) for k chains). Such a
table satisfies every axiom they check, so the report is the one the scan
would give. ``is_positive_implicative`` does the same for a certified bck-kind
table whose chains all have two elements, the only chain products that are
positive implicative, and asks the certificate only if down * up = n for each
element's ``core.order_degrees`` (in a chain product (c+1)(t-c+1) > t+1 for
0 < c < t). Every other table is scanned, so a failing one always gets the
kernels' first witness: below the floor, no chain product (an Iseki
extension, an unbounded or non-commutative bck table, a corrupted one), a
chain product with a longer chain given to ``is_positive_implicative``, or a
wajsberg or mv table given to a bck-family checker, which certify bck-kind
tables only. ``is_implicative`` and ``check_morphism`` always scan.

Axiom ids (the lines below are appended from ``_TERMS``):
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cache
from typing import Mapping, Sequence

from .core import AlgebraError, FiniteAlgebra, Kind, is_chain_product, order_degrees, require_kind

# The order from which a checker asks the certificate before it scans. Timed
# in-process on relabelled chain products, the certificate costs about twice
# the scan at n = 8 (0.1 against 0.06 ms), about as much at n = 12 to 16, a
# fifth at n = 64 and a tenth or less at n = 128.
_CERTIFY_FROM = 16

_TERMS = {
    "bci-1": "((x*y)*(x*z))*(z*y) = 0",
    "bci-2": "(x*(x*y))*y = 0",
    "bci-3": "x*x = 0",
    "bci-4": "x*y = 0 and y*x = 0 imply x = y",
    "bck-5": "0*x = 0",
    "commutative": "x*(x*y) = y*(y*x)",
    "implicative": "x*(y*x) = x",
    "positive-implicative": "(x*y)*z = (x*z)*(y*z)",
    "mv-assoc": "(x*y)*z = x*(y*z)",
    "mv-comm": "x*y = y*x",
    "mv-zero-identity": "x*0 = x",
    "mv-double-negation": "x'' = x",
    "mv-top-absorbing": "x*1 = 1",
    "mv-lukasiewicz": "(x'*y)'*y = (y'*x)'*x",
    "wajsberg-1": "1*x = x",
    "wajsberg-2": "(x*y)*((y*z)*(x*z)) = 1",
    "wajsberg-3": "(x*y)*y = (y*x)*x",
    "wajsberg-4": "(x'*y')*(y*x) = 1",
    "morphism": "f(x*y) = f(x) op f(y)",
}
__doc__ = (__doc__ or "") + "".join(f"  {axiom}  {term}\n" for axiom, term in _TERMS.items())


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class VerificationReport:
    checked: str
    failures: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def witness_for(self, axiom: str) -> tuple[int, ...] | None:
        return next((v.witness for v in self.failures if v.axiom == axiom), None)


def format_violation(alg: FiniteAlgebra, v: Violation, verb: str = "at") -> str:
    """``axiom at (x,y,...)``, the witness spelled in the algebra's element names."""
    return f"{v.axiom} {verb} ({','.join(alg.names[i] for i in v.witness)})"


def require(report: VerificationReport, alg: FiniteAlgebra, wanted: str) -> None:
    """Raise AlgebraError naming the first failure unless the report passed."""
    if not report.passed:
        failure = format_violation(alg, report.failures[0], "fails at")
        raise AlgebraError(f"input is not a valid {wanted}: {failure}")


def _parse(term: str) -> ast.Compare:
    """A term as the Python tree of ``lhs == rhs``: x' is read as the call x() and op as @."""
    return ast.parse(term.replace("'", "()").replace(" op ", "@").replace("=", "=="), mode="eval").body


def _compile(term: str):
    """The row kernel ``kernel(t, c, zero, one, f, u)`` of a term: one loop per leading
    variable in lexicographic order, each subterm free of the last variable hoisted as
    a scalar, a row t[s] or a column tcols[s] to the loop that binds its variables, and
    one comprehension over the last variable. It returns the first failing tuple, or None."""
    tree = _parse(term)
    *lead, var = sorted({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} - {"f"})
    last = len(lead) + 1  # loop level of the last variable; level 0 is outside every loop
    bound: dict[str, tuple[str, int]] = {}  # hoisted subterm -> (local name, loop level)

    def bind(expr: str, level: int) -> tuple[str, int]:
        if level < last:
            expr = bound.setdefault(expr, (f"s{len(bound)}", level))[0]
        return expr, level

    def walk(node) -> tuple[str, int]:
        """The Python expression of a subterm and the loop level that binds its variables."""
        if isinstance(node, ast.Name):
            return node.id, (lead + [var]).index(node.id) + 1
        if isinstance(node, ast.Constant):
            return ("zero", "one")[node.value], 0
        if isinstance(node, ast.Call):
            sym, (a, level) = ("f", walk(node.args[0])) if node.args else ("c", walk(node.func))
            return bind(f"{sym}[{a}]", level)
        sym = "u" if isinstance(node.op, ast.MatMult) else "t"
        (a, la), (b, lb) = walk(node.left), walk(node.right)
        if la < last:
            return bind(f"{bind(f'{sym}[{a}]', la)[0]}[{b}]", max(la, lb))
        return (f"{sym}[{a}][{b}]" if lb == last else f"{bind(f'{sym}cols[{b}]', lb)[0]}[{a}]"), last

    (left, _), (right, _) = walk(tree.left), walk(tree.comparators[0])
    src = ["def kernel(t, c, zero, one, f, u):", " rng = range(len(t))"]
    src += [f" {s}cols = tuple(zip(*{s}))" for s in "tu" if f"{s}cols[" in "".join(bound)]
    loops = [f"for {v} in rng:" for v in lead] + [f"bad = [{var} for {var} in rng if {left} != {right}]"]
    for level, loop in enumerate(loops):
        hoist = [f"{name} = {expr}" for expr, (name, at) in bound.items() if at == level]
        src += [" " * (level + 1) + line for line in hoist + [loop]]
    src.append(f"{' ' * last}if bad: return {''.join(v + ', ' for v in lead)}bad[0],")
    exec("\n".join(src), scope := {})
    return scope["kernel"]


def _antisymmetry(t, c, zero, one, f, u):
    """bci-4 is a quasi-identity, not a term: the first x, y with x*y = 0 = y*x and x != y."""
    pairs = ((x, y) for x, row in enumerate(t) for y, v in enumerate(row) if v == zero == t[y][x] and x != y)
    return next(pairs, None)


@cache
def _kernel(axiom: str):
    return _antisymmetry if axiom == "bci-4" else _compile(_TERMS[axiom])


def _certified(alg: FiniteAlgebra, kind: Kind) -> bool:
    """Whether ``alg`` is of kind ``kind``, of order ``_CERTIFY_FROM`` or more, and a chain product."""
    return alg.kind is kind and alg.order >= _CERTIFY_FROM and is_chain_product(alg)


def _report(checked: str, axioms: tuple[str, ...], alg: FiniteAlgebra, f=None, u=None, certified: bool = False):
    """The passing report without a scan when ``certified``, else the kernels' report on ``axioms``."""
    if certified:
        return VerificationReport(checked, ())
    args = (alg.table.entries, alg.complement, alg.zero, alg.unit, f, u)
    witnesses = [(axiom, _kernel(axiom)(*args)) for axiom in axioms]
    return VerificationReport(checked, tuple(Violation(a, w) for a, w in witnesses if w is not None))


def check_bci(alg: FiniteAlgebra) -> VerificationReport:
    """Scans every table, except a chain product of kind bck, which is a bck algebra."""
    return _report("bci", ("bci-1", "bci-2", "bci-3", "bci-4"), alg, certified=_certified(alg, Kind.BCK))


def check_bck(alg: FiniteAlgebra) -> VerificationReport:
    """Scans every table, except a chain product of kind bck."""
    return _report("bck", ("bci-1", "bci-2", "bci-3", "bci-4", "bck-5"), alg, certified=_certified(alg, Kind.BCK))


def is_commutative(alg: FiniteAlgebra) -> VerificationReport:
    """Scans every table, except a chain product of kind bck."""
    return _report("commutative", ("commutative",), alg, certified=_certified(alg, Kind.BCK))


def is_implicative(alg: FiniteAlgebra) -> VerificationReport:
    return _report("implicative", ("implicative",), alg)


def is_positive_implicative(alg: FiniteAlgebra) -> VerificationReport:
    """Scans every table, except a chain product of kind bck whose chains all have
    two elements. Any longer chain fails at x = 2, y = z = 1: (2*1)*1 = 0 but
    (2*1)*(1*1) = 1, so no other chain product is positive implicative. Only a table
    whose degrees all have d * u = n asks the certificate: (c+1)(t-c+1) > t+1 for 0 < c < t."""
    n = alg.order
    boolean = all(d * u == n for d, u in order_degrees(alg)) and _certified(alg, Kind.BCK)
    return _report("positive-implicative", ("positive-implicative",), alg, certified=boolean)


def check_mv(alg: FiniteAlgebra) -> VerificationReport:
    """Abelian-monoid laws plus double negation, top absorption and the two-variable
    distinguishing identity. The monoid laws are checked even though the signature
    presupposes them: a checker that trusts unstated laws would accept garbage tables.
    The stored one is read as it is; FiniteAlgebra keeps it equal to zero'. Other kinds are refused.
    A chain product passes without a scan."""
    require_kind(alg, Kind.MV, "check_mv")
    return _report("mv", ("mv-assoc", "mv-comm", "mv-zero-identity", "mv-double-negation",
                         "mv-top-absorbing", "mv-lukasiewicz"), alg, certified=_certified(alg, Kind.MV))


def check_wajsberg(alg: FiniteAlgebra) -> VerificationReport:
    """Other kinds are refused. The identities never read zero; FiniteAlgebra keeps it equal to unit'.
    A chain product passes without a scan."""
    require_kind(alg, Kind.WAJSBERG, "check_wajsberg")
    return _report("wajsberg", ("wajsberg-1", "wajsberg-2", "wajsberg-3", "wajsberg-4"), alg,
                   certified=_certified(alg, Kind.WAJSBERG))


def check_morphism(
    f: Sequence[int] | Mapping[int, int], source: FiniteAlgebra, target: FiniteAlgebra
) -> VerificationReport:
    """f(x op y) = f(x) op f(y) over all pairs; bijective passing maps are isomorphisms."""
    n = source.order
    if isinstance(f, Mapping):
        f = [f[x] for x in range(n)] if all(type(k) is int for k in f) and set(f) == set(range(n)) else []
    images = tuple(f)
    if len(images) != n:
        raise AlgebraError("morphism map must be total on the source carrier")
    if any(type(v) is not int or not 0 <= v < target.order for v in images):
        raise AlgebraError("morphism image out of range of the target carrier")
    return _report("morphism", ("morphism",), source, images, target.table.entries)


CHECKERS = {Kind.BCK: check_bck, Kind.WAJSBERG: check_wajsberg, Kind.MV: check_mv}
