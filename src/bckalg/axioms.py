"""Exhaustive axiom checkers producing counterexample-bearing reports.

Every check scans all tuples in lexicographic index order and keeps the
first witness per axiom, so reports are deterministic. A report carries
every failed axiom, not just the first.

Axiom ids:
  bci-1  ((x*y)*(x*z))*(z*y) = 0
  bci-2  (x*(x*y))*y = 0
  bci-3  x*x = 0
  bci-4  x*y = 0 and y*x = 0 imply x = y
  bck-5  0*x = 0
  commutative           x*(x*y) = y*(y*x)
  implicative           x*(y*x) = x
  positive-implicative  (x*y)*z = (x*z)*(y*z)
  mv-assoc, mv-comm, mv-zero-identity, mv-double-negation,
  mv-top-absorbing, mv-lukasiewicz
  wajsberg-1  1.x = x
  wajsberg-2  (x.y).((y.z).(x.z)) = 1
  wajsberg-3  (x.y).y = (y.x).x
  wajsberg-4  (~x.~y).(y.x) = 1
  morphism    f(x*y) = f(x) op f(y)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Sequence

from .core import AlgebraError, FiniteAlgebra


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
        for v in self.failures:
            if v.axiom == axiom:
                return v.witness
        return None


def format_violation(alg: FiniteAlgebra, v: Violation, verb: str = "at") -> str:
    """``axiom at (x,y,...)``, the witness spelled in the algebra's element names."""
    return f"{v.axiom} {verb} ({','.join(alg.names[i] for i in v.witness)})"


def require(report: VerificationReport, alg: FiniteAlgebra, wanted: str) -> None:
    """Raise AlgebraError naming the first failure unless the report passed."""
    if not report.passed:
        failure = format_violation(alg, report.failures[0], "fails at")
        raise AlgebraError(f"input is not a valid {wanted}: {failure}")


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


def check_bci(alg: FiniteAlgebra) -> VerificationReport:
    return _collect("bci", alg.order, _bci_axioms(alg))


def check_bck(alg: FiniteAlgebra) -> VerificationReport:
    t = alg.table.entries
    z = alg.zero
    axioms = _bci_axioms(alg) + [("bck-5", 1, lambda x: t[z][x] == z)]
    return _collect("bck", alg.order, axioms)


def is_commutative(alg: FiniteAlgebra) -> VerificationReport:
    t = alg.table.entries
    return _collect(
        "commutative",
        alg.order,
        [("commutative", 2, lambda x, y: t[x][t[x][y]] == t[y][t[y][x]])],
    )


def is_implicative(alg: FiniteAlgebra) -> VerificationReport:
    t = alg.table.entries
    return _collect(
        "implicative",
        alg.order,
        [("implicative", 2, lambda x, y: t[x][t[y][x]] == x)],
    )


def is_positive_implicative(alg: FiniteAlgebra) -> VerificationReport:
    t = alg.table.entries
    return _collect(
        "positive-implicative",
        alg.order,
        [("positive-implicative", 3, lambda x, y, z: t[t[x][y]][z] == t[t[x][z]][t[y][z]])],
    )


def check_mv(alg: FiniteAlgebra) -> VerificationReport:
    """Abelian-monoid laws plus double negation, top absorption and the
    two-variable distinguishing identity. The monoid laws are checked even
    though the signature presupposes them: a checker that trusts unstated
    laws would accept garbage tables."""
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


def check_wajsberg(alg: FiniteAlgebra) -> VerificationReport:
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


def check_morphism(
    f: Sequence[int] | Mapping[int, int],
    source: FiniteAlgebra,
    target: FiniteAlgebra,
) -> VerificationReport:
    """f(x op y) = f(x) op f(y) over all pairs; bijective passing maps are isomorphisms."""
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
