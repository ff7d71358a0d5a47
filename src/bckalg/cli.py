"""Command-line surface.

Subcommands: verify, convert, iseki, enumerate, sub, iso, check-paper.
Exit codes: 0 pass, 1 semantic failure (axiom violation, non-isomorphic,
failed golden check), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import AlgebraError, FiniteAlgebra, Kind
from .axioms import (
    CHECKERS,
    VerificationReport,
    check_bck,
    format_violation,
    is_commutative,
    is_implicative,
    is_positive_implicative,
    require,
)
from .transforms import TRANSLATIONS, iseki_extension, wajsberg_to_bck
from .enumeration import enumerate_wajsberg, factorizations, find_isomorphism, order_isomorphism
from .substructures import ideals, subalgebras
from .algfile import fixture_dir, load_algebra, render_algebra, save_algebra
from .golden import run_check_paper


# Largest order `enumerate` accepts, checked before anything is built. The
# wajsberg products alone are cheap (order 256 in about 0.2 s), but with
# `--kind bck` each one goes through `wajsberg_to_bck`, whose axiom check
# scans N**3 triples (the 15 order-128 products take about 2.3 s to translate,
# against 0.06 s to build), so a mistyped order would otherwise run for hours.
# At least every order the tests, the scripts and the benchmark use (128 at most).
MAX_ENUMERATE_ORDER = 256


class _InputError(Exception):
    pass


def _load(path: str, kind: str | None = None) -> FiniteAlgebra:
    """The algebra in a file, which must declare ``kind`` when one is given."""
    try:
        alg = load_algebra(path)
    except AlgebraError as exc:
        raise _InputError(f"{path}: {exc}") from None
    if kind is not None and alg.kind.value != kind:
        raise _InputError(f"{path} declares kind {alg.kind.value}, not {kind}")
    return alg


def _print_report(alg: FiniteAlgebra, report: VerificationReport) -> bool:
    if report.passed:
        print(f"PASS {report.checked}")
        return True
    for v in report.failures:
        print(f"FAIL {format_violation(alg, v)}")
    return False


def _cmd_verify(args: argparse.Namespace) -> int:
    alg = _load(args.file, args.kind)
    extras = [
        (args.commutative, is_commutative),
        (args.implicative, is_implicative),
        (args.positive_implicative, is_positive_implicative),
    ]
    if any(flag for flag, _ in extras) and alg.kind is not Kind.BCK:
        raise _InputError("--commutative/--implicative/--positive-implicative apply to bck files only")
    passed = _print_report(alg, CHECKERS[alg.kind](alg))
    for flag, checker in extras:
        if flag:
            passed &= _print_report(alg, checker(alg))
    return 0 if passed else 1


def _cmd_convert(args: argparse.Namespace) -> int:
    alg = _load(args.file, args.source)
    to = Kind(args.to)
    try:
        if to is alg.kind:
            require(CHECKERS[to](alg), alg, f"{to.value} algebra")
            converted = alg
        else:
            converted = TRANSLATIONS[(alg.kind, to)][0](alg)
    except AlgebraError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    sys.stdout.write(render_algebra(converted))
    return 0


def _load_bck(path: str) -> FiniteAlgebra:
    """A file that must declare kind bck and hold a valid bck algebra; anything else is an input error."""
    alg = _load(path, "bck")
    try:
        require(check_bck(alg), alg, "bck algebra")
    except AlgebraError as exc:
        raise _InputError(f"{path}: {exc}") from None
    return alg


def _cmd_iseki(args: argparse.Namespace) -> int:
    alg = _load_bck(args.file)
    sys.stdout.write(render_algebra(iseki_extension(alg)))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.order < 2:
        raise _InputError("--order must be >= 2")
    if args.order > MAX_ENUMERATE_ORDER:
        raise _InputError(f"--order must be <= {MAX_ENUMERATE_ORDER}")
    out = None if args.out is None else Path(args.out)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    algebras = enumerate_wajsberg(args.order)
    if args.kind == "bck":
        algebras = [wajsberg_to_bck(a) for a in algebras]
    print(f"pi_{args.order} = {len(algebras)}")
    if out is not None:
        prefix = "w" if args.kind == "wajsberg" else "bck"
        for fact, alg in zip(factorizations(args.order), algebras):
            path = out / f"{prefix}{args.order}_{fact.label}.alg"
            save_algebra(alg, path)
            print(f"wrote {path}")
    return 0


def _cmd_sub(args: argparse.Namespace) -> int:
    alg = _load_bck(args.file)
    proper = not args.all
    scope = "proper" if proper else "all"
    both = not (args.subalgebras or args.ideals)
    for label, wanted, family in (("subalgebras", args.subalgebras, subalgebras), ("ideals", args.ideals, ideals)):
        if wanted or both:
            sets = family(alg, proper_only=proper)
            print(f"{label} ({scope}, {len(sets)}):")
            for s in sets:
                print("  {" + ",".join(alg.names[i] for i in sorted(s)) + "}")
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    a = _load(args.a)
    b = _load(args.b)
    mapping = order_isomorphism(a, b) if args.poset else find_isomorphism(a, b)
    if mapping is None:
        print("non-isomorphic")
        return 1
    if args.poset:
        print("poset-isomorphic")
        return 0
    for i, j in enumerate(mapping):
        print(f"{a.names[i]} -> {b.names[j]}")
    return 0


def _cmd_check_paper(args: argparse.Namespace) -> int:
    fixtures = Path(args.fixtures) if args.fixtures is not None else fixture_dir()
    lines, ok = run_check_paper(fixtures)
    for line in lines:
        print(line)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bckalg", description="Finite BCK/MV/Wajsberg algebra toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the axioms of an algebra file")
    p.add_argument("--kind", required=True, choices=["bck", "wajsberg", "mv"])
    p.add_argument("--commutative", action="store_true")
    p.add_argument("--implicative", action="store_true")
    p.add_argument("--positive-implicative", dest="positive_implicative", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("convert", help="translate an algebra to another kind")
    p.add_argument("--to", required=True, choices=["bck", "wajsberg", "mv"])
    p.add_argument("--from", dest="source", choices=["bck", "wajsberg", "mv"])
    p.add_argument("file")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("iseki", help="adjoin a fresh top to a bck algebra")
    p.add_argument("file")
    p.set_defaults(func=_cmd_iseki)

    p = sub.add_parser("enumerate", help="generate all order-n algebras, one per factorization")
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--kind", choices=["wajsberg", "bck"], default="wajsberg")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sub", help="list subalgebras and ideals of a bck file")
    p.add_argument("--subalgebras", action="store_true")
    p.add_argument("--ideals", action="store_true")
    p.add_argument("--all", action="store_true", help="include {zero} and the full carrier")
    p.add_argument("file")
    p.set_defaults(func=_cmd_sub)

    p = sub.add_parser("iso", help="search for an isomorphism between two algebra files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--poset", action="store_true", help="compare derived orders only")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("check-paper", help="run the golden suite over a fixtures directory")
    p.add_argument("fixtures", nargs="?")
    p.set_defaults(func=_cmd_check_paper)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (_InputError, OSError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
