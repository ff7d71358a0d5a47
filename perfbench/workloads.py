"""The four workloads: seeded inputs, the op each card runs, and its check.

A workload's ``setup(lib, rng, workdir)`` builds a ``Plan``: weighted deck
cards, each a list of variants of one op on differently relabelled inputs,
plus ops run exactly once per run. Every op calls bckalg through
attribute lookups on the package at call time, so the tracer's rebinding
catches it. ``check`` gets the op's answer and returns None or the reason it
is wrong.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import gen, oracle

DEADLINE_S = 10.0
VARIANTS = 8  # relabelled inputs per card, where the cost depends on the labelling
# BCK(2^5) in the ideals workload: ~6x what a closure-system enumerator needs.
LARGE_IDEALS_DEADLINE_S = 1.0
KINDS = ("bck", "mv", "wajsberg")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    deadline: float = DEADLINE_S


@dataclass
class Plan:
    cards: list[tuple[list[Op], int]]
    once: list[Op] = field(default_factory=list)


def _algebra(lib, table: gen.Table):
    """The generated table as a bckalg algebra, with the constants its kind designates."""
    if table.kind == "wajsberg":
        return lib.new_algebra("wajsberg", table.names, table.rows, one=table.one, complement=table.complement)
    if table.kind == "mv":
        return lib.new_algebra("mv", table.names, table.rows, zero=table.zero, complement=table.complement)
    return lib.new_algebra("bck", table.names, table.rows, zero=table.zero, one=table.one)


def _cli(lib, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lib.cli.main(argv)
    return code, out.getvalue()


# -- tables: the file pipeline through the CLI --------------------------------

# order -> (one factorization per file, op weight); the first file of each
# order is corrupted, and file kinds rotate so every kind occurs at each order.
# The weights put the median among order-8 ops and the 90th percentile among
# valid order-64 ops, clear of the corrupted ops whose cost depends on where
# the bad cell falls.
TABLE_ORDERS = {
    8: ([(8,), (2, 4), (2, 2, 2), (2, 4), (8,)], 9),
    32: ([(32,), (2, 16), (4, 8), (2, 2, 8), (2, 2, 2, 2, 2)], 3),
    64: ([(8, 8), (4, 4, 4), (2, 2, 2, 2, 2, 2), (2, 4, 8), (2, 32)], 2),
    128: ([(2, 2, 2, 2, 2, 2, 2), (2, 64), (4, 4, 8)], 1),
}
CHECK_PAPER_WEIGHT = 2


def setup_tables(lib, rng: random.Random, workdir: Path) -> Plan:
    cards: list[tuple[list[Op], int]] = []
    for j, (n, (files, weight)) in enumerate(TABLE_ORDERS.items()):
        for i, factors in enumerate(files):
            carrier = gen.Carrier(factors, rng)
            kind = KINDS[(i + j) % 3]
            table = carrier.table(kind)
            # A corrupted file's cost depends on where the bad cell is, so it
            # gets variants with different cells; a valid file needs one.
            sources = [gen.corrupt(table, rng) for _ in range(VARIANTS)] if i == 0 else [table]
            paths = [workdir / f"t{n}_{i}_{kind}_{v}.alg" for v in range(len(sources))]
            for source, path in zip(sources, paths):
                path.write_text(gen.render(source), encoding="utf-8")
            cards.append(([_verify_op(lib, src, path) for src, path in zip(sources, paths)], weight))
            for to in KINDS:
                if to != kind:
                    variants = [_convert_op(lib, src, carrier, to, path) for src, path in zip(sources, paths)]
                    cards.append((variants, weight))
    cards.append(([Op("check-paper", lambda: _cli(lib, ["check-paper"]),
                      lambda r: oracle.check_check_paper(*r))], CHECK_PAPER_WEIGHT))
    return Plan(cards)


def _tag(table: gen.Table) -> str:
    return table.label if table.valid else table.label + " corrupted"


def _verify_op(lib, source: gen.Table, path: Path) -> Op:
    argv = ["verify", "--kind", source.kind, str(path)]
    if source.kind == "bck":
        argv.insert(3, "--commutative")
    checkers = 2 if source.kind == "bck" else 1
    return Op(f"verify {source.kind} {_tag(source)}", lambda: _cli(lib, argv),
              lambda r: oracle.check_verify(source, r[0], r[1], checkers))


def _convert_op(lib, source: gen.Table, carrier: gen.Carrier, to: str, path: Path) -> Op:
    """The expected table is built when the answer is checked, outside set-up."""
    argv = ["convert", "--to", to, str(path)]
    return Op(f"convert {source.kind}->{to} {_tag(source)}", lambda: _cli(lib, argv),
              lambda r: oracle.check_convert(source, carrier.table(to), r[0], r[1]))


# -- classify: identify a table against the order-n chain products ------------

CLASSIFY_MENU = [(2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2), (4, 4, 4), (2, 4, 8), (2, 3, 4), (3, 3, 4), (5, 8)]
# Per factorization, clean queries weigh 2 and corrupted ones 1.
CLASSIFY_WEIGHTS = {True: 2, False: 1}


def setup_classify(lib, rng: random.Random, workdir: Path) -> Plan:
    cards = []
    for factors in CLASSIFY_MENU:
        for clean, weight in CLASSIFY_WEIGHTS.items():
            variants = []
            for _ in range(VARIANTS):
                query = gen.chain_product(factors, "wajsberg", rng)
                variants.append(_classify_op(lib, query if clean else gen.corrupt(query, rng)))
            cards.append((variants, weight))
    return Plan(cards)


def _classify_op(lib, query: gen.Table) -> Op:
    alg = _algebra(lib, query)
    n = query.order

    def run():
        candidates = lib.enumerate_wajsberg(n)
        posets = [lib.poset_isomorphic(c, alg) for c in candidates]
        maps = [lib.find_isomorphism(c, alg) for c in candidates]
        diagnosis = None if any(m is not None for m in maps) else lib.golden.diagnose_wajsberg(alg)
        return candidates, posets, maps, diagnosis

    def check(answer) -> str | None:
        candidates, posets, maps, diagnosis = answer
        menu = gen.factorizations(n)
        if len(candidates) != len(menu):
            return f"{len(candidates)} candidates for order {n}, expected {len(menu)}"
        source = menu.index(query.factors)
        if [i for i, p in enumerate(posets) if p] != [source]:
            return f"{query.label}: poset matches {[menu[i] for i, p in enumerate(posets) if p]}"
        found = [i for i, m in enumerate(maps) if m is not None]
        if query.valid:
            if found != [source]:
                return f"{query.label}: isomorphic to {[menu[i] for i in found]}"
            cand = candidates[source]
            consts = (cand.zero, cand.unit, cand.complement)
            if not oracle.is_homomorphism(maps[source], cand.table.entries, consts, query):
                return f"{query.label}: the map found is not an isomorphism"
            return None
        if found:
            return f"corrupted {query.label} found isomorphic to {[menu[i] for i in found]}"
        bad = query.corruption
        nm = query.names
        expected = [(nm[bad.row], nm[bad.col], nm[bad.new], nm[bad.old])]
        cells = [(c.row, c.col, c.stored, c.expected) for c in diagnosis.cells]
        if cells != expected:
            return f"corrupted {query.label}: diagnosis {cells}, expected {expected}"
        return None

    return Op(f"classify {_tag(query)}", run, check)


# -- subalgebras and ideals: substructure enumeration -------------------------

# factorization -> weight.
# The weights put the median in the middle of the order-16 to order-24
# products and the 90th percentile in the middle of the 2^3*3 deals.
SUBALGEBRA_MENU = {
    (2, 2, 2): 4, (2, 2, 2, 2): 3, (2, 2, 4): 3, (2, 3, 3): 3,
    (24,): 3, (2, 12): 2, (2, 2, 2, 3): 3, (3, 3, 3): 1,
}
BRUTE_FORCE_MAX_ORDER = 16


def setup_subalgebras(lib, rng: random.Random, workdir: Path) -> Plan:
    counts: dict[tuple[int, ...], int] = {}  # per factorization, shared by its relabellings
    cards = []
    for factors, weight in SUBALGEBRA_MENU.items():
        variants = [_subalgebras_op(lib, gen.chain_product(factors, "bck", rng), counts) for _ in range(VARIANTS)]
        cards.append((variants, weight))
    return Plan(cards)


def _subalgebras_op(lib, table: gen.Table, counts: dict) -> Op:
    alg = _algebra(lib, table)

    def check(found) -> str | None:
        sets = [frozenset(s) for s in found]
        if len(set(sets)) != len(sets):
            return f"{table.label}: repeated subalgebras"
        if not all(oracle.closed_under(table.rows, s) for s in sets):
            return f"{table.label}: a listed subalgebra is not closed"
        if table.factors not in counts and table.order <= BRUTE_FORCE_MAX_ORDER:
            counts[table.factors] = oracle.brute_force_subalgebra_count(table)
        expected = counts.setdefault(table.factors, len(sets))
        if len(sets) != expected:
            return f"{table.label}: {len(sets)} subalgebras, expected {expected}"
        return None

    return Op(f"subalgebras {table.label}", lambda: lib.subalgebras(alg), check)


# factorization -> weight, orders 14-20: chains and products of 2-4 chains.
IDEAL_MENU = {
    (14,): 4, (2, 7): 4, (3, 5): 4, (16,): 4, (2, 8): 4, (2, 2, 4): 4, (2, 2, 2, 2): 4,
    (18,): 2, (2, 9): 2, (3, 6): 2, (2, 3, 3): 2,
    (20,): 1, (2, 2, 5): 1,
}
LARGE_IDEALS = (2, 2, 2, 2, 2)


def setup_ideals(lib, rng: random.Random, workdir: Path) -> Plan:
    cards = []
    for factors, weight in IDEAL_MENU.items():
        variants = [_ideals_op(lib, gen.chain_product(factors, "bck", rng)) for _ in range(VARIANTS)]
        cards.append((variants, weight))
    large = _ideals_op(lib, gen.chain_product(LARGE_IDEALS, "bck", rng))
    large.deadline = LARGE_IDEALS_DEADLINE_S
    return Plan(cards, once=[large])


def _ideals_op(lib, table: gen.Table) -> Op:
    alg = _algebra(lib, table)

    def check(found) -> str | None:
        sets = [frozenset(s) for s in found]
        expected = 2 ** len(table.factors)  # the ideals of a product of k chains
        if len(set(sets)) != len(sets) or len(sets) != expected:
            return f"{table.label}: {len(set(sets))} distinct ideals, expected {expected}"
        if not all(oracle.absorbing(table.rows, table.zero, s) for s in sets):
            return f"{table.label}: a listed ideal is not absorbing"
        return None

    return Op(f"ideals {table.label}", lambda: lib.ideals(alg), check)


WORKLOADS = {
    "tables": setup_tables,
    "classify": setup_classify,
    "subalgebras": setup_subalgebras,
    "ideals": setup_ideals,
}
