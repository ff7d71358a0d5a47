"""The benchmark's own evaluator and answer checks; shares no code with bckalg.

Each check returns None when the answer is right and a short reason when it
is wrong. Tables are read as lists of rows, row = left operand.
"""

from __future__ import annotations

from .gen import Table


def _axioms(t, z, u, c):
    """Identity id -> (arity, predicate) for every identity bckalg's checkers
    name in their reports; z, u and c are zero, one and the complement."""
    return {
        "bci-1": (3, lambda x, y, w: t[t[t[x][y]][t[x][w]]][t[w][y]] == z),
        "bci-2": (2, lambda x, y: t[t[x][t[x][y]]][y] == z),
        "bci-3": (1, lambda x: t[x][x] == z),
        "bci-4": (2, lambda x, y: x == y or t[x][y] != z or t[y][x] != z),
        "bck-5": (1, lambda x: t[z][x] == z),
        "commutative": (2, lambda x, y: t[x][t[x][y]] == t[y][t[y][x]]),
        "mv-assoc": (3, lambda x, y, w: t[t[x][y]][w] == t[x][t[y][w]]),
        "mv-comm": (2, lambda x, y: t[x][y] == t[y][x]),
        "mv-zero-identity": (1, lambda x: t[x][z] == x),
        "mv-double-negation": (1, lambda x: c[c[x]] == x),
        "mv-top-absorbing": (1, lambda x: t[x][c[z]] == c[z]),
        "mv-lukasiewicz": (2, lambda x, y: t[c[t[c[x]][y]]][y] == t[c[t[c[y]][x]]][x]),
        "wajsberg-1": (1, lambda x: t[u][x] == x),
        "wajsberg-2": (3, lambda x, y, w: t[t[x][y]][t[t[y][w]][t[x][w]]] == u),
        "wajsberg-3": (2, lambda x, y: t[t[x][y]][y] == t[t[y][x]][x]),
        "wajsberg-4": (2, lambda x, y: t[t[c[x]][c[y]]][t[y][x]] == u),
    }


def identity_holds(table: Table, axiom: str, witness: tuple[int, ...]) -> bool:
    arity, holds = _axioms(table.rows, table.zero, table.one, table.complement)[axiom]
    if len(witness) != arity:
        raise ValueError(f"{axiom} takes {arity} variables, witness has {len(witness)}")
    return holds(*witness)


def check_verify(table: Table, code: int, out: str, checkers: int) -> str | None:
    """Exit code matches known validity; every reported witness really fails."""
    lines = out.splitlines()
    if table.valid:
        if code != 0 or len(lines) != checkers or not all(l.startswith("PASS ") for l in lines):
            return f"valid {table.label} table: exit {code}, output {lines[:3]}"
        return None
    fails = [l for l in lines if l.startswith("FAIL ")]
    if code != 1 or not fails:
        return f"corrupted {table.label} table: exit {code}, {len(fails)} FAIL lines"
    where = {name: i for i, name in enumerate(table.names)}
    for line in fails:
        axiom, _, rest = line[5:].partition(" at (")
        try:
            witness = tuple(where[name] for name in rest.rstrip(")").split(","))
            if identity_holds(table, axiom, witness):
                return f"reported witness holds: {line}"
        except (KeyError, ValueError) as exc:
            return f"unreadable FAIL line {line!r}: {exc}"
    return None


def parse_document(text: str) -> dict:
    """Read an ``.alg`` document into its header fields and table of names."""
    header: dict[str, str] = {}
    lines = [l.strip() for l in text.splitlines() if l.strip() and not l.lstrip().startswith("#")]
    i = 0
    while lines[i] != "table:":
        key, _, value = lines[i].partition(":")
        header[key.strip()] = value.strip()
        i += 1
    header["rows"] = [l.split() for l in lines[i + 1:]]
    return header


def check_convert(source: Table, target: Table, code: int, out: str) -> str | None:
    """A valid source converts to the formula table of the target kind, on the
    same carrier; a corrupted one is refused with exit 1 and no output."""
    if not source.valid:
        if code != 1 or out:
            return f"corrupted {source.kind}->{target.kind}: exit {code}, {len(out)} bytes out"
        return None
    if code != 0:
        return f"{source.kind}->{target.kind} of {source.label}: exit {code}"
    try:
        doc = parse_document(out)
    except IndexError:
        return "converted document has no table section"
    nm = target.names
    expected_rows = [[nm[v] for v in row] for row in target.rows]
    if doc.get("kind") != target.kind or doc.get("elements", "").split() != list(nm):
        return f"converted header wrong: kind {doc.get('kind')!r}"
    if doc["rows"] != expected_rows:
        return f"{source.kind}->{target.kind} of {source.label}: table differs from the formula"
    if doc.get("zero") != nm[target.zero] or doc.get("one", nm[target.one]) != nm[target.one]:
        return "converted constants differ from the formula"
    if "complement" in doc and doc["complement"].split() != [nm[c] for c in target.complement]:
        return "converted complement differs from the formula"
    return None


CHECK_PAPER_LAST_LINE = "check-paper: OK (7 examples, 3 flagged cell(s))"


def check_check_paper(code: int, out: str) -> str | None:
    lines = out.splitlines()
    if code != 0 or not lines or lines[-1] != CHECK_PAPER_LAST_LINE:
        return f"check-paper: exit {code}, last line {lines[-1:]!r}"
    return None


def is_homomorphism(f, source_rows, source_consts, target: Table) -> bool:
    """f is a bijection onto target's carrier that preserves the operation,
    zero, one and the complement; source_consts = (zero, one, complement)."""
    n = target.order
    if f is None or len(f) != n or sorted(f) != list(range(n)):
        return False
    z, u, c = source_consts
    t = target.rows
    if f[z] != target.zero or f[u] != target.one:
        return False
    if any(f[c[x]] != target.complement[f[x]] for x in range(n)):
        return False
    return all(f[source_rows[x][y]] == t[f[x]][f[y]] for x in range(n) for y in range(n))


def closed_under(rows, members) -> bool:
    return all(rows[x][y] in members for x in members for y in members)


def absorbing(rows, zero: int, members) -> bool:
    """Ideal test: contains zero, and x*y in S with y in S forces x in S."""
    if zero not in members:
        return False
    return all(x in members for y in members for x in range(len(rows)) if rows[x][y] in members)


def brute_force_subalgebra_count(table: Table) -> int:
    """Closed subsets, found by testing every subset that holds zero (x*x = 0
    puts zero in each one); meant for n <= 16."""
    n, z, t = table.order, table.zero, table.rows
    others = [x for x in range(n) if x != z]
    count = 0
    for mask in range(1 << len(others)):
        members = {z} | {others[i] for i in range(len(others)) if mask >> i & 1}
        count += closed_under(t, members)
    return count
