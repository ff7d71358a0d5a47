"""Line-oriented algebra file format.

    kind: bck|wajsberg|mv
    order: <n>
    elements: <n names>
    zero: <name>            (and/or one:, per kind)
    one: <name>
    complement: <n names>   (optional; required for mv)
    table:
    <n rows of n names>     (row i, column j holds element_i op element_j)

Lines starting with '#' and blank lines are ignored. An element name is
non-empty, contains no whitespace character and does not start with '#': the
parser refuses such a name in ``elements:``, and rendering refuses to write an
algebra that has one. Rendering is canonical: keys in the order above, single
spaces, no comments; parse(render(a)) == a.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .core import AlgebraError, FiniteAlgebra, Kind, new_algebra

_HEADER_KEYS = ("kind", "order", "elements", "zero", "one", "complement")
_NAME_RULE = "an element name is non-empty, contains no whitespace and does not start with '#'"


class ParseError(AlgebraError):
    """Raised when a document does not follow the format."""


def fixture_dir() -> Path:
    """Directory of the bundled worked-example corpus."""
    return Path(__file__).resolve().parent / "fixtures"


def _unwritable(names: Iterable[str]) -> str | None:
    """The first name that breaks ``_NAME_RULE``, or None."""
    return next((s for s in names if not s or s.startswith("#") or any(map(str.isspace, s))), None)


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def parse_algebra(text: str) -> FiniteAlgebra:
    """Parse one algebra document; raises ParseError with a line number."""
    lines = _content_lines(text)
    header: dict[str, str] = {}
    pos = 0
    while pos < len(lines):
        lineno, line = lines[pos]
        if line == "table:":
            pos += 1
            break
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or key not in _HEADER_KEYS:
            raise ParseError(f"line {lineno}: expected a header key or 'table:', got {line!r}")
        if key in header:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        if key == "elements" and (bad := _unwritable(value.split())) is not None:
            raise ParseError(f"line {lineno}: element name {bad!r}: {_NAME_RULE}")
        header[key] = value.strip()
        pos += 1
    else:
        raise ParseError("missing 'table:' section")

    for key in ("kind", "order", "elements"):
        if key not in header:
            raise ParseError(f"missing required key {key!r}")
    try:
        kind = Kind(header["kind"])
    except ValueError:
        raise ParseError(f"unknown kind {header['kind']!r}") from None
    try:
        order = int(header["order"])
    except ValueError:
        raise ParseError(f"order must be an integer, got {header['order']!r}") from None
    if order < 1:
        raise ParseError(f"order must be >= 1, got {order}")

    names = tuple(header["elements"].split())
    if len(names) != order:
        raise ParseError(f"elements lists {len(names)} names, order says {order}")
    if len(set(names)) != order:
        raise ParseError("element names must be pairwise distinct")
    where = {name: i for i, name in enumerate(names)}

    def indices(cells: list[str], context: str) -> list[int]:
        try:
            return list(map(where.__getitem__, cells))
        except KeyError as missing:
            raise ParseError(f"{context}: undeclared element name {missing.args[0]!r}") from None

    rows = []
    for i in range(order):
        if pos >= len(lines):
            raise ParseError(f"table has {i} rows, expected {order}")
        lineno, line = lines[pos]
        pos += 1
        cells = line.split()
        if len(cells) != order:
            raise ParseError(f"line {lineno}: table row has {len(cells)} entries, expected {order}")
        rows.append(indices(cells, f"line {lineno}"))
    if pos < len(lines):
        lineno, line = lines[pos]
        raise ParseError(f"line {lineno}: unexpected content after the table: {line!r}")

    zero = indices([header["zero"]], "zero")[0] if "zero" in header else None
    one = indices([header["one"]], "one")[0] if "one" in header else None
    complement = None
    if "complement" in header:
        cells = header["complement"].split()
        if len(cells) != order:
            raise ParseError(f"complement lists {len(cells)} names, expected {order}")
        complement = indices(cells, "complement")

    return new_algebra(kind, names, rows, zero=zero, one=one, complement=complement)


def load_algebra(path: str | Path) -> FiniteAlgebra:
    return parse_algebra(Path(path).read_text(encoding="utf-8"))


def render_algebra(alg: FiniteAlgebra) -> str:
    """Canonical document for an algebra; inverse of parse_algebra. Raises
    AlgebraError naming the first element name that the format cannot carry."""
    bad = _unwritable(alg.names)
    if bad is not None:
        raise AlgebraError(f"element name {bad!r} cannot be written: {_NAME_RULE}")
    lines = [
        f"kind: {alg.kind.value}",
        f"order: {alg.order}",
        "elements: " + " ".join(alg.names),
        f"zero: {alg.names[alg.zero]}",
    ]
    if alg.unit is not None:
        lines.append(f"one: {alg.names[alg.unit]}")
    if alg.complement is not None:
        lines.append("complement: " + " ".join(map(alg.names.__getitem__, alg.complement)))
    lines.append("table:")
    lines += (" ".join(map(alg.names.__getitem__, row)) for row in alg.table.entries)
    return "\n".join(lines) + "\n"


def save_algebra(alg: FiniteAlgebra, path: str | Path) -> None:
    Path(path).write_text(render_algebra(alg), encoding="utf-8")
