"""No bckalg module reaches into another module's private names.

A helper that two modules share gets a public name in the module that owns
it. This test parses every module under ``src/bckalg`` and fails when one
imports an underscore-prefixed name from another bckalg module, or reads
one as an attribute of an imported bckalg module. Another fails when a
module imports anything outside bckalg and the standard library.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import bckalg
from bckalg import enumeration

MODULES = sorted(Path(bckalg.__file__).parent.glob("*.py"))
REFERENCES = Path(__file__).parent / "references.py"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_cross_module_uses(source: str) -> list[str]:
    """Each private name the source takes from another bckalg module."""
    tree = ast.parse(source)
    found = []
    module_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "bckalg"
            if not internal:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif node.module is None or node.module == "bckalg":
                    module_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bckalg":
                    module_aliases.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in module_aliases:
                found.append(f"line {node.lineno}: reads {base.id}...{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_cross_module_names(path):
    assert private_cross_module_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .enumeration import _poset_isos",
        "from .transforms import iseki_extension, _require as req",
        "from bckalg.core import _helper",
        "from . import enumeration\nenumeration._poset_isos(a, b)",
        "import bckalg.golden as g\nx = g._fmt_list",
        "import bckalg\nbckalg.enumeration._poset_isos",
    ],
)
def test_checker_flags_private_names(source):
    assert private_cross_module_uses(source)


@pytest.mark.parametrize(
    "source",
    [
        "from .enumeration import poset_isomorphic",
        "from dataclasses import dataclass\nfrom typing import _SpecialForm",
        "def _local():\n    pass\n_local()",
        "from . import core\ncore.__name__",
    ],
)
def test_checker_allows_public_and_foreign_names(source):
    assert private_cross_module_uses(source) == []


def foreign_imports(source: str) -> list[str]:
    """Each module the source imports that is neither bckalg's own nor in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names | {"bckalg"}:
                found.append(f"line {node.lineno}: imports {name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_library_imports_only_the_standard_library(path):
    # numpy is often installed, so an accidental import of it would pass every other test
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("import numpy as np", True),
        ("from numpy.linalg import det", True),
        ("def f():\n    import hypothesis", True),
        ("from __future__ import annotations\nimport itertools, os.path", False),
        ("from .core import order_relation\nfrom . import core", False),
        ("from bckalg.core import new_algebra", False),
    ],
)
def test_foreign_import_checker(source, flagged):
    assert bool(foreign_imports(source)) is flagged


def test_golden_imports_nothing_from_enumeration():
    # the diagnosis reads the chain factors off the derived order, so it is a
    # second path for the main claim only while it shares no enumeration code
    tree = ast.parse((MODULES[0].parent / "golden.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {"enumeration", "bckalg.enumeration"} & imported


def coordinate_reads(source: str) -> list[str]:
    """Each import of ``chain_coordinates`` and each read of it as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(alias.name == "chain_coordinates" for alias in node.names):
            found.append(f"line {node.lineno}: imports chain_coordinates")
        elif isinstance(node, ast.Attribute) and node.attr == "chain_coordinates":
            found.append(f"line {node.lineno}: reads {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "core"], ids=lambda p: p.stem)
def test_only_core_reads_the_chain_coordinates(path):
    # the coordinate format and the constants rule on it live in core; the
    # certificate and the misprint diagnosis take is_chain_product and chain_rebuild
    assert coordinate_reads(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("from .core import Kind, chain_coordinates", True),
        ("from bckalg.core import chain_coordinates as cc", True),
        ("from . import core\ntops, coords = core.chain_coordinates(alg)", True),
        ("from .core import chain_rebuild, is_chain_product", False),
        ("def chain_coordinates(alg):\n    return alg._coordinates", False),
    ],
)
def test_coordinate_read_checker(source, flagged):
    assert bool(coordinate_reads(source)) is flagged


def enumeration_imports(source: str) -> list[str]:
    """Each import that reaches bckalg.enumeration: the module itself, or a
    name it defines other than enumerate_wajsberg, which only builds inputs."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            package, _, rest = name.partition(".")
            home = getattr(getattr(bckalg, rest, None), "__module__", None)
            if package == "bckalg" and (
                rest.split(".")[0] == "enumeration" or (home == enumeration.__name__ and rest != "enumerate_wajsberg")
            ):
                found.append(f"line {node.lineno}: imports {name}")
    return found


def test_references_take_no_search_from_the_library():
    # tests/references.py is a second path for the two searches only while it
    # shares no code with them, nor with any private helper of the library
    source = REFERENCES.read_text(encoding="utf-8")
    assert enumeration_imports(source) == []
    assert private_cross_module_uses(source) == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("import bckalg.enumeration", True),
        ("from bckalg import enumeration", True),
        ("from bckalg.enumeration import order_isomorphism", True),
        ("from bckalg import CayleyTable, find_isomorphism", True),
        ("from bckalg import CayleyTable, enumerate_wajsberg", False),
        ("import random\nfrom bckalg.core import Kind", False),
    ],
)
def test_enumeration_import_checker(source, flagged):
    assert bool(enumeration_imports(source)) is flagged


def constant_lookups(source: str) -> list[str]:
    """Each ``complement[...]`` indexed by a ``.unit`` or ``.zero`` attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Attribute):
            base = node.value.attr if isinstance(node.value, ast.Attribute) else getattr(node.value, "id", None)
            if base == "complement" and node.slice.attr in ("unit", "zero"):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("module", ["axioms", "transforms"])
def test_constant_relations_are_left_to_the_type(module):
    # FiniteAlgebra checks zero = complement(one) and one = complement(zero);
    # the checkers and the translation driver read the stored constants
    source = (MODULES[0].parent / f"{module}.py").read_text(encoding="utf-8")
    assert constant_lookups(source) == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("alg.complement[alg.unit]", True),
        ("complement[a.zero]", True),
        ("alg.complement[x]", False),
        ("c[alg.unit]", False),
        ("alg.complement[alg.order]", False),
    ],
)
def test_constant_lookup_checker(source, flagged):
    assert bool(constant_lookups(source)) is flagged


@pytest.mark.parametrize("module", ["cli", "transforms"])
def test_kind_checkers_come_from_one_table(module):
    # which axioms a kind is read under is stated once, in axioms.CHECKERS
    tree = ast.parse((MODULES[0].parent / f"{module}.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "CHECKERS" in imported and not {"check_mv", "check_wajsberg"} & imported


def kind_guards(source: str) -> list[str]:
    """Each ``raise AlgebraError(...)`` whose message says that something takes a(n) kind."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            func = node.exc.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "AlgebraError" and re.search(r" takes (an? |\{)", ast.unparse(node.exc)):
                found.append(f"line {node.lineno}: {ast.unparse(node.exc)}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_kind_guard_is_stated_once(path):
    # every "f takes a(n) K algebra" goes through core.require_kind
    assert len(kind_guards(path.read_text(encoding="utf-8"))) == (path.stem == "core")


@pytest.mark.parametrize(
    "source, flagged",
    [
        ('raise AlgebraError("iseki extension takes a bck algebra")', True),
        ('raise core.AlgebraError("check_mv takes an mv algebra")', True),
        ('raise AlgebraError(f"{caller} takes {article} {kind.value} algebra")', True),
        ('raise AlgebraError("bound search is defined for bck algebras")', False),
        ('raise AlgebraError("the search takes too long")', False),
        ('raise ValueError("f takes a bck algebra")', False),
        ('require_kind(alg, Kind.BCK, "induced_subalgebra")', False),
    ],
)
def test_kind_guard_checker(source, flagged):
    assert bool(kind_guards(source)) is flagged


def trusted_uses(source: str) -> list[str]:
    """Each read of an attribute named ``trusted``, as in ``CayleyTable.trusted(rows)``."""
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "trusted"
    ]


def test_only_the_library_builders_skip_the_cell_check():
    # a table from outside (algfile, cli, new_algebra given raw rows) has its
    # cells checked; CayleyTable.trusted checks none, so only the modules
    # that build tables from tables already checked may call it
    callers = {path.stem for path in MODULES if trusted_uses(path.read_text(encoding="utf-8"))}
    assert callers == {"enumeration", "golden", "transforms", "substructures"}
    assert not {"algfile", "cli", "core"} & callers


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("CayleyTable.trusted(rows)", True),
        ("new_algebra(kind, names, core.CayleyTable.trusted(rows), zero=0)", True),
        ("build = CayleyTable.trusted\nbuild(rows)", True),
        ("CayleyTable(rows)", False),
        ("def trusted(cls, rows):\n    return rows", False),
        ("trusted = rows", False),
    ],
)
def test_trusted_use_checker(source, flagged):
    assert bool(trusted_uses(source)) is flagged
