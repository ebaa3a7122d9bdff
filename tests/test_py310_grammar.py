"""Every Python file of the project parses with the Python 3.10 grammar and
uses no standard-library module or name that Python 3.11 added.

``pyproject.toml`` declares ``requires-python = ">=3.10"``.  ``ast.parse``
with ``feature_version=(3, 10)`` rejects syntax newer than 3.10 (``except*``,
for instance) on a newer interpreter too.  Grammar alone lets an import of a
module that 3.10's standard library lacks (``tomllib``, say) through, so each
file's imports, the attributes read from imported modules and the builtin
names it uses are also checked against ``PY311_ONLY``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "scripts", "tests", "sweepbench") for p in (ROOT / d).rglob("*.py"))

#: Modules and names new in Python 3.11, from "What's New In Python 3.11"
#: (new modules, then new names per module); builtins are under ``builtins``.
PY311_ONLY = frozenset({
    "tomllib", "wsgiref.types",
    *(f"typing.{name}" for name in (
        "Self", "LiteralString", "Never", "assert_never", "assert_type", "reveal_type",
        "Required", "NotRequired", "dataclass_transform", "TypeVarTuple", "Unpack",
        "get_overloads", "clear_overloads")),
    *(f"enum.{name}" for name in (
        "StrEnum", "ReprEnum", "verify", "member", "nonmember", "EnumCheck", "FlagBoundary",
        "global_enum", "property")),
    "datetime.UTC", "contextlib.chdir", "hashlib.file_digest", "operator.call",
    "math.cbrt", "math.exp2",
    *(f"asyncio.{name}" for name in (
        "TaskGroup", "Runner", "timeout", "timeout_at", "Timeout", "Barrier",
        "BrokenBarrierError")),
    "inspect.getmembers_static", "inspect.ismethodwrapper", "locale.getencoding",
    "logging.getLevelNamesMapping", "sys.exception",
    "builtins.ExceptionGroup", "builtins.BaseExceptionGroup",
})


def py311_uses(tree: ast.AST) -> list:
    """The ``PY311_ONLY`` entries that ``tree`` imports or reads, sorted."""
    modules = {}  # local name bound by ``import m`` or ``import m as n`` -> module
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                uses.add(alias.name)
                top = alias.name.split(".")[0]
                modules[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            uses.update([node.module, *(f"{node.module}.{a.name}" for a in node.names)])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                uses.add(f"{modules[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Name):
            uses.add(f"builtins.{node.id}")
    return sorted(uses & PY311_ONLY)


def test_sources_are_found():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "scripts", "tests", "sweepbench"}


def test_newer_grammar_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("source,found", [
    ("import tomllib", ["tomllib"]),
    ("from tomllib import loads", ["tomllib"]),
    ("import wsgiref.types", ["wsgiref.types"]),
    ("from wsgiref import types", ["wsgiref.types"]),
    ("from typing import Optional, Self", ["typing.Self"]),
    ("import typing as t\nx: t.Never", ["typing.Never"]),
    ("import math\nmath.cbrt(8.0)", ["math.cbrt"]),
    ("import asyncio.tasks\nasyncio.TaskGroup()", ["asyncio.TaskGroup"]),
    ("raise ExceptionGroup('e', [ValueError()])", ["builtins.ExceptionGroup"]),
    ("import math, typing\nfrom enum import Enum\nmath.sqrt(2.0)\nx: typing.Optional[int]", []),
])
def test_newer_stdlib_is_found(source, found):
    assert py311_uses(ast.parse(source)) == found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_with_python_310_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_uses_no_python_311_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert py311_uses(tree) == []
