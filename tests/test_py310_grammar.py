"""Every Python file of the project parses with the Python 3.10 grammar.

``pyproject.toml`` declares ``requires-python = ">=3.10"``.  ``ast.parse``
with ``feature_version=(3, 10)`` rejects syntax newer than 3.10 (``except*``,
for instance) on a newer interpreter too.  It checks grammar only: an import
of a module that 3.10's standard library lacks (``tomllib``, say) still passes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "scripts", "tests", "sweepbench") for p in (ROOT / d).rglob("*.py"))


def test_sources_are_found():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "scripts", "tests", "sweepbench"}


def test_newer_grammar_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_with_python_310_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
