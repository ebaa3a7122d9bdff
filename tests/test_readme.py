"""The examples in README.md run as written.

The ```python block is executed and must print the exact Hillery witness
quoted beside it; the ``anharmonic-sweep`` command of the CLI section runs
through ``cli.main``.  A README that names a function the package no longer
has fails here.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from anharmonic.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    """Bodies of README's fenced blocks that open with ```language, matched in
    order so that each opening fence pairs with its own closing one."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)
    return [body for lang, body in blocks if lang == language]


def test_python_example_prints_the_exact_witness():
    (source,) = fenced_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    first = out.getvalue().splitlines()[0]
    assert abs(float(first) - (-0.0149)) < 1e-3


def test_cli_example_runs(tmp_path, monkeypatch):
    (command,) = [block for block in fenced_blocks("") if block.startswith("anharmonic-sweep ")]
    program, *argv = shlex.split(command.replace("\\\n", " "))
    assert program == "anharmonic-sweep"
    monkeypatch.chdir(tmp_path)
    assert main(argv, out=io.StringIO()) == EXIT_OK
    assert (tmp_path / "sweep.csv").exists()
