"""scripts/same_output.py passes a tree against itself and catches a changed byte."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("same_output", ROOT / "scripts" / "same_output.py")
same_output = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(same_output)

ARGS = ["--seeds", "0", "--workload", "exact_large_alpha"]


def test_same_tree_is_identical(capsys):
    assert same_output.main([str(ROOT / "src"), *ARGS]) == 0
    assert capsys.readouterr().out.endswith("same output\n")


def test_changed_output_is_reported(tmp_path, capsys):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "anharmonic", src / "anharmonic",
                    ignore=shutil.ignore_patterns("__pycache__"))
    sweep = src / "anharmonic" / "sweep.py"
    text = sweep.read_text()
    assert text.count('CSV_HEADER = "alpha_mag,') == 1
    sweep.write_text(text.replace('CSV_HEADER = "alpha_mag,', 'CSV_HEADER = "alpha,'))
    assert same_output.main([str(src), *ARGS]) == 1
    out = capsys.readouterr().out
    assert "csv differs, line 1:" in out and out.endswith("output differs\n")
