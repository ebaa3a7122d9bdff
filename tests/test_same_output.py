"""scripts/same_output.py passes a tree against itself and catches a changed byte."""

import importlib.util
import math
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


def changed_copy(tmp_path, module, old, new):
    """A copy of this tree's src with ``old`` replaced by ``new`` in one module."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "anharmonic", src / "anharmonic",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "anharmonic" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return src


def test_changed_output_is_reported(tmp_path, capsys):
    src = changed_copy(tmp_path, "sweep.py", 'CSV_HEADER = "alpha_mag,', 'CSV_HEADER = "alpha,')
    assert same_output.main([str(src), *ARGS]) == 1
    out = capsys.readouterr().out
    assert "csv differs, line 1:" in out and out.endswith("output differs\n")


def test_moved_values_are_reported_per_witness_and_column(tmp_path, capsys):
    src = changed_copy(tmp_path, "perturbative.py",
                       "return np.float_power(inputs.alpha_mag, 2) + mean_photon_correction(inputs)",
                       "return (np.float_power(inputs.alpha_mag, 2) + mean_photon_correction(inputs))"
                       " * (1 + 1e-12)")
    assert same_output.main([str(src), *ARGS]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "exact_large_alpha seed=0: csv differs, in values"
    assert lines[1].startswith("  N value_cf: largest |delta| ")
    assert lines[2:] == ["  0 relabelled rows", "output differs"]


def test_cli_edge_case_reaches_its_edges(capsys):
    code, csv, stdout, stderr = same_output.run_workload(ROOT / "src", "cli_edge_case", None)
    assert (code, stderr) == (0, b"")
    lines = stdout.decode().splitlines()
    assert lines[0] == "rows=1848 mode=compare csv=sweep.csv"
    # the summary ends with the scaling report of the last slice
    assert lines[-1].startswith("scaling witness=hillery alpha=2.5 theta=3.141592653589793 ")
    assert lines[-1].endswith(" status=pass")
    rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
    assert {r[0] for r in rows} == {"0.0", "2.5"}
    assert min(float(r[3]) for r in rows) == -2 * math.pi
    # the vacuum input's closed forms write signed zeros
    assert any("-0.0" in r[5:8] for r in rows if r[0] == "0.0")
    assert same_output.main([str(ROOT / "src"), "--workload", "cli_edge_case"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"cli_edge_case: identical ({len(csv)} csv bytes, {len(stdout)} stdout bytes)",
        "same output"]


def test_cli_first_order_case_reaches_a1_in_closed_form_mode(capsys):
    code, csv, stdout, stderr = same_output.run_workload(ROOT / "src", "cli_first_order_case",
                                                         None)
    assert (code, stderr) == (0, b"")
    assert stdout.decode().splitlines()[0] == "rows=544 mode=closed_form csv=sweep.csv"
    rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
    assert {r[4] for r in rows} == {"quadrature", "hillery", "N", "f"}
    # closed_form mode: only value_cf is filled, a_1(t)'s witnesses included
    assert all(r[5] and r[6:8] == ["", ""] for r in rows)
    assert {r[0] for r in rows} == {"0.0", "1.5"} and float(rows[0][3]) == -math.pi
    assert same_output.main([str(ROOT / "src"), "--workload", "cli_first_order_case"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"cli_first_order_case: identical ({len(csv)} csv bytes, {len(stdout)} stdout bytes)",
        "same output"]


def test_cli_large_alpha_first_order_case_reaches_a1_at_large_alpha(capsys):
    code, csv, stdout, stderr = same_output.run_workload(
        ROOT / "src", "cli_large_alpha_first_order_case", None)
    assert (code, stderr) == (0, b"")
    assert stdout.decode().splitlines()[0] == "rows=72 mode=closed_form csv=sweep.csv"
    rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
    assert {r[0] for r in rows} == {"20.0"} and {r[2] for r in rows} == {"0.001", "0.01"}
    assert {r[4] for r in rows} == {"quadrature", "hillery"}
    assert all(r[5] and r[6:8] == ["", ""] for r in rows)
    assert same_output.main([str(ROOT / "src"), "--workload",
                             "cli_large_alpha_first_order_case"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"cli_large_alpha_first_order_case: identical ({len(csv)} csv bytes, "
        f"{len(stdout)} stdout bytes)",
        "same output"]


def test_cli_closed_form_beyond_the_oracle_case_reads_no_dim(capsys):
    name = "cli_closed_form_beyond_the_oracle_case"
    code, csv, stdout, stderr = same_output.run_workload(ROOT / "src", name, None)
    assert (code, stderr) == (0, b"")
    assert stdout.decode().splitlines()[0] == "rows=40 mode=closed_form csv=sweep.csv"
    rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
    # default dims 2405 and about 1e8, both above MAX_DIM
    assert {r[0] for r in rows} == {"45.0", "10000.0"}
    assert {r[4] for r in rows} == {"N", "f", "quadrature", "hillery"}
    assert all(math.isfinite(float(r[5])) and r[6:8] == ["", ""] for r in rows)
    assert same_output.main([str(ROOT / "src"), "--workload", name]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: identical ({len(csv)} csv bytes, {len(stdout)} stdout bytes)", "same output"]


def test_cli_small_dim_case_runs_the_oracle_below_the_default_dim(capsys):
    name = "cli_small_dim_case"
    code, csv, stdout, stderr = same_output.run_workload(ROOT / "src", name, None)
    assert (code, stderr) == (0, b"")
    lines = stdout.decode().splitlines()
    # 2 couplings x 9 times x the 7 witnesses
    assert lines[0] == "rows=126 mode=compare csv=sweep.csv"
    assert lines[-1].startswith("scaling witness=hillery alpha=3.0 theta=1.5707963267948966 ")
    rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
    assert {(r[0], r[2]) for r in rows} == {("3.0", "0.001"), ("3.0", "0.0001")}
    assert all(math.isfinite(float(r[6])) for r in rows)
    assert same_output.main([str(ROOT / "src"), "--workload", name]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: identical ({len(csv)} csv bytes, {len(stdout)} stdout bytes)", "same output"]


def test_cli_closed_form_grid_case_reaches_the_locus_and_the_free_field(capsys):
    name = "cli_closed_form_grid_case"
    code, csv, stdout, stderr = same_output.run_workload(ROOT / "src", name, None)
    assert (code, stderr) == (0, b"")
    # 3 amplitudes x 5 phases x 2 couplings x 37 times x 5 witnesses
    assert stdout.decode().splitlines()[0] == "rows=5550 mode=closed_form csv=sweep.csv"
    rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
    assert {r[0] for r in rows} == {"0.0", "0.5", "3.0"}
    assert {r[2] for r in rows} == {"0.0", "0.001"}
    assert float(rows[0][3]) == -math.pi and all(r[6:8] == ["", ""] for r in rows)
    # t = pi/2 = 2 theta at theta = pi/4: every d is exactly zero there
    locus = [r for r in rows if float(r[1]) == math.pi / 4 and float(r[3]) == math.pi / 2]
    assert len(locus) == 30 and all(float(r[5]) == 0.0 for r in locus if r[4][0] == "d")
    assert same_output.main([str(ROOT / "src"), "--workload", name]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: identical ({len(csv)} csv bytes, {len(stdout)} stdout bytes)", "same output"]


def test_cli_exact_small_dim_case_runs_the_oracle_in_five_levels_at_negative_zero(capsys):
    name = "cli_exact_small_dim_case"
    code, csv, stdout, stderr = same_output.run_workload(ROOT / "src", name, None)
    assert (code, stderr) == (0, b"")
    # 3 times x 2 witnesses
    assert stdout.decode().splitlines()[0] == "rows=6 mode=exact csv=sweep.csv"
    rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
    assert {tuple(r[:3]) for r in rows} == {("0.0", "0.0", "-0.0")}
    assert all(r[6] == "0.0" for r in rows)
    assert same_output.main([str(ROOT / "src"), "--workload", name]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: identical ({len(csv)} csv bytes, {len(stdout)} stdout bytes)", "same output"]


def test_cli_edge_case_catches_a_flipped_zero(tmp_path, capsys):
    # + 0.0 turns -0.0 into 0.0 and leaves every other value alone
    src = changed_copy(tmp_path, "perturbative.py",
                       "return (3.0 * inputs.lam * r2 * r2 / 4.0) * p2",
                       "return (3.0 * inputs.lam * r2 * r2 / 4.0) * p2 + 0.0")
    assert same_output.main([str(src), "--workload", "cli_edge_case"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("cli_edge_case: csv differs, in values")
    assert "  d3 value_cf: largest |delta| 0 x tolerance" in lines
    assert lines[-1] == "output differs"


REFUSALS = {"cli_spec_error_case": (2, "spec error: t_steps: need at least 2 grid points"),
            "cli_overflow_case": (3, "precondition error: ModelParams(alpha_mag=1.0, theta=0.0, "
                                     "lam=1e+308): H at dim 29 is not finite"),
            # the theta = 0 slice of the same (|alpha|, lambda) group passes first
            "cli_refusal_order_case": (3, "precondition error: ModelParams(alpha_mag=1000.0, "
                                          "theta=0.39269908169872414, lam=0.001): a closed-form "
                                          "value is not finite")}


def test_refused_cli_cases_compare_their_exit_and_stderr_line(capsys):
    for name, (code, line) in REFUSALS.items():
        run = same_output.run_workload(ROOT / "src", name, None)
        assert run == (code, None, b"", f"{line}\n".encode())
    assert same_output.main([str(ROOT / "src"), "--workload", *REFUSALS]) == 0
    assert capsys.readouterr().out.splitlines() == [
        *(f"{name}: identical (exit {code}, {len(line) + 1} stderr bytes)"
          for name, (code, line) in REFUSALS.items()),
        "same output"]


def test_a_changed_refusal_is_reported(tmp_path, capsys):
    src = changed_copy(tmp_path, "fock.py", '{what} is not finite"', '{what} overflowed"')
    assert same_output.main([str(src), "--workload", "cli_overflow_case"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("cli_overflow_case: stderr differs, line 1: ")
    # the copy is the parent: its line comes first
    assert lines[0].endswith("H at dim 29 overflowed' != 'precondition error: "
                             "ModelParams(alpha_mag=1.0, theta=0.0, lam=1e+308): "
                             "H at dim 29 is not finite'")
    assert lines[-1] == "output differs"
