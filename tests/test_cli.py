import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anharmonic
from anharmonic import dynamics, fock, perturbative
from anharmonic.cli import (
    DEFAULTS,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_SPEC_ERROR,
    build_spec,
    main,
    parse_number,
    parse_number_list,
    read_config,
)
from anharmonic.sweep import WITNESSES, SweepResult, SweepSpecError, read_csv

NON_FINITE_ARGS = [
    ("--lambda", "nan"),
    ("--t-end", "nan"),
    ("--alpha", "nan"),
    ("--alpha", "inf"),
    ("--theta", "inf"),
    ("--t-end", "inf"),
]


@pytest.fixture
def no_dense_allocation(monkeypatch):
    """Building any truncated state or ladder matrix fails the test instead."""
    def refuse(*args, **kwargs):
        raise AssertionError("a dense state or matrix was about to be allocated")

    for module in (fock, dynamics, perturbative):
        for name in ("make_ladder_ops", "coherent_state"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


class TestNumberParsing:
    def test_pi_literals_exact(self):
        assert parse_number("pi") == math.pi
        assert parse_number("pi/2") == math.pi / 2
        assert parse_number("pi/4") == math.pi / 4
        assert parse_number("2pi") == 2 * math.pi
        assert parse_number("3pi/4") == 3 * math.pi / 4
        assert parse_number("-pi/3") == -math.pi / 3

    def test_plain_floats(self):
        assert parse_number("0.25") == 0.25
        assert parse_number("1e-4") == 1e-4
        assert parse_number("-3") == -3.0

    def test_bad_token(self):
        with pytest.raises(SweepSpecError):
            parse_number("two-pi")

    def test_lists(self):
        assert parse_number_list("0,pi/2, 1e-3") == (0.0, math.pi / 2, 1e-3)
        with pytest.raises(SweepSpecError):
            parse_number_list(" , ")


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("alpha = 0.5,1\n# comment\ntheta = pi/2\nt-steps = 7\n")
        conf = read_config(cfg)
        assert conf == {"alpha": "0.5,1", "theta": "pi/2", "t_steps": "7"}

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 0.5\n")
        with pytest.raises(SweepSpecError):
            read_config(cfg)


class TestMain:
    def run(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_basic_run_writes_csv(self, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code, text = self.run(
            "--alpha", "1", "--theta", "pi/2", "--lambda", "0.01",
            "--t-steps", "16", "--witness", "f,d2", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        assert "rows=32" in text
        rows = read_csv(out_csv)
        assert len(rows) == 32
        assert all(r.witness in ("f", "d2") for r in rows)

    def test_compare_run_builds_no_row_objects(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("the CLI built the SweepRow view")

        monkeypatch.setattr(SweepResult, "rows", property(refuse))
        code, text = self.run(
            "--alpha", "1,2", "--lambda", "1e-3,1e-4", "--mode", "compare", "--t-steps", "5",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == EXIT_OK
        assert text.startswith(f"rows={2 * 2 * 5 * len(WITNESSES)} mode=compare")
        assert "scaling witness=hillery" in text

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--alpha", "1", "--lambda", "1e-3,1e-4", "--mode", "compare",
                "--t-steps", "5", "--witness", "N"]
        assert main(args + ["--out", str(a)], out=io.StringIO()) == EXIT_OK
        assert main(args + ["--out", str(b)], out=io.StringIO()) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_compare_prints_scaling(self):
        code, text = self.run(
            "--alpha", "1", "--theta", "0.7", "--lambda", "1e-3,1e-4",
            "--mode", "compare", "--t-steps", "7", "--witness", "N",
        )
        assert code == EXIT_OK
        assert "scaling witness=N" in text
        assert "status=pass" in text

    def test_convergence_flag(self):
        code, text = self.run(
            "--alpha", "1", "--lambda", "1e-3", "--mode", "exact",
            "--t-steps", "3", "--witness", "N", "--check-convergence",
        )
        assert code == EXIT_OK
        assert "convergence max_drift=" in text and "passed=True" in text

    @pytest.mark.parametrize("argv", [("--witness", "not-a-witness"), ("--dim", "1"),
                                      ("--dim", "0"), ("--dim", "-5")] + NON_FINITE_ARGS)
    def test_spec_error_exit_code(self, argv):
        code, text = self.run(*argv)
        assert code == EXIT_SPEC_ERROR
        assert text == ""

    def test_precondition_exit_code(self):
        code, _ = self.run("--alpha", "3", "--dim", "15")
        assert code == EXIT_PRECONDITION

    @pytest.mark.parametrize("argv", [("--alpha", "1e4"), ("--dim", "100000"), ("--alpha", "1e200"),
                                      ("--alpha", "1e160", "--dim", "100")])
    def test_dim_above_ceiling_refused_before_allocating(self, argv, no_dense_allocation):
        code, _ = self.run(*argv)
        assert code == EXIT_PRECONDITION

    @pytest.mark.parametrize("argv", [
        ("--t-steps", "1000000000"),
        ("--t-steps", "99999999999999999999"),
        # 50000 rows, but (50000, 53) ket blocks per slice
        ("--alpha", "3", "--t-steps", "50000", "--witness", "N", "--mode", "exact"),
        ("--alpha", "3", "--t-steps", "50000", "--witness", "hillery"),
    ])
    def test_grid_above_ceiling_refused_before_allocating(self, tmp_path, argv,
                                                          no_dense_allocation, capsys):
        out_csv = tmp_path / "rows.csv"
        code, text = self.run(*argv, "--out", str(out_csv))
        assert code == EXIT_SPEC_ERROR
        assert text == "" and not out_csv.exists()
        assert "spec error: t_steps:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["closed_form", "exact"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_values_refused(self, tmp_path, mode, capsys):
        out_csv = tmp_path / "rows.csv"
        code, text = self.run("--lambda", "1e308", "--t-steps", "3", "--witness", "N,f,d1",
                              "--mode", mode, "--out", str(out_csv))
        assert code == EXIT_PRECONDITION
        assert text == "" and not out_csv.exists()
        err = capsys.readouterr().err
        assert "alpha_mag=1.0, theta=0.0, lam=1e+308," in err and "not finite" in err

    def test_convergence_dim_refused_before_the_sweep(self, tmp_path, no_dense_allocation):
        # D = 1160 is admissible, the doubled 2320 is above fock.MAX_DIM
        out_csv = tmp_path / "rows.csv"
        code, text = self.run("--alpha", "30", "--mode", "exact", "--t-steps", "2",
                              "--witness", "N", "--check-convergence", "--out", str(out_csv))
        assert code == EXIT_PRECONDITION
        assert text == ""
        assert not out_csv.exists()

    def test_convergence_mode_refused_before_the_sweep(self, tmp_path, no_dense_allocation):
        out_csv = tmp_path / "rows.csv"
        code, text = self.run("--mode", "closed_form", "--check-convergence", "--out", str(out_csv))
        assert code == EXIT_SPEC_ERROR
        assert text == ""
        assert not out_csv.exists()

    def test_default_witnesses_are_the_table(self):
        assert build_spec(dict(DEFAULTS)).witnesses == tuple(WITNESSES)

    def test_config_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 2\ntheta = pi/4\nt-steps = 4\nwitness = d1\n")
        code, text = self.run("--config", str(cfg), "--alpha", "0.5", "--lambda", "1e-3")
        assert code == EXIT_OK
        # flag overrides config for alpha; config supplies theta/steps/witness
        assert "rows=4" in text
        assert "alpha=0.5" in text and "witness=d1" in text

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alphas = 2\n")
        code, _ = self.run("--config", str(cfg))
        assert code == EXIT_SPEC_ERROR


class TestModuleEntry:
    def run_module(self, *argv):
        src = str(Path(anharmonic.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-m", "anharmonic.cli", *argv],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )

    def test_runs_the_cli(self):
        proc = self.run_module("--t-steps", "2", "--witness", "N")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("rows=2 ")

    def test_spec_error_exit_code(self):
        proc = self.run_module("--alpha", "nan")
        assert proc.returncode == EXIT_SPEC_ERROR
        assert "spec error: alpha_mag" in proc.stderr
