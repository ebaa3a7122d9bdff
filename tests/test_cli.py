import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anharmonic
from anharmonic import dynamics, fock, perturbative
from anharmonic.cli import (
    _PI_TOKEN,
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
from anharmonic.sweep import CSV_HEADER, WITNESSES, SweepSpecError

NON_FINITE_ARGS = [
    ("--lambda", "nan"),
    ("--t-end", "nan"),
    ("--alpha", "nan"),
    ("--alpha", "inf"),
    ("--theta", "inf"),
    ("--t-end", "inf"),
]

#: Tokens of the pi-literal grammar: a sign, a coefficient (none, 0, a float
#: or one that overflows to inf) and a divisor (none, a zero or a decimal).
#: The coefficients stay below 1e12 so that a finite theta cannot overflow
#: 4 theta; such a theta is finite input and exits 3 with a non-finite value.
pi_tokens = st.builds(
    lambda sign, coef, divisor: f"{sign}{coef}pi" + ("" if divisor is None else f"/{divisor}"),
    st.sampled_from(["", "+", "-"]),
    st.one_of(st.sampled_from(["", "0", "1e400"]), st.floats(0.0, 1e12).map(repr)),
    st.one_of(st.none(), st.sampled_from(["0", "0.", "0.0"]),
              st.from_regex(r"[0-9]{1,4}(\.[0-9]{0,4})?", fullmatch=True)),
)


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

    @pytest.mark.parametrize("token", ["pi/0", "2pi/0.0", "-pi/0.", "0pi/0"])
    def test_zero_divisor_is_a_spec_error(self, token):
        with pytest.raises(SweepSpecError, match=re.escape(f"{token!r} divides by zero")):
            parse_number(token)

    @settings(max_examples=200, deadline=None)
    @given(pi_tokens)
    def test_pi_literal_gives_a_float_or_a_spec_error(self, token):
        assert _PI_TOKEN.match(token)
        try:
            value = parse_number(token)
        except SweepSpecError:
            return
        assert type(value) is float

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

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_is_a_spec_error(self, tmp_path, kind, capsys):
        cfg = {"missing": tmp_path / "missing.cfg", "directory": tmp_path,
               "not_utf8": tmp_path / "latin.cfg"}[kind]
        if kind == "not_utf8":
            cfg.write_bytes(b"alpha = 1 # \xff\n")
        with pytest.raises(SweepSpecError, match="^config: "):
            read_config(cfg)
        out = io.StringIO()
        assert main(["--config", str(cfg)], out=out) == EXIT_SPEC_ERROR
        assert out.getvalue() == ""
        assert "spec error: config: " in capsys.readouterr().err


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
        header, *rows = out_csv.read_text(encoding="ascii").splitlines()
        assert header == CSV_HEADER and len(rows) == 32
        assert [r.split(",")[4] for r in rows] == ["f", "d2"] * 16

    def test_compare_run_prints_rows_and_scaling(self, tmp_path):
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

    def test_failed_convergence_exits_before_the_sweep(self, tmp_path, capsys):
        # alpha = 4 at lam = 0.1 is not converged at the default truncation
        out_csv = tmp_path / "rows.csv"
        code, text = self.run("--alpha", "4", "--theta", "0", "--lambda", "0.1", "--mode", "exact",
                              "--t-end", "4pi", "--t-steps", "65", "--witness", "N",
                              "--check-convergence", "--out", str(out_csv))
        assert code == EXIT_PRECONDITION
        assert text == "" and not out_csv.exists()
        assert "passed=False" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None)
    @given(pi_tokens)
    def test_pi_literal_theta_exits_0_or_2(self, token):
        try:
            finite = math.isfinite(parse_number(token))
        except SweepSpecError:
            finite = False
        code, text = self.run(f"--theta={token}", "--t-steps", "2")
        assert code == (EXIT_OK if finite else EXIT_SPEC_ERROR)
        assert text.startswith("rows=") if finite else text == ""

    @pytest.mark.parametrize("argv", [("--witness", "not-a-witness"), ("--dim", "1"),
                                      ("--dim", "0"), ("--dim", "-5"), ("--theta", "pi/0"),
                                      ("--t-end", "2pi/0.0")] + NON_FINITE_ARGS)
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

    @pytest.mark.parametrize("to_dir", [True, False], ids=["directory", "empty"])
    def test_out_naming_a_directory_refused_before_the_sweep(self, tmp_path, to_dir, capsys,
                                                            no_dense_allocation):
        # an empty --out= is the current directory
        out = f"--out={tmp_path if to_dir else ''}"
        code, text = self.run("--t-steps", "3", "--witness", "N", "--mode", "exact", out)
        assert code == EXIT_SPEC_ERROR
        assert text == "" and list(tmp_path.iterdir()) == []
        assert "spec error: out: " in capsys.readouterr().err

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
