import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
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
from anharmonic.fock import MIN_DIM, default_dim
from anharmonic.sweep import CSV_HEADER, MODES, WITNESS_NAMES, WITNESSES, SweepSpecError

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

#: Finite number tokens of each field: signed zeros, the ends of the float
#: range and pi literals; the amplitudes stay at or below 3.
ANGLES = ("0", "-0", "5e-324", "1e-300", "1e300", "-1e300", "1e308", "-1e308",
          "pi", "-pi/2", "3pi/4", "2pi")
COUPLINGS = ("0", "-0", "5e-324", "1e-300", "1e-3", "1e300", "1e308", "pi")
AMPLITUDES = ("0", "-0", "5e-324", "1e-300", "0.5", "pi/2", "3")
#: Tokens that a spec refuses in some field or that no truncation holds.
REFUSED = ("inf", "-inf", "nan", "-1", "1e300")


@st.composite
def cli_argvs(draw):
    """(argv without --out, rows a run of it writes): every flag of the grammar,
    with lists that repeat values, t_start >= t_end as often as not, a --dim at
    and around MIN_DIM and the truncation floor of the largest amplitude, and
    at most one field (or none) that may draw refused tokens too."""
    spoiled = draw(st.sampled_from([None, "--alpha", "--theta", "--lambda", "--t-start",
                                    "--t-end", "--t-steps"]))

    def tokens(flag, pool, max_size=3):
        pool += REFUSED if flag == spoiled else ()
        return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_size))

    alphas = tokens("--alpha", AMPLITUDES)
    runnable = [abs(a) for a in map(parse_number, alphas) if abs(a) <= 3.0]
    floor = default_dim(max(runnable, default=0.0))
    args = {
        "--alpha": alphas,
        "--theta": tokens("--theta", ANGLES),
        "--lambda": tokens("--lambda", COUPLINGS),
        "--t-start": tokens("--t-start", ANGLES, 1),
        "--t-end": tokens("--t-end", ANGLES, 1),
        "--t-steps": [str(draw(st.integers(0 if spoiled == "--t-steps" else 2, 8)))],
        "--dim": [str(draw(st.sampled_from(["auto", "auto", floor, floor + 1, floor - 1,
                                            MIN_DIM - 1, MIN_DIM, MIN_DIM + 1])))],
        "--mode": [draw(st.sampled_from(MODES))],
        "--witness": draw(st.lists(st.sampled_from(WITNESS_NAMES), min_size=1, max_size=3)),
    }
    argv = [token for flag, values in args.items() for token in (flag, ",".join(values))]
    if draw(st.booleans()):
        argv.append("--check-convergence")
    rows = math.prod(len(args[flag]) for flag in ("--alpha", "--theta", "--lambda", "--witness"))
    return argv, rows * int(args["--t-steps"][0])


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
        assert self.run("--theta", token, "--t-steps", "2") == (code, text)

    @pytest.mark.parametrize("argv", [("--witness", "not-a-witness"), ("--dim", "1"),
                                      ("--dim", "0"), ("--dim", "-5"), ("--theta", "pi/0"),
                                      ("--t-end", "2pi/0.0"),
                                      ("--t-start=-1e308", "--t-end", "1e308")] + NON_FINITE_ARGS)
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

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("argv", [("--lambda", "1e308", "--witness", "N,f,d1"),
                                      ("--lambda", "1e300"), ("--t-end", "1e300"),
                                      ("--theta", "1e308")])
    def test_non_finite_values_refused(self, tmp_path, mode, argv, capsys):
        # the overflow on the way to the refusal prints no numpy warning, and
        # the one line it prints names the slice's alpha, theta and lambda
        out_csv = tmp_path / "rows.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text = self.run("--mode", mode, "--t-steps", "3", *argv,
                                  "--out", str(out_csv))
        assert (code, text, caught) == (EXIT_PRECONDITION, "", [])
        assert not out_csv.exists()
        given = dict(zip(argv[::2], argv[1::2]))
        theta = parse_number(given.get("--theta", DEFAULTS["theta"]))
        lam = parse_number(given.get("--lambda", DEFAULTS["lambda"]))
        err = capsys.readouterr().err
        assert err.startswith("precondition error: ModelParams(alpha_mag=1.0, "
                              f"theta={theta!r}, lam={lam!r}, "), err
        assert err.endswith(" is not finite\n") and err.count("\n") == 1, err

    @settings(max_examples=300, deadline=None)
    @given(cli_argvs())
    def test_the_exit_contract_holds_on_edge_values(self, argv_rows):
        argv, rows = argv_rows
        with tempfile.TemporaryDirectory() as tmp:
            out_csv = Path(tmp) / "rows.csv"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, text = self.run(*argv, "--out", str(out_csv))
            assert code in (EXIT_OK, EXIT_SPEC_ERROR, EXIT_PRECONDITION)
            if code != EXIT_OK:
                assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
                assert text == "" and not out_csv.exists()
                return
            with open(out_csv, newline="", encoding="ascii") as f:
                table = list(csv.DictReader(f))
        assert len(table) == rows
        for row in table:
            for column in ("value_cf", "value_exact", "abs_error"):
                assert row[column] == "" or math.isfinite(float(row[column])), row

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

    def test_out_directory_refused_before_the_convergence_check(self, tmp_path, capsys,
                                                               monkeypatch, no_dense_allocation):
        # the failing convergence run of test_failed_convergence_exits_before_the_sweep
        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian was about to be built")

        monkeypatch.setattr(dynamics, "hamiltonian", refuse)
        code, text = self.run("--alpha", "4", "--theta", "0", "--lambda", "0.1", "--mode", "exact",
                              "--t-end", "4pi", "--t-steps", "65", "--witness", "N",
                              "--check-convergence", "--out", str(tmp_path))
        assert code == EXIT_SPEC_ERROR
        assert text == "" and list(tmp_path.iterdir()) == []
        assert "spec error: out: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("--mode", "bogus"), ("--no-such-flag",), ("--t-steps",),
                                      ("--theta", "--alpha", "1")])
    def test_usage_error_returns_2(self, argv, capsys):
        code, text = self.run(*argv)
        assert code == EXIT_SPEC_ERROR
        assert text == ""
        assert "usage: anharmonic-sweep" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        code, text = self.run("--help")
        assert code == EXIT_OK and text.startswith("usage: anharmonic-sweep")
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv, code, prefix", [
        (("--out", "{dir}", "--dim", "5"), EXIT_SPEC_ERROR, "spec error: out: "),
        (("--dim", "5"), EXIT_PRECONDITION, "precondition error: dim=5 is below"),
        (("--mode", "closed_form", "--check-convergence", "--out", "{dir}"),
         EXIT_SPEC_ERROR, "spec error: out: "),
        # a spec whose dim is unsafe is refused when it is built, before the mode check
        (("--mode", "closed_form", "--check-convergence", "--dim", "5"),
         EXIT_PRECONDITION, "precondition error: dim=5 is below"),
        (("--mode", "exact", "--alpha", "30", "--t-steps", "2", "--witness", "N",
          "--check-convergence"),
         EXIT_PRECONDITION, "precondition error: dim=2320 exceeds the dense-matrix ceiling MAX_DIM"),
    ])
    def test_refusal_order(self, tmp_path, monkeypatch, capsys, no_dense_allocation,
                           argv, code, prefix):
        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian or an eigh was about to run")

        monkeypatch.setattr(dynamics, "hamiltonian", refuse)
        monkeypatch.setattr(dynamics.np.linalg, "eigh", refuse)
        assert self.run(*(a.format(dir=tmp_path) for a in argv)) == (code, "")
        err = capsys.readouterr().err
        assert err.startswith(prefix), err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, token, cell", [
        ("--theta", "-pi/2", (0, 1)), ("--theta", "-3pi/4,pi/4", (0, 1)),
        ("--t-start", "-pi", (0, 3)), ("--t-end", "-2pi", (-1, 3)),
        ("--alpha", "-pi", None), ("--lambda", "-0.5pi", None),
    ])
    def test_signed_value_after_a_space_is_the_equals_form(self, tmp_path, flag, token, cell):
        # '--theta -pi/2' reads like '--theta=-pi/2': exact pi literals, or the
        # same spec error for an amplitude or a coupling below 0
        runs = []
        for form, name in (((flag, token), "spaced.csv"), ((f"{flag}={token}",), "joined.csv")):
            out_csv = tmp_path / name
            runs.append(self.run(*form, "--t-steps", "2", "--witness", "N", "--out", str(out_csv)))
        spaced, joined = runs
        assert spaced == (joined[0], joined[1].replace("joined.csv", "spaced.csv"))
        if cell is None:
            assert spaced == (EXIT_SPEC_ERROR, "")
            return
        assert spaced[0] == EXIT_OK
        assert (tmp_path / "spaced.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()
        row, column = cell
        lines = (tmp_path / "spaced.csv").read_text(encoding="ascii").splitlines()[1:]
        assert lines[row].split(",")[column] == repr(parse_number_list(token)[0])

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

    def test_help_exits_0_and_usage_errors_exit_2(self):
        proc = self.run_module("--help")
        assert proc.returncode == EXIT_OK and proc.stdout.startswith("usage: anharmonic-sweep")
        proc = self.run_module("--mode", "bogus")
        assert proc.returncode == EXIT_SPEC_ERROR and "invalid choice" in proc.stderr

    def test_spec_error_exit_code(self):
        proc = self.run_module("--alpha", "nan")
        assert proc.returncode == EXIT_SPEC_ERROR
        assert "spec error: alpha_mag" in proc.stderr
