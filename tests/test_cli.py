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

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from anharmonic.dynamics import exact_moment_blocks
from anharmonic.fock import MIN_DIM, ModelParams, TruncationError, default_dim
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
    and around MIN_DIM and the default dim of the largest amplitude, 12 below
    it and half of it, where the oracle's edge check alone decides, and at most
    one field (or none) that may draw refused tokens too."""
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
                                            floor - 12, floor // 2,
                                            MIN_DIM - 1, MIN_DIM, MIN_DIM + 1])))],
        "--mode": [draw(st.sampled_from(MODES))],
        "--witness": draw(st.lists(st.sampled_from(WITNESS_NAMES), min_size=1, max_size=3)),
    }
    argv = [token for flag, values in args.items() for token in (flag, ",".join(values))]
    rows = math.prod(len(args[flag]) for flag in ("--alpha", "--theta", "--lambda", "--witness"))
    return argv, rows * int(args["--t-steps"][0])


#: Runs whose exact state reaches the top 4 levels of the default basis, each
#: with the (alpha, theta, lambda) of its first slice to do so.  Without the
#: edge check they printed rows and exited 0: N read 39.74 at D = 68 where
#: doubled dimensions read about 44 (the first), and 6.63 at D = 29 (the last).
EDGE_RUNS = [
    (("--alpha", "4", "--theta", "0", "--lambda", "0.05,0.1", "--t-end", "4pi",
      "--t-steps", "65", "--witness", "N"), (4.0, 0.0, 0.05)),
    (("--alpha", "4", "--theta", "0", "--lambda", "0.1", "--t-end", "4pi",
      "--t-steps", "65", "--witness", "N"), (4.0, 0.0, 0.1)),
    (("--alpha", "1", "--theta", "0", "--lambda", "2", "--t-end", "4pi", "--t-steps", "5"),
     (1.0, 0.0, 2.0)),
    (("--alpha", "1", "--lambda", "5", "--t-steps", "2", "--witness", "N"), (1.0, 0.0, 5.0)),
]


#: Largest drift at doubled dimension, relative to max(1, |moment|), of the
#: moments of a slice the exact oracle accepts.
CONVERGENCE_TOL = 1e-9


def doubled_dim_drift(block, params, ts, dim):
    """Largest change of the moments ``block`` of ``params``'s slice on ``ts`` at
    ``dim`` when the slice is evaluated at twice that dim, relative to max(1, |moment|)."""
    [doubled] = exact_moment_blocks([params], ts, 2 * dim)
    return float(np.max(np.abs(block - doubled) / np.maximum(1.0, np.abs(doubled))))


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

    @pytest.mark.parametrize("mode", ["exact", "compare"])
    @pytest.mark.parametrize("argv, refused", EDGE_RUNS)
    def test_a_state_at_the_basis_edge_is_refused_before_the_sweep(self, tmp_path, capsys,
                                                                   mode, argv, refused):
        out_csv = tmp_path / "rows.csv"
        code, text = self.run(*argv, "--mode", mode, "--out", str(out_csv))
        assert (code, text) == (EXIT_PRECONDITION, "") and not out_csv.exists()
        err = capsys.readouterr().err
        a, th, lam = refused
        assert err.startswith(f"precondition error: ModelParams(alpha_mag={a!r}, "
                              f"theta={th!r}, lam={lam!r}): "), err
        population = re.search(r": the evolved state holds (\S+) in its top 4 levels, ", err)
        assert population and float(population.group(1)) > fock.EDGE_TOLERANCE, err
        # a larger dim is not promised to hold it: doubling fails at lam = 0.1
        assert err.endswith(" may hold it, though doubling is not always enough\n"), err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", [("--witness", "N", "--mode", "exact", "--t-end", "1e9"),
                                      ("--witness", "N", "--mode", "exact", "--t-end", "1e300"),
                                      ("--witness", "d1", "--mode", "compare", "--t-end", "1e12")])
    def test_a_grid_past_the_time_bound_is_refused_before_the_sweep(self, tmp_path, capsys, argv):
        # each printed rows and exited 0 without the time bound: N max read
        # 1.0011 at t = 1e300, and d1 was labelled classical at 1e12
        out_csv = tmp_path / "rows.csv"
        code, text = self.run("--alpha", "1", "--t-steps", "3", *argv, "--out", str(out_csv))
        assert (code, text) == (EXIT_PRECONDITION, "") and not out_csv.exists()
        err = capsys.readouterr().err
        assert err.startswith("precondition error: ModelParams(alpha_mag=1.0, theta=0.0, "
                              f"lam=0.001): the phases w t at |t| = {float(argv[-1])!r} "
                              "round by "), err
        assert " at dim 29 |t| may reach about " in err, err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("argv, dim", [(("--alpha", "39"), 1853),
                                           (("--alpha", "1e160", "--dim", "100"), 100)])
    def test_an_amplitude_whose_coherent_input_underflows_is_one_line(self, capsys, argv, dim):
        # c_0 = exp(-|alpha|^2 / 2) underflows from |alpha| near 38.61, at any dim, and
        # at 1e160 |alpha|^2 is inf.  Only the oracle builds the coherent state.
        code, text = self.run(*argv, "--mode", "exact")
        assert (code, text) == (EXIT_PRECONDITION, "")
        err = capsys.readouterr().err
        assert err == (f"precondition error: the coherent state of |alpha|={float(argv[1])!r} "
                       f"captures a mass 0.000e+00 in dim={dim} levels, not a normal float: "
                       "the float64 recurrence cannot hold it\n"), err

    def test_the_recurrence_holds_alpha_37_9(self, capsys, tmp_path):
        # refused at the parent, whose tail check read the subnormal c_0 as lost mass
        out_csv = tmp_path / "rows.csv"
        code, text = self.run("--alpha", "37.9", "--theta", "pi/2", "--lambda", "1e-4",
                              "--t-end", "pi", "--t-steps", "2", "--mode", "exact",
                              "--witness", "N,d1", "--out", str(out_csv))
        assert (code, capsys.readouterr().err) == (EXIT_OK, "")
        assert text.startswith("rows=4 mode=exact")
        rows = list(csv.DictReader(out_csv.read_text(encoding="ascii").splitlines()))
        [n0] = [float(r["value_exact"]) for r in rows if r["t"] == "0.0" and r["witness"] == "N"]
        assert abs(n0 - 37.9**2) <= 1e-12 * 37.9**2

    @pytest.mark.parametrize("dim, code", [("47", EXIT_OK), ("46", EXIT_PRECONDITION)])
    def test_the_edge_check_alone_judges_an_explicit_dim(self, capsys, monkeypatch, dim, code):
        # the smallest dim whose input passes, 6 below the default dim 53 that the
        # old floor required; at 46 the input is refused before H is built
        built = []
        monkeypatch.setattr(dynamics, "hamiltonian",
                            lambda *args, h=dynamics.hamiltonian: built.append(args) or h(*args))
        assert self.run("--alpha", "3", "--theta", "pi/2", "--dim", dim, "--mode", "exact",
                        "--t-steps", "9", "--witness", "N")[0] == code
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert (err, built) == ("", [(1e-3, 47)])
            return
        assert built == []
        assert err == ("precondition error: ModelParams(alpha_mag=3.0, theta=1.5707963267948966, "
                       "lam=0.001): the input state holds 1.326e-15 in its top 4 levels, above "
                       "1e-15; the dim 53 of --dim auto holds it\n"), err

    def test_a_first_order_witness_needs_no_coherent_state(self, capsys, tmp_path):
        # a_1(t) is evaluated in the displaced frame, so no Fock basis limits |alpha|
        out_csv = tmp_path / "rows.csv"
        code, text = self.run("--alpha", "37.9,40", "--witness", "quadrature,hillery",
                              "--t-steps", "3", "--out", str(out_csv))
        assert (code, capsys.readouterr().err) == (EXIT_OK, "")
        assert "rows=12 mode=closed_form" in text
        rows = list(csv.DictReader(out_csv.read_text(encoding="ascii").splitlines()))
        assert len(rows) == 12 and {r["alpha_mag"] for r in rows} == {"37.9", "40.0"}
        assert all(math.isfinite(float(r["value_cf"])) for r in rows)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 6.0), st.floats(allow_nan=False, allow_infinity=False),
           st.floats(0.0, 0.3) | st.floats(-6.0, math.log10(0.3)).map(lambda e: min(0.3, 10.0**e)))
    @example(1.0, np.pi / 4, 1e-2)
    def test_the_oracle_accepts_only_slices_that_hold_at_doubled_dimension(self, a, th, lam):
        # the default dim, at most 104 here, and 17 times on [-4 pi, 4 pi]
        params, dim = ModelParams(a, th, lam), default_dim(a)
        ts = np.linspace(-4 * np.pi, 4 * np.pi, 17)
        try:
            [block] = exact_moment_blocks([params], ts, dim)
        except TruncationError:
            with tempfile.TemporaryDirectory() as tmp:
                out_csv = Path(tmp) / "rows.csv"
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code, text = self.run("--alpha", repr(a), f"--theta={th!r}", "--lambda", repr(lam),
                                          "--t-start=-4pi", "--t-end", "4pi", "--t-steps", "17",
                                          "--mode", "exact", "--witness", "N", "--out", str(out_csv))
                assert (code, text) == (EXIT_PRECONDITION, "") and not out_csv.exists()
            assert err.getvalue().startswith("precondition error: ")
            assert err.getvalue().count("\n") == 1
            return
        assert doubled_dim_drift(block, params, ts, dim) < CONVERGENCE_TOL

    def test_the_free_vacuum_is_the_same_at_doubled_dimension(self):
        params, ts = ModelParams(0.0, 0.0, 0.0), np.linspace(-4 * np.pi, 4 * np.pi, 17)
        [block] = exact_moment_blocks([params], ts, 20)
        assert doubled_dim_drift(block, params, ts, 20) == 0.0

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
        code, _ = self.run("--alpha", "3", "--dim", "15", "--mode", "exact")
        assert code == EXIT_PRECONDITION

    @pytest.mark.parametrize("argv", [("--alpha", "1e4"), ("--dim", "100000"), ("--alpha", "1e200")])
    def test_dim_above_ceiling_refused_before_allocating(self, argv, no_dense_allocation):
        code, _ = self.run(*argv, "--mode", "exact")
        assert code == EXIT_PRECONDITION

    def test_the_exact_oracle_still_refuses_a_dim_above_the_ceiling(self, capsys,
                                                                     no_dense_allocation):
        assert self.run("--alpha", "45", "--mode", "exact") == (EXIT_PRECONDITION, "")
        assert capsys.readouterr().err == ("precondition error: dim=2405 exceeds the "
                                           "dense-matrix ceiling MAX_DIM=2048\n")

    @pytest.mark.parametrize("argv", [("--alpha", "1", "--dim", "10"), ("--dim", "100000"),
                                      ("--alpha", "3", "--dim", "15")])
    def test_closed_form_mode_reads_no_dim(self, argv, capsys):
        code, text = self.run(*argv, "--witness", "N,quadrature", "--t-steps", "2")
        assert (code, capsys.readouterr().err) == (EXIT_OK, "")
        assert text.startswith("rows=4 mode=closed_form\n")

    def test_closed_form_mode_runs_beyond_the_oracle(self, capsys, tmp_path, no_dense_allocation):
        # the default dims of 45 and 1e4 are above MAX_DIM, and nothing here builds a basis
        out_csv = tmp_path / "rows.csv"
        code, text = self.run("--alpha", "45,1e4", "--witness", "N,f,quadrature,hillery",
                              "--t-steps", "3", "--out", str(out_csv))
        assert (code, capsys.readouterr().err) == (EXIT_OK, "")
        assert text.startswith("rows=24 mode=closed_form")
        rows = list(csv.DictReader(out_csv.read_text(encoding="ascii").splitlines()))
        assert len(rows) == 24 and {r["alpha_mag"] for r in rows} == {"45.0", "10000.0"}
        assert all(math.isfinite(float(r["value_cf"])) for r in rows)

    @pytest.mark.parametrize("witness", ["N", "f", "quadrature", "N,f,d1,d2,d3,quadrature,hillery"])
    def test_a_closed_form_beyond_the_float_range_is_one_line(self, capsys, tmp_path, witness):
        # the scalar closed forms reach Python's float **, which raises OverflowError
        out_csv = tmp_path / "rows.csv"
        code, text = self.run("--alpha", "1e300", "--t-steps", "2", "--witness", witness,
                              "--out", str(out_csv))
        assert (code, text) == (EXIT_PRECONDITION, "") and not out_csv.exists()
        assert capsys.readouterr().err == ("precondition error: ModelParams(alpha_mag=1e+300, "
                                           "theta=0.0, lam=0.001): a closed-form value is not "
                                           "finite\n")

    @pytest.mark.parametrize("argv, field", [(("--out", "{dir}"), "out"),
                                             (("--mode", "exact", "--t-steps", "99999999"),
                                              "t_steps")])
    def test_a_spec_error_wins_where_no_dim_holds_alpha(self, tmp_path, capsys, argv, field):
        # default_dim(1e200) overflows; the grid bound must not ask it first
        code, text = self.run("--alpha", "1e200", *(a.format(dir=tmp_path) for a in argv))
        assert (code, text) == (EXIT_SPEC_ERROR, "")
        err = capsys.readouterr().err
        assert err.startswith(f"spec error: {field}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", [
        ("--t-steps", "1000000000"),
        ("--t-steps", "99999999999999999999"),
        # 50000 rows, but (50000, 53) ket blocks per slice
        ("--alpha", "3", "--t-steps", "50000", "--witness", "N", "--mode", "exact"),
        # 170000 rows, but (170000, 13) ket blocks of a_1(t)
        ("--alpha", "3", "--t-steps", "170000", "--witness", "hillery"),
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
                              f"theta={theta!r}, lam={lam!r}): "), err
        # at lam = 1e300 H stays finite, and like t = 1e300 it rounds the phases
        # w t past the time bound before a closed form overflows
        timed = mode != "closed_form" and argv in (("--lambda", "1e300"), ("--t-end", "1e300"))
        time_bound = r": the phases w t at \|t\| = \S+ round by .* \|t\| may reach about \S+\n$"
        assert re.search(time_bound, err) if timed else err.endswith(" is not finite\n"), err
        assert err.count("\n") == 1, err

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
        # every exact slice the run printed holds at doubled dimension
        spec = build_spec(dict(DEFAULTS, **{flag[2:].replace("-", "_"): value
                                            for flag, value in zip(argv[::2], argv[1::2])}))
        if spec.mode != "closed_form":
            ts = spec.t_grid()
            for a, th, lam in spec.slices():
                params = ModelParams(a, th, lam)
                [block] = exact_moment_blocks([params], ts, spec.dim_for(a))
                assert doubled_dim_drift(block, params, ts, spec.dim_for(a)) < CONVERGENCE_TOL, params

    @pytest.mark.parametrize("to_dir", [True, False], ids=["directory", "empty"])
    def test_out_naming_a_directory_refused_before_the_sweep(self, tmp_path, to_dir, capsys,
                                                            no_dense_allocation):
        # an empty --out= is the current directory
        out = f"--out={tmp_path if to_dir else ''}"
        code, text = self.run("--t-steps", "3", "--witness", "N", "--mode", "exact", out)
        assert code == EXIT_SPEC_ERROR
        assert text == "" and list(tmp_path.iterdir()) == []
        assert "spec error: out: " in capsys.readouterr().err

    def test_out_directory_refused_before_the_edge_check(self, tmp_path, capsys,
                                                        monkeypatch, no_dense_allocation):
        # a run whose state reaches the edge of the basis (see EDGE_RUNS)
        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian was about to be built")

        monkeypatch.setattr(dynamics, "hamiltonian", refuse)
        code, text = self.run("--alpha", "4", "--theta", "0", "--lambda", "0.1", "--mode", "exact",
                              "--t-end", "4pi", "--t-steps", "65", "--witness", "N",
                              "--out", str(tmp_path))
        assert code == EXIT_SPEC_ERROR
        assert text == "" and list(tmp_path.iterdir()) == []
        assert "spec error: out: " in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_unwritable_out_is_a_one_line_spec_error(self, capsys):
        # every write to /dev/full fails with ENOSPC, after the sweep has run
        code, text = self.run("--alpha", "1", "--t-steps", "4", "--witness", "N",
                              "--out", "/dev/full")
        assert (code, text) == (EXIT_SPEC_ERROR, "")
        err = capsys.readouterr().err
        assert err.startswith("spec error: out: [Errno 28] ") and err.count("\n") == 1, err
        assert "Traceback" not in err

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

    def test_the_options_are_the_settings_and_config(self):
        _, text = self.run("--help")
        options = re.findall(r"^  (--[a-z-]+)", text, re.MULTILINE)
        assert sorted(options) == sorted(["--config", *(f"--{key.replace('_', '-')}"
                                                        for key in DEFAULTS)])
        assert len(options) == 11

    def test_every_input_is_refused_before_the_first_h(self, monkeypatch, capsys):
        # 1700 levels hold |alpha| = 20, not 38: 38's input is refused before 20's H is built
        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian or an eigh was about to run")

        monkeypatch.setattr(dynamics, "hamiltonian", refuse)
        monkeypatch.setattr(dynamics.np.linalg, "eigh", refuse)
        assert self.run("--alpha", "20,38", "--theta", "pi/2", "--dim", "1700", "--mode", "exact",
                        "--t-steps", "2", "--witness", "N") == (EXIT_PRECONDITION, "")
        assert capsys.readouterr().err == (
            "precondition error: ModelParams(alpha_mag=38.0, theta=1.5707963267948966, "
            "lam=0.001): the input state holds 2.830e-11 in its top 4 levels, above 1e-15; "
            "the dim 1768 of --dim auto holds it\n")

    @pytest.mark.parametrize("argv, code, prefix", [
        (("--out", "{dir}", "--dim", "5", "--mode", "exact"), EXIT_SPEC_ERROR, "spec error: out: "),
        # the edge check reads the 5-entry input state, and refuses it before H
        (("--dim", "5", "--mode", "exact"), EXIT_PRECONDITION,
         "precondition error: ModelParams(alpha_mag=1.0, theta=0.0, lam=0.001): the input state "
         "holds "),
    ])
    def test_refusal_order(self, tmp_path, monkeypatch, capsys, request, argv, code, prefix):
        if code == EXIT_SPEC_ERROR:
            request.getfixturevalue("no_dense_allocation")

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
    def env(self):
        src = str(Path(anharmonic.__file__).resolve().parents[1])
        return dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run_module(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "anharmonic.cli", *argv],
            capture_output=True, text=True, timeout=120, env=self.env(),
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

    @pytest.mark.parametrize("argv, first_line", [
        # 1,200 summary lines, far more than a pipe holds: the child blocks on
        # stdout until the reader has closed it after one line
        (("--alpha", "0.5,1,2", "--theta", ",".join(str(0.05 * i) for i in range(40)),
          "--lambda", ",".join(f"{i}e-3" for i in range(1, 11)), "--t-steps", "2"), b"rows=2400 "),
        # two lines, still buffered when the reader closes at once: the last flush fails
        (("--t-steps", "2"), None),
    ], ids=["blocked", "buffered"])
    def test_closed_stdout_ends_the_run_quietly(self, argv, first_line):
        env = self.env()
        env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as on a pipe by default
        with subprocess.Popen([sys.executable, "-m", "anharmonic.cli", *argv, "--witness", "N"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            if first_line is not None:
                assert proc.stdout.readline().startswith(first_line)
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert err == b"", err.decode()  # no BrokenPipeError traceback

    def test_spec_error_exit_code(self):
        proc = self.run_module("--alpha", "nan")
        assert proc.returncode == EXIT_SPEC_ERROR
        assert "spec error: alpha_mag" in proc.stderr
