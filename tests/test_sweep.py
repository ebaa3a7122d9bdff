import io
import math
import tempfile
import tracemalloc
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharmonic import cli, criteria, perturbative, sweep
from anharmonic.criteria import hillery_squeezing, hoa_d_from_moments, quadrature_squeezing
from anharmonic.dynamics import MomentSet, exact_moment_blocks
from anharmonic.fock import MAX_DIM, MAX_GRID_CELLS, ModelParams, TruncationError, default_dim
from anharmonic.perturbative import (
    ClosedFormInputs,
    first_order_moment_blocks,
    first_order_squeezing_f,
    hoa_witness_d,
    mean_photon_number,
    squeezing_witness_f,
)
from anharmonic.sweep import (
    CSV_HEADER,
    MODES,
    SCALING_ERROR_FLOOR,
    SCALING_SLOPE_THRESHOLD,
    WITNESS_NAMES,
    WITNESSES,
    ScalingEntry,
    SweepResult,
    SweepSpec,
    SweepSpecError,
    compare_report,
    run_sweep,
    write_csv,
)


def small_spec(**overrides):
    base = dict(
        alpha_mag=(1.0,),
        theta=(0.0, np.pi / 2),
        lam=(1e-3,),
        t_start=0.0,
        t_end=2 * np.pi,
        t_steps=9,
        dim=None,
        mode="closed_form",
        witnesses=WITNESS_NAMES,
        output_path=None,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_empty_grids_rejected(self):
        with pytest.raises(SweepSpecError, match="alpha_mag"):
            small_spec(alpha_mag=())
        with pytest.raises(SweepSpecError, match="lambda"):
            small_spec(lam=())

    def test_t_steps_minimum(self):
        with pytest.raises(SweepSpecError, match="t_steps"):
            small_spec(t_steps=1)

    def test_unknown_witness_named_in_error(self):
        with pytest.raises(SweepSpecError, match="bogus"):
            small_spec(witnesses=("f", "bogus"))

    def test_unknown_mode(self):
        with pytest.raises(SweepSpecError, match="mode"):
            small_spec(mode="both")

    def test_compare_requires_positive_lambda(self):
        with pytest.raises(SweepSpecError, match="lambda"):
            small_spec(mode="compare", lam=(0.0, 1e-3))

    @pytest.mark.parametrize("field, value", [
        ("alpha_mag", dict(alpha_mag=(1.0, math.nan))),
        ("alpha_mag", dict(alpha_mag=(math.inf,))),
        ("theta", dict(theta=(0.0, -math.inf))),
        ("lambda", dict(lam=(math.nan,))),
        ("t_start", dict(t_start=math.nan)),
        ("t_end", dict(t_end=math.inf)),
    ])
    def test_non_finite_values_named_in_error(self, field, value):
        with pytest.raises(SweepSpecError, match=f"^{field}: values must be finite"):
            small_spec(**value)

    @pytest.mark.parametrize("mode", ["exact", "compare"])
    def test_dim_too_small_refused_before_the_csv(self, mode, tmp_path):
        # the spec admits dim 30; the oracle holds |alpha| = 1 in it, and refuses the
        # input of 3 (smallest passing dim 47) before any CSV is written
        out = tmp_path / "rows.csv"
        spec = small_spec(alpha_mag=(1.0, 3.0), dim=30, mode=mode, output_path=str(out))
        with pytest.raises(TruncationError, match=r"^ModelParams\(alpha_mag=3\.0, theta=0\.0, "
                                                  r"lam=0\.001\): the input state holds "):
            run_sweep(spec)
        assert not out.exists()

    def test_closed_form_mode_checks_no_dim(self):
        # too small to hold 3, above MAX_DIM, and no dim holds 1e200: none is read
        for alpha_mag, dim in (((3.0,), 15), ((1.0,), 10**6), ((1e200,), None)):
            assert small_spec(alpha_mag=alpha_mag, dim=dim).dim == dim

    def test_out_naming_a_directory_refused_when_built(self, tmp_path):
        with pytest.raises(SweepSpecError, match="^out: .* names a directory"):
            small_spec(output_path=str(tmp_path))
        with pytest.raises(SweepSpecError, match="^out: directory .* does not exist"):
            small_spec(output_path=str(tmp_path / "missing" / "rows.csv"))
        # a spec error wins over a dim above MAX_DIM, and over an |alpha| that no dim holds
        for alpha_mag, dim in (((3.0,), MAX_DIM + 1), ((1e200,), None)):
            with pytest.raises(SweepSpecError, match="^out: "):
                small_spec(alpha_mag=alpha_mag, dim=dim, mode="exact", output_path=str(tmp_path))

    @pytest.mark.parametrize("field, overrides", [
        ("t_steps", dict(t_steps=3.9)),
        ("t_steps", dict(t_steps="x")),
        ("t_steps", dict(t_steps=math.nan)),
        ("dim", dict(dim=29.9)),
        ("dim", dict(dim=math.nan)),
        ("dim", dict(dim="auto")),
        # a string grid would be read one character at a time
        ("alpha_mag", dict(alpha_mag="12")),
        ("alpha_mag", dict(alpha_mag=("a",))),
        ("lambda", dict(lam="0.1")),
        ("t_start", dict(t_start="x")),
        # a string witness list, as a string grid
        ("witness", dict(witnesses="N")),
        ("witness", dict(witnesses="d1")),
        ("witness", dict(witnesses=None)),
        ("witness", dict(witnesses=3)),
        ("witness", dict(witnesses=[["N"]])),
        ("out", dict(output_path=3)),
        ("out", dict(output_path=b"rows.csv")),
    ])
    def test_malformed_values_named_in_error(self, field, overrides):
        with pytest.raises(SweepSpecError, match=f"^{field}: "):
            small_spec(**overrides)

    @pytest.mark.parametrize("t_steps", [2.0, np.int64(3)])
    def test_integral_t_steps_accepted(self, t_steps):
        spec = small_spec(t_steps=t_steps, dim=np.int64(30))
        assert (type(spec.t_steps), spec.t_steps, type(spec.dim)) == (int, t_steps, int)

    @pytest.mark.parametrize("dim", [1, 0, -5])
    def test_dim_below_two_named_in_error(self, dim):
        with pytest.raises(SweepSpecError, match="^dim: must be >= 2"):
            small_spec(dim=dim)

    @pytest.mark.parametrize("overrides", [
        dict(t_steps=MAX_GRID_CELLS + 1, witnesses=("N",)),
        dict(alpha_mag=(1.0, 2.0), t_steps=MAX_GRID_CELLS // 4, witnesses=("N", "f", "d1")),
        # one row per t, but every slice holds (t_steps, D = 29) ket blocks of the
        # oracle, or (t_steps, 13) ones of a_1(t)
        dict(t_steps=MAX_GRID_CELLS // 29 + 1, witnesses=("N",), mode="exact"),
        dict(t_steps=MAX_GRID_CELLS // 29 + 1, witnesses=("hillery",), mode="exact"),
        dict(t_steps=MAX_GRID_CELLS // 13 + 1, witnesses=("hillery",)),
        # the oracle's blocks are counted at most MAX_DIM wide, where no dim holds |alpha|
        dict(alpha_mag=(1e200,), t_steps=MAX_GRID_CELLS // 2048 + 1, witnesses=("N",),
             mode="exact"),
    ])
    def test_grid_above_the_ceiling_named_in_error(self, overrides):
        with pytest.raises(SweepSpecError, match="^t_steps: .* above MAX_GRID_CELLS"):
            small_spec(theta=(0.0,), **overrides)

    @pytest.mark.parametrize("overrides", [
        dict(t_steps=MAX_GRID_CELLS, witnesses=("N",)),
        dict(t_steps=MAX_GRID_CELLS // 29, witnesses=("N",), mode="exact"),
        dict(t_steps=MAX_GRID_CELLS // 13, witnesses=("hillery",)),
    ])
    def test_grid_at_the_ceiling_is_accepted(self, overrides):
        assert small_spec(theta=(0.0,), **overrides).t_steps == overrides["t_steps"]


class TestRunSweep:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.7, 3.0, 45.0, 1e4]), min_size=1, max_size=2),
           st.integers(2, 10**9), st.lists(st.sampled_from(WITNESS_NAMES), min_size=1, max_size=3))
    def test_closed_form_bytes_do_not_depend_on_dim(self, alphas, dim, witnesses):
        def csv_bytes(dim):
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "rows.csv"
                run_sweep(small_spec(alpha_mag=alphas, dim=dim, t_steps=5, witnesses=witnesses,
                                     output_path=str(out)))
                return out.read_bytes()

        assert csv_bytes(dim) == csv_bytes(None)

    def test_row_count_formula(self):
        spec = small_spec(alpha_mag=(0.5, 1.0), lam=(1e-3, 1e-4), witnesses=("f", "d2", "N"))
        result = run_sweep(spec)
        assert result.row_count == 2 * 2 * 2 * 9 * 3

    def test_row_order_witness_innermost(self, tmp_path):
        spec = small_spec(witnesses=("f", "d1"), output_path=str(tmp_path / "o.csv"))
        run_sweep(spec)
        rows = [line.split(",") for line in csv_lines(tmp_path / "o.csv")]
        assert [r[4] for r in rows[:4]] == ["f", "d1", "f", "d1"]
        assert rows[0][3] == rows[1][3] != rows[2][3]

    def test_exact_mode_fills_exact_but_not_error(self):
        result = run_sweep(small_spec(mode="exact", t_steps=3, witnesses=("N", "d1")))
        assert result.value_exact.shape == result.value_cf.shape
        assert np.isfinite(result.value_exact).all()
        assert result.abs_error is None

    def test_compare_mode_fills_error(self):
        result = run_sweep(small_spec(mode="compare", t_steps=3, witnesses=("N",)))
        cells = zip(*(c.ravel().tolist() for c in (result.abs_error, result.value_cf,
                                                   result.value_exact)))
        assert all(err == abs(cf - exact) for err, cf, exact in cells)

    def test_free_field_rows_all_boundary(self):
        spec = small_spec(alpha_mag=(0.5, 1.0), lam=(0.0,), t_steps=5)
        result = run_sweep(spec)
        assert (result.classification == "boundary").all()
        n = spec.witnesses.index("N")
        for s, (a, _, _) in enumerate(product(spec.alpha_mag, spec.theta, spec.lam)):
            assert (result.value_cf[s, :, n] == a**2).all()
            assert (np.abs(np.delete(result.value_cf[s], n, axis=1)) < 1e-10).all()

    def test_always_negative_f_at_half_pi_phase(self):
        spec = small_spec(theta=(np.pi / 2,), lam=(1e-2,), t_steps=64, witnesses=("f",))
        assert (run_sweep(spec).value_cf <= 0.0).all()

    def test_d2_oscillates_at_half_pi_phase(self):
        spec = small_spec(theta=(np.pi / 2,), lam=(1e-2,), t_steps=200, witnesses=("d2",))
        result = run_sweep(spec)
        values = result.value_cf.ravel().tolist()
        assert min(values) < -1e-4 and max(values) > 1e-4
        assert result.zero_crossings[0, 0] >= 2

    @pytest.mark.parametrize("lam", [1e-200, 1e-3, 1e200])
    def test_zero_crossings_compare_signs(self, lam):
        # d1 scales with lambda; products of neighbours would underflow to 0
        # at 1e-200 and overflow at 1e200
        spec = small_spec(theta=(0.3,), lam=(lam,), t_steps=64, witnesses=("d1",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_sweep(spec)
        assert result.zero_crossings[0, 0] == 3

    def test_summary_min_max(self):
        spec = small_spec(theta=(0.3,), witnesses=("d1",), t_steps=33)
        result = run_sweep(spec)
        values = result.value_cf.ravel().tolist()
        assert result.vmin[0, 0] == min(values) and result.vmax[0, 0] == max(values)


class TestColumns:
    def test_columns_are_shaped_slices_by_t_by_witness(self, tmp_path):
        spec = small_spec(alpha_mag=(0.5, 1.0), lam=(1e-3, 1e-4), mode="compare",
                          t_steps=4, witnesses=("f", "N", "hillery"),
                          output_path=str(tmp_path / "c.csv"))
        result = run_sweep(spec)
        for column in (result.value_cf, result.value_exact, result.abs_error,
                       result.classification):
            assert column.shape == (8, 4, 3)
        assert result.row_count == 96
        last = csv_lines(tmp_path / "c.csv")[-1].split(",")
        assert [*map(float, last[:4]), last[4]] == [1.0, np.pi / 2, 1e-4, 2 * np.pi, "hillery"]
        assert [*map(float, last[5:8]), last[8]] == [
            result.value_cf[-1, -1, -1], result.value_exact[-1, -1, -1],
            result.abs_error[-1, -1, -1], result.classification[-1, -1, -1]]

    @pytest.mark.parametrize("mode", ["closed_form", "exact"])
    def test_unfilled_columns_are_none(self, mode):
        result = run_sweep(small_spec(mode=mode, t_steps=3))
        assert result.abs_error is None
        assert (result.value_exact is None) == (mode == "closed_form")

    def test_sweep_builds_objects_per_slice_not_per_row(self, monkeypatch, tmp_path):
        counts = {"ClosedFormInputs": 0, "MomentSet": 0}

        def counting(cls):
            def build(*args):
                counts[cls.__name__] += 1
                return cls(*args)
            return build

        monkeypatch.setattr(sweep, "ClosedFormInputs", counting(ClosedFormInputs))
        monkeypatch.setattr(sweep, "MomentSet", counting(MomentSet))
        spec = small_spec(alpha_mag=(0.5, 1.0), lam=(1e-3, 1e-4), mode="compare",
                          t_steps=17, output_path=str(tmp_path / "s.csv"))
        run_sweep(spec)
        # one ClosedFormInputs a sweep, moved to each group's |alpha| and lambda by ``at``
        assert counts == {"ClosedFormInputs": 1, "MomentSet": 16}

    def test_sweep_classifies_once(self, monkeypatch):
        calls = []

        def counted_classify(*args, **kwargs):
            calls.append(args)
            return classify(*args, **kwargs)

        classify = criteria.classify
        monkeypatch.setattr(criteria, "classify", counted_classify)
        monkeypatch.setattr(sweep, "classify", counted_classify)
        spec = small_spec(alpha_mag=(0.5, 1.0), lam=(1e-3, 1e-4), mode="compare", t_steps=5)
        run_sweep(spec)
        # one label array per sweep
        assert len(calls) == 1

    def test_closed_forms_run_once_per_group_on_one_phase_table(self, monkeypatch):
        tables, pieces, forms = [], [], []

        class RecordedTable(perturbative.PhaseTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        def counted(record, name, form):
            def call(*args):
                record.append((name, *args))
                return form(*args)
            return call

        monkeypatch.setattr(perturbative, "PhaseTable", RecordedTable)
        for name in ("phase_fundamental", "phase_second_harmonic", "secular_factor"):
            monkeypatch.setattr(perturbative, name,
                                counted(pieces, name, getattr(perturbative, name)))
        for name in ("squeezing_witness_f", "hoa_witness_d", "mean_photon_number"):
            monkeypatch.setattr(sweep, name, counted(forms, name, getattr(sweep, name)))
        spec = small_spec(alpha_mag=(0.5, 1.0, 2.0), theta=(0.0, 0.3, np.pi / 2),
                          lam=(1e-3, 1e-4), t_steps=17)
        result = run_sweep(spec)
        # one table a sweep, which builds each piece once
        [table] = tables
        assert set(vars(table)) == {"p1", "p2", "secular", "sin_t", "sin_2t", "sin_t_2theta"}
        assert sorted(name for name, *_ in pieces) == ["phase_fundamental",
                                                       "phase_second_harmonic", "secular_factor"]
        # each closed form once a group, in (alpha, lambda) order, over every theta
        calls = [(name, order, ci.alpha_mag, ci.lam, ci.theta.tolist())
                 for name, *args in forms for *order, ci in [args]]
        assert calls == [(name, order, a, lam, list(spec.theta))
                         for a, lam in product(spec.alpha_mag, spec.lam)
                         for name, order in (("squeezing_witness_f", []), ("hoa_witness_d", [1]),
                                             ("hoa_witness_d", [2]), ("hoa_witness_d", [3]),
                                             ("mean_photon_number", []))]
        for s, (a, th, lam) in enumerate(spec.slices()):
            inputs = ClosedFormInputs(a, th, lam, spec.t_grid())
            assert result.value_cf[s, :, 0].tolist() == squeezing_witness_f(inputs).tolist()

    def test_rebinding_a_closed_form_reaches_the_sweep(self, monkeypatch):
        monkeypatch.setattr(sweep, "squeezing_witness_f", first_order_squeezing_f)
        spec = small_spec(theta=(0.3,), lam=(1e-2,), t_steps=33, witnesses=("N", "f"))
        expected = [first_order_squeezing_f(ClosedFormInputs(1.0, 0.3, 1e-2, t))
                    for t in spec.t_grid().tolist()]
        assert run_sweep(spec).value_cf[0, :, 1].tolist() == expected

    @pytest.mark.parametrize("spec", [
        small_spec(lam=(0.0, 1e-3), t_steps=17),
        small_spec(alpha_mag=(0.0, 2.0), theta=(0.0, -0.0, 0.4), mode="compare",
                   lam=(1e-3, 1e-4), t_steps=9),
    ])
    def test_summaries_are_the_row_walk(self, spec):
        # the per-slice reductions over each slice's t values, as Python's
        # min, max and sum compute them, with Python floats for the printed
        # numbers: the result's digest columns and the CLI's witness lines
        result = run_sweep(spec)
        primary = result.value_cf if result.value_exact is None else result.value_exact
        expected, lines = [], []
        for s, (a, theta, lam) in enumerate(product(spec.alpha_mag, spec.theta, spec.lam)):
            for k, w in enumerate(spec.witnesses):
                vals = primary[s, :, k].tolist()
                errs = None if result.abs_error is None else result.abs_error[s, :, k].tolist()
                crossings = sum(1 for x, y in zip(vals, vals[1:]) if x < 0.0 < y or y < 0.0 < x)
                worst = repr(max(errs)) if errs else "None"
                expected.append((repr(min(vals)), repr(max(vals)), crossings, worst))
                lines.append(f"witness={w} alpha={a!r} theta={theta!r} lambda={lam!r} "
                             f"min={min(vals)!r} max={max(vals)!r} zero_crossings={crossings}"
                             + ("" if errs is None else f" max_abs_error={worst}"))
        errors = (np.full(result.vmin.shape, None) if result.max_abs_error is None
                  else result.max_abs_error)
        got = [(repr(lo), repr(hi), crossings, repr(worst)) for lo, hi, crossings, worst in zip(
            *(c.ravel().tolist() for c in (result.vmin, result.vmax, result.zero_crossings, errors)))]
        assert got == expected
        assert result.vmin.shape == (len(expected) // len(spec.witnesses), len(spec.witnesses))
        out = io.StringIO()
        cli._print_result(result, out)
        assert [line for line in out.getvalue().splitlines()
                if line.startswith("witness=")] == lines

    def test_summary_extremes_take_the_first_zero(self):
        primary = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0]).reshape(2, 3, 1)
        vmin, vmax, crossings, worst = sweep._reductions(primary, None)
        first, second = zip(vmin.ravel().tolist(), vmax.ravel().tolist())
        assert (repr(first[0]), repr(first[1])) == (repr(min(0.0, -0.0, 1.0)), "1.0")
        assert (repr(second[0]), repr(second[1])) == ("-1.0", repr(max(-0.0, 0.0, -1.0)))
        assert repr(first[0]) == "0.0" and repr(second[1]) == "-0.0"
        assert crossings.tolist() == [[0], [0]] and worst is None


class TestWitnessTable:
    def test_names_follow_the_table(self):
        assert WITNESS_NAMES == tuple(WITNESSES) == (
            "f", "d1", "d2", "d3", "N", "quadrature", "hillery")

    def test_rows_match_the_public_functions(self):
        # each witness's row values equal the functions the README names for it
        a, th, lam = 1.3, 0.7, 1e-3
        spec = small_spec(alpha_mag=(a,), theta=(th,), lam=(lam,), mode="compare", t_steps=3)
        t = float(spec.t_grid()[1])
        ci = ClosedFormInputs(a, th, lam, t)
        params = ModelParams(a, th, lam)
        [[fo]] = first_order_moment_blocks([params], [t])
        [[ex]] = exact_moment_blocks([params], [t], default_dim(a))
        fo, ex = MomentSet(*fo.tolist()), MomentSet(*ex.tolist())
        expected = {
            "f": (squeezing_witness_f(ci), hillery_squeezing(ex)),
            "d1": (hoa_witness_d(1, ci), hoa_d_from_moments(ex, 1)),
            "d2": (hoa_witness_d(2, ci), hoa_d_from_moments(ex, 2)),
            "d3": (hoa_witness_d(3, ci), hoa_d_from_moments(ex, 3)),
            "N": (mean_photon_number(ci), ex.ada.real),
            "quadrature": (quadrature_squeezing(fo), quadrature_squeezing(ex)),
            "hillery": (hillery_squeezing(fo), hillery_squeezing(ex)),
        }
        result = run_sweep(spec)
        assert spec.witnesses == tuple(expected)
        for k, (w, (cf, exact)) in enumerate(expected.items()):
            assert (result.value_cf[0, 1, k], result.value_exact[0, 1, k]) == (cf, exact), w


def reference_csv(result) -> bytes:
    """The CSV a row-by-row repr and str.join writer produces: a nested walk
    over the grid that reads each cell from the columns by its index."""
    spec = result.spec

    def cell(column, index):
        return "" if column is None else repr(float(column[index]))

    lines = [CSV_HEADER]
    for s, (a, th, lam) in enumerate(product(spec.alpha_mag, spec.theta, spec.lam)):
        for j, t in enumerate(spec.t_grid().tolist()):
            for k, w in enumerate(spec.witnesses):
                index = (s, j, k)
                lines.append(",".join([
                    repr(a), repr(th), repr(lam), repr(t), w, cell(result.value_cf, index),
                    cell(result.value_exact, index), cell(result.abs_error, index),
                    str(result.classification[index])]))
    return ("\n".join(lines) + "\n").encode("ascii")


def csv_lines(path) -> list:
    """The data lines of a sweep CSV, after checking its header and final newline."""
    lines = Path(path).read_text(encoding="ascii").split("\n")
    assert lines[0] == CSV_HEADER and lines[-1] == ""
    return lines[1:-1]


def assert_csv_values_are_the_columns(path, result):
    """Each value cell of the CSV parses with float() to its column's float,
    bit for bit, in row order; an unfilled column's cells are empty."""
    cells = [line.split(",") for line in csv_lines(path)]
    assert len(cells) == result.row_count
    for i, column in enumerate((result.value_cf, result.value_exact, result.abs_error), start=5):
        if column is None:
            assert {c[i] for c in cells} == {""}
        else:
            parsed = np.array([float(c[i]) for c in cells])
            assert parsed.view(np.uint64).tolist() == column.ravel().view(np.uint64).tolist()
    assert [c[8] for c in cells] == result.classification.ravel().tolist()


class TestCsvContract:
    def test_header_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        spec1 = small_spec(mode="compare", t_steps=5, witnesses=("N", "f"),
                           output_path=str(out1))
        spec2 = small_spec(mode="compare", t_steps=5, witnesses=("N", "f"),
                           output_path=str(out2))
        run_sweep(spec1)
        run_sweep(spec2)
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        assert b1.decode("ascii").splitlines()[0] == CSV_HEADER

    def test_round_trip_exact(self, tmp_path):
        out = tmp_path / "roundtrip.csv"
        spec = small_spec(mode="compare", t_steps=7, witnesses=("N", "d3", "hillery"),
                          output_path=str(out))
        result = run_sweep(spec)
        assert_csv_values_are_the_columns(out, result)

    def test_absent_fields_emitted_empty(self, tmp_path):
        out = tmp_path / "cf.csv"
        run_sweep(small_spec(t_steps=3, witnesses=("f",), output_path=str(out)))
        line = out.read_text().splitlines()[1]
        cells = line.split(",")
        assert cells[6] == "" and cells[7] == ""

    def test_signed_zero_coordinates_keep_their_sign(self, tmp_path):
        # -0.0 == 0.0, but the two print differently
        spec = small_spec(theta=(0.0, -0.0, 0.5), t_steps=2, witnesses=("N", "d1"),
                          output_path=str(tmp_path / "z.csv"))
        run_sweep(spec)
        lines = csv_lines(tmp_path / "z.csv")
        assert [line.split(",")[1:4] for line in lines] == [
            [repr(th), repr(lam), repr(t)] for th, lam, t, _ in
            product(spec.theta, spec.lam, spec.t_grid().tolist(), spec.witnesses)]
        assert [line.split(",")[1] for line in lines[::4]] == ["0.0", "-0.0", "0.5"]

    def test_bytes_match_a_repr_writer(self, tmp_path):
        # every class of value the bulk formatter hands back to repr, and its
        # exponent, padding and '.0' edges, in all three value columns
        edges = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 2.0**-1074 * 3, 2.0**-1022, 2.0**-20, 0.5, 1.0, 2.0**52, 2.0**53, 2.0**1023,
                 1e16, 9999999999999998.0, 1e-5, 1e-4, 9007199254740993.0, 1e23, 0.3,
                 1e-280, 1e280, 1.5e-281, 1.5e281, 123456789.0, 0.1 + 0.2, 1 / 3]
        values = np.array(edges + [-v for v in edges])
        spec = small_spec(alpha_mag=(0.0, 2.5), theta=(-0.0,), lam=(1e-3,), mode="compare",
                          t_steps=values.size // 2, witnesses=("N",))
        columns = values.reshape(2, -1, 1)
        result = SweepResult(spec, columns, columns[::-1] / 3.0, np.abs(columns),
                             criteria.classify(columns, codes=True), None, None, None, None)
        write_csv(result, tmp_path / "fast.csv")
        assert (tmp_path / "fast.csv").read_bytes() == reference_csv(result)
        closed = SweepResult(small_spec(t_steps=columns.shape[1], witnesses=("N",)), columns,
                             None, None, criteria.classify(columns, codes=True), None, None, None, None)
        write_csv(closed, tmp_path / "closed.csv")
        assert (tmp_path / "closed.csv").read_bytes() == reference_csv(closed)

    def test_write_csv_is_the_grid_walk(self, tmp_path):
        # two values on every axis, so that a wrong nesting or repetition shows
        result = run_sweep(small_spec(alpha_mag=(0.5, 1.0), lam=(1e-3, 1e-4), t_steps=3,
                                      witnesses=("d1", "N")))
        path = tmp_path / "h.csv"
        write_csv(result, path)
        assert_csv_values_are_the_columns(path, result)
        assert path.read_bytes() == reference_csv(result)


    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("t_steps, witnesses", [(2, WITNESS_NAMES), (9, ("d3", "N", "quadrature"))],
                             ids=["pair-of-times", "witness-subset"])
    def test_multi_slice_sweeps_are_the_grid_walk(self, tmp_path, mode, t_steps, witnesses):
        # closed_form leaves two columns empty, exact one and compare none
        path = tmp_path / "s.csv"
        result = run_sweep(small_spec(alpha_mag=(0.5, 1.0), theta=(0.0, np.pi / 2),
                                      lam=(1e-3, 1e-4), t_steps=t_steps, mode=mode,
                                      witnesses=witnesses, output_path=str(path)))
        assert path.read_bytes() == reference_csv(result)
        assert_csv_values_are_the_columns(path, result)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("t_steps", [sweep._CSV_RUN // 4, 1537], ids=["aligned", "uneven"])
    def test_runs_that_split_and_span_slices(self, tmp_path, mode, t_steps):
        # two witnesses make a slice half a run of one column, or an uneven
        # share; with three columns a run is a third as long and splits slices
        rng = np.random.default_rng(t_steps)
        shape = (4, t_steps, 2)
        cf = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 4, shape)
        exact = None if mode == "closed_form" else cf + 1e-9 * rng.standard_normal(shape)
        result = SweepResult(
            small_spec(alpha_mag=(0.5, 1.0), theta=(0.0,), lam=(1e-3, 1e-4), t_steps=t_steps,
                       mode=mode, witnesses=("N", "d1")),
            cf, exact, np.abs(cf - exact) if mode == "compare" else None,
            criteria.classify(cf if exact is None else exact, codes=True), None, None, None,
            None)
        write_csv(result, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_bytes() == reference_csv(result)

    def test_write_memory_does_not_grow_with_the_slices(self, tmp_path):
        # the traced peak holds one run and one slice's t and witness cells,
        # so four times the slices leave it where it was
        def write_peak(lams):
            result = run_sweep(small_spec(alpha_mag=(0.5, 1.0), theta=(0.0, 0.7), lam=lams,
                                          t_steps=4096, witnesses=("f", "d1", "d2", "d3", "N")))
            path = tmp_path / f"{len(lams)}.csv"
            tracemalloc.start()
            try:
                write_csv(result, path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, path.stat().st_size

        peak4, _ = write_peak((1e-3,))
        peak16, size16 = write_peak((1e-3, 2e-3, 3e-3, 4e-3))
        assert peak16 < 1.5 * peak4
        assert peak16 < size16 / 4


class TestCompareReport:
    def test_first_order_paths_scale_quadratically(self):
        spec = small_spec(
            theta=(0.7,), lam=(1e-3, 1e-4), mode="compare", t_steps=9,
            witnesses=("N", "d1", "quadrature", "hillery"),
        )
        report = compare_report(run_sweep(spec))
        for w in ("N", "d1", "quadrature", "hillery"):
            assert report.status_of(w) == "pass", (w, report.worst_slope(w))
            assert report.worst_slope(w) > 1.8

    def test_compact_forms_fail_scaling_by_design(self):
        # the compact f, d2, d3 carry a first-order gap to the oracle, so the
        # error shrinks only one decade per decade of lambda
        spec = small_spec(theta=(0.7,), lam=(1e-3, 1e-4), mode="compare",
                          t_steps=9, witnesses=("f", "d2", "d3"))
        report = compare_report(run_sweep(spec))
        for w in ("f", "d2", "d3"):
            assert report.status_of(w) == "fail"
            assert 0.8 < report.worst_slope(w) < 1.2

    def test_requires_compare_mode(self):
        with pytest.raises(SweepSpecError, match="mode"):
            compare_report(run_sweep(small_spec(mode="exact", lam=(1e-3, 1e-4), t_steps=3)))

    def test_requires_two_lambdas(self):
        with pytest.raises(SweepSpecError, match="lambda"):
            compare_report(run_sweep(small_spec(mode="compare", lam=(1e-3,), t_steps=3)))

    @pytest.mark.parametrize("theta", [(0.7, 0.7), (0.0, -0.0)])
    def test_repeated_lambda_merges_like_the_row_walk(self, theta):
        # the report reads each slice's max |error| from max_abs_error; a
        # repeated lambda value merges its slices by max, as walking every
        # row keyed by (witness, alpha, theta, lambda) did; equal thetas,
        # 0.0 and -0.0 included, give equal slices and need no merge
        spec = small_spec(alpha_mag=(0.5, 1.0), theta=theta, lam=(1e-3, 1e-4, 1e-3),
                          mode="compare", t_steps=9, witnesses=("N", "d1", "f", "hillery"))
        result = run_sweep(spec)
        worst_err = {}
        for s, (a, th, lam) in enumerate(product(spec.alpha_mag, spec.theta, spec.lam)):
            for k, w in enumerate(spec.witnesses):
                key = (w, a, th, lam)
                worst_err[key] = max(worst_err.get(key, 0.0), *result.abs_error[s, :, k].tolist())
        lams = sorted(set(spec.lam))
        expected = []
        for w in spec.witnesses:
            for a in spec.alpha_mag:
                for th in spec.theta:
                    errs = [worst_err[(w, a, th, lam)] for lam in lams]
                    if min(errs) <= SCALING_ERROR_FLOOR:
                        expected.append(ScalingEntry(w, a, th, None, "floor-limited"))
                        continue
                    slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
                    status = "pass" if slope >= SCALING_SLOPE_THRESHOLD else "fail"
                    expected.append(ScalingEntry(w, a, th, slope, status))
        assert compare_report(result).entries == tuple(expected)
        assert 3 * len(worst_err) == result.max_abs_error.size
        assert len(expected) == 4 * 2 * 2

    def test_vacuum_input_at_tiny_coupling_is_floor_limited(self):
        # at alpha = 0 every closed form is identically zero and the exact
        # deviation is O(lam^2); by lam = 1e-7 it sits below the fit floor
        spec = small_spec(alpha_mag=(0.0,), theta=(0.0,), lam=(1e-6, 1e-7),
                          mode="compare", t_steps=5, witnesses=("d1",))
        report = compare_report(run_sweep(spec))
        assert report.status_of("d1") == "floor-limited"

