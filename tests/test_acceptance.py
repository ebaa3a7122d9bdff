"""Acceptance suite: one test (or test group) per exit criterion, each printing
a PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Three checks in criterion 1 are expected to fail and are left failing on
purpose: the compact forms for f, d(2) and d(3) are not the exact
first-order coefficients of the implemented Hamiltonian, so their deviation
from the exact-evolution oracle cannot scale quadratically in lam.  The
companion diagnostic (criterion 1-FO) shows the oracle itself is sound: the
validated ``first_order_*`` forms pass the same slope test on the same grid.
See README, section "Known red acceptance checks".
"""

import time

import numpy as np
import pytest

from anharmonic.criteria import hillery_squeezing, hoa_d_from_moments
from anharmonic.dynamics import (MomentSet, coherent_inputs, evolve_blocks, exact_moment_blocks,
                                 hamiltonian)
from anharmonic.fock import (
    EIGENVALUE_RESIDUAL_TOL,
    FockVector,
    ModelParams,
    coherent_state,
    default_dim,
    expectation,
    factorial_moment,
    make_ladder_ops,
)
from anharmonic.perturbative import (
    ClosedFormInputs,
    first_order_delta_y1_squared,
    first_order_hoa_d,
    first_order_squeezing_f,
    hoa_witness_d,
    hoa_witness_d_special,
    mean_photon_number,
    squeezing_witness_f,
)
from anharmonic.sweep import SweepSpec, run_sweep

SLOPE_THRESHOLD = 1.8
ALPHAS = (0.5, 1.0, 2.0)
THETAS = (0.0, np.pi / 4, np.pi / 3, np.pi / 2)
LAMBDAS = (1e-3, 1e-4, 1e-5)
T_GRID_64 = np.linspace(0.0, 2 * np.pi, 64)

FORMS = ("N", "f", "d1", "d2", "d3")

COMPACT_CF = {
    "N": mean_photon_number,
    "f": squeezing_witness_f,
    "d1": lambda ci: hoa_witness_d(1, ci),
    "d2": lambda ci: hoa_witness_d(2, ci),
    "d3": lambda ci: hoa_witness_d(3, ci),
}
FIRST_ORDER_CF = {
    "N": mean_photon_number,
    "f": first_order_squeezing_f,
    "d1": lambda ci: first_order_hoa_d(1, ci),
    "d2": lambda ci: first_order_hoa_d(2, ci),
    "d3": lambda ci: first_order_hoa_d(3, ci),
}


def exact_values(moments):
    return {
        "N": moments.ada.real,
        "f": hillery_squeezing(moments),
        "d1": hoa_d_from_moments(moments, 1),
        "d2": hoa_d_from_moments(moments, 2),
        "d3": hoa_d_from_moments(moments, 3),
    }


@pytest.fixture(scope="module")
def scaling_table():
    """Max-over-t |closed form - exact| per (family, form, alpha, theta, lam),
    then fitted log-log slopes.  One pass over the full criterion-1 grid."""
    start = time.monotonic()
    errs = {}
    for alpha in ALPHAS:
        dim = default_dim(alpha)
        for th in THETAS:
            for lam in LAMBDAS:
                params = ModelParams(alpha, th, lam)
                worst = {(fam, form): 0.0 for fam in ("compact", "first_order") for form in FORMS}
                [block] = exact_moment_blocks([params], T_GRID_64, coherent_inputs([params], dim))
                for t, row in zip(T_GRID_64.tolist(), block.tolist()):
                    ex = exact_values(MomentSet(*row))
                    ci = ClosedFormInputs(alpha, th, lam, t)
                    for form in FORMS:
                        key_s = ("compact", form)
                        key_f = ("first_order", form)
                        worst[key_s] = max(worst[key_s], abs(COMPACT_CF[form](ci) - ex[form]))
                        worst[key_f] = max(worst[key_f], abs(FIRST_ORDER_CF[form](ci) - ex[form]))
                for key, value in worst.items():
                    errs.setdefault(key + (alpha, th), []).append(value)

    slopes = {}
    log_lam = np.log(LAMBDAS)
    for key, err_by_lam in errs.items():
        slopes[key] = float(np.polyfit(log_lam, np.log(err_by_lam), 1)[0])
    elapsed = time.monotonic() - start
    return slopes, elapsed


def _slopes(slopes, family, form):
    return {
        (a, th): s for (fam, f, a, th), s in slopes.items() if fam == family and f == form
    }


def _report_scaling(label, table, ok):
    worst = min(table.values())
    print(f"ACCEPTANCE 1 ({label}): {'PASS' if ok else 'FAIL'} "
          f"(worst slope {worst:.3f}, threshold {SLOPE_THRESHOLD})")


class TestCriterion1OracleEquivalence:
    """lam-scaling of |closed form - exact| across lam = 1e-3, 1e-4, 1e-5."""

    def test_mean_photon_number_scaling(self, scaling_table):
        table = _slopes(scaling_table[0], "compact", "N")
        ok = all(s >= SLOPE_THRESHOLD for s in table.values())
        _report_scaling("mean photon number", table, ok)
        assert ok, f"slopes below {SLOPE_THRESHOLD}: {table}"

    def test_d1_scaling(self, scaling_table):
        table = _slopes(scaling_table[0], "compact", "d1")
        ok = all(s >= SLOPE_THRESHOLD for s in table.values())
        _report_scaling("antibunching witness d(1)", table, ok)
        assert ok, f"slopes below {SLOPE_THRESHOLD}: {table}"

    def test_f_scaling(self, scaling_table):
        table = _slopes(scaling_table[0], "compact", "f")
        ok = all(s >= SLOPE_THRESHOLD for s in table.values())
        _report_scaling("squeezing witness f, compact form", table, ok)
        assert ok, (
            "the compact f is not the first-order coefficient of this "
            "model (its sin^2(2t) term enters with the opposite sign), so its "
            f"oracle error scales as lam^1: slopes {table}. "
            "first_order_squeezing_f passes this check; see README, "
            "'Known red acceptance checks'."
        )

    def test_d2_scaling(self, scaling_table):
        table = _slopes(scaling_table[0], "compact", "d2")
        ok = all(s >= SLOPE_THRESHOLD for s in table.values())
        _report_scaling("antibunching witness d(2), compact form", table, ok)
        assert ok, (
            "the compact d(2) is not the first-order coefficient of "
            f"this model, so its oracle error scales as lam^1: slopes {table}. "
            "first_order_hoa_d(2, ...) passes this check; see README, "
            "'Known red acceptance checks'."
        )

    def test_d3_scaling(self, scaling_table):
        table = _slopes(scaling_table[0], "compact", "d3")
        ok = all(s >= SLOPE_THRESHOLD for s in table.values())
        _report_scaling("antibunching witness d(3), compact form", table, ok)
        assert ok, (
            "the compact d(3) is not the first-order coefficient of "
            f"this model, so its oracle error scales as lam^1: slopes {table}. "
            "first_order_hoa_d(3, ...) passes this check; see README, "
            "'Known red acceptance checks'."
        )

    def test_first_order_forms_scaling_diagnostic(self, scaling_table):
        # companion check: the validated first-order forms all reach slope 2
        # on the identical grid, demonstrating the oracle machinery is sound
        ok = True
        for form in FORMS:
            table = _slopes(scaling_table[0], "first_order", form)
            ok = ok and all(s >= SLOPE_THRESHOLD for s in table.values())
        fo_table = {
            (form, a, th): s
            for (fam, form, a, th), s in scaling_table[0].items()
            if fam == "first_order"
        }
        _report_scaling("first-order variants of every witness (diagnostic)", fo_table, ok)
        assert ok, f"slopes below {SLOPE_THRESHOLD}: {fo_table}"

    def test_runtime_target(self, scaling_table):
        elapsed = scaling_table[1]
        print(f"ACCEPTANCE 1 (runtime): {'PASS' if elapsed < 120 else 'FAIL'} "
              f"({elapsed:.1f}s for the full grid, target < 120s)")
        assert elapsed < 120.0

    def test_delta_y1_first_order_scaling(self):
        # (Delta Y1)^2 rides on f and N; spot-check its validated variant
        worst_slopes = []
        for alpha, th in ((1.0, np.pi / 3), (2.0, 0.0)):
            dim = default_dim(alpha)
            errs = []
            for lam in LAMBDAS:
                params = ModelParams(alpha, th, lam)
                worst = 0.0
                ts = T_GRID_64[::4]
                [block] = exact_moment_blocks([params], ts, coherent_inputs([params], dim))
                for t, row in zip(ts.tolist(), block.tolist()):
                    m = MomentSet(*row)
                    exact_dy1 = hillery_squeezing(m) + 2.0 * m.ada.real + 1.0
                    cf = first_order_delta_y1_squared(ClosedFormInputs(alpha, th, lam, t))
                    worst = max(worst, abs(cf - exact_dy1))
                errs.append(worst)
            worst_slopes.append(float(np.polyfit(np.log(LAMBDAS), np.log(errs), 1)[0]))
        assert min(worst_slopes) >= SLOPE_THRESHOLD


class TestCriterion2SqueezingSignTheorem:
    def test_f_never_positive_at_half_pi_phase(self):
        grid = np.linspace(0.0, 4 * np.pi, 1000)
        worst = -np.inf
        for alpha in (0.5, 1.0, 1.5, 2.0):
            for t in grid:
                worst = max(worst, squeezing_witness_f(
                    ClosedFormInputs(alpha, np.pi / 2, 1e-2, float(t))))
        ok = worst <= 1e-15
        print(f"ACCEPTANCE 2 (f <= 0 at theta=pi/2): {'PASS' if ok else 'FAIL'} "
              f"(max f = {worst:.3e})")
        assert ok


class TestCriterion3BunchingAtRealInput:
    def test_d_never_negative_at_theta_zero(self):
        grid = np.linspace(0.0, 4 * np.pi, 1000)
        worst = np.inf
        for alpha in (0.5, 1.0, 1.5, 2.0):
            for order in (1, 2, 3):
                for t in grid:
                    worst = min(worst, hoa_witness_d(
                        order, ClosedFormInputs(alpha, 0.0, 1e-2, float(t))))
        ok = worst >= -1e-15
        print(f"ACCEPTANCE 3 (d(l) >= 0 at theta=0): {'PASS' if ok else 'FAIL'} "
              f"(min d = {worst:.3e})")
        assert ok


class TestCriterion4CoherenceLocus:
    def test_d_vanishes_at_t_equal_two_theta(self):
        worst = 0.0
        for theta in (np.pi / 8, np.pi / 4, np.pi / 3):
            for alpha in (1.0, 2.0):
                for order in (1, 2, 3):
                    worst = max(worst, abs(hoa_witness_d(
                        order, ClosedFormInputs(alpha, theta, 1e-2, 2.0 * theta))))
        ok = worst <= 1e-15
        print(f"ACCEPTANCE 4 (d(l) = 0 at t = 2*theta): {'PASS' if ok else 'FAIL'} "
              f"(max |d| = {worst:.3e})")
        assert ok


class TestCriterion5NonSimultaneity:
    def test_half_pi_phase_diagram(self):
        grid = np.linspace(0.0, 2 * np.pi, 200)
        d2 = [hoa_witness_d(2, ClosedFormInputs(1.0, np.pi / 2, 1e-2, float(t))) for t in grid]
        d3 = [hoa_witness_d(3, ClosedFormInputs(1.0, np.pi / 2, 1e-2, float(t))) for t in grid]
        f = [squeezing_witness_f(ClosedFormInputs(1.0, np.pi / 2, 1e-2, float(t))) for t in grid]
        ok = (
            min(d2) < -1e-6
            and max(d2) > 1e-6
            and min(d3) >= -1e-15
            and max(f) <= 0.0
        )
        print(f"ACCEPTANCE 5 (theta=pi/2: d(2) oscillates, d(3) >= 0, f <= 0): "
              f"{'PASS' if ok else 'FAIL'} "
              f"(d2 range [{min(d2):.3e}, {max(d2):.3e}], "
              f"min d3 = {min(d3):.3e}, max f = {max(f):.3e})")
        assert ok


class TestCriterion6SpecializationIdentities:
    def test_special_forms_match_general_at_half_pi(self):
        grid = np.linspace(0.0, 2 * np.pi, 1000)
        worst = 0.0
        for alpha in (1.0, 2.0):
            for order in (2, 3):
                for t in grid:
                    general = hoa_witness_d(
                        order, ClosedFormInputs(alpha, np.pi / 2, 1e-2, float(t)))
                    special = hoa_witness_d_special(
                        order, ClosedFormInputs(alpha, 0.0, 1e-2, float(t)))
                    worst = max(worst, abs(general - special))
        ok = worst <= 1e-15
        print(f"ACCEPTANCE 6 (theta=pi/2 specializations): {'PASS' if ok else 'FAIL'} "
              f"(max |general - special| = {worst:.3e})")
        assert ok


class TestCriterion7StructuralSuite:
    def test_structural_suite(self):
        checks = {}

        # commutator block identity: structural zeros exact, diagonal at ulp level
        dim = 64
        a, adag, _ = make_ladder_ops(dim)
        comm = a @ adag - adag @ a
        expected = np.eye(dim)
        expected[-1, -1] = -(dim - 1)
        off = comm - np.diag(np.diag(comm))
        checks["commutator block"] = (
            np.count_nonzero(off) == 0
            and np.allclose(np.diag(comm), np.diag(expected), rtol=0, atol=8 * np.finfo(float).eps * dim)
        )

        # coherent-state eigenvalue residual
        worst_res = 0.0
        for alpha in (0.5, 2.0 * np.exp(1j * np.pi / 4), 2.5):
            d = default_dim(abs(alpha))
            st = coherent_state(alpha, d)
            am, _, _ = make_ladder_ops(d)
            worst_res = max(worst_res, float(np.linalg.norm(
                am @ st.amplitudes - alpha * st.amplitudes)))
        checks[f"eigenvalue residual {worst_res:.2e} < {EIGENVALUE_RESIDUAL_TOL}"] = (
            worst_res < EIGENVALUE_RESIDUAL_TOL
        )

        # unitarity and energy conservation over two revivals
        params, dim = ModelParams(1.5, 0.7, 1e-2), default_dim(1.5)
        h = hamiltonian(params.lam, dim)
        [[psi0]] = evolve_blocks([params], [0.0], coherent_inputs([params], dim))
        e0 = expectation(FockVector(psi0), h).real
        worst_norm = 0.0
        worst_energy = 0.0
        [block] = evolve_blocks([params], np.linspace(0.0, 4 * np.pi, 48),
                                coherent_inputs([params], dim))
        for psi in block:
            st = FockVector(psi)
            worst_norm = max(worst_norm, abs(st.norm() - 1.0))
            worst_energy = max(worst_energy, abs(expectation(st, h).real - e0) / abs(e0))
        checks[f"unitarity drift {worst_norm:.2e} < 1e-10"] = worst_norm < 1e-10
        checks[f"energy drift {worst_energy:.2e} < 1e-9"] = worst_energy < 1e-9

        # truncation-doubling drift on recorded moments
        worst_drift = 0.0
        fields = ("a", "a2", "a4", "ada", "ad2a2", "ad3a3", "ad4a4")
        for alpha_mag in (1.0, 2.0):
            params, dim = ModelParams(alpha_mag, np.pi / 4, 1e-2), default_dim(alpha_mag)
            ts = [0.0, 2 * np.pi, 4 * np.pi]
            [block1] = exact_moment_blocks([params], ts, coherent_inputs([params], dim))
            [block2] = exact_moment_blocks([params], ts, coherent_inputs([params], 2 * dim))
            for row1, row2 in zip(block1.tolist(), block2.tolist()):
                m1, m2 = MomentSet(*row1), MomentSet(*row2)
                worst_drift = max(worst_drift, max(
                    abs(getattr(m1, f) - getattr(m2, f)) / max(1.0, abs(getattr(m2, f)))
                    for f in fields))
        checks[f"truncation doubling drift {worst_drift:.2e} < 1e-9"] = worst_drift < 1e-9

        # coherent factorial moments
        worst_fm = 0.0
        for alpha in (0.5, 1.3 * np.exp(0.9j), 2.0):
            st = coherent_state(alpha, default_dim(abs(alpha)))
            for order in (1, 2, 3, 4):
                worst_fm = max(worst_fm, abs(
                    factorial_moment(st, order) - abs(alpha) ** (2 * order)))
        checks[f"coherent factorial moments dev {worst_fm:.2e} < 1e-10"] = worst_fm < 1e-10

        ok = all(checks.values())
        print(f"ACCEPTANCE 7 (structural suite): {'PASS' if ok else 'FAIL'}")
        for label, passed in checks.items():
            print(f"    - {label}: {'ok' if passed else 'FAILED'}")
        assert ok, {k: v for k, v in checks.items() if not v}


class TestCriterion8Determinism:
    def test_byte_identical_csv(self, tmp_path):
        outs = []
        for name in ("first.csv", "second.csv"):
            path = tmp_path / name
            spec = SweepSpec(
                alpha_mag=(0.5, 1.0),
                theta=(0.0, np.pi / 3),
                lam=(1e-3, 1e-4),
                t_start=0.0,
                t_end=2 * np.pi,
                t_steps=9,
                dim=None,
                mode="compare",
                witnesses=("f", "d1", "d2", "d3", "N", "quadrature", "hillery"),
                output_path=str(path),
            )
            run_sweep(spec)
            outs.append(path.read_bytes())
        ok = outs[0] == outs[1]
        print(f"ACCEPTANCE 8 (byte-identical CSV): {'PASS' if ok else 'FAIL'} "
              f"({len(outs[0])} bytes)")
        assert ok
