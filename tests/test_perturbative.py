import numpy as np
import pytest

from anharmonic.criteria import hillery_squeezing, hoa_d_from_moments
from anharmonic.dynamics import (
    MomentSet,
    coherent_inputs,
    coherent_moment_set,
    exact_moment_blocks,
)
from anharmonic.fock import ModelParams, default_dim
from anharmonic.perturbative import (
    ClosedFormInputs,
    _bracket_coefficients,
    delta_y1_squared,
    first_order_delta_y1_squared,
    first_order_hoa_d,
    first_order_moment_blocks,
    first_order_squeezing_f,
    hoa_witness_d,
    hoa_witness_d_special,
    mean_photon_correction,
    mean_photon_number,
    phase_fundamental,
    phase_second_harmonic,
    secular_factor,
    squeezing_witness_f,
    squeezing_witness_f_special,
)

#: The first MomentSet fields, the moments a_1(t)'s kernel computes (a_1 up to
#: four times); the others are nan.
FIRST_ORDER_FIELDS = ("a", "a2", "a4", "ada", "ad2a2")


def inputs(r, th, lam, t):
    return ClosedFormInputs(r, th, lam, t)


# ---------------------------------------------------------------------------
# the independent oracle: numerical d/dlam of exact-evolution witnesses
# ---------------------------------------------------------------------------

def exact_witness(r, th, lam, t, key):
    p = ModelParams(r, th, lam)
    [[row]] = exact_moment_blocks([p], [t], coherent_inputs([p], default_dim(r)))
    m = MomentSet(*row.tolist())
    if key == "N":
        return m.ada.real
    if key == "f":
        return hillery_squeezing(m)
    if key == "dy1":
        return hillery_squeezing(m) + 2.0 * m.ada.real + 1.0
    return hoa_d_from_moments(m, int(key[1]))


def numeric_first_order(r, th, t, key, lam=1e-6):
    """Richardson-extrapolated (X(lam) - X(0)) / lam; error O(lam^2)."""
    x0 = exact_witness(r, th, 0.0, t, key)
    d1 = (exact_witness(r, th, lam, t, key) - x0) / lam
    d2 = (exact_witness(r, th, lam / 2, t, key) - x0) / (lam / 2)
    return 2.0 * d2 - d1


FIRST_ORDER_POINTS = [
    (r, th, t)
    for r in (0.8, 1.4)
    for th in (0.0, 0.7, np.pi / 2)
    for t in (0.5, 2.0, 5.0)
]


class TestFirstOrderFormsAgainstNumericDerivative:
    """Each validated closed form must be the lam-derivative of the oracle."""

    @pytest.mark.parametrize("r,th,t", FIRST_ORDER_POINTS)
    def test_mean_photon(self, r, th, t):
        analytic = mean_photon_correction(inputs(r, th, 1.0, t))
        assert abs(numeric_first_order(r, th, t, "N") - analytic) < 1e-5

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("r,th,t", FIRST_ORDER_POINTS[::3])
    def test_hoa_d(self, order, r, th, t):
        analytic = first_order_hoa_d(order, inputs(r, th, 1.0, t))
        assert abs(numeric_first_order(r, th, t, f"d{order}") - analytic) < 2e-5

    @pytest.mark.parametrize("r,th,t", FIRST_ORDER_POINTS[::3])
    def test_squeezing_f(self, r, th, t):
        analytic = first_order_squeezing_f(inputs(r, th, 1.0, t))
        assert abs(numeric_first_order(r, th, t, "f") - analytic) < 2e-5

    @pytest.mark.parametrize("r,th,t", FIRST_ORDER_POINTS[::4])
    def test_delta_y1(self, r, th, t):
        analytic = first_order_delta_y1_squared(inputs(r, th, 1.0, t)) - (2 * r * r + 1.0)
        assert abs(numeric_first_order(r, th, t, "dy1") - analytic) < 2e-5

    def test_compact_forms_deviate_at_first_order(self):
        # the compact d(2), d(3) and f differ from the true lam-derivative at a
        # generic phase; this deviation is intentional and documented
        r, th, t = 1.4, 0.7, 2.0
        for key, fn in (
            ("d2", lambda ci: hoa_witness_d(2, ci)),
            ("d3", lambda ci: hoa_witness_d(3, ci)),
            ("f", squeezing_witness_f),
        ):
            gap = abs(numeric_first_order(r, th, t, key) - fn(inputs(r, th, 1.0, t)))
            assert gap > 1e-2, f"compact {key} unexpectedly matches the first-order coefficient"


class TestScalarExamples:
    def test_mean_photon_free_limit(self):
        assert mean_photon_number(inputs(1.3, 0.4, 0.0, 2.0)) == 1.3**2

    @pytest.mark.parametrize("th", [0.0, 0.3, np.pi / 4, np.pi / 2])
    def test_mean_photon_full_period(self, th):
        # sin(pi_fl) is ~1e-16, suppressed far below one ulp of 1.0
        assert mean_photon_number(inputs(1.0, th, 0.01, np.pi)) == 1.0

    def test_mean_photon_quarter_period_cancellation(self):
        assert mean_photon_number(inputs(1.0, np.pi / 4, 0.01, np.pi / 2)) == 1.0

    def test_delta_y1_free_and_initial(self):
        assert delta_y1_squared(inputs(1.3, 0.4, 0.0, 2.0)) == 2 * 1.3**2 + 1.0
        assert delta_y1_squared(inputs(1.3, 0.4, 0.01, 0.0)) == 2 * 1.3**2 + 1.0

    def test_f_free_limit(self):
        assert squeezing_witness_f(inputs(1.3, 0.4, 0.0, 2.0)) == 0.0

    def test_f_at_half_pi_phase_quarter_period(self):
        val = squeezing_witness_f(inputs(1.0, np.pi / 2, 0.01, np.pi / 2))
        assert abs(val - (-0.15)) < 1e-15

    def test_f_special_matches_same_point(self):
        val = squeezing_witness_f_special(inputs(1.0, 0.0, 0.01, np.pi / 2))
        assert abs(val - (-0.15)) < 1e-15

    def test_d1_real_input_bunching_value(self):
        # theta = 0, r = 1, lam = 0.01, t = pi/2: 0.0075 * [2*3*1 + 0] = 0.045
        val = hoa_witness_d(1, inputs(1.0, 0.0, 0.01, np.pi / 2))
        assert abs(val - 0.045) < 1e-15

    def test_d3_quarter_point_value(self):
        val = hoa_witness_d(3, inputs(1.0, np.pi / 4, 0.01, np.pi / 4))
        assert abs(val - (-0.0075)) < 1e-15


class TestStructuralProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_lambda_linearity_exact(self, seed):
        rng = np.random.default_rng(seed)
        r, th, lam, t = rng.uniform(0.1, 2.0), rng.uniform(0, 7), rng.uniform(1e-5, 1e-2), rng.uniform(0, 12)
        one, two = inputs(r, th, lam, t), inputs(r, th, 2 * lam, t)
        assert squeezing_witness_f(two) == 2.0 * squeezing_witness_f(one)
        assert squeezing_witness_f_special(two) == 2.0 * squeezing_witness_f_special(one)
        assert first_order_squeezing_f(two) == 2.0 * first_order_squeezing_f(one)
        assert mean_photon_correction(two) == 2.0 * mean_photon_correction(one)
        for order in (1, 2, 3):
            assert hoa_witness_d(order, two) == 2.0 * hoa_witness_d(order, one)
            assert first_order_hoa_d(order, two) == 2.0 * first_order_hoa_d(order, one)

    @pytest.mark.parametrize("seed", range(4))
    def test_f_identity_with_variance_and_photon_number(self, seed):
        rng = np.random.default_rng(100 + seed)
        ci = inputs(rng.uniform(0.1, 2.0), rng.uniform(0, 7), rng.uniform(0, 1e-2), rng.uniform(0, 12))
        lhs = squeezing_witness_f(ci)
        rhs = delta_y1_squared(ci) - 2.0 * mean_photon_number(ci) - 1.0
        assert abs(lhs - rhs) < 1e-12
        lhs_fo = first_order_squeezing_f(ci)
        rhs_fo = first_order_delta_y1_squared(ci) - 2.0 * mean_photon_number(ci) - 1.0
        assert abs(lhs_fo - rhs_fo) < 1e-12

    @pytest.mark.parametrize("theta", [np.pi / 8, np.pi / 4, np.pi / 3, 0.3, 1.1])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_coherence_locus_is_exact_zero(self, theta, order):
        t = 2.0 * theta
        assert phase_fundamental(theta, t) == 0.0
        assert phase_second_harmonic(theta, t) == 0.0
        assert hoa_witness_d(order, inputs(1.7, theta, 0.01, t)) == 0.0
        assert first_order_hoa_d(order, inputs(1.7, theta, 0.01, t)) == 0.0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_real_input_always_bunched(self, order):
        for th in (0.0, np.pi):
            for t in np.linspace(0.0, 4 * np.pi, 101):
                assert hoa_witness_d(order, inputs(1.2, th, 0.01, t)) >= 0.0
                assert first_order_hoa_d(order, inputs(1.2, th, 0.01, t)) >= 0.0

    def test_f_special_never_positive(self):
        for r in (0.5, 1.0, 2.0):
            for t in np.linspace(0.0, 4 * np.pi, 101):
                assert squeezing_witness_f_special(inputs(r, 0.0, 0.01, t)) <= 0.0

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_special_forms_match_general_at_half_pi(self, order, r):
        th = np.pi / 2
        for t in np.linspace(0.0, 2 * np.pi, 500):
            general = hoa_witness_d(order, inputs(r, th, 0.01, t))
            special = hoa_witness_d_special(order, inputs(r, 0.0, 0.01, t))
            assert abs(general - special) <= 1e-15

    def test_secular_factor_unwrapped(self):
        # linear growth must survive large t; 100 revolutions of 2pi
        t = 200.0 * np.pi + 0.25
        assert secular_factor(0.3, t) == t * np.sin(1.2)

    def test_order_validation(self):
        ci = inputs(1.0, 0.0, 0.01, 1.0)
        with pytest.raises(ValueError, match="first-order"):
            hoa_witness_d(4, ci)
        with pytest.raises(ValueError, match="first-order"):
            first_order_hoa_d(0, ci)
        with pytest.raises(ValueError):
            hoa_witness_d_special(1, ci)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ClosedFormInputs(-1.0, 0.0, 0.01, 1.0)
        with pytest.raises(ValueError):
            ClosedFormInputs(1.0, 0.0, -0.01, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("position, field", enumerate(("alpha_mag", "theta", "lam", "t")))
    def test_rejects_non_finite(self, position, field, bad):
        args = [1.0, 0.0, 0.01, 1.0]
        args[position] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ClosedFormInputs(*args)


class TestFirstOrderMatrix:
    @staticmethod
    def assert_coherent(block, p):
        """Every row of ``block`` is the coherent input's moments, to rounding, in
        the columns a_1(t)'s kernel computes."""
        ref = np.array([getattr(coherent_moment_set(p.alpha), f) for f in FIRST_ORDER_FIELDS])
        computed = block[:, :len(FIRST_ORDER_FIELDS)]
        assert np.all(np.abs(computed - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
        assert np.all(np.isnan(block[:, len(FIRST_ORDER_FIELDS):]))

    def test_free_limit_is_annihilation(self):
        ts = np.linspace(-4 * np.pi, 4 * np.pi, 9)
        coefs = _bracket_coefficients(0.0, ts)
        assert np.all(coefs[0] == 1.0) and all(np.all(c == 0.0) for c in coefs[1:])
        p = ModelParams(1.3, 0.7, 0.0)
        [block] = first_order_moment_blocks([p], ts)
        self.assert_coherent(block, p)

    def test_initial_time_is_annihilation(self):
        assert _bracket_coefficients(1e-3, 0.0) == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        p = ModelParams(1.3, 0.7, 1e-3)
        [block] = first_order_moment_blocks([p], [0.0])
        self.assert_coherent(block, p)

    def test_matrix_photon_number_matches_closed_form(self):
        # residual is the dropped O(lam^2) cross term of the operator product
        p = ModelParams(1.0, 0.0, 1e-4)
        [[row]] = first_order_moment_blocks([p], [0.5])
        m = MomentSet(*row.tolist())
        cf = mean_photon_number(inputs(1.0, 0.0, 1e-4, 0.5))
        assert abs(m.ada.real - cf) < 1e-7

    def test_matrix_residual_shrinks_quadratically(self):
        errs = {}
        for lam in (1e-3, 1e-5):
            p = ModelParams(1.3, 0.4, lam)
            ts = np.linspace(0.3, 2 * np.pi, 9)
            [fo] = first_order_moment_blocks([p], ts)
            [ex] = exact_moment_blocks([p], ts, coherent_inputs([p], default_dim(1.3)))
            m, ex = MomentSet(*fo.T), MomentSet(*ex.T)
            errs[lam] = np.max(np.abs(m.ada.real - ex.ada.real))
        # two decades of lam: a first-order-exact path gains ~four decades
        assert errs[1e-3] / errs[1e-5] > 2e3

    def test_matrix_moments_at_lam_zero_are_coherent(self):
        p = ModelParams(1.2, 0.8, 0.0)
        [[row]] = first_order_moment_blocks([p], [3.0])
        m = MomentSet(*row.tolist())
        ref = coherent_moment_set(p.alpha)
        for f in FIRST_ORDER_FIELDS:
            assert abs(getattr(m, f) - getattr(ref, f)) < 1e-10 * max(1.0, abs(getattr(ref, f)))

    def test_d1_from_matrix_matches_compact_closed_form(self):
        # d(1) is first-order exact, so the matrix path reproduces its bracket
        # structure up to an O(lam^2) residual that shrinks x100 per decade
        residuals = {}
        for lam in (1e-3, 1e-4):
            p = ModelParams(1.0, 0.6, lam)
            [[row]] = first_order_moment_blocks([p], [1.1])
            m = MomentSet(*row.tolist())
            d1_matrix = m.ad2a2.real - m.ada.real**2
            residuals[lam] = abs(d1_matrix - hoa_witness_d(1, inputs(1.0, 0.6, lam, 1.1)))
        assert residuals[1e-4] < 1e-6
        assert residuals[1e-3] / residuals[1e-4] > 50.0


class TestExactVsClosedFormBand:
    def test_photon_number_band_and_shrink(self):
        errs = {}
        for lam in (1e-4, 1e-5):
            worst = 0.0
            for th in (0.0, 0.7):
                p = ModelParams(1.0, th, lam)
                [[row]] = exact_moment_blocks([p], [1.0], coherent_inputs([p], 29))
                ex = MomentSet(*row.tolist()).ada.real
                cf = mean_photon_number(inputs(1.0, th, lam, 1.0))
                worst = max(worst, abs(ex - cf))
            errs[lam] = worst
        assert errs[1e-4] < 5e-7
        assert errs[1e-5] < errs[1e-4] / 50.0
