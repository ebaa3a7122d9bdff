import numpy as np
import pytest

from anharmonic.criteria import (
    BOUNDARY,
    CLASSICAL,
    DEFAULT_BOUNDARY_TOL,
    NONCLASSICAL,
    VacuumDenominatorError,
    classify,
    hillery_squeezing,
    hoa_d_from_moments,
    lee_R,
    quadrature_squeezing,
)
from anharmonic.dynamics import (
    MONOMIALS,
    MomentSet,
    _lower,
    coherent_inputs,
    coherent_moment_set,
    exact_moment_blocks,
)
from anharmonic.fock import ModelParams, default_dim, number_state

ALL_WITNESSES = {
    "quadrature": quadrature_squeezing,
    "d1": lambda m: hoa_d_from_moments(m, 1),
    "hillery": hillery_squeezing,
}


def number_state_moments(n, dim=24):
    """Moments of |n> via the ladder kernel the oracle uses, with no phase (t = 0)."""
    # a's band for one row: the padded zero at its end is cut
    band = np.sqrt(np.arange(1.0, dim)).astype(complex)
    kets = [number_state(n, dim).amplitudes[None, :]]
    for _ in range(4):
        kets.append(_lower(band, kets[-1]))
    return MomentSet(*[complex(np.vdot(kets[p], kets[q])) for p, q in MONOMIALS])


class TestClassification:
    def test_bands(self):
        assert classify(-1e-3) == NONCLASSICAL
        assert classify(1e-3) == CLASSICAL
        assert classify(0.0) == BOUNDARY
        assert classify(DEFAULT_BOUNDARY_TOL) == BOUNDARY
        assert classify(-DEFAULT_BOUNDARY_TOL) == BOUNDARY
        assert classify(-1.0001 * DEFAULT_BOUNDARY_TOL) == NONCLASSICAL

    def test_report_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = float(rng.normal(scale=1e-9))
            label = classify(v, DEFAULT_BOUNDARY_TOL)
            assert label == classify(v)
            assert (label == NONCLASSICAL) == (v < -DEFAULT_BOUNDARY_TOL)
            assert (label == BOUNDARY) == (abs(v) <= DEFAULT_BOUNDARY_TOL)


class TestCoherentNullity:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0j, 1.5 * np.exp(0.8j), -2.0])
    def test_all_witnesses_boundary_on_analytic_moments(self, alpha):
        m = coherent_moment_set(alpha)
        for name, witness in ALL_WITNESSES.items():
            value = witness(m)
            assert classify(value) == BOUNDARY, (name, value)
        assert classify(hoa_d_from_moments(m, 3)) == BOUNDARY

    def test_boundary_on_numerically_built_coherent_state(self):
        p = ModelParams(1.5, 0.9, 0.0)
        [[row]] = exact_moment_blocks([p], [0.0], coherent_inputs([p], default_dim(1.5)))
        m = MomentSet(*row.tolist())
        for witness in ALL_WITNESSES.values():
            assert classify(witness(m)) == BOUNDARY

    @pytest.mark.parametrize("l,m_idx", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
    def test_lee_R_vanishes_on_coherent(self, l, m_idx):
        m = coherent_moment_set(1.3 * np.exp(0.4j))
        assert abs(lee_R(m, l, m_idx)) < 1e-12


class TestQuadratureSqueezing:
    def test_vacuum_boundary(self):
        assert quadrature_squeezing(coherent_moment_set(0.0)) == 0.0

    def test_exact_oracle_sign_established(self):
        # weak quartic interaction at alpha = 1, theta = pi/2, t = 1:
        # the quadrature variance grows, no ordinary squeezing at this point
        p = ModelParams(1.0, np.pi / 2, 1e-3)
        [[row]] = exact_moment_blocks([p], [1.0], coherent_inputs([p], 29))
        value = quadrature_squeezing(MomentSet(*row.tolist()))
        assert value > 1e-4
        assert classify(value) == CLASSICAL


class TestAntibunching:
    def test_number_state_two(self):
        m = number_state_moments(2)
        assert abs(m.ada.real - 2.0) < 1e-13
        assert abs(m.ad2a2.real - 2.0) < 1e-13
        value = hoa_d_from_moments(m, 1)
        assert abs(value - (-2.0)) < 1e-12
        assert classify(value) == NONCLASSICAL

    def test_sign_agrees_with_compact_closed_form(self):
        # (|alpha|=1, theta=pi/4, lam=1e-3, t=pi/4): the closed form gives
        # -3 lam < 0, and the exact witness shares the sign
        p = ModelParams(1.0, np.pi / 4, 1e-3)
        [[row]] = exact_moment_blocks([p], [np.pi / 4], coherent_inputs([p], 29))
        value = hoa_d_from_moments(MomentSet(*row.tolist()), 1)
        assert value < -1e-4
        assert classify(value) == NONCLASSICAL


class TestHillerySqueezing:
    def test_exact_oracle_matches_half_pi_closed_form_value(self):
        # theta = pi/2, lam = 1e-3, |alpha| = 1, t = pi/2: first order gives
        # -(3 lam / 4) * 20 = -0.015; exact deviates only at O(lam^2)
        p = ModelParams(1.0, np.pi / 2, 1e-3)
        [[row]] = exact_moment_blocks([p], [np.pi / 2], coherent_inputs([p], 29))
        value = hillery_squeezing(MomentSet(*row.tolist()))
        assert abs(value - (-0.015)) < 5e-4
        assert classify(value) == NONCLASSICAL


class TestLeeR:
    def test_number_state_three(self):
        m = number_state_moments(3)
        assert abs(lee_R(m, 1, 1) - (6.0 / 9.0 - 1.0)) < 1e-13

    def test_ordering_validation(self):
        m = coherent_moment_set(1.0)
        with pytest.raises(ValueError):
            lee_R(m, 1, 2)
        with pytest.raises(ValueError):
            lee_R(m, 2, 0)

    def test_vacuum_denominator_signalled(self):
        with pytest.raises(VacuumDenominatorError):
            lee_R(number_state_moments(0), 1, 1)

    def test_columns_give_the_row_values(self):
        group = [ModelParams(1.3, 0.4, 1e-2)]
        [block] = exact_moment_blocks(group, np.linspace(0.0, 1.0, 5),
                                      coherent_inputs(group, default_dim(1.3)))
        values = lee_R(MomentSet(*block.T), 2, 1)
        rows = [lee_R(MomentSet(*row), 2, 1) for row in block.tolist()]
        assert type(values) is np.ndarray and all(isinstance(v, float) for v in rows)
        assert values.tolist() == rows
        with pytest.raises(VacuumDenominatorError):
            lee_R(MomentSet(*np.vstack([block[:1], np.zeros_like(block[:1])]).T), 1, 1)

    def test_order_above_the_moment_set_refused(self):
        # a MomentSet carries factorial moments up to order 4
        with pytest.raises(ValueError, match="up to order 5"):
            lee_R(coherent_moment_set(1.0), 4, 1)


class TestHoaD:
    def test_number_state_two_first_order(self):
        assert abs(hoa_d_from_moments(number_state_moments(2), 1) - (-2.0)) < 1e-12

    def test_exact_oracle_third_order_value(self):
        # (|alpha|=1, theta=pi/4, lam=1e-4, t=pi/4): the validated first-order
        # coefficient is -42 * (3 lam / 4) = -3.15e-3; exact sits within the
        # O(lam^2) band of that value.  (The compact form quotes
        # -7.5e-5 at this point -- a different quantity by design.)
        from anharmonic.perturbative import ClosedFormInputs, first_order_hoa_d, hoa_witness_d

        ci = ClosedFormInputs(1.0, np.pi / 4, 1e-4, np.pi / 4)
        assert abs(first_order_hoa_d(3, ci) - (-3.15e-3)) < 1e-10
        assert abs(hoa_witness_d(3, ci) - (-7.5e-5)) < 1e-12

        p = ModelParams(1.0, np.pi / 4, 1e-4)
        [[row]] = exact_moment_blocks([p], [np.pi / 4], coherent_inputs([p], 29))
        value = hoa_d_from_moments(MomentSet(*row.tolist()), 3)
        assert abs(value - first_order_hoa_d(3, ci)) < 5e-5
        assert classify(value) == NONCLASSICAL

    def test_order_validation(self):
        m = coherent_moment_set(1.0)
        with pytest.raises(ValueError):
            hoa_d_from_moments(m, 0)
        with pytest.raises(ValueError):
            hoa_d_from_moments(m, 4)  # moment set carries factorials up to 4 only
