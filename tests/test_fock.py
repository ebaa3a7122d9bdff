import numpy as np
import pytest

from anharmonic.fock import (
    EIGENVALUE_RESIDUAL_TOL,
    MAX_DIM,
    FockVector,
    ModelParams,
    TruncationError,
    coherent_state,
    default_dim,
    expectation,
    factorial_moment,
    make_ladder_ops,
    number_state,
)


def random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return FockVector(amps / np.linalg.norm(amps))


class TestLadderOps:
    def test_dim2_annihilation_matrix(self):
        a, adag, n = make_ladder_ops(2)
        assert np.array_equal(a, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(adag, a.T)

    def test_dim3_number_spectrum(self):
        _, _, n = make_ladder_ops(3)
        assert np.array_equal(n, np.diag([0.0, 1.0, 2.0]))

    def test_number_equals_adag_a(self):
        a, adag, n = make_ladder_ops(17)
        assert np.allclose(adag @ a, n, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 16, 64])
    def test_commutator_block_identity(self, dim):
        # [a, a^dag] = I on the leading block; the (D-1, D-1) entry is -(D-1).
        # Both products are diagonal by band structure, so every off-diagonal
        # entry is an exact zero; the diagonal carries only the rounding of
        # sqrt(n)*sqrt(n), a few ulp of n.
        a, adag, _ = make_ladder_ops(dim)
        comm = a @ adag - adag @ a
        expected = np.eye(dim)
        expected[-1, -1] = -(dim - 1)
        off_diag = comm - np.diag(np.diag(comm))
        assert np.count_nonzero(off_diag) == 0
        assert np.allclose(np.diag(comm), np.diag(expected), rtol=0.0,
                           atol=8 * np.finfo(float).eps * dim)

    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError):
            make_ladder_ops(1)


class TestCoherentState:
    def test_vacuum(self):
        st = coherent_state(0.0, 8)
        assert st.amplitudes[0] == 1.0
        assert np.all(st.amplitudes[1:] == 0.0)

    def test_mean_photon_alpha_one(self):
        st = coherent_state(1.0, 40)
        _, _, n = make_ladder_ops(40)
        assert abs(expectation(st, n).real - 1.0) < 1e-12

    def test_second_factorial_moment_direct_sum_oracle(self):
        # independent oracle: direct sum n(n-1)|c_n|^2 over the built vector
        alpha = 2.0 * np.exp(1j * np.pi / 4)
        st = coherent_state(alpha, 64)
        ns = np.arange(64)
        direct = float(np.sum(ns * (ns - 1) * np.abs(st.amplitudes) ** 2))
        assert abs(direct - 16.0) < 1e-10
        assert abs(factorial_moment(st, 2) - direct) < 1e-13

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5j, 2.0 * np.exp(0.4j), -2.5])
    def test_eigenvalue_residual(self, alpha):
        dim = default_dim(abs(alpha))
        assert abs(alpha) ** 2 <= dim / 4
        st = coherent_state(alpha, dim)
        a, _, _ = make_ladder_ops(dim)
        residual = np.linalg.norm(a @ st.amplitudes - alpha * st.amplitudes)
        assert residual < EIGENVALUE_RESIDUAL_TOL

    def test_normalized(self):
        st = coherent_state(1.7 - 0.3j, default_dim(abs(1.7 - 0.3j)))
        assert abs(st.norm() - 1.0) < 1e-14

    def test_tail_mass_rejection(self):
        with pytest.raises(TruncationError):
            coherent_state(3.0, 15)


class TestExpectation:
    def test_vacuum_photon_number(self):
        _, _, n = make_ladder_ops(12)
        assert expectation(number_state(0, 12), n) == 0.0

    def test_coherent_is_annihilation_eigenstate(self):
        st = coherent_state(1.0, 40)
        a, _, _ = make_ladder_ops(40)
        assert abs(expectation(st, a) - 1.0) < 1e-12

    def test_quadrature_expectation_explicit_sum_oracle(self):
        # <X> for X = (a^dag + a)/sqrt(2) should be sqrt(2) Re(alpha)
        st = coherent_state(1.0, 40)
        a, adag, _ = make_ladder_ops(40)
        x = (a + adag) / np.sqrt(2)
        c = st.amplitudes
        direct = sum(
            np.sqrt(2.0) * np.sqrt(n + 1.0) * (np.conj(c[n]) * c[n + 1]).real
            for n in range(39)
        )
        val = expectation(st, x)
        assert abs(val - np.sqrt(2.0)) < 1e-12
        assert abs(val.real - direct) < 1e-13

    def test_dimension_mismatch(self):
        a, _, _ = make_ladder_ops(8)
        with pytest.raises(ValueError):
            expectation(number_state(0, 12), a)

    def test_hermitian_expectation_is_real(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dim = int(rng.integers(4, 40))
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            herm = m + m.conj().T
            val = expectation(random_state(rng, dim), herm)
            assert abs(val.imag) <= 1e-12 * max(1.0, abs(val.real))


class TestFactorialMoments:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_coherent_poissonian(self, order):
        alpha = 1.3 * np.exp(0.9j)
        st = coherent_state(alpha, default_dim(abs(alpha)))
        assert abs(factorial_moment(st, order) - abs(alpha) ** (2 * order)) < 1e-10

    def test_single_photon_second_moment_vanishes(self):
        assert factorial_moment(number_state(1, 10), 2) == 0.0

    def test_alpha_1p5_third_moment(self):
        st = coherent_state(1.5, default_dim(1.5))
        direct = float(sum(
            n * (n - 1) * (n - 2) * abs(st.amplitudes[n]) ** 2 for n in range(st.dim)
        ))
        assert abs(factorial_moment(st, 3) - 1.5**6) < 1e-9     # 11.390625
        assert abs(factorial_moment(st, 3) - direct) < 1e-12

    def test_first_moment_equals_number_expectation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dim = int(rng.integers(4, 60))
            st = random_state(rng, dim)
            _, _, n = make_ladder_ops(dim)
            assert abs(factorial_moment(st, 1) - expectation(st, n).real) < 1e-13

    def test_order_bounds(self):
        st = number_state(1, 6)
        with pytest.raises(ValueError):
            factorial_moment(st, 0)
        with pytest.raises(TruncationError):
            factorial_moment(st, 6)

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            st = random_state(rng, 24)
            for order in (1, 2, 3, 4):
                assert factorial_moment(st, order) >= 0.0


class TestTypes:
    def test_fock_vector_requires_normalization(self):
        with pytest.raises(ValueError):
            FockVector(np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError):
            FockVector(np.array([np.nan, 0.0], dtype=complex))

    def test_fock_vector_requires_min_dim(self):
        with pytest.raises(ValueError):
            FockVector(np.array([1.0], dtype=complex))

    def test_fock_vector_immutable(self):
        st = number_state(0, 4)
        with pytest.raises(ValueError):
            st.amplitudes[0] = 0.5

    def test_model_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(-1.0, 0.0, 0.0, 40)
        with pytest.raises(ValueError):
            ModelParams(1.0, 0.0, -1e-3, 40)
        with pytest.raises(TruncationError):
            ModelParams(3.0, 0.0, 0.0, 15)

    @pytest.mark.parametrize("field, args", [
        ("alpha_mag", (float("nan"), 0.0, 0.0, 40)),
        ("alpha_mag", (float("inf"), 0.0, 0.0, 40)),
        ("theta", (1.0, float("nan"), 0.0, 40)),
        ("theta", (1.0, float("-inf"), 0.0, 40)),
        ("lam", (1.0, 0.0, float("nan"), 40)),
        ("lam", (1.0, 0.0, float("inf"), 40)),
        ("dim", (1.0, 0.0, 0.0, float("nan"))),
        ("dim", (1.0, 0.0, 0.0, float("inf"))),
    ])
    def test_model_params_rejects_non_finite(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ModelParams(*args)

    def test_dim_ceiling(self):
        # constructing params allocates nothing, so the refusal is cheap to test
        with pytest.raises(TruncationError, match="MAX_DIM"):
            ModelParams(1.0, 0.0, 0.0, MAX_DIM + 1)
        with pytest.raises(TruncationError, match="MAX_DIM"):
            ModelParams.auto(1e4)
        # |alpha| just above 20 (D = 581) stays admissible at the doubled
        # dimension of a convergence check
        assert ModelParams(20.02, 0.0, 0.0, 2 * default_dim(20.02)).dim == 1162

    def test_amplitude_beyond_any_dimension(self):
        # |alpha|^2 overflows the float range, so no floor can be computed
        with pytest.raises(TruncationError, match="no truncation dimension"):
            ModelParams(1e200, 0.0, 0.0, 100)
        with pytest.raises(TruncationError, match="no truncation dimension"):
            default_dim(1e160)

    def test_auto_dim_heuristic(self):
        assert default_dim(1.0) == 29
        assert ModelParams.auto(1.0).dim == 29
        assert ModelParams.auto(0.0).dim == 20

    def test_alpha_property(self):
        p = ModelParams.auto(2.0, np.pi / 2)
        assert abs(p.alpha - 2.0j) < 1e-15
