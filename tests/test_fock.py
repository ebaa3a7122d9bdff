import dataclasses

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anharmonic import dynamics
from anharmonic.fock import (
    EDGE_LEVELS,
    EIGENVALUE_RESIDUAL_TOL,
    MAX_DIM,
    MIN_DIM,
    FockVector,
    ModelParams,
    TruncationError,
    check_dim,
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

    def test_a_short_basis_is_left_to_the_edge_check(self):
        # 15 levels capture 0.96 of |alpha| = 3: the state is normalized there, and
        # only the oracle's edge check refuses it
        st = coherent_state(3.0, 15)
        assert abs(st.norm() - 1.0) < 1e-14
        assert np.sum(np.abs(st.amplitudes[-EDGE_LEVELS:]) ** 2) > 1e-3

    @pytest.mark.parametrize("alpha, dim", [
        (38.61, default_dim(38.61)),  # c_0 underflows, at any dim
        (39.0, MAX_DIM),
        (30.0, 10),  # 10 levels capture about 1e-370 of |alpha|^2 = 900
        (1e160, 100),  # |alpha|^2 is inf, and |alpha| ** 2 would raise OverflowError
        (1e200j, 100),
    ])
    def test_refuses_only_a_captured_mass_that_is_not_a_normal_float(self, alpha, dim):
        with pytest.raises(TruncationError, match=r"^the coherent state of \|alpha\|=\S+ captures "
                                                  r"a mass 0\.000e\+00 in dim=\d+ levels, not a "
                                                  r"normal float: the float64 recurrence cannot hold it$"):
            coherent_state(alpha, dim)

    @pytest.mark.parametrize("alpha_mag", [37.9, 38.2, 38.5, 38.6])
    def test_the_recurrence_holds_a_subnormal_c0(self, alpha_mag):
        # c_0 = exp(-|alpha|^2 / 2) is subnormal here (4.9e-324 at 38.6), yet the
        # normalized amplitudes match a 40-digit log-space reference
        dim = default_dim(alpha_mag)
        for theta in (0.0, 1.1, np.pi / 2):
            alpha = alpha_mag * complex(np.cos(theta), np.sin(theta))
            c = coherent_state(alpha, dim).amplitudes
            with mp.workdps(40):
                log_alpha, x = mp.log(mp.mpc(alpha.real, alpha.imag)), mp.mpf(abs(alpha)) ** 2
                terms = [mp.exp(n * log_alpha - x / 2 - mp.loggamma(n + 1) / 2) for n in range(dim)]
                norm = mp.sqrt(mp.fsum(abs(t) ** 2 for t in terms))
                ref = np.array([complex(t / norm) for t in terms])
            bound = 1e-15 * np.abs(ref).max()
            if theta in (0.0, np.pi / 2):
                assert np.abs(c - ref).max() <= bound, theta
            # for a complex alpha, c_0's rounding leaves a global phase (0.015 rad
            # at 38.6, theta = 1.1), which no moment sees
            peak = np.argmax(np.abs(ref))
            phase = c[peak] / ref[peak] / abs(c[peak] / ref[peak])
            assert np.abs(c - phase * ref).max() <= bound, theta


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
            ModelParams(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, 0.0, -1e-3)
        assert [f.name for f in dataclasses.fields(ModelParams)] == ["alpha_mag", "theta", "lam"]
        assert not hasattr(ModelParams, "auto")

    def test_check_dim_validation(self):
        with pytest.raises(ValueError, match="^dim must be >= 2"):
            check_dim(1)
        # no floor: whether 15 levels hold |alpha| = 3 is the edge check's to say
        assert check_dim(15) == 15
        assert check_dim(29.0) == 29
        assert type(check_dim(29.0)) is int

    @pytest.mark.parametrize("field, args", [
        ("alpha_mag", (float("nan"), 0.0, 0.0)),
        ("alpha_mag", (float("inf"), 0.0, 0.0)),
        ("theta", (1.0, float("nan"), 0.0)),
        ("theta", (1.0, float("-inf"), 0.0)),
        ("lam", (1.0, 0.0, float("nan"))),
        ("lam", (1.0, 0.0, float("inf"))),
    ])
    def test_model_params_rejects_non_finite(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ModelParams(*args)

    @pytest.mark.parametrize("dim", [float("nan"), float("inf"), "29", None,
                                     # int() would truncate it to 29
                                     29.99])
    def test_check_dim_rejects_a_non_integer(self, dim):
        with pytest.raises(ValueError, match="^dim must be a finite integer"):
            check_dim(dim)

    def test_dim_ceiling(self):
        # checking a dim allocates nothing, so the refusal is cheap to test
        with pytest.raises(TruncationError, match="MAX_DIM"):
            check_dim(MAX_DIM + 1)
        with pytest.raises(TruncationError, match="MAX_DIM"):
            check_dim(default_dim(1e4))
        # |alpha| just above 20 (D = 581) stays admissible at doubled dimension
        assert check_dim(2 * default_dim(20.02)) == 1162

    def test_amplitude_beyond_any_dimension(self):
        # |alpha|^2 overflows the float range, so no heuristic dim can be computed
        with pytest.raises(TruncationError, match="no truncation dimension"):
            default_dim(1e160)
        # a dim is checked alone, and the coherent state refuses in one line
        assert check_dim(100) == 100
        with pytest.raises(TruncationError, match=r"^the coherent state of \|alpha\|=1e\+200 "):
            coherent_state(1e200, 100)
        # the params themselves hold no dim, so nothing refuses them
        assert ModelParams(1e200, 0.0, 0.0).alpha_mag == 1e200

    def test_auto_dim_heuristic(self):
        assert default_dim(1.0) == 29
        assert default_dim(0.0) == 20

    def test_alpha_property(self):
        p = ModelParams(2.0, np.pi / 2, 0.0)
        assert abs(p.alpha - 2.0j) < 1e-15


def input_passes(alpha_mag, theta, dim):
    """Whether the oracle's edge check accepts the coherent input of |alpha| e^{i theta}
    in ``dim`` levels (``dynamics.coherent_inputs``, which builds and judges every
    input the kernels evolve)."""
    try:
        dynamics.coherent_inputs([ModelParams(alpha_mag, theta, 0.0)], dim)
    except TruncationError as exc:
        assert ": the input state holds " in str(exc), exc
        return False
    return True


def smallest_passing_dim(alpha_mag, theta):
    """The smallest dim whose coherent input passes, found down from the default."""
    dim = default_dim(alpha_mag)
    assert input_passes(alpha_mag, theta, dim)
    while dim > MIN_DIM and input_passes(alpha_mag, theta, dim - 1):
        dim -= 1
    return dim


def poisson_mass_beyond(alpha_mag, dim):
    """The exact Poisson mass P(n >= dim) of |alpha> outside ``dim`` levels."""
    with mp.workdps(30):
        return float(mp.gammainc(dim, 0, mp.mpf(alpha_mag) ** 2, regularized=True))


#: |alpha| up to 38.6, below which c_0 = exp(-|alpha|^2 / 2) does not underflow.
AMPLITUDES = st.floats(0.0, 38.6)
PHASES = st.floats(-np.pi, np.pi)


class TestOneTruncationRule:
    """The edge check on the input implies the rules it replaced: the ``default_dim``
    floor of the dim and the Poisson tail bound of the coherent state."""

    @settings(max_examples=60, deadline=None)
    @given(AMPLITUDES, PHASES, st.integers(0, 64))
    @example(0.0, 0.0, 0)
    @example(37.9, np.pi / 2, 0)  # the old tail check refused it at every dim
    @example(38.6, 0.0, 0)
    def test_every_dim_at_or_above_the_default_holds_the_input(self, alpha_mag, theta, offset):
        # so no dim that the old floor admitted is refused at the input
        assert input_passes(alpha_mag, theta, min(MAX_DIM, default_dim(alpha_mag) + offset))

    @settings(max_examples=40, deadline=None)
    @given(AMPLITUDES, PHASES, st.integers(0, 16))
    @example(0.0, 0.0, 0)
    @example(3.0, np.pi / 2, 0)
    @example(38.6, 1.1, 0)
    def test_a_dim_that_holds_the_input_leaves_no_poisson_mass_beyond_it(self, alpha_mag, theta,
                                                                          offset):
        smallest = smallest_passing_dim(alpha_mag, theta)
        # the old floor sat at least 6 levels above the smallest passing dim
        assert smallest <= default_dim(alpha_mag) - 6
        assert input_passes(alpha_mag, theta, smallest + offset)
        assert poisson_mass_beyond(alpha_mag, smallest + offset) <= 1e-15
