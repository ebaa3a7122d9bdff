import gc
import importlib
import pkgutil
import re
import sys
import tracemalloc

import numpy as np
import pytest

import anharmonic
from anharmonic.dynamics import (
    PHASE_TOLERANCE,
    MomentSet,
    _quartic,
    coherent_inputs,
    coherent_moment_set,
    evolve_blocks,
    exact_moment_blocks,
    hamiltonian,
)
from anharmonic.fock import (FockVector, ModelParams, TruncationError, coherent_state, default_dim,
                             expectation, make_ladder_ops)

MOMENT_FIELDS = ("a", "a2", "a4", "ada", "ad2a2", "ad3a3", "ad4a4")


def auto(alpha_mag, theta=0.0, lam=0.0):
    """Params and the default dim of their |alpha|."""
    return ModelParams(alpha_mag, theta, lam), default_dim(alpha_mag)


class TestHamiltonian:
    def test_free_oscillator_is_diagonal(self):
        h = hamiltonian(0.0, 12)
        assert np.array_equal(h, np.diag(np.arange(12) + 0.5))

    def test_ground_state_diagonal_entry_small_truncation(self):
        # <0|(a^dag + a)^4|0> = 3, already exact at dim = 3
        h = hamiltonian(0.01, 3)
        assert abs(h[0, 0] - 0.501875) < 1e-15

    @pytest.mark.parametrize("lam,dim", [(0.0, 8), (0.01, 40), (0.3, 64)])
    def test_exactly_symmetric(self, lam, dim):
        h = hamiltonian(lam, dim)
        assert np.array_equal(h, h.T)


def dense_hamiltonian(lam, dim):
    """H built from scratch at every call, as two dense products."""
    a, adag, _ = make_ladder_ops(dim)
    x = a + adag
    x2 = x @ x
    h = np.diag(np.arange(dim) + 0.5) + (lam / 16.0) * (x2 @ x2)
    return 0.5 * (h + h.T)


class TestQuarticCache:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 53, 202, 582])
    def test_hamiltonian_is_the_uncached_formula(self, dim):
        # dims 2 to 6 cut the band at every width; -0.0 pins the sign of the zeros
        for lam in (0.0, -0.0, 1e-4, 5e-2, 0.3):
            h = hamiltonian(lam, dim)
            assert np.array_equal(h.view(np.int64), dense_hamiltonian(lam, dim).view(np.int64))

    def test_one_build_per_dim(self):
        _quartic.cache_clear()
        hamiltonian(1e-4, 37)
        hamiltonian(0.3, 37)
        info = _quartic.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_cached_operator_is_read_only(self):
        band = _quartic(9)
        with pytest.raises(ValueError):
            band[4, 0] = 1.0
        assert np.array_equal(hamiltonian(0.3, 9), dense_hamiltonian(0.3, 9))

    def test_cache_is_bounded(self):
        maxsize = _quartic.cache_info().maxsize
        assert maxsize is not None and maxsize <= 4

    def test_module_cache_scan_empties_it(self):
        _quartic(11)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("anharmonic"):
                continue
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    value.cache_clear()
        assert _quartic.cache_info().currsize == 0


class TestParity:
    """H commutes with parity (-1)^n: it couples only levels of equal parity,
    and (a^dag + a)^4 reaches at most four levels away."""

    @pytest.mark.parametrize("lam,dim", [(0.0, 7), (1e-4, 30), (0.3, 53), (1e-2, 202)])
    def test_off_parity_and_off_band_entries_are_exact_zeros(self, lam, dim):
        h = hamiltonian(lam, dim)
        i, j = np.indices(h.shape)
        off = ((i - j) % 2 == 1) | (np.abs(i - j) > 4)
        assert np.all(h[off] == 0.0)
        assert np.count_nonzero(h[~off]) > 0


class TestEvolveBlocks:
    def test_identity_at_t_zero(self):
        p, dim = auto(1.2, 0.7, 1e-2)
        [[psi]] = evolve_blocks([p], [0.0], coherent_inputs([p], dim))
        ref = coherent_state(p.alpha, dim)
        assert np.allclose(psi, ref.amplitudes, atol=1e-13)

    def test_free_evolution_conserves_occupations(self):
        p, dim = auto(1.5, 0.3, 0.0)
        ref = np.abs(coherent_state(p.alpha, dim).amplitudes)
        [block] = evolve_blocks([p], [0.5, 2.0, 11.0], coherent_inputs([p], dim))
        for psi in block:
            assert np.allclose(np.abs(psi), ref, atol=1e-13)

    @pytest.mark.parametrize("alpha_mag,lam", [(1.0, 1e-2), (2.0, 1e-3)])
    def test_unitarity_over_two_revivals(self, alpha_mag, lam):
        p, dim = auto(alpha_mag, 0.4, lam)
        [psi] = evolve_blocks([p], np.linspace(0.0, 4 * np.pi, 40), coherent_inputs([p], dim))
        assert np.all(np.abs(np.linalg.norm(psi, axis=1) - 1.0) < 1e-10)

    def test_energy_conservation(self):
        p, dim = auto(1.5, np.pi / 3, 1e-2)
        h = hamiltonian(p.lam, dim)
        [[psi0]] = evolve_blocks([p], [0.0], coherent_inputs([p], dim))
        e0 = expectation(FockVector(psi0), h).real
        [block] = evolve_blocks([p], np.linspace(0.1, 4 * np.pi, 17), coherent_inputs([p], dim))
        for psi in block:
            et = expectation(FockVector(psi), h).real
            assert abs(et - e0) < 1e-9 * abs(e0)

    def test_time_bound(self):
        # the longest |t| whose phases w t round by at most PHASE_TOLERANCE
        p, dim = auto(1.0, 0.0, 1e-3)
        longest = PHASE_TOLERANCE / (sys.float_info.epsilon * float(np.linalg.eigvalsh(
            hamiltonian(p.lam, dim))[-1]))
        assert 1.5e4 < longest < 1.6e4  # max(w) = 28.6 at D = 29
        [psi] = evolve_blocks([p], [0.0, -longest * (1 - 1e-6)], coherent_inputs([p], dim))
        assert psi.shape == (2, dim)
        message = (f"{p}: the phases w t at |t| = {longest * (1 + 1e-6)!r} round by "
                   f"eps |t| max(w) = 1.000e-10, above 1e-10; at dim 29 |t| may reach about "
                   f"{longest:.4g}")
        with pytest.raises(TruncationError, match=re.escape(message)):
            list(evolve_blocks([p], [0.0, longest * (1 + 1e-6)], coherent_inputs([p], dim)))

    def test_deterministic_across_calls(self):
        p, dim = auto(1.0, 0.2, 1e-3)
        [s1] = evolve_blocks([p], [1.3], coherent_inputs([p], dim))
        [s2] = evolve_blocks([p], [1.3], coherent_inputs([p], dim))
        assert np.array_equal(s1, s2)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("lam, t, what", [(1e308, 1.0, "H"), (1e306, 1.0, "H")])
def test_overflow_is_refused_naming_the_parameters(lam, t, what):
    message = f"(alpha_mag=0.5, theta=0.25, lam={lam!r}): {what} at dim 25 is not finite"
    with pytest.raises(FloatingPointError, match=re.escape(message)):
        group = [ModelParams(0.5, 0.25, lam)]
        list(evolve_blocks(group, [t], coherent_inputs(group, 25)))


def test_a_grid_whose_state_would_overflow_meets_the_time_bound():
    # from a finite H, the state is a unitary image of the input unless w t
    # overflows, which the time bound refuses first
    message = ("(alpha_mag=0.5, theta=0.25, lam=1e+302): "
               "the phases w t at |t| = 10000000000.0 ")
    with pytest.raises(TruncationError, match=re.escape(message)):
        group = [ModelParams(0.5, 0.25, 1e302)]
        list(evolve_blocks(group, [1e10], coherent_inputs(group, 25)))


class TestRetention:
    def test_evolving_many_lams_keeps_no_eigensystem_alive(self):
        # a group's eigensystem lives only while its slices are evaluated;
        # after a call returns, nothing of the size of a D x D matrix may stay
        # behind (tests/test_groups.py checks the same between a sweep's groups)
        dim = 200
        tracemalloc.start()
        try:
            for j in range(100):
                group = [ModelParams(1.0, 0.3, 1e-4 * (j + 1))]
                [psi] = evolve_blocks(group, [0.5], coherent_inputs(group, dim))
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < dim * dim * 8

    def test_the_quartic_operator_is_the_only_module_level_memo(self):
        modules = [importlib.import_module(f"anharmonic.{m.name}")
                   for m in pkgutil.iter_modules(anharmonic.__path__)]
        memos = [f"{module.__name__}.{attr}" for module in [anharmonic, *modules]
                 for attr, value in vars(module).items()
                 if hasattr(value, "cache_info") or hasattr(value, "cache_clear")]
        assert memos == ["anharmonic.dynamics._quartic"]


def traced(call):
    """(peak, retained) bytes that tracemalloc sees while ``call()`` runs and after it
    returns, in units of one dense D x D float matrix at D = 582."""
    tracemalloc.start()
    try:
        call()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (582 * 582 * 8), retained / (582 * 582 * 8)


class TestMemory:
    """The memo is the band of (a^dag + a)^4 and H is its one dense array."""

    def test_memo_is_the_band(self):
        assert _quartic(582).nbytes <= 9 * 582 * 8

    def test_hamiltonian_allocates_one_dense_array(self):
        _quartic(582)
        peak, _ = traced(lambda: hamiltonian(0.3, 582))
        assert peak <= 1.1  # 2.03 with a dense memo, 1.01 from the band

    def test_cold_group_peak_and_what_it_leaves(self):
        _quartic.cache_clear()
        params = ModelParams(1.0, 0.3, 1e-3)
        peak, retained = traced(
            lambda: list(exact_moment_blocks([params], np.linspace(0.0, np.pi, 16),
                                             coherent_inputs([params], 582))))
        assert peak <= 3.3  # 4.18 with a dense memo, 3.19 from the band
        assert retained <= 0.05  # the band; a dense memo left 1.00


class TestInteractionMoments:
    def test_initial_condition_matches_coherent_moments(self):
        p, dim = auto(1.4, 0.9, 1e-2)
        [block] = exact_moment_blocks([p], [0.0], coherent_inputs([p], dim))
        m = MomentSet(*block.tolist()[0])
        ref = coherent_moment_set(p.alpha)
        for f in MOMENT_FIELDS:
            assert abs(getattr(m, f) - getattr(ref, f)) < 1e-11 * max(1.0, abs(getattr(ref, f)))

    def test_free_case_is_static_in_the_rotating_frame(self):
        p, dim = auto(1.4, 0.9, 0.0)
        ref = coherent_moment_set(p.alpha)
        [block] = exact_moment_blocks([p], [0.7, 3.1, 9.4], coherent_inputs([p], dim))
        for row in block.tolist():
            m = MomentSet(*row)
            for f in MOMENT_FIELDS:
                assert abs(getattr(m, f) - getattr(ref, f)) < 1e-11 * max(1.0, abs(getattr(ref, f)))

    def test_diagonal_moments_real_nonnegative(self):
        p, dim = auto(1.8, 1.1, 1e-2)
        [block] = exact_moment_blocks([p], [0.0, 1.0, 5.5], coherent_inputs([p], dim))
        for row in block.tolist():
            m = MomentSet(*row)
            for f in ("ada", "ad2a2", "ad3a3", "ad4a4"):
                v = getattr(m, f)
                assert abs(v.imag) < 1e-10
                assert v.real > -1e-10

    def test_picture_consistency_for_photon_number(self):
        # N commutes with the free phase, so the rotating-frame <a^dag a>
        # must reproduce the plain Schroedinger expectation
        p, dim = auto(1.3, 0.5, 1e-2)
        _, _, n = make_ladder_ops(dim)
        ts = [0.4, 2.2, 6.0]
        [psi] = evolve_blocks([p], ts, coherent_inputs([p], dim))
        [block] = exact_moment_blocks([p], ts, coherent_inputs([p], dim))
        for row, moments in zip(psi, block.tolist()):
            m = MomentSet(*moments)
            assert m.ada.imag == 0.0 or abs(m.ada.imag) < 1e-13
            assert abs(m.ada.real - expectation(FockVector(row), n).real) < 1e-13

    def test_truncation_doubling_leaves_moments_unchanged(self):
        for alpha_mag in (1.0, 2.0):
            p, dim = auto(alpha_mag, np.pi / 4, 1e-2)
            ts = [0.0, np.pi, 4 * np.pi]
            [block1] = exact_moment_blocks([p], ts, coherent_inputs([p], dim))
            [block2] = exact_moment_blocks([p], ts, coherent_inputs([p], 2 * dim))
            for row1, row2 in zip(block1.tolist(), block2.tolist()):
                m1, m2 = MomentSet(*row1), MomentSet(*row2)
                for f in MOMENT_FIELDS:
                    v1, v2 = getattr(m1, f), getattr(m2, f)
                    assert abs(v1 - v2) < 1e-9 * max(1.0, abs(v2))

    def test_moment_set_factorial_moments(self):
        m = coherent_moment_set(1.5)
        fm = m.factorial_moments()
        assert np.allclose(fm, [1.5**2, 1.5**4, 1.5**6, 1.5**8], rtol=1e-14)
