import gc
import sys
import weakref

import numpy as np
import pytest

from anharmonic.dynamics import (
    DEFAULT_TIME_HORIZON,
    _eigensystem,
    _quartic,
    _spectral_initial,
    coherent_moment_set,
    evolve_block,
    exact_moment_set,
    hamiltonian,
    interaction_moment_block,
    moment_sets,
)
from anharmonic.fock import FockVector, ModelParams, coherent_state, expectation, make_ladder_ops

MOMENT_FIELDS = ("a", "a2", "a4", "ada", "ada2", "ad2a2", "ada3", "ad2a4", "ad3a3", "ad4a4")


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
    @pytest.mark.parametrize("dim", [2, 3, 53, 202, 582])
    def test_hamiltonian_is_the_uncached_formula(self, dim):
        for lam in (0.0, -0.0, 1e-4, 0.3):
            h = hamiltonian(lam, dim)
            assert np.array_equal(h.view(np.int64), dense_hamiltonian(lam, dim).view(np.int64))

    def test_one_build_per_dim(self):
        _quartic.cache_clear()
        hamiltonian(1e-4, 37)
        hamiltonian(0.3, 37)
        info = _quartic.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_cached_operator_is_read_only(self):
        q = _quartic(9)
        with pytest.raises(ValueError):
            q[0, 0] = 1.0
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


class TestEvolveBlock:
    def test_identity_at_t_zero(self):
        p = ModelParams.auto(1.2, 0.7, 1e-2)
        psi = evolve_block(p, [0.0])[0]
        ref = coherent_state(p.alpha, p.dim)
        assert np.allclose(psi, ref.amplitudes, atol=1e-13)

    def test_free_evolution_conserves_occupations(self):
        p = ModelParams.auto(1.5, 0.3, 0.0)
        ref = np.abs(coherent_state(p.alpha, p.dim).amplitudes)
        for psi in evolve_block(p, [0.5, 2.0, 11.0]):
            assert np.allclose(np.abs(psi), ref, atol=1e-13)

    @pytest.mark.parametrize("alpha_mag,lam", [(1.0, 1e-2), (2.0, 1e-3)])
    def test_unitarity_over_horizon(self, alpha_mag, lam):
        p = ModelParams.auto(alpha_mag, 0.4, lam)
        psi = evolve_block(p, np.linspace(0.0, 4 * np.pi, 40))
        assert np.all(np.abs(np.linalg.norm(psi, axis=1) - 1.0) < 1e-10)

    def test_energy_conservation(self):
        p = ModelParams.auto(1.5, np.pi / 3, 1e-2)
        h = hamiltonian(p.lam, p.dim)
        e0 = expectation(FockVector(evolve_block(p, [0.0])[0]), h).real
        for psi in evolve_block(p, np.linspace(0.1, 4 * np.pi, 17)):
            et = expectation(FockVector(psi), h).real
            assert abs(et - e0) < 1e-9 * abs(e0)

    def test_horizon_guard(self):
        p = ModelParams.auto(1.0, 0.0, 1e-3)
        with pytest.raises(ValueError):
            evolve_block(p, [5 * np.pi])
        evolve_block(p, [5 * np.pi], horizon=6 * np.pi)
        assert DEFAULT_TIME_HORIZON == pytest.approx(4 * np.pi)

    def test_deterministic_across_calls(self):
        p = ModelParams.auto(1.0, 0.2, 1e-3)
        s1 = evolve_block(p, [1.3])[0]
        s2 = evolve_block(p, [1.3])[0]
        assert np.array_equal(s1, s2)


class TestSpectralCache:
    def test_evicted_eigensystems_are_freed(self):
        # the input's eigenbasis coefficients are cached separately from the
        # eigensystem and must not keep an evicted eigensystem alive
        _eigensystem.cache_clear()
        _spectral_initial.cache_clear()
        refs = []
        for j in range(100):
            p = ModelParams(1.0, 0.3, 1e-4 * (j + 1), 40)
            evolve_block(p, [0.5])
            refs.append(weakref.ref(_eigensystem(p.lam, p.dim)[1]))
        gc.collect()
        assert sum(r() is not None for r in refs) <= _eigensystem.cache_info().maxsize == 64


class TestInteractionMoments:
    def test_initial_condition_matches_coherent_moments(self):
        p = ModelParams.auto(1.4, 0.9, 1e-2)
        m = exact_moment_set(p, 0.0)
        ref = coherent_moment_set(p.alpha)
        for f in MOMENT_FIELDS:
            assert abs(getattr(m, f) - getattr(ref, f)) < 1e-11 * max(1.0, abs(getattr(ref, f)))

    def test_free_case_is_static_in_the_rotating_frame(self):
        p = ModelParams.auto(1.4, 0.9, 0.0)
        ref = coherent_moment_set(p.alpha)
        for t in (0.7, 3.1, 9.4):
            m = exact_moment_set(p, t)
            for f in MOMENT_FIELDS:
                assert abs(getattr(m, f) - getattr(ref, f)) < 1e-11 * max(1.0, abs(getattr(ref, f)))

    def test_diagonal_moments_real_nonnegative(self):
        p = ModelParams.auto(1.8, 1.1, 1e-2)
        for t in (0.0, 1.0, 5.5):
            m = exact_moment_set(p, t)
            for f in ("ada", "ad2a2", "ad3a3", "ad4a4"):
                v = getattr(m, f)
                assert abs(v.imag) < 1e-10
                assert v.real > -1e-10

    def test_picture_consistency_for_photon_number(self):
        # N commutes with the free phase, so the rotating-frame <a^dag a>
        # must reproduce the plain Schroedinger expectation
        p = ModelParams.auto(1.3, 0.5, 1e-2)
        _, _, n = make_ladder_ops(p.dim)
        ts = [0.4, 2.2, 6.0]
        psi = evolve_block(p, ts)
        for row, m in zip(psi, moment_sets(interaction_moment_block(psi, ts))):
            assert m.ada.imag == 0.0 or abs(m.ada.imag) < 1e-13
            assert abs(m.ada.real - expectation(FockVector(row), n).real) < 1e-13

    def test_truncation_doubling_leaves_moments_unchanged(self):
        for alpha_mag in (1.0, 2.0):
            base = ModelParams.auto(alpha_mag, np.pi / 4, 1e-2)
            doubled = ModelParams(alpha_mag, np.pi / 4, 1e-2, 2 * base.dim)
            for t in (0.0, np.pi, 4 * np.pi):
                m1 = exact_moment_set(base, t)
                m2 = exact_moment_set(doubled, t)
                for f in MOMENT_FIELDS:
                    v1, v2 = getattr(m1, f), getattr(m2, f)
                    assert abs(v1 - v2) < 1e-9 * max(1.0, abs(v2))

    def test_moment_set_factorial_moments(self):
        m = coherent_moment_set(1.5)
        fm = m.factorial_moments()
        assert np.allclose(fm, [1.5**2, 1.5**4, 1.5**6, 1.5**8], rtol=1e-14)
