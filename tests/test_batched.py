"""Properties of the per-slice batched evaluation of the two matrix paths.

``exact_moment_blocks`` and ``first_order_moment_blocks`` evaluate a whole
time grid at once, here for one-slice groups.  The properties are drawn at
random over the safe region |alpha| <= 4, lam <= 1e-2, |t| <= 4 pi.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharmonic.dynamics import (
    MONOMIALS,
    apply_banded,
    evolve_blocks,
    exact_moment_blocks,
    ladder_moment_block,
)
from anharmonic.fock import ModelParams, coherent_state, make_ladder_ops
from anharmonic.perturbative import (
    _bracket_bands,
    _bracket_coefficients,
    first_order_moment_blocks,
)

DIAGONAL = [j for j, (m, n) in enumerate(MONOMIALS) if m == n]

alphas = st.floats(0.0, 4.0)
thetas = st.floats(0.0, 2 * np.pi)
lams = st.floats(0.0, 1e-2)
times = st.floats(-4 * np.pi, 4 * np.pi)
grids = st.lists(times, min_size=1, max_size=9).map(np.array)
PROPERTY = settings(max_examples=40, deadline=None)


def scale(alpha_mag):
    """max(1, |alpha|^2)^((m + n) / 2): the size of each monomial <a^dag^m a^n>."""
    return np.array([max(1.0, alpha_mag**2) ** ((m + n) / 2) for m, n in MONOMIALS])


def dense_words(dim):
    """The words of a_1(t) as dense truncated products of the ladder matrices."""
    a, adag, _ = make_ladder_ops(dim)
    return (a, adag @ (a @ a), adag @ (adag @ a), adag @ (adag @ adag), adag, a @ (a @ a))


def dense_first_order_moments(params, t, words):
    """Moments of a_1(t), summed as a dense matrix over ``words``, over the coherent input."""
    b = sum(c * w for c, w in zip(_bracket_coefficients(params.lam, t), words))
    kets = [coherent_state(params.alpha, params.dim).amplitudes]
    for _ in range(4):
        kets.append(b @ kets[-1])
    return np.array([np.vdot(kets[m], kets[n]) for m, n in MONOMIALS])


@PROPERTY
@given(alphas, thetas, lams, grids)
def test_banded_first_order_matches_dense_matrix(a, th, lam, ts):
    params = ModelParams.auto(a, th, lam)
    [block] = first_order_moment_blocks([params], ts)
    words = dense_words(params.dim)
    for row, t in zip(block, ts):
        dense = dense_first_order_moments(params, t, words)
        assert np.all(np.abs(row - dense) <= 1e-12 * scale(a))


@PROPERTY
@given(alphas, thetas, lams, grids)
def test_batch_rows_are_bit_identical_to_single_times(a, th, lam, ts):
    params = ModelParams.auto(a, th, lam)
    [fo] = first_order_moment_blocks([params], ts)
    [ex] = exact_moment_blocks([params], ts)
    for j, t in enumerate(ts):
        [[fo_t]] = first_order_moment_blocks([params], [t])
        [[ex_t]] = exact_moment_blocks([params], [t])
        assert np.array_equal(fo[j], fo_t)
        assert np.array_equal(ex[j], ex_t)


@PROPERTY
@given(alphas, thetas, lams, grids)
def test_norm_is_conserved(a, th, lam, ts):
    [psi] = evolve_blocks([ModelParams.auto(a, th, lam)], ts)
    assert np.all(np.abs(np.linalg.norm(psi, axis=1) - 1.0) < 1e-12)


@PROPERTY
@given(alphas, thetas, lams, grids)
def test_even_level_population_is_conserved(a, th, lam, ts):
    params = ModelParams.auto(a, th, lam)
    [psi] = evolve_blocks([params], ts)
    even = np.abs(psi[:, ::2]) ** 2
    start = np.sum(np.abs(coherent_state(params.alpha, params.dim).amplitudes[::2]) ** 2)
    assert np.all(np.abs(even.sum(axis=1) - start) <= 1e-12)


@PROPERTY
@given(alphas, thetas, lams, grids)
def test_diagonal_moments_are_real(a, th, lam, ts):
    params = ModelParams.auto(a, th, lam)
    [ex] = exact_moment_blocks([params], ts)
    [fo] = first_order_moment_blocks([params], ts)
    for block in (ex, fo):
        assert np.all(np.abs(block[:, DIAGONAL].imag) <= 1e-12 * scale(a)[DIAGONAL])


#: Offset k of the one nonzero diagonal (entries [i, i + k]) of each dense word.
WORD_OFFSETS = (1, 1, -1, -3, -1, 3)


@pytest.mark.parametrize("dim", [2, 3, 4, 53, 202, 582])
def test_bracket_bands_are_the_dense_words_bit_for_bit(dim):
    i, j = np.indices((dim, dim))
    for (k, diag), word, offset in zip(_bracket_bands(dim), dense_words(dim), WORD_OFFSETS):
        assert k == offset
        ref = np.diagonal(word, k)
        assert diag.dtype == ref.dtype and diag.shape == ref.shape
        # compared as integers, so the sign bit of every zero counts too
        assert np.array_equal(diag.view(np.int64), ref.view(np.int64))
        assert np.all(word[j - i != k] == 0.0)


def test_bracket_bands_hold_no_dense_matrix():
    for _, diag in _bracket_bands(31):
        assert diag.base is None


def test_lowering_band_is_the_annihilation_matrix():
    rng = np.random.default_rng(5)
    dim = 17
    kets = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    a = make_ladder_ops(dim)[0]
    shifted = apply_banded(((1, np.sqrt(np.arange(1.0, dim))),), kets)
    assert np.array_equal(shifted, (a @ kets.T).T)


@pytest.mark.parametrize("dim", [11, 54, 582])
@pytest.mark.parametrize("broadcast", [False, True], ids=["block", "broadcast"])
def test_ladder_moment_block_is_vdot(dim, broadcast):
    # compared as integers, so the sign bit of every zero counts too; the
    # broadcast case is the first-order path's one input repeated per row
    rng = np.random.default_rng(6)
    if broadcast:
        psi = np.broadcast_to(rng.normal(size=dim) + 1j * rng.normal(size=dim), (4, dim))
    else:
        psi = rng.normal(size=(4, dim)) + 1j * rng.normal(size=(4, dim))
    bands = [(k, rng.normal(size=(4, dim - abs(k))) + 1j * rng.normal(size=(4, dim - abs(k))))
             for k in (-3, 1, 3)]
    kets = [psi]
    for _ in range(4):
        kets.append(apply_banded(bands, kets[-1]))
    block = ladder_moment_block(bands, psi)
    vdots = np.array([[np.vdot(kets[m][i], kets[n][i]) for m, n in MONOMIALS] for i in range(4)])
    assert np.array_equal(block.view(np.uint64), vdots.view(np.uint64))


def test_time_grid_beyond_horizon_is_refused():
    params = ModelParams.auto(1.0, 0.0, 1e-3)
    with pytest.raises(ValueError, match="horizon"):
        list(exact_moment_blocks([params], [0.0, 5 * np.pi]))
    [block] = exact_moment_blocks([params], [0.0, 5 * np.pi], horizon=5 * np.pi)
    assert block.shape == (2, 10)


def test_horizon_is_refused_before_any_arithmetic_on_the_grid():
    # t = 1e308 would overflow the phase table, which warnings turn into errors
    params = ModelParams.auto(1.0, 0.0, 1e-3)
    with pytest.raises(ValueError, match="horizon"):
        list(exact_moment_blocks([params], [0.0, 1e308]))
