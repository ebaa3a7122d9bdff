"""Properties of the per-slice batched evaluation of the two matrix paths.

``exact_moment_blocks`` and ``first_order_moment_blocks`` evaluate a whole
time grid at once, here for one-slice groups.  The properties are drawn at
random over |alpha| <= 4, lam <= 1e-2, |t| <= 4 pi.  At the default dim the
population of the top 4 levels there peaks at 6.3e-13 at |alpha| = 2,
1.6e-10 at 3 and 1.8e-8 at 4 (D = 68), measured at theta = 0, lam = 1e-2
over 257 times on [-4 pi, 4 pi], so the exact oracle refuses those slices.
At twice the default dim it peaks at 1.4e-22 (|alpha| = 4), and the
properties of the exact path are drawn there.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharmonic.dynamics import (
    MONOMIALS,
    apply_banded,
    coherent_inputs,
    evolve_blocks,
    exact_moment_blocks,
    ladder_moment_block,
    lay_out_bands,
)
from anharmonic.fock import (ModelParams, TruncationError, coherent_state, default_dim,
                             make_ladder_ops)
from anharmonic.perturbative import (LEVELS, _bracket_coefficients, _displaced_words,
                                     first_order_moment_blocks)

DIAGONAL = [j for j, (m, n) in enumerate(MONOMIALS) if m == n]

alphas = st.floats(0.0, 4.0)
thetas = st.floats(0.0, 2 * np.pi)
lams = st.floats(0.0, 1e-2)
times = st.floats(-4 * np.pi, 4 * np.pi)
grids = st.lists(times, min_size=1, max_size=9).map(np.array)
PROPERTY = settings(max_examples=40, deadline=None)


def doubled(alpha_mag):
    """Twice the default dim, where the exact oracle accepts every draw."""
    return 2 * default_dim(alpha_mag)


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
    kets = [coherent_state(params.alpha, b.shape[0]).amplitudes]
    for _ in range(4):
        kets.append(b @ kets[-1])
    return np.array([np.vdot(kets[m], kets[n]) for m, n in MONOMIALS])


@PROPERTY
@given(alphas, thetas, lams, grids)
def test_banded_first_order_matches_dense_matrix(a, th, lam, ts):
    params = ModelParams(a, th, lam)
    [block] = first_order_moment_blocks([params], ts)
    words = dense_words(default_dim(a))
    for row, t in zip(block, ts):
        dense = dense_first_order_moments(params, t, words)
        assert np.all(np.abs(row - dense) <= 1e-12 * scale(a))


@PROPERTY
@given(alphas, thetas, lams, grids)
def test_batch_rows_are_bit_identical_to_single_times(a, th, lam, ts):
    params = ModelParams(a, th, lam)
    [fo] = first_order_moment_blocks([params], ts)
    [ex] = exact_moment_blocks([params], ts, coherent_inputs([params], doubled(a)))
    for j, t in enumerate(ts):
        [[fo_t]] = first_order_moment_blocks([params], [t])
        [[ex_t]] = exact_moment_blocks([params], [t], coherent_inputs([params], doubled(a)))
        assert np.array_equal(fo[j], fo_t)
        assert np.array_equal(ex[j], ex_t)


@PROPERTY
@given(alphas, thetas, lams, grids)
def test_norm_is_conserved(a, th, lam, ts):
    group = [ModelParams(a, th, lam)]
    [psi] = evolve_blocks(group, ts, coherent_inputs(group, doubled(a)))
    assert np.all(np.abs(np.linalg.norm(psi, axis=1) - 1.0) < 1e-12)


@PROPERTY
@given(alphas, thetas, lams, grids)
def test_even_level_population_is_conserved(a, th, lam, ts):
    params = ModelParams(a, th, lam)
    [psi] = evolve_blocks([params], ts, coherent_inputs([params], doubled(a)))
    even = np.abs(psi[:, ::2]) ** 2
    start = np.sum(np.abs(coherent_state(params.alpha, doubled(a)).amplitudes[::2]) ** 2)
    assert np.all(np.abs(even.sum(axis=1) - start) <= 1e-12)


@PROPERTY
@given(alphas, thetas, lams, grids)
def test_diagonal_moments_are_real(a, th, lam, ts):
    params = ModelParams(a, th, lam)
    [ex] = exact_moment_blocks([params], ts, coherent_inputs([params], doubled(a)))
    [fo] = first_order_moment_blocks([params], ts)
    for block in (ex, fo):
        assert np.all(np.abs(block[:, DIAGONAL].imag) <= 1e-12 * scale(a)[DIAGONAL])


#: (p, q) of each word a^dag^p a^q of a_1(t), in ``_bracket_coefficients`` order.
WORD_POWERS = ((0, 1), (1, 2), (2, 1), (3, 0), (1, 0), (0, 3))


@pytest.mark.parametrize("alpha_mag", [0.0, 1.0, 5.3, 20.2, 37.9, 58.2])
def test_displaced_words_are_blocks_of_the_untruncated_words(alpha_mag):
    alpha = alpha_mag * np.exp(1.1j)
    wide = 3 * LEVELS
    b = make_ladder_ops(wide)[0]
    a = alpha * np.eye(wide) + b
    a_abs = np.abs(alpha) * np.eye(wide) + b
    i, j = np.indices((LEVELS, LEVELS))
    words = _displaced_words(alpha)
    assert [pq for pq, _ in words] == list(WORD_POWERS)
    for (p, q), word in words:
        assert word.shape == (LEVELS, LEVELS)
        ref = np.linalg.matrix_power(a.conj().T, p) @ np.linalg.matrix_power(a, q)
        # every product's terms in magnitude, so that cancellation is allowed for
        scale = np.linalg.matrix_power(a_abs.T, p) @ np.linalg.matrix_power(a_abs, q)
        block = (slice(0, LEVELS),) * 2
        assert np.all(np.abs(word - ref[block]) <= 1e-14 * scale[block])
        assert np.all(word[(j - i < -p) | (j - i > q)] == 0.0)


def falling(n, r):
    """n (n - 1) ... (n - r + 1) elementwise, 0 where n < r."""
    return np.prod([np.maximum(n - s, 0.0) for s in range(r)], axis=0, initial=1.0)


def fock_first_order_block(params, ts, dim):
    """The moments of a_1(t) as the Fock path computes them: each word a^dag^p a^q
    is its one diagonal k = q - p on ``dim`` levels, entry [i, i + k] =
    sqrt(i!/(i - p)! (i + k)!/(i + k - q)!), applied to the coherent input's
    amplitudes."""
    ts = np.asarray(ts, dtype=float)
    bands = []
    for c, (p, q) in zip(_bracket_coefficients(params.lam, ts), WORD_POWERS):
        k = q - p
        rows = np.arange(max(0, -k), dim - max(0, k), dtype=float)
        bands.append((k, c[:, None] * np.sqrt(falling(rows, p) * falling(rows + k, q))))
    psi0 = coherent_state(params.alpha, dim).amplitudes
    return ladder_moment_block(lay_out_bands(bands, ts.size, dim),
                               np.broadcast_to(psi0, (ts.size, dim)))


def displaced_first_order_moments(params, t, levels=24):
    """The moments of a_1(t) from dense ``levels``-level matrices in the displaced
    frame a = alpha + b, applied to b's vacuum.  The words are multiplied in the
    kernel's order, so that only the truncation, not the rounding of another
    association (measured up to 4.4e-14 relative over |alpha| <= 40, lam <= 0.1),
    can differ."""
    b = make_ladder_ops(levels)[0]
    a = params.alpha * np.eye(levels) + b
    ad = a.conj().T
    words = (a, ad @ a @ a, ad @ ad @ a, ad @ ad @ ad, ad, a @ a @ a)
    op = sum(c * w for c, w in zip(_bracket_coefficients(params.lam, t), words))
    kets = [np.eye(levels)[0]]
    for _ in range(4):
        kets.append(op @ kets[-1])
    return np.array([np.vdot(kets[m], kets[n]) for m, n in MONOMIALS])


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 20.0), thetas, lams, grids)
def test_displaced_kernel_matches_the_fock_path_at_doubled_dim(a, th, lam, ts):
    params = ModelParams(a, th, lam)
    [block] = first_order_moment_blocks([params], ts)
    ref = fock_first_order_block(params, ts, doubled(a))
    assert np.all(np.abs(block - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 40.0), thetas, st.floats(0.0, 0.1), grids)
def test_thirteen_levels_are_exact(a, th, lam, ts):
    params = ModelParams(a, th, lam)
    [block] = first_order_moment_blocks([params], ts)
    for row, t in zip(block, ts):
        ref = displaced_first_order_moments(params, t)
        assert np.all(np.abs(row - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


def same_bits(x, y):
    """Equal as integers, so the sign bit of every zero counts too."""
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def rowwise_banded(bands, kets):
    """The operator with diagonals ``(k, diag)`` applied to each row of ``kets``
    alone, by shifted plain slices: the bands in order, added onto +0."""
    rows, dim = kets.shape
    out = np.zeros((rows, dim), dtype=complex)
    for k, diag in bands:
        if abs(k) >= dim:
            continue
        diag = np.broadcast_to(diag, (rows, dim - abs(k)))
        for j in range(rows):
            if k >= 0:
                out[j, :dim - k] += diag[j] * kets[j, k:]
            else:
                out[j, -k:] += diag[j] * kets[j, :dim + k]
    return out


def laid_out_apply(bands, kets):
    """``apply_banded`` of ``bands`` laid out for the (T, dim) block ``kets``."""
    return apply_banded(lay_out_bands(bands, *kets.shape), kets)


def signed_zero_kets(rng, rows, dim):
    """Random complex kets with -0.0 and +-0.0j entries, and an all-zero row
    when there are two or more."""
    kets = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    zeros = rng.random((rows, dim)) < 0.3
    kets[zeros] = rng.choice([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                              complex(0.0, 0.0), complex(1.5, -0.0), complex(-0.0, 2.0)],
                             size=int(zeros.sum()))
    if rows > 1:
        kets[rows // 2] = complex(-0.0, -0.0)
    return kets


def random_bands(rng, rows, dim, kind):
    """The sqrt(n) band of a, or random diagonals at the offsets of a_1(t), real
    or complex, with or without a leading axis of one row per ket, with some
    -0.0 entries."""
    if kind == "lowering":
        return [(1, np.sqrt(np.arange(1.0, dim)))]
    bands = []
    for k in (1, -1, -3, 3):
        shape = (max(dim - abs(k), 0),) if kind.endswith("1d") else (rows, max(dim - abs(k), 0))
        diag = rng.normal(size=shape)
        if kind.startswith("complex"):
            diag = diag + 1j * rng.normal(size=shape)
        diag[rng.random(shape) < 0.2] = -0.0
        bands.append((k, diag))
    return bands


KINDS = ["lowering", "real_1d", "real_2d", "complex_1d", "complex_2d"]


@pytest.mark.parametrize("dim", [2, 3, 4, 11, 54])
@pytest.mark.parametrize("rows", [1, 4, 257])
@pytest.mark.parametrize("kind", KINDS)
def test_laid_out_bands_are_the_rowwise_shifts_bit_for_bit(dim, rows, kind):
    rng = np.random.default_rng([dim, rows, KINDS.index(kind)])
    kets = signed_zero_kets(rng, rows, dim)
    bands = random_bands(rng, rows, dim, kind)
    assert same_bits(laid_out_apply(bands, kets), rowwise_banded(bands, kets))


@pytest.mark.parametrize("dim", [2, 3, 4, 11, 54])
@pytest.mark.parametrize("kind", KINDS)
def test_each_row_is_its_one_row_block(dim, kind):
    rng = np.random.default_rng([dim, KINDS.index(kind), 1])
    kets = signed_zero_kets(rng, 4, dim)
    bands = random_bands(rng, 4, dim, kind)
    block = laid_out_apply(bands, kets)
    moments = ladder_moment_block(lay_out_bands(bands, 4, dim), kets)
    for j in range(4):
        row_bands = [(k, diag if diag.ndim == 1 else diag[j]) for k, diag in bands]
        assert same_bits(block[j], laid_out_apply(row_bands, kets[j:j + 1])[0])
        assert same_bits(moments[j], ladder_moment_block(lay_out_bands(row_bands, 1, dim),
                                                         kets[j:j + 1])[0])


def test_a_repeated_offset_adds_its_diagonal_in_order():
    rng = np.random.default_rng(4)
    d1, d2 = (rng.normal(size=(3, 10)) + 1j * rng.normal(size=(3, 10)) for _ in range(2))
    [(k, merged)] = lay_out_bands([(1, d1), (1, d2)], 3, 11)
    [(_, summed)] = lay_out_bands([(1, d1 + d2)], 3, 11)
    assert k == 1 and same_bits(merged, summed)
    # a complex diagonal after a real one promotes the band, as ``+`` does
    real = rng.normal(size=10)
    [(_, promoted)] = lay_out_bands([(1, real), (1, d1)], 3, 11)
    [(_, summed)] = lay_out_bands([(1, real + d1)], 3, 11)
    assert promoted.dtype == complex and same_bits(promoted, summed)


def test_laid_out_band_pads_each_row_and_drops_an_empty_diagonal():
    diag = np.arange(1.0, 7.0).reshape(2, 3)
    [(k, band)] = lay_out_bands([(-2, diag), (5, np.zeros(0)), (-5, np.zeros(0))], 2, 5)
    assert k == -2
    assert band.tolist() == [1.0, 2.0, 3.0, 0.0, 0.0, 4.0, 5.0, 6.0]


def test_lowering_band_is_the_annihilation_matrix():
    rng = np.random.default_rng(5)
    dim = 17
    kets = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    a = make_ladder_ops(dim)[0]
    shifted = laid_out_apply(((1, np.sqrt(np.arange(1.0, dim))),), kets)
    assert np.array_equal(shifted, (a @ kets.T).T)


@pytest.mark.parametrize("dim", [2, 3, 4, 11, 54, 582])
@pytest.mark.parametrize("rows", [1, 4, 257])
@pytest.mark.parametrize("broadcast", [False, True], ids=["block", "broadcast"])
@pytest.mark.parametrize("kind", ["lowering", "complex_2d"])
def test_ladder_moment_block_is_vdot(dim, rows, broadcast, kind):
    # the broadcast case is the first-order path's one input repeated per row;
    # the expected kets are built row by row, independently of ``apply_banded``
    rng = np.random.default_rng([dim, rows, broadcast, KINDS.index(kind)])
    if broadcast:
        psi = np.broadcast_to(signed_zero_kets(rng, 1, dim)[0], (rows, dim))
    else:
        psi = signed_zero_kets(rng, rows, dim)
    bands = random_bands(rng, rows, dim, kind)
    kets = [psi]
    for _ in range(4):
        kets.append(rowwise_banded(bands, kets[-1]))
    block = ladder_moment_block(lay_out_bands(bands, rows, dim), psi)
    vdots = np.array([[np.vdot(kets[m][i], kets[n][i]) for m, n in MONOMIALS]
                      for i in range(rows)])
    assert same_bits(block, vdots)


def test_time_grid_beyond_the_time_bound_is_refused():
    # at D = 29, max(w) = 28.6, so eps |t| max(w) is 6.4e-6 at t = 1e9
    params = ModelParams(1.0, 0.0, 1e-3)
    with pytest.raises(TruncationError, match=re.escape(
            "at |t| = 1000000000.0 round by eps |t| max(w) = 6.352e-06, above 1e-10")):
        list(exact_moment_blocks([params], [0.0, 1e9], coherent_inputs([params], 29)))
    [block] = exact_moment_blocks([params], [0.0, 1e4], coherent_inputs([params], 29))
    assert block.shape == (2, 7)


@pytest.mark.parametrize("t", [1e308, np.nan])
def test_time_bound_is_checked_before_any_arithmetic_on_the_grid(t):
    # t = 1e308 would overflow the phase table, which warnings turn into errors
    params = ModelParams(1.0, 0.0, 1e-3)
    with pytest.raises(TruncationError, match=re.escape(f"at |t| = {t!r} round by ")):
        list(exact_moment_blocks([params], [0.0, t], coherent_inputs([params], 29)))
