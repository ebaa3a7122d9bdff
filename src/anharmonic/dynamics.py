"""Exact evolution of the quartic anharmonic oscillator in the truncated basis.

The model Hamiltonian for a single unit-frequency mode in a centrosymmetric
third-order nonlinear medium is

    H = (a^dag a + 1/2) + (lam / 16) (a^dag + a)^4,

a real symmetric matrix once truncated.  Because H is time independent, the
evolution exp(-iHt)|alpha> of a time grid is computed from one eigendecomposition
-- no time stepping, no time ordering, exact to machine precision in the truncated
space.  The truncation cuts the x^4 couplings of the top 4 levels, so a state
that reaches them, its coherent input or at any time of any slice, is refused
(``fock.EDGE_TOLERANCE``) before its block is used: the oracle's one truncation
rule.  So is a grid long enough that the rounding of its phases w t,
eps |t| max(w), passes ``PHASE_TOLERANCE``.  ``coherent_inputs`` checks a dim
(``fock.check_dim``) and builds and judges the inputs once; the kernels evolve
its rows, in as many levels as a row has.  Slices that share lam (a sweep's
theta slices at one |alpha|) form a group, which builds H, its ``eigh`` and the
exp(-iwt) table once and drops them when its last slice is done; each slice
projects its own input.  Only the band of the lam-independent (a^dag + a)^4, its
nine diagonals, is kept between calls, for the latest dim, and H is written from
it into one zeroed dim x dim array.

Moments are reported in the interaction frame that removes the free rotation:
a normally ordered monomial a^dag^m a^n evaluated in the evolved state picks
up the phase e^{i(n-m)t}.  Diagonal moments (m = n) are frame independent,
so photon statistics need no phase bookkeeping at all.

A whole time grid is evaluated in one pass: ``evolve_blocks`` yields the
(T, dim) block of states of each slice of a group and ``exact_moment_blocks``
its (T, 7) block of moments, with a applied as a sqrt(n)-weighted shift, so
the work per grid is O(dim^2 T) for the evolution and O(dim T) for the
moments.  A single slice is the group ``[params]``.

A banded operator is laid out once per group (``lay_out_bands``) over the
C-ordered (T, dim) ket block read as one flat row, with zeros where a
diagonal leaves the basis, so ``apply_banded`` makes one contiguous pass per
diagonal over the whole block; each row keeps the bits of applying its ket
alone.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .fock import (EDGE_LEVELS, EDGE_TOLERANCE, TruncationError, check_dim, check_normalized,
                   coherent_state, default_dim, require_finite)

#: Most eps |t| max(w) a group's time grid may reach, where max(w) = ||H||_2 is
#: the top eigenvalue of the positive definite H.  ``eigh`` rounds every w by
#: about eps ||H||, so the phases w t drift by about eps |t| ||H||, and with them
#: the moments on their natural scale.  Against a 40-digit mpmath evolution
#: (``mp.eigsy`` on the same x2 @ x2), the error grew linearly in t and the worst
#: |delta <a^dag^m a^n>| stayed below 0.5 eps |t| ||H|| (|alpha|^2 + 1)^((m+n)/2)
#: (at most 0.42 of it) at alpha=1, lam=1e-3, D=29, ||H||=28.6 (t to 1e10);
#: alpha=0.5, lam=0.05, D=40, ||H||=89.4 (to 1e10); alpha=3, lam=1e-3, D=53,
#: ||H||=53.0 (to 1e7); alpha=1, lam=0.05, D=100, ||H||=497 (to 1e8), whose
#: populated w reach only about 54, so ||H|| and not the populated spread sets the
#: scale; and alpha=10, lam=1e-3, D=200, ||H||=229 (to 1e6).  D=581 is out of
#: reach (``eigsy`` took 376 s at D=200).  So within the bound the moments hold to
#: 5e-11 of their natural scale.  The canonical grids reach 6.2e-13 (D=581, t=pi),
#: and the test grids at most 4.2e-11 (lam=pi at doubled dim 108, t=2 pi).
PHASE_TOLERANCE = 1e-10


@functools.lru_cache(maxsize=1)
def _quartic(dim: int) -> np.ndarray:
    """The lam-independent (a^dag + a)^4 as its band: the (9, dim) array whose row
    k + 4 holds diagonal k of x2 @ x2, zero-padded at its end, read-only, where
    x = a^dag + a is written from its elements.  The package's one memo: a sweep
    visits the lams of one dim in a row, and each hit saves two dim^3 products (4
    hits in 6 calls at dim 201 and 581).  The two dense products set the bits; the
    dense result is dropped once its diagonals are read."""
    x = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    x += x.T
    x2 = x @ x
    del x
    q = x2 @ x2
    del x2
    band = np.zeros((9, dim))
    for k in range(-4, 5):
        diag = np.diagonal(q, k)
        band[k + 4, :diag.size] = diag
    band.flags.writeable = False
    return band


def hamiltonian(lam: float, dim: int) -> np.ndarray:
    """Dense H = diag(n + 1/2) + (lam/16) (a^dag + a)^4, exactly symmetric, written
    diagonal by diagonal from the band of ``_quartic`` into one zeroed dim x dim array.

    Low-level builder; accepts any dim >= 2 so single matrix elements can be
    checked at small truncations.
    """
    # each entry gets the elementwise operations of 0.5 * (h + h.T) for
    # h = diag(n + 1/2) + (lam/16) q, so the bits are the same too: off the
    # diagonal h is c q + 0.0, which turns a -0.0 into +0.0
    c = lam / 16.0
    band = _quartic(dim)
    h = np.zeros((dim, dim))
    flat = h.reshape(-1)
    d = c * band[4] + (np.arange(dim) + 0.5)
    flat[::dim + 1] = (d + d) * 0.5
    for k in range(1, min(5, dim)):
        n = dim - k
        pair = ((c * band[4 + k, :n] + 0.0) + (c * band[4 - k, :n] + 0.0)) * 0.5
        flat[k:n * (dim + 1):dim + 1] = pair
        flat[k * dim::dim + 1] = pair
    return h


def _monomial(m: int, n: int):
    return field(metadata={"monomial": (m, n)})


@dataclass(frozen=True)
class MomentSet:
    """Interaction-frame expectation values sufficient for every witness here.

    Field names spell the normally ordered monomial: ``ad2a2`` is
    <a^dag^2 a^2>, etc.; each field carries its powers (m, n).  Diagonal
    entries (equal dagger and plain powers) are the factorial moments of the
    photon number and are real up to rounding.
    """

    a: complex = _monomial(0, 1)
    a2: complex = _monomial(0, 2)
    a4: complex = _monomial(0, 4)
    ada: complex = _monomial(1, 1)
    ad2a2: complex = _monomial(2, 2)
    ad3a3: complex = _monomial(3, 3)
    ad4a4: complex = _monomial(4, 4)

    def factorial_moments(self):
        """(<N^(1)>, <N^(2)>, <N^(3)>, <N^(4)>) as reals."""
        return (self.ada.real, self.ad2a2.real, self.ad3a3.real, self.ad4a4.real)


#: (m, n) of each MomentSet field, in field order.
MONOMIALS = tuple(f.metadata["monomial"] for f in fields(MomentSet))


def group_lam(params_list) -> float:
    """The lam shared by every params of a group; ValueError if they differ."""
    lam = params_list[0].lam
    if any(p.lam != lam for p in params_list):
        raise ValueError(f"a group shares one lam, got {list(params_list)}")
    return lam


def _check_edge(top, params, what: str, remedy: str) -> None:
    """Refuse ``what`` of ``params`` (TruncationError) unless every row of ``top``, the
    populations of its top ``EDGE_LEVELS`` levels, sums to at most ``EDGE_TOLERANCE``."""
    edge = float(np.max(top.sum(axis=-1), initial=0.0))
    if not edge <= EDGE_TOLERANCE:
        raise TruncationError(f"{params}: {what} holds {edge:.3e} in its top {EDGE_LEVELS} "
                              f"levels, above {EDGE_TOLERANCE:.0e}; {remedy}")


def coherent_inputs(params_list, dim: int) -> np.ndarray:
    """The coherent input of each params in ``dim`` levels, the rows of one read-only
    (len(params_list), dim) array.  ``dim`` is checked first (``fock.check_dim``);
    every input is built before any is judged, and the edge check refuses
    (TruncationError, naming the params) the first whose top ``EDGE_LEVELS`` levels
    hold more than ``EDGE_TOLERANCE``."""
    dim = check_dim(dim)
    inputs = np.array([coherent_state(p.alpha, dim).amplitudes for p in params_list])
    for params, psi0 in zip(params_list, inputs):
        _check_edge(np.abs(psi0[-EDGE_LEVELS:]) ** 2, params, "the input state",
                    f"the dim {default_dim(params.alpha_mag)} of --dim auto holds it")
    inputs.flags.writeable = False
    return inputs


def evolve_blocks(params_list, ts, inputs: np.ndarray):
    """Spectral evolution of a whole time grid for each params of a group that
    shares lam, from its row of the checked ``inputs`` (``coherent_inputs``, one row
    a params, zipped strictly): yields, per params, the (T, dim) block whose row j
    is psi(ts[j]) = V exp(-i Lambda t) V^T |alpha>.  It builds no state.

    The edge check, the oracle's one truncation rule, refuses (TruncationError,
    naming the params) a block whose top ``EDGE_LEVELS`` levels hold more than
    ``EDGE_TOLERANCE`` at any t, before it is yielded.  H, its ``eigh`` and the
    (T, dim) phase table exp(-i w t) are built once per group and dropped when the
    last block is done.  Each block is one stacked matrix-vector product over the phased
    eigenbasis coefficients of its own input; each row is bit-identical to
    evolving its time alone, in any group.  An H or a state that overflowed
    raises FloatingPointError naming the params (for H, the group's first, and
    the dim).  A grid whose largest |t|
    rounds the phases w t by eps |t| max(w) above ``PHASE_TOLERANCE`` raises
    TruncationError naming the group's first params, after ``eigh`` and before
    the phase table is built.  Every row's norm is checked too.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    lam = group_lam(params_list)
    dim = inputs.shape[-1]
    w, v = np.linalg.eigh(require_finite(hamiltonian(lam, dim), params_list[0], f"H at dim {dim}"))
    # in Python floats, where an overflow is inf without a warning; a nan t refuses too
    worst = float(np.max(np.abs(ts), initial=0.0))
    scale = sys.float_info.epsilon * float(w[-1])
    figure = worst * scale
    if not figure <= PHASE_TOLERANCE:
        raise TruncationError(
            f"{params_list[0]}: the phases w t at |t| = {worst!r} round by eps |t| max(w) = "
            f"{figure:.3e}, above {PHASE_TOLERANCE:.0e}; at dim {dim} |t| may reach about "
            f"{PHASE_TOLERANCE / scale:.4g}")
    phase = np.exp(-1j * w * ts[:, None])
    for params, psi0 in zip(params_list, inputs, strict=True):
        b = v.T @ psi0
        psi = require_finite((v @ (phase * b)[:, :, None])[:, :, 0], params, "the evolved state")
        _check_edge(check_normalized(psi)[:, -EDGE_LEVELS:], params, "the evolved state",
                    f"a larger dim (--dim) than {dim} may hold it, though doubling is not "
                    f"always enough")
        yield psi


def lay_out_bands(bands, rows: int, dim: int):
    """Lay out the operator with diagonals ``(k, diag)`` (entries [i, i + k]) for
    ``apply_banded`` on a (rows, dim) ket block; a repeated k adds its diagonal to
    the earlier ones, in order, promoting the band's dtype as ``+`` would.

    ``diag`` has length dim - |k| and may carry a leading axis with one row per
    ket.  Each band is written into a zeroed (rows, dim) array, raveled and cut
    to rows * dim - |k| entries.  Read against the raveled C-ordered ket block,
    each band is then one contiguous run: the |k| zeros padding each row sit
    where i + k leaves the basis, and meet the neighbouring row's kets.  A
    diagonal with |k| >= dim holds no entry of the basis and is dropped.
    """
    laid = {}
    for k, diag in bands:
        n = dim - abs(k)
        if n <= 0:
            continue
        if k in laid:
            laid[k] = laid[k].astype(np.result_type(laid[k], diag), copy=False)
            laid[k][:, :n] += diag
        else:
            laid[k] = np.zeros((rows, dim), dtype=np.result_type(diag))
            laid[k][:, :n] = diag
    return tuple((k, band.reshape(-1)[:band.size - abs(k)]) for k, band in laid.items())


def apply_banded(bands, kets: np.ndarray) -> np.ndarray:
    """Apply the operator laid out by ``lay_out_bands`` to every row of the
    (T, dim) block ``kets`` it was laid out for.

    Each band is one contiguous multiply-add over the raveled block, O(dim T),
    where a row-wise pass would take T strided ones.  Each row gets the bits of
    applying its ket alone: every entry is the same products, added in the same
    band order onto the same +0 start.  A padded zero adds 0 times a
    neighbouring row's entry, which is +-0 and moves nothing, as a sum that
    starts at +0 is never -0.  The exception is an inf or nan entry: 0 * inf
    makes the neighbouring row nan too, silently inside the sweep's
    ``np.errstate``, and the slice that holds the non-finite row is refused
    anyway.
    """
    x = kets.reshape(-1)
    out = np.zeros(x.size, dtype=complex)
    for k, band in bands:
        if k >= 0:
            out[:x.size - k] += band * x[k:]
        else:
            out[-k:] += band * x[:x.size + k]
    return out.reshape(kets.shape)


def ladder_moment_block(bands, psi: np.ndarray) -> np.ndarray:
    """(T, len(MONOMIALS)) block of <b^m psi|b^n psi> for each row psi of the
    (T, dim) block ``psi``, where b is the operator laid out for it by
    ``lay_out_bands``.

    ``psi`` is made C-contiguous once (a broadcast input is copied), each b^k psi
    is built by repeated ``apply_banded``, and each entry is ``np.vecdot`` of
    two contiguous kets, bit-identical to ``np.vdot`` of each row pair.
    """
    kets = [np.ascontiguousarray(psi)]
    for _ in range(4):
        kets.append(apply_banded(bands, kets[-1]))
    block = np.empty((psi.shape[0], len(MONOMIALS)), dtype=complex)
    for j, (m, n) in enumerate(MONOMIALS):
        block[:, j] = np.vecdot(kets[m], kets[n])
    return block


def exact_moment_blocks(params_list, ts, inputs: np.ndarray):
    """Yield, per params of a group that shares lam, the interaction-frame moments
    of its row of ``inputs`` (``coherent_inputs``) exactly evolved at every t of
    ``ts``, one row per t (see ``evolve_blocks``).

    For each monomial: <a^dag^m a^n>_I = e^{i(n-m)t} <psi_t| a^dag^m a^n |psi_t>,
    with a^k psi built by repeated sqrt(n)-weighted shifts, O(dim) per state.
    The (T, 7) table e^{i(n-m)t} and the sqrt(n) band laid out over the (T, dim)
    block (see ``lay_out_bands``) are built once per group, with its first block,
    so that ``evolve_blocks`` has checked the time bound before any arithmetic on ts.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    phase = None
    for psi in evolve_blocks(params_list, ts, inputs):
        if phase is None:
            phase = np.exp(1j * np.array([n - m for m, n in MONOMIALS]) * ts[:, None])
            dim = psi.shape[-1]
            root_n = np.sqrt(np.arange(1.0, dim)).astype(complex)  # not cast per apply
            bands = lay_out_bands(((1, root_n),), ts.size, dim)
        raw = ladder_moment_block(bands, psi)
        # the product is written out in real arithmetic so that it rounds like the
        # scalar complex product and does not depend on the block's length
        block = np.empty_like(raw)
        block.real = phase.real * raw.real - phase.imag * raw.imag
        block.imag = phase.real * raw.imag + phase.imag * raw.real
        yield block


def coherent_moment_set(alpha: complex) -> MomentSet:
    """Analytic moments of a coherent state: <a^dag^m a^n> = conj(alpha)^m alpha^n."""
    alpha = complex(alpha)
    return MomentSet(*[alpha.conjugate()**m * alpha**n for m, n in MONOMIALS])
