"""Exact evolution of the quartic anharmonic oscillator in the truncated basis.

The model Hamiltonian for a single unit-frequency mode in a centrosymmetric
third-order nonlinear medium is

    H = (a^dag a + 1/2) + (lam / 16) (a^dag + a)^4,

a real symmetric matrix once truncated.  Because H is time independent, the
evolution exp(-iHt)|alpha> of a time grid is computed from one eigendecomposition
-- no time stepping, no time ordering, exact to machine precision in the truncated
space.  Slices that share lam and dim (a sweep's theta slices at one |alpha|)
form a group, which builds H, its ``eigh`` and the exp(-iwt) table once and
drops them when its last slice is done; each slice projects its own input.
Only the lam-independent (a^dag + a)^4 is kept between calls, for the latest dim.

Moments are reported in the interaction frame that removes the free rotation:
a normally ordered monomial a^dag^m a^n evaluated in the evolved state picks
up the phase e^{i(n-m)t}.  Diagonal moments (m = n) are frame independent,
so photon statistics need no phase bookkeeping at all.

A whole time grid is evaluated in one pass: ``evolve_blocks`` yields the
(T, dim) block of states of each slice of a group and ``exact_moment_blocks``
its (T, 10) block of moments, with a applied as a sqrt(n)-weighted shift, so
the work per grid is O(dim^2 T) for the evolution and O(dim T) for the
moments.  A single slice is the group ``[params]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .fock import check_normalized, coherent_state, require_finite

#: Largest |t| the oracle is validated for by default (two full revivals).
DEFAULT_TIME_HORIZON = 4.0 * math.pi


@functools.lru_cache(maxsize=1)
def _quartic(dim: int) -> np.ndarray:
    """The lam-independent (a^dag + a)^4 as x2 @ x2, x = a^dag + a written from its
    elements, read-only.  The package's one memo: a sweep visits the lams of one dim in
    a row, and each hit saves two dim^3 products (4 hits in 6 calls at dim 201 and 581)."""
    x = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    x += x.T
    x2 = x @ x
    q = x2 @ x2
    q.flags.writeable = False
    return q


def hamiltonian(lam: float, dim: int) -> np.ndarray:
    """Dense H = diag(n + 1/2) + (lam/16) (a^dag + a)^4, exactly symmetric.

    Low-level builder; accepts any dim >= 2 so single matrix elements can be
    checked at small truncations.
    """
    # in place, with the same elementwise operations as 0.5 * (h + h.T)
    # for h = diag(n + 1/2) + (lam/16) q, so the bits are the same too
    h = (lam / 16.0) * _quartic(dim)
    h += np.diag(np.arange(dim) + 0.5)
    h += h.T
    h *= 0.5
    return h


def _monomial(m: int, n: int):
    return field(metadata={"monomial": (m, n)})


@dataclass(frozen=True)
class MomentSet:
    """Interaction-frame expectation values sufficient for every witness here.

    Field names spell the normally ordered monomial: ``ad2a4`` is
    <a^dag^2 a^4>, etc.; each field carries its powers (m, n).  Diagonal
    entries (equal dagger and plain powers) are the factorial moments of the
    photon number and are real up to rounding.
    """

    a: complex = _monomial(0, 1)
    a2: complex = _monomial(0, 2)
    a4: complex = _monomial(0, 4)
    ada: complex = _monomial(1, 1)
    ada2: complex = _monomial(1, 2)
    ad2a2: complex = _monomial(2, 2)
    ada3: complex = _monomial(1, 3)
    ad2a4: complex = _monomial(2, 4)
    ad3a3: complex = _monomial(3, 3)
    ad4a4: complex = _monomial(4, 4)

    def factorial_moments(self):
        """(<N^(1)>, <N^(2)>, <N^(3)>, <N^(4)>) as reals."""
        return (self.ada.real, self.ad2a2.real, self.ad3a3.real, self.ad4a4.real)


#: (m, n) of each MomentSet field, in field order.
MONOMIALS = tuple(f.metadata["monomial"] for f in fields(MomentSet))


def _group_key(params_list) -> tuple:
    """(lam, dim) shared by every params of a group; ValueError if they differ."""
    lam, dim = params_list[0].lam, params_list[0].dim
    if any((p.lam, p.dim) != (lam, dim) for p in params_list):
        raise ValueError(f"a group shares one lam and one dim, got {list(params_list)}")
    return lam, dim


def evolve_blocks(params_list, ts, horizon: float = DEFAULT_TIME_HORIZON):
    """Spectral evolution of a whole time grid for each params of a group that
    shares lam and dim: yields, per params, the (T, dim) block whose row j is
    psi(ts[j]) = V exp(-i Lambda t) V^T |alpha>.

    H, its ``eigh`` and the (T, dim) phase table exp(-i w t) are built once per
    group, at the first block, and dropped when the last is done.  Each block is
    one stacked matrix-vector product over the phased eigenbasis coefficients
    of its own input; each row is bit-identical to evolving its time alone, in
    any group.  Every row's norm is checked; an H or a state that overflowed
    raises FloatingPointError naming the params (for H, the group's first).
    ``horizon`` bounds |t|; callers sweeping longer grids pass their own bound.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    worst = float(np.max(np.abs(ts), initial=0.0))
    if worst > horizon + 1e-12:
        raise ValueError(f"|t|={worst} exceeds the configured horizon {horizon}")
    lam, dim = _group_key(params_list)
    w, v = np.linalg.eigh(require_finite(hamiltonian(lam, dim), params_list[0], "H"))
    phase = np.exp(-1j * w * ts[:, None])
    for params in params_list:
        b = v.T @ coherent_state(params.alpha, dim).amplitudes
        psi = require_finite((v @ (phase * b)[:, :, None])[:, :, 0], params, "the evolved state")
        check_normalized(psi)
        yield psi


def apply_banded(bands, kets: np.ndarray) -> np.ndarray:
    """Apply the operator with diagonals ``(k, diag)`` (entries [i, i + k],
    |k| < dim) to every row of the (T, dim) block ``kets``.

    ``diag`` has length dim - |k| and may carry a leading axis with one row
    per ket; each band costs O(dim) per ket.
    """
    dim = kets.shape[-1]
    out = np.zeros(kets.shape, dtype=complex)
    for k, diag in bands:
        if k >= 0:
            out[:, :dim - k] += diag * kets[:, k:]
        else:
            out[:, -k:] += diag * kets[:, :dim + k]
    return out


def ladder_moment_block(bands, psi: np.ndarray) -> np.ndarray:
    """(T, len(MONOMIALS)) block of <b^m psi|b^n psi> for each row psi of the
    (T, dim) block ``psi``, where b is the operator with diagonals ``bands``
    (see ``apply_banded``).

    Each b^k psi is built by repeated banded application, and each entry is
    ``np.vecdot`` of two kets, bit-identical to ``np.vdot`` of each row pair.
    """
    kets = [psi]
    for _ in range(4):
        kets.append(apply_banded(bands, kets[-1]))
    block = np.empty((psi.shape[0], len(MONOMIALS)), dtype=complex)
    for j, (m, n) in enumerate(MONOMIALS):
        block[:, j] = np.vecdot(kets[m], kets[n])
    return block


def exact_moment_blocks(params_list, ts, horizon: float = DEFAULT_TIME_HORIZON):
    """Yield, per params of a group that shares lam and dim, the interaction-frame
    moments of the exactly evolved state at every t of ``ts``, one row per t (see
    ``evolve_blocks``).

    For each monomial: <a^dag^m a^n>_I = e^{i(n-m)t} <psi_t| a^dag^m a^n |psi_t>,
    with a^k psi built by repeated sqrt(n)-weighted shifts, O(dim) per state.
    The (T, 10) table e^{i(n-m)t} is built once per group, with its first block,
    so that ``evolve_blocks`` has checked the horizon before any arithmetic on ts.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    phase = None
    for psi in evolve_blocks(params_list, ts, horizon):
        if phase is None:
            phase = np.exp(1j * np.array([n - m for m, n in MONOMIALS]) * ts[:, None])
        raw = ladder_moment_block(((1, np.sqrt(np.arange(1.0, psi.shape[-1]))),), psi)
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
