"""Exact evolution of the quartic anharmonic oscillator in the truncated basis.

The model Hamiltonian for a single unit-frequency mode in a centrosymmetric
third-order nonlinear medium is

    H = (a^dag a + 1/2) + (lam / 16) (a^dag + a)^4,

a real symmetric matrix once truncated.  Because H is time independent, the
evolution exp(-iHt)|alpha> is computed by a single eigendecomposition that is
cached per (lam, dim) and reused across all times and all input phases -- no
time stepping, no time ordering, exact to machine precision in the truncated
space.  (a^dag + a)^4 is built once per dim, the input once per (alpha, dim).

Moments are reported in the interaction frame that removes the free rotation:
a normally ordered monomial a^dag^m a^n evaluated in the evolved state picks
up the phase e^{i(n-m)t}.  Diagonal moments (m = n) are frame independent,
so photon statistics need no phase bookkeeping at all.

A whole time grid is evaluated in one pass: ``evolve_block`` returns the
(T, dim) block of states and ``exact_moment_block`` the (T, 10) block of
moments, with a applied as a sqrt(n)-weighted shift, so the work per grid is
O(dim^2 T) for the evolution and O(dim T) for the moments.  Each row equals
what ``exact_moment_set`` (the T = 1 case) gives for its t, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .fock import FockVector, ModelParams, check_normalized, coherent_state

#: Largest |t| the oracle is validated for by default (two full revivals).
DEFAULT_TIME_HORIZON = 4.0 * math.pi


@lru_cache(maxsize=1)
def _quartic(dim: int) -> np.ndarray:
    """The lam-independent (a^dag + a)^4 as x2 @ x2, x = a^dag + a written from
    its elements, read-only; a sweep visits the lams of one dim in a row, so
    only the latest dim is kept."""
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


@lru_cache(maxsize=64)
def _eigensystem(lam: float, dim: int):
    w, v = np.linalg.eigh(hamiltonian(lam, dim))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


@lru_cache(maxsize=64)
def initial_state(alpha: complex, dim: int) -> FockVector:
    """The coherent input, shared (immutable) by every lam and both matrix paths."""
    return coherent_state(alpha, dim)


@lru_cache(maxsize=256)
def _spectral_initial(params: ModelParams):
    """Eigenbasis coefficients of the initial coherent state, cached per params;
    the eigensystem itself stays in (and is evicted from) ``_eigensystem``."""
    _, v = _eigensystem(params.lam, params.dim)
    b = v.T @ initial_state(params.alpha, params.dim).amplitudes
    b.flags.writeable = False
    return b


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


def evolve_block(params: ModelParams, ts, horizon: float = DEFAULT_TIME_HORIZON) -> np.ndarray:
    """Spectral evolution of a whole time grid: row j is psi(ts[j]) = V exp(-i Lambda t) V^T |alpha>.

    One stacked matrix-vector product over the (T, dim) block of phased
    eigenbasis coefficients; each row is bit-identical to evolving its time
    alone.  Every row's norm is checked.  ``horizon`` bounds |t|; callers
    sweeping longer grids pass their own bound.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    worst = float(np.max(np.abs(ts), initial=0.0))
    if worst > horizon + 1e-12:
        raise ValueError(f"|t|={worst} exceeds the configured horizon {horizon}")
    w, v = _eigensystem(params.lam, params.dim)
    phased = np.exp(-1j * w * ts[:, None]) * _spectral_initial(params)
    psi = (v @ phased[:, :, None])[:, :, 0]
    check_normalized(psi)
    return psi


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

    Each b^k psi is built by repeated banded application, and each entry is a
    stacked dot product, bit-identical to ``np.vdot`` of the two kets.
    """
    kets = [psi]
    for _ in range(4):
        kets.append(apply_banded(bands, kets[-1]))
    bras = [np.conj(k)[:, None, :] for k in kets]
    block = np.empty((psi.shape[0], len(MONOMIALS)), dtype=complex)
    for j, (m, n) in enumerate(MONOMIALS):
        block[:, j] = (bras[m] @ kets[n][:, :, None])[:, 0, 0]
    return block


def moment_sets(block: np.ndarray) -> list:
    """One MomentSet per row of a (T, len(MONOMIALS)) moment block."""
    return [MomentSet(*row) for row in block.tolist()]


def interaction_moment_block(psi: np.ndarray, ts) -> np.ndarray:
    """Interaction-frame moments of the (T, dim) state block ``psi`` at times ``ts``.

    For each monomial: <a^dag^m a^n>_I = e^{i(n-m)t} <psi_t| a^dag^m a^n |psi_t>,
    with a^k psi built by repeated sqrt(n)-weighted shifts, O(dim) per state.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    raw = ladder_moment_block(((1, np.sqrt(np.arange(1.0, psi.shape[-1]))),), psi)
    phase = np.exp(1j * np.array([n - m for m, n in MONOMIALS]) * ts[:, None])
    # the product is written out in real arithmetic so that it rounds like the
    # scalar complex product and does not depend on the block's length
    block = np.empty_like(raw)
    block.real = phase.real * raw.real - phase.imag * raw.imag
    block.imag = phase.real * raw.imag + phase.imag * raw.real
    return block


def exact_moment_block(params: ModelParams, ts, horizon: float = DEFAULT_TIME_HORIZON) -> np.ndarray:
    """Moments of the exactly evolved state at every t of ``ts``, one row per t."""
    return interaction_moment_block(evolve_block(params, ts, horizon), ts)


def exact_moment_set(params: ModelParams, t: float, horizon: float = DEFAULT_TIME_HORIZON) -> MomentSet:
    """Moments of the exactly evolved state at time t: the T = 1 case of
    ``exact_moment_block``."""
    return moment_sets(exact_moment_block(params, [t], horizon))[0]


def coherent_moment_set(alpha: complex) -> MomentSet:
    """Analytic moments of a coherent state: <a^dag^m a^n> = conj(alpha)^m alpha^n."""
    alpha = complex(alpha)
    return MomentSet(*[alpha.conjugate()**m * alpha**n for m, n in MONOMIALS])
