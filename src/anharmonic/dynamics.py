"""Exact evolution of the quartic anharmonic oscillator in the truncated basis.

The model Hamiltonian for a single unit-frequency mode in a centrosymmetric
third-order nonlinear medium is

    H = (a^dag a + 1/2) + (lam / 16) (a^dag + a)^4,

a real symmetric matrix once truncated.  Because H is time independent, the
evolution exp(-iHt)|alpha> is computed by a single eigendecomposition that is
cached per (lam, dim) and reused across all times and all input phases -- no
time stepping, no time ordering, exact to machine precision in the truncated
space.

Moments are reported in the interaction frame that removes the free rotation:
a normally ordered monomial a^dag^m a^n evaluated in the evolved state picks
up the phase e^{i(n-m)t}.  Diagonal moments (m = n) are frame independent,
so photon statistics need no phase bookkeeping at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .fock import FockVector, ModelParams, _annihilation, coherent_state, make_ladder_ops

#: Largest |t| the oracle is validated for by default (two full revivals).
DEFAULT_TIME_HORIZON = 4.0 * math.pi


def hamiltonian(lam: float, dim: int) -> np.ndarray:
    """Dense H = diag(n + 1/2) + (lam/16) (a^dag + a)^4, exactly symmetric.

    Low-level builder; accepts any dim >= 2 so single matrix elements can be
    checked at small truncations.
    """
    a, adag, n = make_ladder_ops(dim)
    x = a + adag
    x2 = x @ x
    h = np.diag(np.arange(dim) + 0.5) + (lam / 16.0) * (x2 @ x2)
    return 0.5 * (h + h.T)


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """Model Hamiltonian for a validated parameter set."""
    return hamiltonian(params.lam, params.dim)


@lru_cache(maxsize=64)
def _eigensystem(lam: float, dim: int):
    w, v = np.linalg.eigh(hamiltonian(lam, dim))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


@lru_cache(maxsize=256)
def _spectral_initial(params: ModelParams):
    """Eigenbasis coefficients of the initial coherent state, cached per params."""
    w, v = _eigensystem(params.lam, params.dim)
    psi0 = coherent_state(params.alpha, params.dim)
    b = v.T @ psi0.amplitudes
    b.flags.writeable = False
    return w, v, b


@dataclass(frozen=True)
class EvolvedState:
    """State exp(-iHt)|alpha> at time t, plus the parameters that produced it."""

    psi_t: FockVector
    t: float
    params: ModelParams


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


def moment_set(mom) -> MomentSet:
    """MomentSet whose field for <a^dag^m a^n> holds ``mom(m, n)``."""
    return MomentSet(*[mom(m, n) for m, n in MONOMIALS])


def evolve_exact(params: ModelParams, t: float, horizon: float = DEFAULT_TIME_HORIZON) -> EvolvedState:
    """Spectral evolution psi_t = V exp(-i Lambda t) V^T |alpha>.

    ``horizon`` bounds |t|; callers sweeping longer grids pass their own bound.
    """
    t = float(t)
    if abs(t) > horizon + 1e-12:
        raise ValueError(f"|t|={abs(t)} exceeds the configured horizon {horizon}")
    w, v, b = _spectral_initial(params)
    psi = v @ (np.exp(-1j * w * t) * b)
    return EvolvedState(FockVector(psi), t, params)


def interaction_moments(state: EvolvedState) -> MomentSet:
    """Interaction-frame moments of the evolved state.

    For each monomial: <a^dag^m a^n>_I = e^{i(n-m)t} <psi_t| a^dag^m a^n |psi_t>.
    Implemented with repeated matrix-vector products (a^k psi), never with
    operator products, so each moment costs O(dim^2).
    """
    a = _annihilation(state.params.dim)
    ak = [state.psi_t.amplitudes]
    for _ in range(4):
        ak.append(a @ ak[-1])
    t = state.t

    def mom(m: int, n: int) -> complex:
        return complex(np.exp(1j * (n - m) * t) * np.vdot(ak[m], ak[n]))

    return moment_set(mom)


def exact_moment_set(params: ModelParams, t: float, horizon: float = DEFAULT_TIME_HORIZON) -> MomentSet:
    """Convenience: moments of the exactly evolved state at time t."""
    return interaction_moments(evolve_exact(params, t, horizon=horizon))


def coherent_moment_set(alpha: complex) -> MomentSet:
    """Analytic moments of a coherent state: <a^dag^m a^n> = conj(alpha)^m alpha^n."""
    alpha = complex(alpha)
    ac = alpha.conjugate()

    def mom(m: int, n: int) -> complex:
        return ac**m * alpha**n

    return moment_set(mom)
