"""Truncated Fock-space linear algebra.

States are complex amplitude vectors over the number basis |0>..|D-1>,
operators are dense D x D matrices.  Everything in this module is exact
finite-dimensional algebra; the only physical approximation is the
truncation itself.  The exact oracle judges it by one rule: a state, its coherent
input and every evolved one, may hold at most ``EDGE_TOLERANCE`` in the top
``EDGE_LEVELS`` levels of its basis (``dynamics.coherent_inputs``, ``evolve_blocks``).

The truncated annihilation matrix has a[n-1, n] = sqrt(n); its conjugate
transpose is the creation matrix, and a^dag a is the number matrix.  The
canonical commutator [a, a^dag] equals the identity on the leading
(D-1) x (D-1) block and -(D-1) in the last diagonal entry -- the one
unavoidable truncation artifact, which tests assert exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: H couples levels at most 4 apart, so the truncation cuts the x^4 couplings
#: of the top 4 levels of the basis: the edge an evolved state must not reach.
EDGE_LEVELS = 4

#: Most total population a state may hold in its top ``EDGE_LEVELS`` levels: the
#: coherent input (then at most 9.1e-16 of its Poisson mass lies beyond the basis,
#: |alpha| = 0 to 41 in steps of 0.01), and the evolved state at any t.  That
#: population, maximised over t, bounds the drift of the moments at doubled dimension (relative to max(1, |moment|)): at the bound, the
#: drift reached 3e-10 (at |alpha| near 0.84, lam near 0.045) over 390 slices of
#: |alpha| <= 6, lam <= 0.3 and 17 times on [-4 pi, 4 pi], and 2.2e-9 at 1e-14.
EDGE_TOLERANCE = 1e-15

#: Residual bound for the coherent-state eigenvalue relation ||(a - alpha)|alpha>||.
EIGENVALUE_RESIDUAL_TOL = 1e-8

#: Norm tolerance accepted when constructing a state directly from amplitudes.
NORM_TOLERANCE = 1e-9

MIN_DIM = 2

#: Largest truncation dimension a parameter set may ask for: one dense complex
#: D x D matrix is then 64 MB.  Admits the default dim of every |alpha| up to 41
#: (D = 2029).
MAX_DIM = 2048

#: Most values a sweep may hold in one array (a column of its rows, at 8 B a cell, 16 MB,
#: or a slice's (times, D) ket block) and in the (theta, D) inputs per |alpha| its oracle
#: keeps.  17 times the largest canonical sweep; the CSV is written in runs of rows.
MAX_GRID_CELLS = 2**21


class TruncationError(ValueError):
    """The requested computation is not safe at the given truncation dimension."""


def default_dim(alpha_mag: float) -> int:
    """The dim ``--dim auto`` picks, D = ceil(|alpha|^2 + 8|alpha| + 20): the coherent
    input's top ``EDGE_LEVELS`` levels then hold at most 1.25e-16 (|alpha| = 0 to 41
    in steps of 0.01), 6 to 15 levels above the smallest dim that passes
    ``EDGE_TOLERANCE``.  It ignores theta and lam; the evolved state may not pass."""
    dim = alpha_mag * alpha_mag + 8.0 * alpha_mag + 20.0
    if math.isinf(dim):
        raise TruncationError(f"no truncation dimension holds |alpha|={alpha_mag}")
    return math.ceil(dim)


def check_dim(dim) -> int:
    """``dim`` as an int, if the exact oracle may allocate that many levels: an
    integer, at least ``MIN_DIM`` (else ValueError) and at most ``MAX_DIM`` (else
    TruncationError).  Whether the levels hold a state is the edge check's to say."""
    try:
        checked = int(dim)
    except (TypeError, ValueError, OverflowError):
        checked = None
    if checked is None or checked != dim:
        raise ValueError(f"dim must be a finite integer, got {dim!r}")
    if checked < MIN_DIM:
        raise ValueError(f"dim must be >= {MIN_DIM}, got {checked}")
    if checked > MAX_DIM:
        raise TruncationError(f"dim={checked} exceeds the dense-matrix ceiling MAX_DIM={MAX_DIM}")
    return checked


@dataclass(frozen=True)
class ModelParams:
    """Physical parameter set of the quartic-oscillator model.

    alpha_mag: coherent amplitude |alpha| >= 0 of the input field.
    theta:     phase of the input field, radians (alpha = |alpha| e^{i theta}).
    lam:       quartic coupling, dimensionless, weak-coupling regime lam << 1.
    """

    alpha_mag: float
    theta: float
    lam: float

    def __post_init__(self):
        for name in ("alpha_mag", "theta", "lam"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.alpha_mag < 0.0:
            raise ValueError(f"alpha_mag must be >= 0, got {self.alpha_mag}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")

    @property
    def alpha(self) -> complex:
        return self.alpha_mag * complex(math.cos(self.theta), math.sin(self.theta))


@dataclass(frozen=True)
class FockVector:
    """Normalized state vector over the truncated number basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < MIN_DIM:
            raise ValueError(f"amplitudes must be a 1-d vector of length >= {MIN_DIM}")
        check_normalized(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def require_finite(values: np.ndarray, params: ModelParams, what: str) -> np.ndarray:
    """``values``; raises FloatingPointError naming ``params`` if any is not finite."""
    if not np.isfinite(values).all():
        raise FloatingPointError(f"{params}: {what} is not finite")
    return values


def check_normalized(amplitudes: np.ndarray) -> np.ndarray:
    """The populations |amplitude|^2; raises ValueError unless every state along
    the last axis has unit norm."""
    populations = amplitudes.real**2 + amplitudes.imag**2
    nrm = np.sqrt(populations.sum(axis=-1))
    worst = float(np.max(np.abs(nrm - 1.0), initial=0.0))
    if not worst <= NORM_TOLERANCE:
        raise ValueError(f"state norm deviates from 1 by {worst!r}, beyond {NORM_TOLERANCE}")
    return populations


def make_ladder_ops(dim: int):
    """Return the dense (a, a_dagger, n) matrices for the truncated basis.

    a[n-1, n] = sqrt(n), a_dagger = a^T, n = a_dagger @ a = diag(0..dim-1).
    """
    if dim < MIN_DIM:
        raise ValueError(f"dim must be >= {MIN_DIM}, got {dim}")
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    return a, a.T.copy(), np.diag(np.arange(float(dim)))


def coherent_state(alpha: complex, dim: int) -> FockVector:
    """Coherent state |alpha> with a |alpha> = alpha |alpha>, truncated to ``dim``
    and normalized there.

    Amplitudes follow the stable recurrence c_{n+1} = c_n alpha / sqrt(n+1)
    from c_0 = exp(-|alpha|^2 / 2), avoiding explicit factorials.  From |alpha|
    near 37.9 c_0 is subnormal, and its rounding is a common factor of the
    amplitudes that matter: normalization removes its modulus, and its phase is a
    global one.  Raises ``TruncationError`` only where the captured mass
    sum |c_n|^2 is not a normal float: from |alpha| near 38.61, where c_0
    underflows, and at a dim far below |alpha|^2.  The edge check judges the rest.
    """
    alpha = complex(alpha)
    if dim < MIN_DIM:
        raise ValueError(f"dim must be >= {MIN_DIM}, got {dim}")
    c = np.zeros(dim, dtype=complex)
    c[0] = math.exp(-abs(alpha) * abs(alpha) / 2.0)  # inf, not OverflowError, at |alpha| 1e160
    for n in range(dim - 1):
        c[n + 1] = c[n] * alpha / math.sqrt(n + 1.0)
    captured = float(np.sum(np.abs(c) ** 2))
    if not captured >= np.finfo(float).smallest_normal:
        raise TruncationError(
            f"the coherent state of |alpha|={abs(alpha)!r} captures a mass {captured:.3e} in "
            f"dim={dim} levels, not a normal float: the float64 recurrence cannot hold it")
    return FockVector(c / math.sqrt(captured))


def number_state(n: int, dim: int) -> FockVector:
    """Number state |n> in a dim-dimensional basis."""
    if not 0 <= n < dim:
        raise ValueError(f"need 0 <= n < dim, got n={n}, dim={dim}")
    c = np.zeros(dim, dtype=complex)
    c[n] = 1.0
    return FockVector(c)


def expectation(state: FockVector, op: np.ndarray) -> complex:
    """Quantum average <psi| op |psi>."""
    op = np.asarray(op)
    if op.shape != (state.dim, state.dim):
        raise ValueError(f"operator shape {op.shape} does not match state dim {state.dim}")
    return complex(np.vdot(state.amplitudes, op @ state.amplitudes))


def factorial_moment(state: FockVector, order: int) -> float:
    """<N(N-1)...(N-order+1)> = sum_n n(n-1)...(n-order+1) |c_n|^2.

    Direct basis sum; exact zeros for n < order since one factor vanishes.
    """
    order = int(order)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order >= state.dim:
        raise TruncationError(
            f"factorial moment of order {order} is not truncation-safe at dim={state.dim}"
        )
    n = np.arange(state.dim, dtype=float)
    weights = np.ones_like(n)
    for k in range(order):
        weights *= n - k
    return float(weights @ (np.abs(state.amplitudes) ** 2))
