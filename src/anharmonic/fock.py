"""Truncated Fock-space linear algebra.

States are complex amplitude vectors over the number basis |0>..|D-1>,
operators are dense D x D matrices.  Everything in this module is exact
finite-dimensional algebra; the only physical approximation is the
truncation itself, controlled by requiring the Poisson tail of any
coherent state built here to stay below ``TAIL_TOLERANCE``.

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

#: Maximum admissible Poisson tail mass left outside the truncated basis.
TAIL_TOLERANCE = 1e-12

#: Residual bound for the coherent-state eigenvalue relation ||(a - alpha)|alpha>||.
EIGENVALUE_RESIDUAL_TOL = 1e-8

#: Norm tolerance accepted when constructing a state directly from amplitudes.
NORM_TOLERANCE = 1e-9

MIN_DIM = 2

#: Largest truncation dimension a parameter set may ask for: one dense complex
#: D x D matrix is then 64 MB.  Admits |alpha| = 20 (D = 581) at doubled D.
MAX_DIM = 2048

#: Most values a sweep may hold in one array (its rows, or a matrix path's (times, D)
#: kets): about 0.7 GB at 320 B per CSV row, 17 times the largest canonical sweep.
MAX_GRID_CELLS = 2**21


class TruncationError(ValueError):
    """The requested computation is not safe at the given truncation dimension."""


def default_dim(alpha_mag: float) -> int:
    """Truncation heuristic D = ceil(|alpha|^2 + 8|alpha| + 20).

    Keeps the coherent-state tail mass below ~1e-12 for |alpha| <= 4 while the
    dense matrices stay small enough for desk-scale sweeps.
    """
    dim = alpha_mag * alpha_mag + 8.0 * alpha_mag + 20.0
    if math.isinf(dim):
        raise TruncationError(f"no truncation dimension holds |alpha|={alpha_mag}")
    return math.ceil(dim)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameter set of the quartic-oscillator model.

    alpha_mag: coherent amplitude |alpha| >= 0 of the input field.
    theta:     phase of the input field, radians (alpha = |alpha| e^{i theta}).
    lam:       quartic coupling, dimensionless, weak-coupling regime lam << 1.
    dim:       truncation dimension; must respect the ``default_dim`` floor so
               truncation error stays far below the O(lam^2) effects under study.
    """

    alpha_mag: float
    theta: float
    lam: float
    dim: int

    def __post_init__(self):
        for name in ("alpha_mag", "theta", "lam"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        try:
            object.__setattr__(self, "dim", int(self.dim))
        except (ValueError, OverflowError):
            raise ValueError(f"dim must be a finite integer, got {self.dim!r}") from None
        if self.alpha_mag < 0.0:
            raise ValueError(f"alpha_mag must be >= 0, got {self.alpha_mag}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.dim < MIN_DIM:
            raise ValueError(f"dim must be >= {MIN_DIM}, got {self.dim}")
        if self.dim > MAX_DIM:
            raise TruncationError(
                f"dim={self.dim} exceeds the dense-matrix ceiling MAX_DIM={MAX_DIM}"
            )
        floor = default_dim(self.alpha_mag)
        if self.dim < floor:
            raise TruncationError(
                f"dim={self.dim} is below the safe truncation floor {floor} "
                f"for |alpha|={self.alpha_mag} (tail mass would not be negligible)"
            )

    @classmethod
    def auto(cls, alpha_mag: float, theta: float = 0.0, lam: float = 0.0) -> "ModelParams":
        """Build params with the heuristic truncation dimension."""
        return cls(alpha_mag, theta, lam, default_dim(float(alpha_mag)))

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


def check_normalized(amplitudes: np.ndarray) -> None:
    """Raise ValueError unless every state along the last axis has unit norm."""
    nrm = np.linalg.norm(amplitudes, axis=-1)
    worst = float(np.max(np.abs(nrm - 1.0), initial=0.0))
    if not worst <= NORM_TOLERANCE:
        raise ValueError(f"state norm deviates from 1 by {worst!r}, beyond {NORM_TOLERANCE}")


def make_ladder_ops(dim: int):
    """Return the dense (a, a_dagger, n) matrices for the truncated basis.

    a[n-1, n] = sqrt(n), a_dagger = a^T, n = a_dagger @ a = diag(0..dim-1).
    """
    if dim < MIN_DIM:
        raise ValueError(f"dim must be >= {MIN_DIM}, got {dim}")
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    return a, a.T.copy(), np.diag(np.arange(float(dim)))


def coherent_state(alpha: complex, dim: int) -> FockVector:
    """Coherent state |alpha> with a |alpha> = alpha |alpha>, truncated to ``dim``.

    Amplitudes follow the stable recurrence c_{n+1} = c_n alpha / sqrt(n+1)
    from c_0 = exp(-|alpha|^2 / 2), avoiding explicit factorials.  Raises
    ``TruncationError`` when the Poisson mass left outside the basis exceeds
    ``TAIL_TOLERANCE``.
    """
    alpha = complex(alpha)
    if dim < MIN_DIM:
        raise ValueError(f"dim must be >= {MIN_DIM}, got {dim}")
    c = np.zeros(dim, dtype=complex)
    c[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(dim - 1):
        c[n + 1] = c[n] * alpha / math.sqrt(n + 1.0)
    captured = float(np.sum(np.abs(c) ** 2))
    tail = max(0.0, 1.0 - captured)
    if tail >= TAIL_TOLERANCE:
        raise TruncationError(
            f"coherent-state tail mass {tail:.3e} at dim={dim} exceeds "
            f"{TAIL_TOLERANCE:.0e} for |alpha|={abs(alpha)}; "
            f"need dim >= {default_dim(abs(alpha))}"
        )
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
