"""State-agnostic nonclassicality witnesses.

Every witness here consumes moments, not states, so the same code path
classifies values coming from the exact oracle, from the first-order
operator matrix, or from scalar closed forms -- the comparison harness
relies on that seam.  A witness value below -tolerance is nonclassical,
within +-tolerance is boundary (coherent-state level), above is classical.
The witnesses and ``classify`` also work elementwise on arrays, e.g. on a
MomentSet of (T, 10) block columns; ``np.float_power`` rounds like float ``**``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .dynamics import MomentSet

#: Default half-width of the boundary band: far above machine noise from
#: dense algebra at dim ~ 100, far below any physical lam effect studied.
DEFAULT_BOUNDARY_TOL = 1e-10

NONCLASSICAL = "nonclassical"
CLASSICAL = "classical"
BOUNDARY = "boundary"

#: Labels indexed by code: 0 nonclassical, 1 boundary, 2 classical.
_LABELS = np.array([NONCLASSICAL, BOUNDARY, CLASSICAL], dtype=object)


class VacuumDenominatorError(ArithmeticError):
    """A factorial-moment denominator vanished (vacuum-dominated state)."""


Moments = Union[MomentSet, Sequence[float]]


def classify(value: float, tolerance: float = DEFAULT_BOUNDARY_TOL) -> str:
    """nonclassical iff value < -tolerance; boundary iff |value| <= tolerance.
    An ndarray gives an array of labels."""
    if isinstance(value, np.ndarray):
        return _LABELS[2 - (value <= tolerance) - (value < -tolerance)]
    if value < -tolerance:
        return NONCLASSICAL
    if value <= tolerance:
        return BOUNDARY
    return CLASSICAL


@dataclass(frozen=True)
class CriterionReport:
    """One evaluated witness: value and classification."""

    name: str
    value: float
    classification: str
    tolerance: float


def _report(name: str, value: float, tolerance: float) -> CriterionReport:
    value = value if isinstance(value, np.ndarray) else float(value)
    return CriterionReport(name, value, classify(value, tolerance), tolerance)


def _factorial_moments(moments: Moments) -> tuple:
    """Factorial moments (<N^(1)>, <N^(2)>, ...) from a MomentSet or a plain list."""
    if isinstance(moments, MomentSet):
        return moments.factorial_moments()
    fm = tuple(float(x) for x in moments)
    if not fm:
        raise ValueError("empty factorial-moment list")
    return fm


def quadrature_squeezing(
    moments: MomentSet,
    tolerance: float = DEFAULT_BOUNDARY_TOL,
) -> CriterionReport:
    """(Delta X)^2 - 1/2 for X = (a^dag + a)/sqrt(2); negative means squeezed.

    Expansion: <X^2> = Re<a^2> + <a^dag a> + 1/2 and <X> = sqrt(2) Re<a>.
    """
    value = moments.a2.real + moments.ada.real - 2.0 * np.float_power(moments.a.real, 2)
    return _report("quadrature_squeezing", value, tolerance)


def antibunching_second_order(
    moments: MomentSet,
    tolerance: float = DEFAULT_BOUNDARY_TOL,
) -> CriterionReport:
    """<a^dag^2 a^2> - <a^dag a>^2, i.e. (Delta N)^2 - <N>; this is d(1)."""
    value = moments.ad2a2.real - np.float_power(moments.ada.real, 2)
    return _report("antibunching_second_order", value, tolerance)


def hillery_squeezing(
    moments: MomentSet,
    tolerance: float = DEFAULT_BOUNDARY_TOL,
) -> CriterionReport:
    """Squared-amplitude squeezing witness (Delta Y1)^2 - <2N + 1> with
    Y1 = (a^dag^2 + a^2)/sqrt(2); negative means amplitude-squared squeezed.

    Uses <Y1^2> = Re<a^4> + <a^dag^2 a^2> + 2 <a^dag a> + 1 (the commutator
    [a, a^dag] folds a^2 a^dag^2 onto normally ordered pieces) and
    <Y1> = sqrt(2) Re<a^2>; the <2N + 1> reference cancels the 2<N> + 1 part.
    """
    value = moments.a4.real + moments.ad2a2.real - 2.0 * np.float_power(moments.a2.real, 2)
    return _report("hillery_squeezing", value, tolerance)


def lee_R(moments: Moments, l: int, m: int) -> float:
    """Factorial-moment ratio criterion
    R(l, m) = <N^(l+1)> <N^(m-1)> / (<N^(l)> <N^(m)>) - 1, with <N^(0)> = 1.

    Negative R flags higher-order antibunching.  Requires l >= m >= 1 (the
    ordering that admits the general-order use made of it downstream).
    """
    if not (l >= m >= 1):
        raise ValueError(f"need l >= m >= 1, got l={l}, m={m}")
    fm = _factorial_moments(moments)
    if l + 1 > len(fm):
        raise ValueError(f"need factorial moments up to order {l + 1}, have {len(fm)}")

    def nfac(i: int) -> float:
        return 1.0 if i == 0 else fm[i - 1]

    denom = nfac(l) * nfac(m)
    if denom == 0.0:
        raise VacuumDenominatorError(
            f"<N^({l})> <N^({m})> = 0 (vacuum-dominated state); R(l, m) undefined"
        )
    return nfac(l + 1) * nfac(m - 1) / denom - 1.0


def ba_an_A(moments: Moments, l: int) -> float:
    """A_l = <N^(l+1)> / (<N^(l)> <N>) - 1, the m = 1 reduction of lee_R."""
    return lee_R(moments, l, 1)


def hoa_d_from_moments(
    moments: Moments,
    l: int,
    tolerance: float = DEFAULT_BOUNDARY_TOL,
) -> CriterionReport:
    """d(l) = <N^(l+1)> - <N>^(l+1); negative flags order-l antibunching.

    Evaluated standalone for each l; no ordering chain between orders is
    assumed or enforced.
    """
    if l < 1:
        raise ValueError(f"order l must be >= 1, got {l}")
    fm = _factorial_moments(moments)
    if l + 1 > len(fm):
        raise ValueError(f"need factorial moments up to order {l + 1}, have {len(fm)}")
    value = fm[l] - np.float_power(fm[0], l + 1)
    return _report(f"hoa_d_{l}", value, tolerance)
