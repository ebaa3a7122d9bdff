"""State-agnostic nonclassicality witnesses.

Every witness here consumes moments, not states, so the same code path
classifies values coming from the exact oracle, from the first-order
operator a_1(t), or from scalar closed forms -- the comparison harness
relies on that seam.  A witness returns its value; only ``classify`` labels
it: below -tolerance is nonclassical, within +-tolerance is boundary
(coherent-state level), above is classical.  The witnesses and ``classify``
also work elementwise on arrays, e.g. on a MomentSet of (T, 7) block
columns, bit for bit like the scalar call: ``np.float_power`` rounds like C
``pow`` on both, where numpy's array ``**`` differs in the last bit.
"""

from __future__ import annotations

import numpy as np

from .dynamics import MomentSet

#: Default half-width of the boundary band: far above machine noise from
#: dense algebra at dim ~ 100, far below any physical lam effect studied.
DEFAULT_BOUNDARY_TOL = 1e-10

NONCLASSICAL = "nonclassical"
CLASSICAL = "classical"
BOUNDARY = "boundary"

#: Labels indexed by classification code, the number of band edges a value
#: lies below: 0 classical, 1 boundary, 2 nonclassical.
LABELS = np.array([CLASSICAL, BOUNDARY, NONCLASSICAL], dtype=object)


class VacuumDenominatorError(ArithmeticError):
    """A factorial-moment denominator vanished (vacuum-dominated state)."""


def classify(value: float, tolerance: float = DEFAULT_BOUNDARY_TOL, codes: bool = False) -> str:
    """nonclassical iff value < -tolerance; boundary iff |value| <= tolerance;
    classical otherwise, NaN included.  An ndarray gives an array of labels.
    With ``codes``, the int8 code of each label in ``LABELS`` instead."""
    code = np.add(value <= tolerance, value < -tolerance, dtype=np.int8)
    return code if codes else LABELS[code]


def quadrature_squeezing(moments: MomentSet) -> float:
    """(Delta X)^2 - 1/2 for X = (a^dag + a)/sqrt(2); negative means squeezed.

    Expansion: <X^2> = Re<a^2> + <a^dag a> + 1/2 and <X> = sqrt(2) Re<a>.
    """
    return moments.a2.real + moments.ada.real - 2.0 * np.float_power(moments.a.real, 2)


def hillery_squeezing(moments: MomentSet) -> float:
    """Squared-amplitude squeezing witness (Delta Y1)^2 - <2N + 1> with
    Y1 = (a^dag^2 + a^2)/sqrt(2); negative means amplitude-squared squeezed.

    Uses <Y1^2> = Re<a^4> + <a^dag^2 a^2> + 2 <a^dag a> + 1 (the commutator
    [a, a^dag] folds a^2 a^dag^2 onto normally ordered pieces) and
    <Y1> = sqrt(2) Re<a^2>; the <2N + 1> reference cancels the 2<N> + 1 part.
    """
    return moments.a4.real + moments.ad2a2.real - 2.0 * np.float_power(moments.a2.real, 2)


def lee_R(moments: MomentSet, l: int, m: int) -> float:
    """Factorial-moment ratio criterion
    R(l, m) = <N^(l+1)> <N^(m-1)> / (<N^(l)> <N^(m)>) - 1, with <N^(0)> = 1.

    Negative R flags higher-order antibunching.  Requires l >= m >= 1 (the
    ordering that admits the general-order use made of it downstream).
    """
    if not (l >= m >= 1):
        raise ValueError(f"need l >= m >= 1, got l={l}, m={m}")
    fm = moments.factorial_moments()
    if l + 1 > len(fm):
        raise ValueError(f"need factorial moments up to order {l + 1}, have {len(fm)}")
    nfac = (1.0, *fm)  # nfac[i] = <N^(i)>
    denom = nfac[l] * nfac[m]
    if np.any(denom == 0.0):
        raise VacuumDenominatorError(
            f"<N^({l})> <N^({m})> = 0 (vacuum-dominated state); R(l, m) undefined"
        )
    return nfac[l + 1] * nfac[m - 1] / denom - 1.0


def hoa_d_from_moments(moments: MomentSet, l: int) -> float:
    """d(l) = <N^(l+1)> - <N>^(l+1); negative flags order-l antibunching.

    Evaluated standalone for each l; no ordering chain between orders is
    assumed or enforced.
    """
    if l < 1:
        raise ValueError(f"order l must be >= 1, got {l}")
    fm = moments.factorial_moments()
    if l + 1 > len(fm):
        raise ValueError(f"need factorial moments up to order {l + 1}, have {len(fm)}")
    return fm[l] - np.float_power(fm[0], l + 1)
