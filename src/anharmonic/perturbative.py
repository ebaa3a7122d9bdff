"""First-order closed forms for the weakly coupled quartic oscillator.

Two families of scalar formulas live here, and the distinction matters.

``mean_photon_number`` and ``hoa_witness_d(1, ...)`` are exact first-order
perturbation coefficients: their deviation from the spectral oracle shrinks
as lam^2.  The remaining compact witnesses (``squeezing_witness_f``,
``hoa_witness_d`` at orders 2 and 3, ``delta_y1_squared``) trade that
exactness for a simple *sign structure*, which is their contract --
always-negative f at theta = pi/2, bunching for real input, coherence on
the t = 2*theta locus, and the theta = pi/2 specializations.  The
``first_order_*`` functions provide the exact coefficients instead; each
one has been validated against the exact-evolution oracle by the
lam-scaling protocol (residual falls two decades per decade of lam).

All formulas share two adjudicated phase products and one secular factor:

    P1 = sin(t - 2 theta) sin(t)
    P2 = sin(2 (t - 2 theta)) sin(2 t)
    S  = t sin(4 theta)              # grows linearly in t; never wrapped

Keeping every formula routed through these helpers localizes sign and phase
conventions to one place and preserves the exact floating-point zeros on the
t = 2*theta locus (the argument t - 2*theta is computed as written, so it is
exactly 0.0 there).

Every closed form takes ``t`` as a float (giving numpy's float64) or an
array of times, and ``theta`` as a float or a 1-d array, whose axis comes
first: an array gives one value per (theta, t), bit-identical to the float
call.  The phase pieces of one (theta, t) grid -- P1, P2, sin t, sin 2t,
sin(t + 2 theta) and S -- are built once, when a closed form first reads them,
in the inputs' ``PhaseTable``, which inputs on the same grid share
(``ClosedFormInputs.at``).

The first-order operator solution in the rotating frame is

    a_1(t) = a - (i lam / 8) [ 6 t a + 6 t a^dag a^2 + 6 e^{it} sin(t) a^dag^2 a
                               + e^{2it} sin(2t) a^dag^3 + 6 e^{it} sin(t) a^dag
                               + 2 e^{-it} sin(t) a^3 ],

obtained from the unitary sandwich U^dag a U with the first-order Dyson
propagator; the sign of every bracket term was adjudicated against the
oracle (the a^dag^3 coefficient in particular must be +e^{2it} sin 2t for
the lam-scaling test to hold).  It is an operator identity, so its moments over
the coherent input need no Fock basis: with a = alpha + b the input is the
vacuum of b, and they are taken exactly on 13 levels of b, for every |alpha|
(``first_order_moment_blocks``).  Only the exact oracle owns a truncated basis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dynamics import group_lam, ladder_moment_block, lay_out_bands


@dataclass(frozen=True)
class ClosedFormInputs:
    """Arguments of every closed form: (|alpha|, theta, lam, t).

    ``t`` is a float or an array of times and ``theta`` a float or a 1-d array,
    whose axis comes first in the values: shaped (len(theta), *t.shape).
    """

    alpha_mag: float
    theta: float
    lam: float
    t: float

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        theta = np.array(self.theta, dtype=float)
        if theta.ndim > 1:
            raise ValueError(f"theta must be a float or a 1-d array, got shape {theta.shape}")
        values = (float(self.alpha_mag), float(theta) if theta.ndim == 0 else theta,
                  float(self.lam), float(t) if t.ndim == 0 else t)
        for name, value in zip(("alpha_mag", "theta", "lam", "t"), values):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
            if name in ("alpha_mag", "lam") and value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)

    @cached_property
    def phases(self) -> "PhaseTable":
        """The phase pieces of this theta and t, built when first read."""
        return PhaseTable(self.theta, self.t)

    def at(self, alpha_mag: float, lam: float) -> "ClosedFormInputs":
        """These inputs at another |alpha| and lam, sharing their phase table,
        which is built here if it was not yet."""
        inputs = replace(self, alpha_mag=alpha_mag, lam=lam)
        inputs.__dict__["phases"] = self.phases  # where cached_property keeps it
        return inputs


class PhaseTable:
    """The phase pieces of the closed forms on one (theta, t) grid, as C-contiguous
    arrays (or float64s): P1 ``p1``, P2 ``p2``, S ``secular`` and sin(t + 2 theta)
    ``sin_t_2theta``, shaped (len(theta), *t.shape) for a 1-d theta, and sin t
    ``sin_t`` and sin 2t ``sin_2t``, shaped like t."""

    def __init__(self, theta, t):
        if np.ndim(theta):  # a column, so that it broadcasts against t
            theta = theta.reshape(-1, *(1,) * np.ndim(t))
        self.p1 = phase_fundamental(theta, t)
        self.p2 = phase_second_harmonic(theta, t)
        self.secular = secular_factor(theta, t)
        self.sin_t = np.sin(t)
        self.sin_2t = np.sin(2.0 * t)
        self.sin_t_2theta = np.sin(t + 2.0 * theta)


# ---------------------------------------------------------------------------
# shared bracket pieces (separately testable)
# ---------------------------------------------------------------------------

def phase_fundamental(theta: float, t: float) -> float:
    """P1 = sin(t - 2 theta) sin(t); exactly 0.0 on the t = 2*theta locus."""
    return np.sin(t - 2.0 * theta) * np.sin(t)


def phase_second_harmonic(theta: float, t: float) -> float:
    """P2 = sin(2 (t - 2 theta)) sin(2 t); exactly 0.0 at t = 2*theta."""
    return np.sin(2.0 * (t - 2.0 * theta)) * np.sin(2.0 * t)


def secular_factor(theta: float, t: float) -> float:
    """S = t sin(4 theta).  Linear growth is physical at first order; the
    argument is never reduced modulo 2*pi."""
    return t * np.sin(4.0 * theta)


# ---------------------------------------------------------------------------
# exact first-order coefficients (oracle-validated)
# ---------------------------------------------------------------------------

def mean_photon_correction(inputs: ClosedFormInputs) -> float:
    """First-order shift of <N(t)> away from |alpha|^2; exactly linear in lam."""
    r2 = inputs.alpha_mag**2
    p1, p2 = inputs.phases.p1, inputs.phases.p2
    return (inputs.lam / 4.0) * (2.0 * r2 * (2.0 * r2 + 3.0) * p1 + r2 * r2 * p2)


def mean_photon_number(inputs: ClosedFormInputs) -> float:
    """<N(t)> = |alpha|^2 + (lam/4)[2|a|^2(2|a|^2+3) P1 + |a|^4 P2].

    Exact first-order coefficient of the model (lam-scaling slope 2 against
    the oracle).
    """
    return inputs.alpha_mag**2 + mean_photon_correction(inputs)


def first_order_hoa_d(order: int, inputs: ClosedFormInputs) -> float:
    """Exact first-order antibunching witness d(order) = <N^(order+1)> - <N>^(order+1);
    negative means order-``order`` antibunching.

    order 1: (3 lam r^2 / 4) [ 2 (2 r^2 + 1) P1 + r^2 P2 ]
    order 2: (3 lam r^4 / 4) [ 2 (6 r^2 + 5) P1 + (3 r^2 + 2) P2 ]
    order 3: (3 lam / 4) [ 4 r^6 (6 r^2 + 7) P1 + 2 r^4 (3 r^4 + 4 r^2 + 1) P2 ]

    Each validated against the exact-evolution oracle (residual O(lam^2)).
    """
    r2 = inputs.alpha_mag**2
    p1, p2 = inputs.phases.p1, inputs.phases.p2
    if order == 1:
        return (3.0 * inputs.lam * r2 / 4.0) * (2.0 * (2.0 * r2 + 1.0) * p1 + r2 * p2)
    if order == 2:
        return (3.0 * inputs.lam * r2 * r2 / 4.0) * (2.0 * (6.0 * r2 + 5.0) * p1
                                                     + (3.0 * r2 + 2.0) * p2)
    if order == 3:
        return (3.0 * inputs.lam / 4.0) * (
            4.0 * r2**3 * (6.0 * r2 + 7.0) * p1 + 2.0 * r2 * r2 * (3.0 * r2 * r2 + 4.0 * r2 + 1.0) * p2)
    raise ValueError(f"order must be 1, 2 or 3, got {order}: a first-order operator solution "
                     "carries no information about antibunching of fourth or higher order")


def first_order_squeezing_f(inputs: ClosedFormInputs) -> float:
    """Exact first-order squeezing witness f = (Delta Y1)^2 - <2N+1>:

        -(3 lam / 4) [ -4 r^2 (2 r^2 + 3) sin(t) sin(t + 2 theta)
                       - 4 r^4 S - (2 r^4 + 4 r^2 + 1) sin^2(2t) ]

    Differs from the compact form ``squeezing_witness_f`` only in the
    sign of the sin^2(2t) term; that sign is what the oracle fixes.
    """
    return _squeezing_f(inputs, sin2_sign=-1.0)


def _squeezing_f(inputs: ClosedFormInputs, sin2_sign: float) -> float:
    """Both f forms; ``sin2_sign`` is the sign of their sin^2(2t) term."""
    r2 = inputs.alpha_mag**2
    ph = inputs.phases
    return -(3.0 * inputs.lam / 4.0) * (
        -4.0 * r2 * (2.0 * r2 + 3.0) * ph.sin_t * ph.sin_t_2theta
        - 4.0 * r2 * r2 * ph.secular
        + sin2_sign * (2.0 * r2 * r2 + 4.0 * r2 + 1.0) * ph.sin_2t * ph.sin_2t
    )


def _delta_y1_squared(inputs: ClosedFormInputs, sin2_sign: float) -> float:
    """(Delta Y1)^2 = f + <2N + 1> with the f form of ``_squeezing_f``."""
    return (2.0 * inputs.alpha_mag**2 + 1.0 + _squeezing_f(inputs, sin2_sign)
            + 2.0 * mean_photon_correction(inputs))


def first_order_delta_y1_squared(inputs: ClosedFormInputs) -> float:
    """Exact first-order (Delta Y1)^2 = f + <2N + 1> with the validated f."""
    return _delta_y1_squared(inputs, sin2_sign=-1.0)


# ---------------------------------------------------------------------------
# compact forms (sign-structure contract)
# ---------------------------------------------------------------------------

def delta_y1_squared(inputs: ClosedFormInputs) -> float:
    """Survey form of the squared-amplitude variance (Delta Y1)^2,
    Y1 = (a^dag^2 + a^2)/sqrt(2), built from the identity
    f = (Delta Y1)^2 - <2N+1> with ``squeezing_witness_f`` and
    ``mean_photon_number``.  For the oracle-validated variant see
    ``first_order_delta_y1_squared``.
    """
    return _delta_y1_squared(inputs, sin2_sign=1.0)


def squeezing_witness_f(inputs: ClosedFormInputs) -> float:
    """Survey witness f for squared-amplitude squeezing; f < 0 flags squeezing.

    Sign-structure contract: never positive at theta = pi/2 (see
    ``squeezing_witness_f_special``), oscillates with theta and t otherwise.
    Not the exact first-order coefficient -- the sin^2(2t) term enters with
    the opposite sign there; see ``first_order_squeezing_f``.
    """
    return _squeezing_f(inputs, sin2_sign=1.0)


def squeezing_witness_f_special(inputs: ClosedFormInputs) -> float:
    """Survey witness f with the input phase pinned to theta = pi/2:

        f = -(3 lam / 4) [ 4 r^2 (2 r^2 + 3) sin^2 t + (2 r^4 + 4 r^2 + 1) sin^2 2t ]

    A sum of squares times a negative prefactor, hence always <= 0.  The
    ``theta`` field of ``inputs`` is ignored, so the values are shaped like t.
    """
    r2 = inputs.alpha_mag**2
    st, s2t = inputs.phases.sin_t, inputs.phases.sin_2t
    return -(3.0 * inputs.lam / 4.0) * (
        4.0 * r2 * (2.0 * r2 + 3.0) * st * st
        + (2.0 * r2 * r2 + 4.0 * r2 + 1.0) * s2t * s2t
    )


def hoa_witness_d(order: int, inputs: ClosedFormInputs) -> float:
    """Survey witness d(order); d < 0 flags antibunching of that order.

    order 1: (3 lam r^2 / 4) [ 2 (2 r^2 + 1) P1 + r^2 P2 ]   (first-order exact)
    order 2: (3 lam r^4 / 2) [ P1 + P2 ]
    order 3: (3 lam r^4 / 4) P2

    Sign-structure contract shared by all three: sums of squares (hence
    bunching) for real input theta = 0 or pi, exact zero on the coherence
    locus t = 2*theta, and the theta = pi/2 specializations of
    ``hoa_witness_d_special``.  Orders 2 and 3 are not the exact first-order
    coefficients; order 1 (and order validation) is ``first_order_hoa_d``.
    """
    if order not in (2, 3):
        return first_order_hoa_d(order, inputs)
    r2 = inputs.alpha_mag**2
    p1, p2 = inputs.phases.p1, inputs.phases.p2
    if order == 2:
        return (3.0 * inputs.lam * r2 * r2 / 2.0) * (p1 + p2)
    return (3.0 * inputs.lam * r2 * r2 / 4.0) * p2


def hoa_witness_d_special(order: int, inputs: ClosedFormInputs) -> float:
    """theta = pi/2 specializations of the compact d(2) and d(3):

        d(2) = (3 lam r^4 / 2) [ -sin^2 t + sin^2 2t ]
        d(3) = (3 lam r^4 / 4) sin^2 2t

    d(3) never goes negative here, so third-order antibunching cannot
    coincide with the always-on squeezing of ``squeezing_witness_f_special``.
    The ``theta`` field of ``inputs`` is ignored, so the values are shaped like t.
    """
    r4 = inputs.alpha_mag**4
    st, s2t = inputs.phases.sin_t, inputs.phases.sin_2t
    if order == 2:
        return (3.0 * inputs.lam * r4 / 2.0) * (-st * st + s2t * s2t)
    if order == 3:
        return (3.0 * inputs.lam * r4 / 4.0) * s2t * s2t
    raise ValueError(f"specialized forms exist for orders 2 and 3 only, got {order}")


# ---------------------------------------------------------------------------
# first-order operator solution, in the displaced frame
# ---------------------------------------------------------------------------

#: Levels of b in a = alpha + b: each word of a_1(t) is normally ordered, so its
#: truncated product is exact on them, and a_1^4 |0> raises b's vacuum by at most 12.
LEVELS = 13


def _displaced_words(alpha: complex):
    """((p, q), W) of each word W = a^dag^p a^q of a_1(t), in
    ``_bracket_coefficients`` order, as a dense ``LEVELS`` x ``LEVELS`` product
    with a = alpha + b.  a^q is upper and a^dag^p lower triangular, so W is the
    top-left block of the untruncated word, with diagonals -p .. q only."""
    a = alpha * np.eye(LEVELS) + np.diag(np.sqrt(np.arange(1.0, LEVELS)), 1)
    ad = a.conj().T
    return (((0, 1), a), ((1, 2), ad @ a @ a), ((2, 1), ad @ ad @ a),
            ((3, 0), ad @ ad @ ad), ((1, 0), ad), ((0, 3), a @ a @ a))


def _bracket_coefficients(lam: float, t):
    """Coefficients c_w(t) of a_1(t) = sum_w c_w(t) W_w over the words a, a^dag a^2,
    a^dag^2 a, a^dag^3, a^dag, a^3; ``t`` is a float or an array of times."""
    f = np.exp(1j * t) * np.sin(t)
    g = np.exp(2j * t) * np.sin(2.0 * t)
    fbar = np.exp(-1j * t) * np.sin(t)
    s = -1j * lam / 8.0
    return (1.0 + s * (6.0 * t), s * (6.0 * t), s * (6.0 * f), s * g, s * (6.0 * f), s * (2.0 * fbar))


def first_order_moment_blocks(params_list, ts):
    """Yield, per params of a group that shares lam, the moments of the
    first-order operator over its initial coherent state at every t of ``ts``,
    as a (T, len(MONOMIALS)) block (see ``dynamics.MONOMIALS``).

    <alpha| a_1^dag^m a_1^n |alpha> is (a_1^m e0)^dag (a_1^n e0) in the displaced
    frame, e0 the vacuum of b, on ``LEVELS`` levels.  The operator already lives
    in the rotating frame, so no extra phases apply.  Each word a^dag^p a^q is a
    dense 13 x 13 product with diagonals -p .. q, so a_1(t) acts on the (T, 13)
    block of kets as weighted shifts on 7 offsets, laid out per slice
    (``dynamics.lay_out_bands``) with one coefficient row per t; the group shares
    only the coefficient rows.  Agrees with the exact oracle to O(lam^2) -- the
    dropped cross terms of the Dyson series.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    coefs = _bracket_coefficients(group_lam(params_list), ts)
    vacuum = np.broadcast_to(np.eye(LEVELS, dtype=complex)[0], (ts.size, LEVELS))
    for params in params_list:
        bands = lay_out_bands(((k, c[:, None] * np.diagonal(w, k))
                               for c, ((p, q), w) in zip(coefs, _displaced_words(params.alpha))
                               for k in range(-p, q + 1)),
                              ts.size, LEVELS)
        yield ladder_moment_block(bands, vacuum)
