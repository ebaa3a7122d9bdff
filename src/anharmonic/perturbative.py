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
array of times, ``theta`` as a float or a 1-d array, whose axis comes first,
and |alpha| and lam as floats or arrays that broadcast against the (theta, t)
values: an array gives one value per element, bit-identical to the float
call.  Each power is ``np.float_power``, which rounds like C ``pow`` on both
and gives inf beyond the float range, where numpy's array ``**`` differs in
the last bit and Python's float ``**`` raises ``OverflowError``.  The phase
pieces of the (theta, t) grid -- P1, P2, sin t, sin 2t, sin(t + 2 theta) and
S -- are built once per inputs, in their ``PhaseTable``.

The first-order operator solution in the rotating frame is

    a_1(t) = a - (i lam / 8) [ 6 t a + 6 t a^dag a^2 + 6 e^{it} sin(t) a^dag^2 a
                               + e^{2it} sin(2t) a^dag^3 + 6 e^{it} sin(t) a^dag
                               + 2 e^{-it} sin(t) a^3 ],

obtained from the unitary sandwich U^dag a U with the first-order Dyson
propagator; the sign of every bracket term was adjudicated against the
oracle (the a^dag^3 coefficient in particular must be +e^{2it} sin 2t for
the lam-scaling test to hold).  It is an operator identity, so its moments over
the coherent input need no Fock basis: with a = alpha + b the input is the vacuum
of b, and the moments the witnesses read are taken exactly from a_1|0> and a_1^2|0>
on 7 levels of b (``first_order_moment_blocks``).  Only the oracle owns a basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import MONOMIALS, group_lam


@dataclass(frozen=True)
class ClosedFormInputs:
    """Arguments of every closed form: (|alpha|, theta, lam, t), and ``phases``,
    the ``PhaseTable`` of theta and t.

    ``t`` is a float or an array of times and ``theta`` a float or a 1-d array,
    whose axis comes first in the (theta, t) values: shaped (len(theta), *t.shape).
    ``alpha_mag`` and ``lam`` are floats or arrays that broadcast against them.
    """

    alpha_mag: float
    theta: float
    lam: float
    t: float
    phases: PhaseTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("alpha_mag", "theta", "lam", "t"):
            value = np.array(getattr(self, name), dtype=float)
            if name == "theta" and value.ndim > 1:
                raise ValueError(f"theta must be a float or a 1-d array, got shape {value.shape}")
            value = float(value) if value.ndim == 0 else value
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
            if name in ("alpha_mag", "lam") and np.any(value < 0.0):
                raise ValueError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "phases", PhaseTable(self.theta, self.t))


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
    r2 = np.float_power(inputs.alpha_mag, 2)
    p1, p2 = inputs.phases.p1, inputs.phases.p2
    return (inputs.lam / 4.0) * (2.0 * r2 * (2.0 * r2 + 3.0) * p1 + r2 * r2 * p2)


def mean_photon_number(inputs: ClosedFormInputs) -> float:
    """<N(t)> = |alpha|^2 + (lam/4)[2|a|^2(2|a|^2+3) P1 + |a|^4 P2].

    Exact first-order coefficient of the model (lam-scaling slope 2 against
    the oracle).
    """
    return np.float_power(inputs.alpha_mag, 2) + mean_photon_correction(inputs)


def first_order_hoa_d(order: int, inputs: ClosedFormInputs) -> float:
    """Exact first-order antibunching witness d(order) = <N^(order+1)> - <N>^(order+1);
    negative means order-``order`` antibunching.

    order 1: (3 lam r^2 / 4) [ 2 (2 r^2 + 1) P1 + r^2 P2 ]
    order 2: (3 lam r^4 / 4) [ 2 (6 r^2 + 5) P1 + (3 r^2 + 2) P2 ]
    order 3: (3 lam / 4) [ 4 r^6 (6 r^2 + 7) P1 + 2 r^4 (3 r^4 + 4 r^2 + 1) P2 ]

    Each validated against the exact-evolution oracle (residual O(lam^2)).
    """
    r2 = np.float_power(inputs.alpha_mag, 2)
    p1, p2 = inputs.phases.p1, inputs.phases.p2
    if order == 1:
        return (3.0 * inputs.lam * r2 / 4.0) * (2.0 * (2.0 * r2 + 1.0) * p1 + r2 * p2)
    if order == 2:
        return (3.0 * inputs.lam * r2 * r2 / 4.0) * (2.0 * (6.0 * r2 + 5.0) * p1
                                                     + (3.0 * r2 + 2.0) * p2)
    if order == 3:
        return (3.0 * inputs.lam / 4.0) * (
            4.0 * np.float_power(r2, 3) * (6.0 * r2 + 7.0) * p1
            + 2.0 * r2 * r2 * (3.0 * r2 * r2 + 4.0 * r2 + 1.0) * p2)
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
    r2 = np.float_power(inputs.alpha_mag, 2)
    ph = inputs.phases
    return -(3.0 * inputs.lam / 4.0) * (
        -4.0 * r2 * (2.0 * r2 + 3.0) * ph.sin_t * ph.sin_t_2theta
        - 4.0 * r2 * r2 * ph.secular
        + sin2_sign * (2.0 * r2 * r2 + 4.0 * r2 + 1.0) * ph.sin_2t * ph.sin_2t
    )


def _delta_y1_squared(inputs: ClosedFormInputs, sin2_sign: float) -> float:
    """(Delta Y1)^2 = f + <2N + 1> with the f form of ``_squeezing_f``."""
    return (2.0 * np.float_power(inputs.alpha_mag, 2) + 1.0 + _squeezing_f(inputs, sin2_sign)
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
    r2 = np.float_power(inputs.alpha_mag, 2)
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
    r2 = np.float_power(inputs.alpha_mag, 2)
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
    r4 = np.float_power(inputs.alpha_mag, 4)
    st, s2t = inputs.phases.sin_t, inputs.phases.sin_2t
    if order == 2:
        return (3.0 * inputs.lam * r4 / 2.0) * (-st * st + s2t * s2t)
    if order == 3:
        return (3.0 * inputs.lam * r4 / 4.0) * s2t * s2t
    raise ValueError(f"specialized forms exist for orders 2 and 3 only, got {order}")


# ---------------------------------------------------------------------------
# first-order operator solution, in the displaced frame
# ---------------------------------------------------------------------------

#: Levels of b in a = alpha + b that a_1^2|0> reaches: each word of a_1(t) raises by <= 3.
KET_LEVELS = 7


def _displaced_words(alpha: complex):
    """((p, q), W) of each word W = a^dag^p a^q of a_1(t), in
    ``_bracket_coefficients`` order, as a dense ``KET_LEVELS`` x ``KET_LEVELS``
    product with a = alpha + b.  a^q is upper and a^dag^p lower triangular, so W is
    the top-left block of the untruncated word, with diagonals -p .. q only."""
    a = alpha * np.eye(KET_LEVELS) + np.diag(np.sqrt(np.arange(1.0, KET_LEVELS)), 1)
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
    as a (T, len(MONOMIALS)) block (see ``dynamics.MONOMIALS``); <a^dag^3 a^3>
    and <a^dag^4 a^4>, which no witness reads, are nan.

    They are <0| a_1^dag^m a_1^n |0> in the displaced frame, |0> b's vacuum: a_1|0>
    lives on levels 0 .. 3, a_1^2|0> on 0 .. 6, and <a_1^4> is row 0 of a_1 against
    levels 0 .. 3 of a_1^3|0>.  Each diagonal -3 .. 3 of a_1 is kept on its four
    entries in rows or columns 0 .. 3, summed as c * W in word order like the dense
    sum (numpy's complex product rounds by operand order).  All arithmetic is
    elementwise over t, so a row keeps its bits on any grid (``np.sum`` over axis 0
    adds in another order at T = 1); no per-slice array is wider than (T, KET_LEVELS).
    Agrees with the exact oracle to O(lam^2).
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    coefs = _bracket_coefficients(group_lam(params_list), ts)
    n = KET_LEVELS // 2 + 1
    shifts = {d: (max(0, -d), max(0, d)) for d in range(1 - n, n)}
    for params in params_list:
        words = _displaced_words(params.alpha)
        band = {d: np.zeros((n, ts.size), complex) for d in shifts}  # row i: a_1[lo + i, hi + i]
        for c, ((p, q), w) in zip(coefs, words):
            for d in range(-p, q + 1):
                band[d] += c * np.diagonal(w, d)[:n, None]
        k1 = np.array([band[-j][0] for j in range(n)])  # a_1|0>
        k2, k3 = np.zeros((KET_LEVELS, ts.size), complex), np.zeros((n, ts.size), complex)
        for d, (lo, hi) in shifts.items():  # a_1^2|0>
            k2[lo:lo + n - hi] += band[d][:n - hi] * k1[hi:]
        for d, (lo, hi) in shifts.items():  # levels 0 .. 3 of a_1^3|0>
            k3[lo:] += band[d][:n - lo] * k2[hi:hi + n - lo]
        moments = {(0, 1): k1[0], (0, 2): k2[0], (0, 4): sum(band[j][0] * k3[j] for j in range(n)),
                   (1, 1): sum((k1.conj() * k1).real), (2, 2): sum((k2.conj() * k2).real)}
        yield np.stack([moments.get(mn, np.full(ts.size, np.nan)) for mn in MONOMIALS], axis=1)
