"""Property tests for the sign contracts of the compact closed forms.

The contracts (README, "Two families of closed forms"): f <= 0 at
theta = pi/2; d(l) >= 0 for real input, theta in {0, pi}; an exact 0 on the
coherence locus t = 2 theta; and d(3) >= 0 at theta = pi/2.  The acceptance
module checks them at hand-picked points; here hypothesis draws |alpha| <= 20,
lam <= 1 and |t| <= 4 pi, with the multiples of pi/2 (where the phase
products vanish) drawn on purpose.

Rounding bound.  Each phase product is sin(u) sin(v) with u = v or u = v + 2 pi
(or v + pi) in exact arithmetic, so it is a square or minus a square.  At
theta = 0, ``t - 2 theta`` is exactly t and the products are exact squares.
At theta = pi or pi/2, ``2 theta`` is 2 pi or pi rounded (error <= 2.5e-16),
``t - 2 theta`` is rounded once (<= ulp(6 pi) / 2 = 1.8e-15), the factor 2 of
P2 doubles both, and each sin rounds once (<= 1.1e-16).  So sin(u) differs
from +-sin(v) by at most 4.5e-15 < ETA, and a product that should be a square
s^2 is negative only where |s| <= ETA, hence never below -ETA^2.  Measured:
hoa_witness_d(1, ClosedFormInputs(1, pi, 1e-2, pi)) = -1.1e-33 and
hoa_witness_d(3, ClosedFormInputs(1, pi/2, 1e-2, pi/2)) = -1.1e-34.

The compact f carries one more term, the secular -4 r^4 S with
S = t sin(4 theta), which vanishes only at the exact theta = pi/2: at the
rounded pi/2, sin(4 theta) = sin(2 pi rounded) = -2.4e-16, so f picks up
+3 lam r^4 |S|.  Measured: squeezing_witness_f(ClosedFormInputs(2, pi/2, 1e-2,
-4 pi)) = +1.5e-15.  The bounds below are these worst cases times 2, which
covers the rounding of the few nonnegative terms they are summed from.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from anharmonic.perturbative import (
    ClosedFormInputs,
    hoa_witness_d,
    mean_photon_number,
    secular_factor,
    squeezing_witness_f,
)

ETA = 1e-14

alphas = st.floats(0.0, 20.0)
lams = st.floats(0.0, 1.0)
half_pis = st.integers(-8, 8).map(lambda k: k * math.pi / 2)
times = st.one_of(st.floats(-4 * math.pi, 4 * math.pi), half_pis)
grids = st.lists(times, min_size=1, max_size=16).map(np.array)
thetas = st.one_of(st.floats(-2 * math.pi, 2 * math.pi), st.integers(-4, 4).map(lambda k: k * math.pi / 2))
PROPERTY = settings(max_examples=200, deadline=None)


def d_weight(order, r, lam):
    """hoa_witness_d(order) with both phase products set to 1: the sum of the
    (nonnegative) coefficients of P1 and P2."""
    r2 = r * r
    return {1: 0.75 * lam * r2 * (2.0 * (2.0 * r2 + 1.0) + r2),
            2: 3.0 * lam * r2 * r2,
            3: 0.75 * lam * r2 * r2}[order]


@PROPERTY
@given(alphas, lams, grids)
def test_f_is_never_positive_at_half_pi_phase(r, lam, ts):
    theta = math.pi / 2
    f = squeezing_witness_f(ClosedFormInputs(r, theta, lam, ts))
    r2 = r * r
    bound = 2.0 * 0.75 * lam * (4.0 * r2 * (2.0 * r2 + 3.0) * ETA**2
                                + 4.0 * r2 * r2 * np.abs(secular_factor(theta, ts)))
    assert np.all(f <= bound)


@PROPERTY
@given(alphas, lams, grids)
def test_d_is_exactly_nonnegative_at_theta_zero(r, lam, ts):
    for order in (1, 2, 3):
        assert np.all(hoa_witness_d(order, ClosedFormInputs(r, 0.0, lam, ts)) >= 0.0)


@PROPERTY
@given(alphas, lams, grids)
def test_d_is_nonnegative_at_theta_pi(r, lam, ts):
    for order in (1, 2, 3):
        d = hoa_witness_d(order, ClosedFormInputs(r, math.pi, lam, ts))
        assert np.all(d >= -2.0 * d_weight(order, r, lam) * ETA**2)


@PROPERTY
@given(alphas, thetas, lams)
def test_exact_zero_on_the_coherence_locus(r, theta, lam):
    inputs = ClosedFormInputs(r, theta, lam, 2.0 * theta)
    for order in (1, 2, 3):
        assert hoa_witness_d(order, inputs) == 0.0
    assert mean_photon_number(inputs) == r**2


@PROPERTY
@given(alphas, lams, grids)
def test_d3_is_nonnegative_at_half_pi_phase(r, lam, ts):
    d3 = hoa_witness_d(3, ClosedFormInputs(r, math.pi / 2, lam, ts))
    assert np.all(d3 >= -2.0 * d_weight(3, r, lam) * ETA**2)
