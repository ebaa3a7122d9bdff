"""The exact oracle against an evolution that shares no step with it.

``reference.taylor_moments`` steps exp(-iH dt) by Taylor sums, with H applied
from the closed-form matrix elements of (a^dag + a)^4 and the moments taken by
sqrt(n) shifts: no ``hamiltonian``, no ``_quartic`` and no ``eigh``.  Both
start from the same checked input (``coherent_inputs``) at the default dim.
Every moment of every slice the oracle accepts lies within ``MULTIPLE`` times

    eps (D + max|t| ||H||) (|alpha|^2 + 1)^((m + n)/2)

of the reference, where ||H|| is the reference's ||H||_inf >= ||H||_2.  The D
term covers the rounding at t = 0, where the oracle's phase figure is 0; the
max|t| ||H|| term is the oracle's phase rounding and the Taylor steps' own.
"""

import sys

import numpy as np
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import reference
from anharmonic.dynamics import MONOMIALS, coherent_inputs, exact_moment_blocks
from anharmonic.fock import ModelParams, TruncationError, default_dim

#: Over 1,700 random slices (|alpha| <= 3, lam <= 1e-2, up to 8 times in
#: [0, 2 pi], at the default dim) the largest gap was 0.61 of the scale above.
MULTIPLE = 2.0
ORDERS = np.array([(m + n) / 2 for m, n in MONOMIALS])


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(-np.pi, np.pi), st.floats(0.0, 1e-2),
       st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=8))
@example(0.0, 0.0, 1e-2, [0.0, 2 * np.pi])
@example(1.0, 0.3, 1e-2, [0.0, 1.0, np.pi, 2 * np.pi])
@example(3.0, np.pi / 2, 1e-3, [2 * np.pi])
def test_the_oracle_is_the_taylor_evolution(alpha_mag, theta, lam, ts):
    params = ModelParams(alpha_mag, theta, lam)
    dim = default_dim(alpha_mag)
    inputs = coherent_inputs([params], dim)
    try:
        [block] = exact_moment_blocks([params], ts, inputs)
    except TruncationError:  # the evolved state reaches the edge of the basis
        reject()
    expected, norm = reference.taylor_moments(lam, ts, inputs[0])
    scale = (sys.float_info.epsilon * (dim + max(ts) * norm)
             * (alpha_mag**2 + 1.0) ** ORDERS)
    gap = np.abs(block - expected) / scale
    assert np.all(gap <= MULTIPLE), (params, float(gap.max()))
