"""Exact symmetries of the model, through both moment kernels.

H is real and commutes with the parity (-1)^N, and without the quartic term
a coherent state stays coherent in the rotating frame.  So the exact oracle
and the first-order operator a_1(t) both satisfy:

* time reversal: the block at (-theta, -t) is the complex conjugate of the
  block at (theta, t);
* parity: theta -> theta + pi flips the sign of the odd monomials a and
  a^dag a^2 and leaves the other eight unchanged;
* free evolution: at lam = 0 every row is ``coherent_moment_set(alpha)``.

Each property holds for one-slice groups and for a group of several thetas,
at times in [-4 pi, 4 pi], to ``TOL`` times max(1, |moment|) rather than bit
for bit, so that a kernel that rounds differently must keep them too.  The
worst residuals measured on a grid of |alpha| <= 4 were 0.0 (time reversal),
1.5e-14 (parity) and 3.1e-15 (free evolution) on the exact path, and 3.4e-15
(parity) and 6.7e-16 (free evolution) on the first-order path; random draws
reach parity residuals above 2e-14.
"""

from dataclasses import astuple
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharmonic.dynamics import MONOMIALS, coherent_moment_set, exact_moment_blocks
from anharmonic.fock import ModelParams
from anharmonic.perturbative import first_order_moment_blocks

KERNELS = {"exact": exact_moment_blocks, "first_order": first_order_moment_blocks}
TOL = 1e-12
#: -1 for the monomials a^dag^m a^n with n - m odd, which change sign with alpha.
PARITY = np.array([-1.0 if (n - m) % 2 else 1.0 for m, n in MONOMIALS])

alphas = st.floats(0.0, 4.0)
theta_lists = st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=3)
lams = st.floats(0.0, 1e-2)
grids = st.lists(st.floats(-4 * np.pi, 4 * np.pi), min_size=1, max_size=6).map(np.array)
PROPERTY = settings(max_examples=30, deadline=None)
kernels = pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS)


def blocks(kernel, alpha_mag, thetas, lam, ts):
    """The blocks of ``thetas`` at (alpha_mag, lam), from one group of all of
    them and then from one-slice groups, in theta order."""
    group = [ModelParams.auto(alpha_mag, th, lam) for th in thetas]
    return [*kernel(group, ts), *(block for p in group for block in kernel([p], ts))]


def assert_close(actual, expected):
    assert np.all(np.abs(actual - expected) <= TOL * np.maximum(1.0, np.abs(expected)))


@kernels
@PROPERTY
@given(alphas, theta_lists, lams, grids)
def test_time_reversal_conjugates_the_block(kernel, a, thetas, lam, ts):
    forward = blocks(kernel, a, thetas, lam, ts)
    backward = blocks(kernel, a, [-th for th in thetas], lam, -ts)
    for f, b in zip(forward, backward, strict=True):
        assert_close(b, f.conj())


@kernels
@PROPERTY
@given(alphas, theta_lists, lams, grids)
def test_parity_flips_the_odd_monomials(kernel, a, thetas, lam, ts):
    flipped = blocks(kernel, a, [th + np.pi for th in thetas], lam, ts)
    for f, b in zip(flipped, blocks(kernel, a, thetas, lam, ts), strict=True):
        assert_close(f, PARITY * b)


@kernels
@PROPERTY
@given(alphas, theta_lists, grids)
def test_free_evolution_keeps_the_coherent_moments(kernel, a, thetas, ts):
    coherent = [np.array(astuple(coherent_moment_set(ModelParams.auto(a, th).alpha)))
                for th in thetas]
    for block, expected in zip(blocks(kernel, a, thetas, 0.0, ts), chain(coherent, coherent),
                               strict=True):
        assert_close(block, expected)
