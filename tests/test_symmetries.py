"""Exact symmetries of the model, through both moment kernels.

H is real and commutes with the parity (-1)^N, and without the quartic term
a coherent state stays coherent in the rotating frame.  So the exact oracle
and the first-order operator a_1(t) both satisfy:

* time reversal: the block at (-theta, -t) is the complex conjugate of the
  block at (theta, t);
* parity: theta -> theta + pi flips the sign of the odd monomials a and
  a^dag a^2 and leaves the others unchanged;
* free evolution: at lam = 0 every row is ``coherent_moment_set(alpha)``.

Each property holds for one-slice groups and for a group of several thetas,
at times in [-4 pi, 4 pi], to ``TOL`` times max(1, |moment|) rather than bit
for bit, so that a kernel that rounds differently must keep them too; for
a_1(t), in the five columns its kernel computes.  Both
kernels run at twice the default dim, where the exact oracle accepts every
draw (at the default dim, theta = 0 and lam = 1e-2 it refuses |alpha| = 1, 2,
3 and 4).  The worst residuals measured at the default dim on a grid of
|alpha| <= 4 were 0.0 (time reversal), 1.5e-14 (parity) and 3.1e-15 (free
evolution) on the exact path, and 3.4e-15 (parity) and 6.7e-16 (free
evolution) on the first-order path; random draws reach parity residuals above
2e-14.

Through ``run_sweep`` every witness reads only real parts of even functions
of the block, so in mode ``compare`` both value columns are unchanged by
(theta, t) -> (-theta, -t) and by theta -> theta + pi, to ``TOL`` times
max(1, |alpha|^2)^k with k the witness's moment order.  Over 100 random draws
time reversal was bit for bit and the worst scaled parity residual was 2.3e-14.
"""

from dataclasses import astuple
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharmonic.dynamics import MONOMIALS, coherent_inputs, coherent_moment_set, exact_moment_blocks
from anharmonic.fock import ModelParams, default_dim
from anharmonic.perturbative import first_order_moment_blocks
from anharmonic.sweep import WITNESS_NAMES, SweepSpec, run_sweep

KERNELS = {"exact": exact_moment_blocks, "first_order": first_order_moment_blocks}
#: The columns each kernel computes: a_1(t)'s leaves <a^dag^3 a^3> and <a^dag^4 a^4> nan.
COLUMNS = {exact_moment_blocks: slice(None),
           first_order_moment_blocks: [j for j, (m, n) in enumerate(MONOMIALS) if m + n <= 4]}
TOL = 1e-12
#: -1 for the monomials a^dag^m a^n with n - m odd, which change sign with alpha.
PARITY = np.array([-1.0 if (n - m) % 2 else 1.0 for m, n in MONOMIALS])
#: Power of max(1, |alpha|^2) that bounds the moments behind each witness.
MOMENT_ORDER = {"N": 1, "quadrature": 1, "d1": 2, "f": 2, "hillery": 2, "d2": 3, "d3": 4}

alphas = st.floats(0.0, 4.0)
theta_lists = st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=3)
lams = st.floats(0.0, 1e-2)
grids = st.lists(st.floats(-4 * np.pi, 4 * np.pi), min_size=1, max_size=6).map(np.array)
PROPERTY = settings(max_examples=30, deadline=None)
kernels = pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS)


def blocks(kernel, alpha_mag, thetas, lam, ts):
    """The blocks of ``thetas`` at (alpha_mag, lam), from one group of all of
    them and then from one-slice groups, in theta order, in the columns the
    kernel computes; the oracle's at twice the default dim."""
    group = [ModelParams(alpha_mag, th, lam) for th in thetas]
    columns = COLUMNS[kernel]
    if kernel is exact_moment_blocks:
        def kernel(ps, ts, dim=2 * default_dim(alpha_mag)):
            return exact_moment_blocks(ps, ts, coherent_inputs(ps, dim))
    return [block[:, columns]
            for block in (*kernel(group, ts), *(b for p in group for b in kernel([p], ts)))]


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
        assert_close(f, PARITY[COLUMNS[kernel]] * b)


@kernels
@PROPERTY
@given(alphas, theta_lists, grids)
def test_free_evolution_keeps_the_coherent_moments(kernel, a, thetas, ts):
    coherent = [np.array(astuple(coherent_moment_set(ModelParams(a, th, 0.0).alpha)))
                for th in thetas]
    for block, expected in zip(blocks(kernel, a, thetas, 0.0, ts), chain(coherent, coherent),
                               strict=True):
        assert_close(block, expected[COLUMNS[kernel]])


@PROPERTY
@given(st.floats(0.0, 3.0), theta_lists, st.floats(1e-4, 1e-2), st.floats(0.0, 4 * np.pi),
       st.integers(2, 9))
def test_sweep_values_keep_time_reversal_and_parity(a, thetas, lam, t_end, t_steps):
    def values(thetas, t_end):
        spec = SweepSpec(alpha_mag=(a,), theta=tuple(thetas), lam=(lam,), t_start=0.0,
                         t_end=t_end, t_steps=t_steps, dim=2 * default_dim(a), mode="compare")
        result = run_sweep(spec)
        return result.value_cf, result.value_exact

    tol = TOL * np.array([max(1.0, a * a) ** MOMENT_ORDER[w] for w in WITNESS_NAMES])
    forward = values(thetas, t_end)
    for other in (values([-th for th in thetas], -t_end), values([th + np.pi for th in thetas], t_end)):
        for f, o in zip(forward, other, strict=True):
            assert np.all(np.abs(o - f) <= tol)
