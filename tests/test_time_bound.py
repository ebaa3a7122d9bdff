"""The exact oracle's time bound, against a 30-digit evolution.

``dynamics.PHASE_TOLERANCE`` bounds eps |t| max(w), the rounding of the phases
w t that ``eigh``'s eigenvalues carry into a long time grid.  At two fixed
points, the largest |t| the bound accepts gives moments within
0.5 eps |t| max(w) (|alpha|^2 + 1)^((m + n)/2) of an mpmath evolution
(``mp.eigsy`` on H written from its exact elements), and a grid just past it
is refused.  This is the check that ties the constant to a measurement.
"""

import sys

import mpmath as mp
import numpy as np
import pytest

from anharmonic.dynamics import (MONOMIALS, PHASE_TOLERANCE, coherent_inputs, exact_moment_blocks,
                                 hamiltonian)
from anharmonic.fock import ModelParams, TruncationError


def reference_moments(params: ModelParams, ts, dim: int) -> np.ndarray:
    """(T, 7) interaction-frame moments of ``params``'s coherent input evolved
    in 30 digits, in the ``dim``-level basis the oracle uses."""
    with mp.workdps(30):
        x = mp.zeros(dim, dim)
        for n in range(1, dim):
            x[n - 1, n] = x[n, n - 1] = mp.sqrt(n)
        x2 = x * x
        h = (mp.mpf(params.lam) / 16) * (x2 * x2)
        for n in range(dim):
            h[n, n] += n + mp.mpf(0.5)
        w, v = mp.eigsy(h)
        alpha = mp.mpc(params.alpha.real, params.alpha.imag)
        c = [mp.exp(-abs(alpha) ** 2 / 2) * alpha**n / mp.sqrt(mp.factorial(n)) for n in range(dim)]
        norm = mp.sqrt(mp.fsum(abs(z) ** 2 for z in c))
        b = v.T * mp.matrix([z / norm for z in c])
        rows = []
        for t in ts:
            psi = v * mp.matrix([mp.expj(-w[j] * t) * b[j] for j in range(dim)])
            kets = [list(psi)]
            for _ in range(4):
                kets.append([kets[-1][n + 1] * mp.sqrt(n + 1) for n in range(dim - 1)] + [0])
            rows.append([complex(mp.expj((n - m) * t) * mp.fsum(
                mp.conj(p) * q for p, q in zip(kets[m], kets[n]))) for m, n in MONOMIALS])
    return np.array(rows)


@pytest.mark.parametrize("params, dim", [(ModelParams(1.0, 0.3, 1e-3), 29),
                                         (ModelParams(0.5, 0.0, 0.05), 40)], ids=["D29", "D40"])
def test_the_longest_accepted_grid_holds_against_mpmath(params, dim):
    top = float(np.linalg.eigvalsh(hamiltonian(params.lam, dim))[-1])
    scale = sys.float_info.epsilon * top
    longest = PHASE_TOLERANCE / scale * (1 - 1e-9)
    ts = np.array([0.0, longest / 3, -longest, longest])
    [block] = exact_moment_blocks([params], ts, coherent_inputs([params], dim))
    natural = np.array([(params.alpha_mag**2 + 1.0) ** ((m + n) / 2) for m, n in MONOMIALS])
    error = np.abs(block - reference_moments(params, ts, dim)) / natural
    # above a rounding floor of 1e-14, met at t = 0
    assert np.all(error <= 0.5 * scale * np.abs(ts)[:, None] + 1e-14), error.max(axis=1)
    with pytest.raises(TruncationError, match=" round by eps "):
        list(exact_moment_blocks([params], [0.0, longest * (1 + 2e-9)],
                                 coherent_inputs([params], dim)))
