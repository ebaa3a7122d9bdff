"""An eigh-free reference evolution for the exact oracle.

``taylor_moments(lam, ts, psi0)`` evolves the state ``psi0`` under

    H = (a^dag a + 1/2) + (lam / 16) x^4,    x = a^dag + a,

in the levels of ``psi0``, by Taylor steps of exp(-iH dt), and returns its
interaction-frame moments of ``dynamics.MONOMIALS``.  It shares no step with
the oracle: no ``hamiltonian``, no ``_quartic``, no matrix and no eigensystem.
H is applied as its five diagonals, written from the closed-form matrix
elements of x^4 in the truncated basis, and the moments are taken by sqrt(n)
shifts.
"""

import math

import numpy as np

from anharmonic.dynamics import MONOMIALS

#: Largest ||H|| dt of one Taylor step, and most terms a step sums.  At 0.5 the
#: 30th term is below 1e-41 of the state; a step stops once a term is below
#: ``TERM_FLOOR``, at about the 17th.
STEP_NORM = 0.5
MAX_TERMS = 30
TERM_FLOOR = 1e-20


def quartic_bands(dim: int):
    """The diagonals k = 0, 2 and 4 of x^4 on ``dim`` levels, where x is the
    truncated a^dag + a, from their closed forms.  x^2 has the diagonal
    d_n = 2n + 1, except d_{dim-1} = dim - 1, where a a^dag would need the
    level dim, and the second diagonal s_n = sqrt((n + 1)(n + 2)).  Then
    x^4 = (x^2)^2 has <n|x^4|n> = d_n^2 + s_n^2 + s_{n-2}^2 (the terms that stay
    in the basis), <n|x^4|n+2> = s_n (d_n + d_{n+2}) and <n|x^4|n+4> = s_n s_{n+2};
    away from the top level these are 6n^2 + 6n + 3, (4n + 6) s_n and
    sqrt((n + 1)(n + 2)(n + 3)(n + 4))."""
    n = np.arange(dim, dtype=float)
    d = 2.0 * n + 1.0
    d[-1] = dim - 1.0
    s = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
    diag = d * d
    diag[:-2] += s * s
    diag[2:] += s * s
    return diag, s * (d[:-2] + d[2:]), s[:-2] * s[2:]


def apply_h(bands, psi: np.ndarray) -> np.ndarray:
    """H psi, from the bands of ``hamiltonian_bands``."""
    diag, off2, off4 = bands
    out = diag * psi
    out[:-2] += off2 * psi[2:]
    out[2:] += off2 * psi[:-2]
    out[:-4] += off4 * psi[4:]
    out[4:] += off4 * psi[:-4]
    return out


def hamiltonian_bands(lam: float, dim: int):
    """The diagonals k = 0, 2 and 4 of H on ``dim`` levels, and ||H||_inf, the
    largest row sum of |H|, which bounds ||H||_2 of the symmetric H.  Every
    element is >= 0 for lam >= 0, so a row sum of |H| is a row sum of H."""
    q0, q2, q4 = quartic_bands(dim)
    c = lam / 16.0
    bands = (np.arange(dim) + 0.5 + c * q0, c * q2, c * q4)
    return bands, float(np.max(apply_h(bands, np.ones(dim))))


def taylor_step(bands, psi: np.ndarray, dt: float) -> np.ndarray:
    """exp(-iH dt) psi as the sum of (-iH dt)^k / k! psi, k < ``MAX_TERMS``."""
    out, term = psi.copy(), psi
    for k in range(1, MAX_TERMS):
        term = (-1j * dt / k) * apply_h(bands, term)
        out += term
        if np.linalg.norm(term) <= TERM_FLOOR:
            break
    return out


def lower(psi: np.ndarray) -> np.ndarray:
    """a psi, as the shift (a psi)_n = sqrt(n + 1) psi_{n+1}."""
    out = np.zeros_like(psi)
    out[:-1] = np.sqrt(np.arange(1.0, psi.size)) * psi[1:]
    return out


def taylor_moments(lam: float, ts, psi0: np.ndarray):
    """((T, len(MONOMIALS)) interaction-frame moments <a^dag^m a^n> e^{i(n-m)t} of
    ``psi0`` evolved to each t of ``ts``, ||H||_inf).  The times are visited in
    increasing |t|, each reached from the previous one in equal steps with
    ||H||_inf |dt| <= ``STEP_NORM``."""
    ts = np.asarray(ts, dtype=float)
    bands, norm = hamiltonian_bands(lam, psi0.size)
    block = np.empty((ts.size, len(MONOMIALS)), dtype=complex)
    psi, now = np.asarray(psi0, dtype=complex), 0.0
    for j in np.argsort(np.abs(ts), kind="stable"):
        span = ts[j] - now
        steps = math.ceil(abs(span) * norm / STEP_NORM)
        for _ in range(steps):
            psi = taylor_step(bands, psi, span / steps)
        now = ts[j]
        kets = [psi]
        for _ in range(4):
            kets.append(lower(kets[-1]))
        block[j] = [np.vdot(kets[m], kets[n]) * np.exp(1j * (n - m) * now)
                    for m, n in MONOMIALS]
    return block, norm
