"""The first-order closed forms, derived symbolically from a_1(t).

A third check of the ``first_order_*`` coefficients, independent of the
oracle's lambda-scaling fits and of the first-order operator matrix: the
a_1(t) written in ``perturbative``'s docstring,

    a_1(t) = a + lam B(t),
    B(t) = -(i / 8) [ 6t a + 6t a^dag a^2 + 6 e^{it} sin t a^dag^2 a
                      + e^{2it} sin 2t a^dag^3 + 6 e^{it} sin t a^dag
                      + 2 e^{-it} sin t a^3 ],

is put into each moment <a_1^dag^m a_1^n> of the coherent input, and only the
O(lam) terms are kept: for a word X_1 ... X_k in a_1 and a_1^dag they are the
k words with one X_j replaced by B or B^dag.  sympy normal-orders them
(``BosonOp``), and <a^dag^m a^n> = conj(alpha)^m alpha^n then gives the
coefficient of lam.  The six bracket coefficients stay commutative symbols
until the end, which keeps the derivation under a second.
"""

import cmath
import math

import pytest
import sympy as sp
from sympy.physics.quantum import Dagger
from sympy.physics.quantum.boson import BosonOp
from sympy.physics.quantum.operatorordering import normal_ordered_form

from anharmonic.perturbative import (
    ClosedFormInputs,
    first_order_hoa_d,
    first_order_squeezing_f,
    mean_photon_correction,
)

A = BosonOp("a")
AD = Dagger(A)
#: The words of B(t), in the docstring's order.
WORDS = (A, AD * A**2, AD**2 * A, AD**3, AD, A**3)
C = sp.symbols("c0:6")
C_BAR = sp.symbols("cbar0:6")
ALPHA, ALPHA_BAR = sp.symbols("alpha alphabar")

#: (|alpha|, theta, t) points, away from the zeros of every form.
POINTS = [(0.7, 0.3, 1.1), (1.5, 2.0, -2.4), (3.0, math.pi / 2, 5.3), (2.2, -0.9, 11.0)]

CLOSED_FORMS = {
    "N": mean_photon_correction,
    "f": first_order_squeezing_f,
    **{f"d{l}": (lambda ci, l=l: first_order_hoa_d(l, ci)) for l in (1, 2, 3)},
}


def coherent_expectation(expr):
    """<expr> in the coherent state |alpha>: normal-order, then a -> alpha."""
    expr = normal_ordered_form(sp.expand(expr), independent=True)
    return sp.expand(expr.subs(AD, ALPHA_BAR).subs(A, ALPHA))


def moment(word):
    """(lam^0, lam^1) coefficients of <X_1 ... X_k>, X_j = a_1 ("a") or a_1^dag ("ad")."""
    bare = {"a": A, "ad": AD}
    first = {"a": sum(c * w for c, w in zip(C, WORDS)),
             "ad": sum(c * Dagger(w) for c, w in zip(C_BAR, WORDS))}
    zeroth = coherent_expectation(sp.Mul(*(bare[x] for x in word)))
    linear = coherent_expectation(sp.Add(*(
        sp.Mul(*(first[x] if i == j else bare[x] for i, x in enumerate(word)))
        for j in range(len(word)))))
    return zeroth, linear


@pytest.fixture(scope="module")
def derived():
    """Each closed form's coefficient of lam, as a function of (alpha, conj(alpha), c, conj(c))."""
    n0, n1 = moment(("ad", "a"))
    # d(l) = <N^(l+1)> - <N>^(l+1), whose lam^0 part vanishes
    d = {l: moment(("ad",) * (l + 1) + ("a",) * (l + 1)) for l in (1, 2, 3)}
    # f = <Y1^2> - <Y1>^2 - <2N + 1> with Y1 = (a_1^dag^2 + a_1^2) / sqrt(2)
    y1_squared = [moment(w) for w in (("ad",) * 4, ("ad", "ad", "a", "a"),
                                      ("a", "a", "ad", "ad"), ("a",) * 4)]
    y1 = [moment(w) for w in (("ad", "ad"), ("a", "a"))]
    y1_0, y1_1 = (sum(m[k] for m in y1) for k in (0, 1))
    f0 = sum(m[0] for m in y1_squared) / 2 - y1_0**2 / 2 - 2 * n0 - 1
    assert sp.expand(f0) == 0
    for l, (d0, _) in d.items():
        assert sp.expand(d0 - n0 ** (l + 1)) == 0
    coefficients = {
        "N": n1,
        "f": sum(m[1] for m in y1_squared) / 2 - y1_0 * y1_1 - 2 * n1,
        **{f"d{l}": d1 - (l + 1) * n0**l * n1 for l, (_, d1) in d.items()},
    }
    args = (ALPHA, ALPHA_BAR, *C, *C_BAR)
    return {k: sp.lambdify(args, sp.expand(e), "math") for k, e in coefficients.items()}


def bracket_coefficients(t):
    """The six coefficients of B(t) and their conjugates, t real."""
    s, e = math.sin, cmath.exp
    c = [-1j / 8 * k for k in (6 * t, 6 * t, 6 * e(1j * t) * s(t), e(2j * t) * s(2 * t),
                               6 * e(1j * t) * s(t), 2 * e(-1j * t) * s(t))]
    return c, [x.conjugate() for x in c]


@pytest.mark.parametrize("name", CLOSED_FORMS)
@pytest.mark.parametrize("r,theta,t", POINTS)
def test_closed_form_is_the_derived_first_order_coefficient(derived, name, r, theta, t):
    alpha = r * cmath.exp(1j * theta)
    c, c_bar = bracket_coefficients(t)
    value = derived[name](alpha, alpha.conjugate(), *c, *c_bar)
    # the closed forms are linear in lam, so lam = 1 gives the coefficient
    expected = CLOSED_FORMS[name](ClosedFormInputs(r, theta, 1.0, t))
    assert abs(value.imag) <= 1e-12 * abs(expected)
    assert value.real == pytest.approx(expected, rel=1e-12)
