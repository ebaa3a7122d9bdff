"""The array paths a columnar sweep runs on, held to their scalar calls bit for bit.

A sweep evaluates each (alpha, theta, lambda) slice over its whole t grid:
closed forms on an array ``t``, witnesses on a MomentSet whose fields are
the columns of a (T, 10) moment block, and ``classify`` on arrays.  Each
element must equal the scalar call at its own t exactly, or the CSV would
change; a scalar call must still return a Python float (an ``np.float64``
reprs differently in numpy 2).
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anharmonic.criteria import (
    BOUNDARY,
    CLASSICAL,
    DEFAULT_BOUNDARY_TOL,
    NONCLASSICAL,
    classify,
    hillery_squeezing,
    hoa_d_from_moments,
    quadrature_squeezing,
)
from anharmonic.dynamics import (
    MONOMIALS,
    MomentSet,
    coherent_moment_set,
    exact_moment_blocks,
)
from anharmonic.fock import ModelParams
from anharmonic.perturbative import (
    ClosedFormInputs,
    delta_y1_squared,
    first_order_delta_y1_squared,
    first_order_hoa_d,
    first_order_moment_blocks,
    first_order_squeezing_f,
    hoa_witness_d,
    hoa_witness_d_special,
    mean_photon_correction,
    mean_photon_number,
    phase_fundamental,
    phase_second_harmonic,
    secular_factor,
    squeezing_witness_f,
    squeezing_witness_f_special,
)

PROPERTY = settings(max_examples=60, deadline=None)

#: Every closed form as a function of ClosedFormInputs.
CLOSED_FORMS = {
    "phase_fundamental": lambda ci: phase_fundamental(ci.theta, ci.t),
    "phase_second_harmonic": lambda ci: phase_second_harmonic(ci.theta, ci.t),
    "secular_factor": lambda ci: secular_factor(ci.theta, ci.t),
    "mean_photon_correction": mean_photon_correction,
    "mean_photon_number": mean_photon_number,
    "first_order_squeezing_f": first_order_squeezing_f,
    "first_order_delta_y1_squared": first_order_delta_y1_squared,
    "delta_y1_squared": delta_y1_squared,
    "squeezing_witness_f": squeezing_witness_f,
    "squeezing_witness_f_special": squeezing_witness_f_special,
    **{f"first_order_hoa_d{l}": (lambda ci, l=l: first_order_hoa_d(l, ci)) for l in (1, 2, 3)},
    **{f"hoa_witness_d{l}": (lambda ci, l=l: hoa_witness_d(l, ci)) for l in (1, 2, 3)},
    **{f"hoa_witness_d_special{l}": (lambda ci, l=l: hoa_witness_d_special(l, ci)) for l in (2, 3)},
}

#: Every moment witness as a function of a MomentSet.
WITNESS_VALUES = {
    "quadrature": quadrature_squeezing,
    "hillery": hillery_squeezing,
    **{f"d{l}": (lambda m, l=l: hoa_d_from_moments(m, l)) for l in (1, 2, 3)},
}

#: The MomentSet field each witness value is linear in, with coefficient 1.
VALUE_FIELD = {"quadrature": "a2", "hillery": "a4", "d1": "ad2a2", "d2": "ad3a3", "d3": "ad4a4"}

alphas = st.floats(0.0, 25.0)
thetas = st.floats(-2 * np.pi, 2 * np.pi)
lams = st.floats(0.0, 1e-2)
times = st.floats(-1e3, 1e3)
grids = st.lists(times, min_size=1, max_size=17).map(np.array)


def same_bits(array_values, scalar_values):
    return np.array_equal(np.asarray(array_values).view(np.int64),
                          np.array(scalar_values, dtype=float).view(np.int64))


@PROPERTY
@given(alphas, thetas, lams, grids)
@example(20.01, np.pi / 2, 1e-4, np.linspace(0.0, 2 * np.pi, 16))
def test_closed_forms_on_a_t_array_are_their_scalar_calls(a, th, lam, ts):
    array_inputs = ClosedFormInputs(a, th, lam, ts)
    for name, form in CLOSED_FORMS.items():
        scalars = [form(ClosedFormInputs(a, th, lam, t)) for t in ts.tolist()]
        assert all(type(v) is float for v in scalars), name
        values = form(array_inputs)
        assert isinstance(values, np.ndarray) and values.shape == ts.shape, name
        assert same_bits(values, scalars), name


def test_closed_form_inputs_keep_a_float_t_and_take_an_array_t():
    assert type(ClosedFormInputs(1.0, 0.0, 1e-3, np.float64(0.5)).t) is float
    ts = ClosedFormInputs(1.0, 0.0, 1e-3, [0.0, 1.0]).t
    assert isinstance(ts, np.ndarray) and ts.dtype == float and ts.tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="^t must be finite"):
        ClosedFormInputs(1.0, 0.0, 1e-3, np.array([0.0, math.nan]))


def column_set(block):
    return MomentSet(*block.T)


def assert_columns_are_rows(block):
    rows = [MomentSet(*row) for row in block.tolist()]
    for name, witness in WITNESS_VALUES.items():
        values = witness(column_set(block))
        assert isinstance(values, np.ndarray) and values.shape == (len(rows),), name
        scalars = [witness(m) for m in rows]
        assert all(type(v) is float for v in scalars), name
        assert same_bits(values, scalars), name


@PROPERTY
@given(st.floats(0.0, 6.0), thetas, lams,
       st.lists(st.floats(0.0, np.pi), min_size=1, max_size=9).map(np.array))
@example(20.01, np.pi / 2, 1e-4, np.linspace(0.0, np.pi, 16))
def test_column_witnesses_are_their_row_witnesses_on_oracle_moments(a, th, lam, ts):
    params = ModelParams.auto(a, th, lam)
    [ex] = exact_moment_blocks([params], ts, horizon=np.pi)
    [fo] = first_order_moment_blocks([params], ts)
    assert_columns_are_rows(ex)
    assert_columns_are_rows(fo)


moments = st.floats(-1e11, 1e11, allow_subnormal=False)


@PROPERTY
@given(st.lists(st.lists(moments, min_size=2 * len(MONOMIALS), max_size=2 * len(MONOMIALS)),
                min_size=1, max_size=12))
def test_column_witnesses_are_their_row_witnesses_on_any_moments(rows):
    parts = np.array(rows)
    assert_columns_are_rows(parts[:, ::2] + 1j * parts[:, 1::2])


def test_column_values_classify_like_row_values():
    # t = 0 is the coherent input, where every witness sits in the boundary band
    [block] = exact_moment_blocks([ModelParams.auto(2.0, 0.4, 1e-2)], np.linspace(0.0, np.pi, 9))
    for name, witness in WITNESS_VALUES.items():
        labels = classify(witness(column_set(block)))
        assert labels.tolist() == [classify(witness(MomentSet(*row))) for row in block.tolist()], name
        assert labels[0] == BOUNDARY and set(labels[1:]) - {BOUNDARY}, name


@pytest.mark.parametrize("name", WITNESS_VALUES)
def test_witnesses_return_a_float_for_scalars_and_an_array_for_columns(name):
    witness = WITNESS_VALUES[name]
    assert type(witness(coherent_moment_set(1.3 * np.exp(0.4j)))) is float
    [block] = exact_moment_blocks([ModelParams.auto(1.3, 0.4, 1e-3)], np.linspace(0.0, 1.0, 3))
    values = witness(column_set(block))
    assert type(values) is np.ndarray and values.dtype == float and values.shape == (3,)


def test_witness_powers_round_like_python_floats():
    # numpy's x**2, x**3 and x**4 differ from Python's float ** in the last
    # bit for a few inputs in a thousand; a block this size hits such inputs
    rng = np.random.default_rng(11)
    block = rng.uniform(-1.0, 1.0, (4000, len(MONOMIALS))) * 10.0 ** rng.uniform(0, 10, (4000, 1))
    assert_columns_are_rows(block + 0j)


tol = DEFAULT_BOUNDARY_TOL
#: Values at and next to the band edges, each with the label a witness
#: report carried before witnesses returned bare values (NaN is classical).
EDGE_LABELS = [
    (tol, BOUNDARY), (-tol, BOUNDARY), (0.0, BOUNDARY), (-0.0, BOUNDARY),
    (math.nan, CLASSICAL), (math.inf, CLASSICAL), (-math.inf, NONCLASSICAL),
    (np.nextafter(tol, math.inf), CLASSICAL), (np.nextafter(tol, -math.inf), BOUNDARY),
    (np.nextafter(-tol, math.inf), BOUNDARY), (np.nextafter(-tol, -math.inf), NONCLASSICAL),
]
EDGES = [value for value, _ in EDGE_LABELS]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(EDGES) | st.floats(-3 * tol, 3 * tol) | st.floats(),
                min_size=1, max_size=20))
def test_array_classify_is_elementwise_scalar_classify(values):
    labels = classify(np.array(values))
    assert labels.tolist() == [classify(v) for v in values]
    assert all(type(classify(v)) is str for v in values)


def test_classify_band_edges():
    values = np.array([-tol, tol, 0.0, -0.0, np.nextafter(-tol, -1.0), np.nextafter(tol, 1.0)])
    assert classify(values).tolist() == [BOUNDARY] * 4 + [NONCLASSICAL, CLASSICAL]
    assert classify(values.reshape(2, 3)).shape == (2, 3)


def moments_with(field_name, value, size=None):
    """Zero moments but ``field_name``, so that each VALUE_FIELD witness equals ``value``."""
    cell = complex(value) if size is None else np.full(size, complex(value))
    zero = 0j if size is None else np.zeros(size, dtype=complex)
    return MomentSet(**{f.name: cell if f.name == field_name else zero for f in fields(MomentSet)})


@pytest.mark.parametrize("name", VALUE_FIELD)
@pytest.mark.parametrize("value,label", EDGE_LABELS)
def test_classified_witness_values_keep_their_labels_at_the_band_edges(name, value, label):
    witness = WITNESS_VALUES[name]
    assert classify(witness(moments_with(VALUE_FIELD[name], value))) == label
    labels = classify(witness(moments_with(VALUE_FIELD[name], value, size=2)))
    assert labels.tolist() == [label, label]
