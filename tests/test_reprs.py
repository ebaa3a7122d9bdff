"""``reprs.float_reprs`` is ``repr`` byte for byte.

Three sources of values: hypothesis arrays over every finite double, a fixed
draw of random bit patterns (which lands in every exponent, 9 % of it in the
classes left to ``repr``), and a list of the boundaries the method has to get
right: powers of ten and their neighbours, powers of two (a lopsided rounding
interval), exact ties between two shortest candidates, the doubles nearest to
decimal midpoints, the ends of the scaled range and the sign of zero.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from anharmonic.reprs import CHUNK, float_reprs


def expected(values):
    return [repr(v).encode() for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


def assert_reprs(values):
    got, want = float_reprs(values), expected(values)
    assert len(got) == len(want)
    wrong = [(w, g) for g, w in zip(got, want) if g != w]
    assert not wrong, f"{len(wrong)} of {len(want)} differ, first {wrong[:5]}"


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(max_dims=2, max_side=40),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_any_finite_array(values):
    assert_reprs(values)


def test_a_million_random_bit_patterns():
    bits = np.random.default_rng(20261018).integers(
        np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=1_100_000, dtype=np.int64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert values.size >= 1_000_000
    assert_reprs(values)


def boundaries():
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              1e-280, 1e280, 1e16, 9999999999999998.0, 1e-5, 1e-4, 1e-3, 0.3,
              9007199254740993.0, 1e23, 0.1 + 0.2, 1 / 3]
    # powers of ten and one ulp either side, across the whole range
    for k in range(-323, 309):
        p = float(f"1e{k}")
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    # powers of two, subnormal to largest
    values += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    # exact ties: k + 1/4 has 18 digits and two 17-digit candidates at equal distance
    values += [2.0**50 + k + f for k in (0, 1, 12345, 2**49) for f in (0.25, 0.75)]
    # the doubles nearest to decimal midpoints, at 16 and 17 digits
    rng = np.random.default_rng(7)
    for digits in (15, 16):
        for d, e in zip(rng.integers(10**digits, 10**(digits + 1), 300), rng.integers(-300, 290, 300)):
            values.append(float(f"{d}5e{e}"))
    values += [math.nextafter(v, direction) for v in values[-600:] for direction in (0.0, math.inf)]
    return np.array(values + [-v for v in values])


def test_boundaries():
    values = boundaries()
    assert np.signbit(values).sum() == values.size // 2
    assert_reprs(values)


def test_shape_and_chunks():
    assert float_reprs(np.array([])) == []
    assert float_reprs(np.array([[1.5, -0.0], [2.5e-7, 1e22]])) == [b"1.5", b"-0.0", b"2.5e-07", b"1e+22"]
    values = np.random.default_rng(3).standard_normal(2 * CHUNK + 3)
    values[CHUNK - 1:CHUNK + 2] = [0.0, np.nan, -np.inf]
    assert_reprs(values)


def test_memory_per_value_is_bounded():
    # the layout's (rows, 24) intp gather index, 192 B per row, is built a
    # sub-block of rows at a time, so a whole chunk stays near 230 B per value,
    # the returned bytes included
    rng = np.random.default_rng(4)
    values = rng.standard_normal(CHUNK) * 10.0 ** rng.integers(-5, 5, CHUNK)
    float_reprs(values[:10])
    tracemalloc.start()
    try:
        float_reprs(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * CHUNK
