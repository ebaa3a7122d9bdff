"""Exact ``repr`` of float64 values, computed in bulk.

``float_reprs(values)`` returns ``[repr(v).encode() for v in
values.ravel().tolist()]`` byte for byte, several times faster than ``repr``
for arrays of thousands of values.  Each chunk of values goes through four
vectorized steps:

1. Scale.  |x| times 10**k, with k chosen so that y = |x| * 10**k lies in
   [1e16, 1e17), is formed as a double-double hi + lo: a Veltkamp TwoProduct
   of x with 10**k held as the float pair hi + lo, both taken from exact
   integer arithmetic.  hi is an integer, |lo| < 32, and the error of hi + lo
   is below 1e-14 (units of y's last digit).
2. Search.  The decimals that read back as x are those within h = half an ulp
   of x (h in [0.55, 11.2] in y's units).  The shortest of them is the
   nearest multiple of 10**j to y for the largest j whose nearest multiple
   lies within h; the test is monotone in j, and j = 0 always passes.
3. Certify.  A value whose deciding distance lies within ``_MARGIN`` of h, or
   whose two nearest candidates tie within it, is not decided here; nor are
   ±0, subnormals, |x| outside [1e-280, 1e280] (where the scaling would leave
   the normal range), a mantissa that is a power of two (its interval is
   lopsided) and non-finite values.  All of those go through ``repr`` itself.
4. Lay out.  The 17 digits of the candidate, a sign, '.', '0', 'e' and the
   exponent sit in one byte row per value; a template per (sign, digit
   count, decimal point) picks the output bytes from it in flat gathers of
   ``_GATHER`` rows, following ``repr``: exponent form when the decimal point
   lies 4 or more places left of the first digit or more than 16 right of it,
   at least two exponent digits, and '.0' after a whole number.

The tables are built once at import from exact integer arithmetic; nothing is
cached per call.
"""

from __future__ import annotations

import numpy as np

#: Values per vectorized pass; keeps each temporary near 1 MB.
CHUNK = 8192

#: Rows per gather of the layout step; its (rows, 24) intp index is the
#: widest temporary per value, so it is built a sub-block at a time.
_GATHER = 512

#: Distance, in units of y's last digit, a decision must clear; the
#: arithmetic errs by under 1e-14.
_MARGIN = 1e-6

_LOWEST, _HIGHEST = 1e-280, 1e280
_K_MIN, _K_MAX = -266, 298  # the exponents that scale [_LOWEST, _HIGHEST] into [1e16, 1e17)
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(a):
    """Veltkamp's split of a into two 26-bit halves, a = hi + lo exactly."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _powers_of_ten():
    """10**k for k in [_K_MIN, _K_MAX] as hi + lo: hi correctly rounded, lo
    the rest, from exact integers (rounded once for k >= 0, thrice below)."""
    exact = [1]
    while len(exact) <= max(_K_MAX, -_K_MIN):
        exact.append(exact[-1] * 10)
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        p = exact[abs(k)]
        if k >= 0:
            h = float(p)
            lo.append(float(p - int(h)))
        else:
            h = 1 / p  # int true division rounds correctly
            a, b = h.as_integer_ratio()
            lo.append(float(b - a * p) / b * h)  # 1/p - a/b = (b - a p) / (b p); 1/p is h within an ulp
        hi.append(h)
    hi = np.array(hi)
    return (*_split(hi), hi, np.array(lo))


_TEN_HI_HI, _TEN_HI_LO, _TEN_HI, _TEN_LO = _powers_of_ten()
_POW10 = 10 ** np.arange(18, dtype=np.int64)

# Each value's source row, as seven little-endian words: '-', '.', '0' and
# the leading digit; four words of four digits; 'e' and NULs; the exponent.
_ROW = 28
_WIDTH = 24  # len("-1.2345678901234567e-300")
_PLAIN = range(-3, 17)  # decimal points written without an exponent
_SLOTS = len(_PLAIN) + 1


def _words(strings):
    """Byte strings of length 4 as little-endian uint32 words."""
    return np.frombuffer(b"".join(strings), dtype="<u4")


_QUADS = np.ascontiguousarray(  # "0000" to "9999"
    np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48).view("<u4").ravel()
_HEADS = _words(b"-.0%d" % d for d in range(10))
_EXPONENTS = _words(b"%+03d" % e + b"\0" * (e > -100 and e < 100) for e in range(-300, 301))
_E_WORD = _words([b"e\0\0\0"])[0]


# a layout spelled with one character per source-row offset: A..Q are the 17
# digits and W..Z the exponent's four characters
_OFFSETS = bytes.maketrans(b"-.0ABCDEFGHIJKLMNOPQe\0WXYZ", bytes([*range(22), *range(24, 28)]))


def _template(sign: bytes, n: int, slot: int) -> bytes:
    """Source-row offsets of one layout: n digits, decimal point
    ``_PLAIN[slot]`` (the exponent form for the last slot)."""
    d = b"ABCDEFGHIJKLMNOPQ"[:n]
    if slot == len(_PLAIN):
        body = d[:1] + (b"." + d[1:] if n > 1 else b"") + b"eWXYZ"
    elif (decpt := _PLAIN[slot]) <= 0:
        body = b"0." + b"0" * -decpt + d
    elif decpt < n:
        body = d[:decpt] + b"." + d[decpt:]
    else:
        body = d + b"0" * (decpt - n) + b".0"
    return (sign + body).ljust(_WIDTH, b"\0").translate(_OFFSETS)


# by (sign, digits, slot)
_TEMPLATES = np.frombuffer(b"".join(_template(sign, n, slot) for sign in (b"", b"-")
                                    for n in range(1, 18) for slot in range(_SLOTS)),
                           dtype=np.uint8).reshape(-1, _WIDTH).astype(np.intp)
_ROW_STARTS = np.arange(0, _GATHER * _ROW, _ROW)


def _scaled(a, k):
    """a * 10**k as hi + lo, hi = fl(a * 10**k)."""
    i = k - _K_MIN
    b_hi, b_lo = _TEN_HI_HI[i], _TEN_HI_LO[i]
    p = a * _TEN_HI[i]
    a_hi, a_lo = _split(a)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err + a * _TEN_LO[i]


def _nearest(hi, lo, p):
    """(offset from hi of the multiple of p nearest hi + lo, distance to it);
    hi is int64, p an int64 or an array of them."""
    r = hi - (hi // p) * p
    r -= p * (r >= p // 2)
    e = r + lo
    q = np.rint(e / p)
    return p * q.astype(np.int64) - r, np.abs(e - p * q)


def _shortest(x):
    """(17-digit integer c, exponent k, digits kept n, left to repr) per value:
    |x| reads back from c * 10**-k, whose first n digits are the shortest that do."""
    ax = np.abs(x)
    frac, _ = np.frexp(ax)
    ok = (ax >= _LOWEST) & (ax <= _HIGHEST) & (frac != 0.5)
    a = np.where(ok, ax, 1.5)  # a harmless stand-in where repr decides
    frac = np.where(ok, frac, 0.75)

    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, k)
    # log10 can round across a power of ten: move those by one decade
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += low[fix].astype(np.intp) - high[fix]
        hi[fix], lo[fix] = _scaled(a[fix], k[fix])
    h = hi / (frac * 2.0**54)
    hi = hi.astype(np.int64)

    # j = 0 always passes; j = 1 and 2 are tested over the whole chunk (sweep
    # values mostly stop there) and what passes both bisects [2, 18)
    q = np.rint(lo)
    c = hi + q.astype(np.int64)
    jstar = np.zeros(x.size, dtype=np.intp)
    unsure = ~ok
    dist = [np.abs(lo - q)]
    for j in (1, 2):
        shift, d = _nearest(hi, lo, _POW10[j])
        passed = (d < h - _MARGIN) & (jstar == j - 1)
        unsure |= np.abs(d - h) <= _MARGIN
        c = np.where(passed, hi + shift, c)
        jstar += passed
        dist.append(d)
    # two candidates can tie only where 10**j / 2 < h, that is at j <= 1
    unsure |= ((jstar == 0) & (np.abs(dist[0] - 0.5) < _MARGIN)
               | (jstar == 1) & (np.abs(dist[1] - 5.0) < _MARGIN))

    live = np.flatnonzero(jstar == 2)
    j_pass, j_fail = np.full_like(live, 2), np.full_like(live, 18)
    while live.size:
        j = (j_pass + j_fail) // 2
        hh = h[live]
        d = _nearest(hi[live], lo[live], _POW10[j])[1]
        passed = d < hh - _MARGIN
        unsure[live] |= np.abs(d - hh) <= _MARGIN
        j_pass, j_fail = np.where(passed, j, j_pass), np.where(passed, j_fail, j)
        jstar[live] = j_pass
        going = j_fail - j_pass > 1
        live, j_pass, j_fail = live[going], j_pass[going], j_fail[going]
    climbed = np.flatnonzero(jstar > 2)
    hv = hi[climbed]
    c[climbed] = hv + _nearest(hv, lo[climbed], _POW10[jstar[climbed]])[0]

    top = c == _POW10[17]  # y rounded up to 1e17: one digit, a decade higher
    c[top] = _POW10[16]
    jstar[top] = 16
    return c, k - top, 17 - jstar, unsure


def _layout(x, src, index, out):
    """Write the repr bytes of x into the rows of ``out`` and return the
    indices left to ``repr``; ``src`` and ``index`` are work buffers, the
    latter of at most ``_GATHER`` rows."""
    c, k, n, unsure = _shortest(x)
    decpt = 17 - k  # the decimal point's place after the first digit
    plain = (decpt >= _PLAIN[0]) & (decpt <= _PLAIN[-1])
    slot = np.where(plain, decpt - _PLAIN[0], _SLOTS - 1)
    layout = (np.signbit(x) * 17 + n - 1) * _SLOTS + slot

    lead = c // _POW10[16]
    rest = c - lead * _POW10[16]
    upper = rest // _POW10[8]
    lower = rest - upper * _POW10[8]
    src[:, 0] = _HEADS[lead]
    for col, part in ((1, upper), (3, lower)):
        high4 = part // 10_000
        src[:, col] = _QUADS[high4]
        src[:, col + 1] = _QUADS[part - high4 * 10_000]
    src[:, 5] = _E_WORD
    src[:, 6] = _EXPONENTS[np.where(plain, 0, decpt - 1) + 300]
    for lo in range(0, x.size, _GATHER):
        hi = min(lo + _GATHER, x.size)
        rows = index[:hi - lo]
        np.take(_TEMPLATES, layout[lo:hi], axis=0, out=rows, mode="clip")
        rows += _ROW_STARTS[:hi - lo, None]
        np.take(src[lo:hi].view(np.uint8).ravel(), rows, out=out[lo:hi], mode="clip")
    return np.flatnonzero(unsure)


def float_reprs(values) -> list:
    """``[repr(v).encode() for v in values.ravel().tolist()]`` for float64 ``values``."""
    x = np.asarray(values, dtype=np.float64).ravel()
    m = min(x.size, CHUNK)
    src = np.empty((m, _ROW // 4), dtype="<u4")
    index = np.empty((min(m, _GATHER), _WIDTH), dtype=np.intp)
    out = np.empty((m, _WIDTH), dtype=np.uint8)
    reprs = []
    for start in range(0, x.size, CHUNK):
        chunk = x[start:start + CHUNK]
        m = chunk.size
        left = _layout(chunk, src[:m], index[:m], out[:m])
        part = out[:m].view(f"S{_WIDTH}").ravel().tolist()
        for i in left.tolist():
            part[i] = repr(float(chunk[i])).encode()
        reprs += part
    return reprs
