"""C's ``"%.17g"`` of whole blocks of floats, for the sweep CSV.

``format_rows`` gives exactly the bytes ``"%.17g" % x`` gives for every
cell: the exact binary value rounded half-even to 17 significant digits, in
``%g`` layout, except that ``-0`` is written ``0``.  The digits come from a
double-double product ``|x| * 10**(16 - X)``, X the decimal exponent of the
rounded value.  Cells the kernel cannot certify are formatted by Python.

Each cell is built as four little-endian uint64 words, NUL bytes being
padding that one ``bytes.translate`` per block deletes:

  word 0  sign, "0.000" prefix (-4 <= X < 0), first digit, "." after it
  word 1  digits 1-8   a point after digit q (1 <= q <= 15) is inserted
  word 2  digits 9-16  by moving the bytes above it up by one
  word 3  the byte moved out of word 2, "e+XX" exponent, ","

The module is imported by the first sweep that formats a block with it.
"""

from __future__ import annotations

import functools

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into 26-bit halves
# |x| the kernel formats: 10**(16 - X) then lies in 10**[_POW_MIN, _POW_MAX].
_KERNEL_MIN, _KERNEL_MAX = 1e-280, 1e280
_POW_MIN, _POW_MAX = -266, 299
_EXP_MIN = -283
_ASCII_ZEROS = 0x3030303030303030
_U64 = np.dtype("<u8")
_HIGH_26_BITS = np.uint64(0xFFFFFFFFF8000000)  # sign, exponent, 26 mantissa bits
# Digits 1..c fill c - 8 w bytes of digit word w (w = 0, 1), whose mask is
# low[c + _LOW_AT]; a point after digit q of word w is dots[q + _DOT_AT].
_LOW_AT = np.array([[16], [8]])
_DOT_AT = np.array([[0], [17]])


def _words8(texts: list[bytes]) -> np.ndarray:
    """Each text, NUL-padded to 8 bytes, as one little-endian uint64."""
    return np.frombuffer(b"".join([text.ljust(8, b"\0") for text in texts]), _U64)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The kernel's tables, built on its first use (about 2 ms).

    ``pow10`` holds 10**k, k in [_POW_MIN, _POW_MAX], as double-doubles
    (hi, lo) from exact integer arithmetic (int -> float and int / int round
    correctly), and hi split in halves for Dekker's product.
    """
    ks = range(_POW_MIN, _POW_MAX + 1)
    hi = [float(f"1e{k}") for k in ks]
    lo = []
    for k, h in zip(ks, hi):
        if k >= 0:
            lo.append(float(10**k - int(h)))
        else:
            num, den = h.as_integer_ratio()
            lo.append((den - num * 10**-k) / (den * 10**-k))
    hi = np.array(hi)
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    pow10 = np.stack([hi, np.array(lo), hi_hi, hi - hi_hi])
    v = np.arange(10**4, dtype=_U64)
    digits4 = v // 1000 | (v // 100 % 10) << 8 | (v // 10 % 10) << 16 | (v % 10) << 24
    # by the exponent X, and the sign for ``head``; -4 <= X <= 16 is fixed notation
    exps = range(_EXP_MIN, -_EXP_MIN + 1)
    prefix = [(b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"").ljust(5, b"\0") for x in exps]
    head = _words8([sign + text for sign in (b"\0", b"-") for text in prefix])
    tail = _words8([b"\0," if -4 <= x <= 16 else b"\0e%+03d," % x for x in exps])
    low = np.array([(1 << 8 * min(max(m, 0), 8)) - 1 for m in range(-16, 17)], _U64)  # m + 16
    dots = np.array([0x2E << 8 * (q - 8 * w) if 8 * w <= q < 8 * w + 8 and q < 16 else 0
                     for w in (0, 1) for q in range(17)], _U64)
    return pow10, digits4, head, tail, low, dots


def _scaled(pow10: np.ndarray, a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e) as p + r: p the rounded product, r the rest, exact
    up to about 1e-15 for products below 1e17 (Dekker's two-product)."""
    hi, lo, hi_hi, hi_lo = pow10.take(16 - _POW_MIN - e, axis=1)
    a_hi = (a.view(np.uint64) & _HIGH_26_BITS).view(np.float64)
    a_lo = a - a_hi
    p = a * hi
    return p, (((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo


def _words(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The "%.17g" text of each float of ``x`` as (4, len(x)) uint64 words,
    and the indices of the cells left to Python.

    The digits are those of P = |x| * 10**(16 - X) rounded half-even, X
    chosen so that P lies in [1e16, 1e17).  A cell is left to Python, and
    holds "0" here, where x is not finite, where 0 < |x| is outside
    [_KERNEL_MIN, _KERNEL_MAX], where the fraction of P is within 1e-6 of a
    tie, or where P is within about 8 of 1e17 (so X stays undecided after
    one correction).  Zeros are written "0" (no "-0").
    """
    pow10, digits4, head, tail, low, dots = _tables()
    a = np.abs(x)
    ok = (a >= _KERNEL_MIN) & (a <= _KERNEL_MAX)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    p, r = _scaled(pow10, a, e)
    # P = p + r lies in [1e16, 1e17) but where log10 missed X by one.  Near
    # 1e17 the test can flag a P below it, and so leave it to Python, with
    # every P that rounds up to 1e17: n < 1e17 for the cells kept here.
    t = (p - 1e16) + r
    fix = np.flatnonzero((t < 0) | (t >= 9e16))
    if fix.size:
        e[fix] += 2 * (t[fix] > 0) - 1
        pf, rf = _scaled(pow10, a[fix], e[fix])
        p[fix], r[fix] = pf, rf
        tf = (pf - 1e16) + rf
        ok[fix] &= (tf >= 0) & (tf < 9e16)
    t = r + 0.5  # exact but within 1e-16 of an integer, which the tie test excludes
    up = np.floor(t)
    ok &= np.abs(t - up - 0.5) <= 0.5 - 1e-6  # not within 1e-6 of a rounding tie
    n = p.astype(np.int64) + up.astype(np.int64)
    n *= ok  # zeros write "0"

    first = n // 10**16
    rest = n - first * 10**16
    halves = np.empty((2, len(n)), np.int64)
    np.floor_divide(rest, 10**8, out=halves[0])
    np.subtract(rest, halves[0] * 10**8, out=halves[1])
    quads = halves // 10**4
    # digits 1-8 and 9-16, one digit value per byte
    z = digits4.take(quads) | digits4.take(halves - quads * 10**4) << 32
    long = z[1] > 0  # a nonzero digit among 9-16
    last = np.where(long, z[1], z[0])
    used = (np.frexp(last.astype(np.float64))[1] + 7) >> 3  # bytes up to the last nonzero one
    digits = used + 1 + 8 * long
    fixed = (e >= -4) & (e <= 16)  # %g's choice of fixed notation
    shown = np.where(fixed, np.maximum(digits, e + 1), digits)
    point = np.where(fixed, e, 0)  # a point follows this digit if a shown digit follows it
    words = np.empty((4, len(x)), _U64)
    np.bitwise_and(_ASCII_ZEROS, low.take(shown - 1 + _LOW_AT), out=words[1:3])
    words[1:3] |= z  # ASCII, NUL past the shown digits
    words[3] = tail.take(e - _EXP_MIN)
    inner = np.flatnonzero((point > 0) & (point < shown - 1))
    if inner.size:
        q = point[inner]
        text = words[1:3, inner]
        keep = low.take(q + _LOW_AT)
        moved = text & ~keep
        text &= keep
        text |= moved << 8
        text |= dots.take(q + _DOT_AT)
        text[1] |= moved[0] >> 56
        words[1:3, inner] = text
        words[3, inner] |= moved[1] >> 56
    words[0] = (head.take(e - _EXP_MIN + (x < 0) * len(tail))
                | (first.astype(_U64) + 0x30) << 48
                | np.uint64(0x2E << 56) * ((point == 0) & (shown > 1)))
    return words, np.flatnonzero(~ok & (x != 0))


def format_rows(block: np.ndarray, first: str, last: str) -> str:
    """The rows of the 2-D float ``block``, each its cells as "%.17g" and ","
    between ``first`` and ``last`` (ASCII, at most 8 characters each)."""
    n_rows, n_cols = block.shape
    x = block.ravel()
    words, fallback = _words(x)
    buf = np.empty((n_rows, 4 * n_cols + 2), _U64)
    buf[:, 0], buf[:, -1] = _words8([first.encode(), last.encode()])
    buf[:, 1:-1].reshape(n_rows, n_cols, 4)[...] = words.T.reshape(n_rows, n_cols, 4)
    cells = buf[:, 1:-1].view(np.uint8).reshape(n_rows, n_cols, 32)
    for i in fallback:
        cell = cells[i // n_cols, i % n_cols]
        value = np.frombuffer(b"%.17g," % x[i], np.uint8)
        cell[:] = 0
        cell[:len(value)] = value
    return buf.tobytes().translate(None, b"\0").decode("ascii")
