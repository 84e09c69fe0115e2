"""Exact text of numbers, rendered in numpy, and the CSV writer built on it.

A column of n numbers is rendered as a (width, n) matrix of ASCII bytes,
one row per character position and one column per value, in which 0 marks
a position without a character. Laid out this way every numpy call runs
over n values at once. The text is the one Python gives: ``repr(x)``
(repr_cells), ``"%.12e" % x`` (e12_cells) and ``"{:.2f}".format(x)``
(fixed2_cells). Values outside a renderer's certified domain are formatted
by Python, one call each. join_rows interleaves such matrices with literal
separators and drops the 0s in one pass, so no Python object is made per
cell; write_rows streams that text to a file chunk by chunk, for the CSV
artefacts (write_csv) and the SVG plots.
"""

from __future__ import annotations

import numpy as np

#: 10**k and 5**k for k = 0..22, every one an exact double
_POW10 = np.array([float(10**k) for k in range(23)])
_POW5 = np.array([float(5**k) for k in range(23)])
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitting factor for doubles

#: Rows rendered per batch. The renderers work on whole columns, so this
#: bounds the temporaries alive at once, not the Python work per row; each
#: batch costs a few hundred numpy calls. On a 200k-row trace, 16384 rows
#: were faster than 4096, and 65536 rows slower. Over its set-up, the peak
#: RSS of one `chuarc simulate` of the 200 001-row trace (a fresh interpreter
#: each) rose by 7.2 MB at 4096 rows, 8.7 MB at 8192, 12.3 MB at 16384 and
#: 31.9 MB at 65536: ``repr_cells`` holds ~265 bytes of temporaries a value.
CSV_CHUNK = 1 << 14


def _two_product(a, b):
    """(hi, lo) with hi = fl(a*b) and hi + lo == a*b exactly (Dekker, 1971).

    Plain ufunc calls, so no step is fused into an FMA; exact while no
    product overflows or underflows.
    """
    hi = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _decimal_scale(v, digits: int):
    """(k, hi, lo, ok) with hi + lo == v * 10**k exactly and, where ``ok``,
    10**(digits-1) <= v * 10**k < 10**digits.

    ``v`` is positive and finite. k starts from the log10 estimate and is
    corrected once against the exact product; ``ok`` is False where the
    corrected k is still off or needs 10**k outside 0..22, the exponents
    whose power of ten is an exact double.
    """
    lower, upper = _POW10[digits - 1], _POW10[digits]
    k = digits - 1 - np.floor(np.log10(v)).astype(np.int64)
    for _ in range(2):
        kc = np.clip(k, 0, 22)
        hi, lo = _two_product(v, _POW10[kc])
        below = (hi < lower) | ((hi == lower) & (lo < 0.0))
        above = (hi > upper) | ((hi == upper) & (lo >= 0.0))
        out = below | above
        if not out.any():
            break
        k = kc + below - above
    return kc, hi, lo, ~out


def _digits(n, width: int):
    """The ``width`` decimal digits of each int64 in ``n`` (below 10**18) as
    ASCII, one row per digit position, most significant first.

    The digits are peeled off in uint32 arithmetic, nine from n % 10**9 and
    the rest from n // 10**9.
    """
    rows = np.empty((width, n.size), dtype=np.uint32)
    ten = np.uint32(10)
    high = n // 10**9
    j = width
    for part, count in ((n - high * 10**9, min(width, 9)), (high, width - 9)):
        part = part.astype(np.uint32)
        for _ in range(count):
            j -= 1
            q = part // ten
            np.subtract(part, q * ten, out=rows[j])
            part = q
    rows += 48
    return rows.astype(np.uint8)


def text_cells(strings):
    """Cells of an array of byte strings (numpy dtype ``S``), whose NUL
    padding marks the positions without a character."""
    strings = np.asarray(strings, dtype=bytes)
    return strings.view(np.uint8).reshape(strings.size, strings.itemsize).T


def _python_cells(cells, x, bad, fmt):
    """``cells`` with the columns marked ``bad`` replaced by the text
    ``fmt`` gives for those values of ``x``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        text = text_cells([fmt(v).encode("ascii") for v in x[rows].tolist()])
        cells[:, rows] = 0
        cells[:text.shape[0], rows] = text
    return cells


def e12_cells(values):
    """Cells of ``"%.12e" % x`` for each x of a float array.

    For 10**e <= x < 10**(e+1), the 13 digits are x*10**k rounded half to
    even, k = 12 - e (a carry to 10**13 moves to the next exponent). When
    0 <= k <= 22, that is 1e-10 <= x < 1e13, x*10**k is exactly hi + lo
    (_decimal_scale), and the rounding follows from floor(hi), hi's fraction
    and the sign of lo. Values outside that domain (zero, negatives, -0.0,
    NaN, infinities, subnormals and the rest below 1e-10 or from 1e13 up)
    are formatted by Python.
    """
    x = np.asarray(values, dtype=float)
    # a coarse bound first (False for NaN too), so no product below overflows
    ok = (1e-11 < x) & (x < 1e14)
    k, hi, lo, inside = _decimal_scale(np.where(ok, x, 1.0), 13)
    ok &= inside
    f = np.floor(hi)
    frac = hi - f
    n = f.astype(np.int64)
    n += (frac > 0.5) | ((frac == 0.5) & ((lo > 0.0) | ((lo == 0.0) & (n & 1 == 1))))
    n[~ok] = 10**12  # any 13 digits: Python formats these
    e = 12 - k
    wrap = n == 10**13  # rounded up to 10.000000000000e(e)
    n[wrap] = 10**12
    e += wrap
    # d.dddddddddddde+XX, and room for Python's longest, -d.dddddddddddde+XXX
    cells = np.zeros((20, x.size), dtype=np.uint8)
    digits = _digits(n, 13)
    cells[0] = digits[0]
    cells[1] = ord(".")
    cells[2:14] = digits[1:]
    cells[14] = ord("e")
    cells[15] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    cells[16] = e // 10 + 48
    cells[17] = e % 10 + 48
    return _python_cells(cells, x, ~ok, "%.12e".__mod__)


#: rows of a repr cell: sign, "0.000" and 18 for the digits and a '.';
#: Python's longest fallback, -d.dddddddddddddddde-XXX, fits as well
_REPR_ROWS = 24
_PREFIX = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_PREFIX_ROW = np.arange(5)[:, None]
_TEXT_ROW = np.arange(18)[:, None]
_DIGIT_COUNT = np.arange(1, 18, dtype=np.uint8)[:, None]
#: 2**48: in [1e-4, 1e16), x * 10**(16 - e) and the half-gaps, scaled
#: alike, are multiples of 2**-48
_UNIT = 1 << 48


def _shortest(n, f, s, gap_lo, gap_hi):
    """(fits, m) for X = n + f * 2**-48 (int64 n and f, 0 <= f < 2**48):
    whether a multiple of s lies within the half-gaps (in units of 2**-48)
    below and above X, and the one repr takes, as an int64.

    The candidates are q*s, a distance d = r + f * 2**-48 below X
    (q, r = divmod(n, s)), and (q+1)*s, s - d above it. In units of 2**-48
    both are int64, so every comparison is exact. A candidate fits when it
    is nearer than the gap on its side, or on it with x's mantissa even
    (reading rounds half to even): the gaps come with that 1 added. Of two
    that fit, the nearer wins, a tie the even digit.
    """
    q = n // s
    down = (n - q * s) * _UNIT + f
    down_ok = down < gap_lo
    up_ok = s * _UNIT - down < gap_hi
    # (q+1)*s is nearer when 2d > s
    twice = 2 * down
    nearer_up = (twice > s * _UNIT) | ((twice == s * _UNIT) & (q & 1 == 1))
    return down_ok | up_ok, (q + (up_ok & (nearer_up | ~down_ok))) * s


def _half_gaps(v, k):
    """Bounds, in units of 2**-48, on the distance below and above
    v * 10**k of a decimal that reads back as v (positive normal doubles,
    1e-4 <= v < 1e16, k = 16 - e): a distance fits when it is less.

    The half-gap to the next double, 2**(E-53) for 2**E <= v, is scaled by
    10**k = 5**k * 2**k; below a power of two the next double is half as
    far. A decimal exactly half-way reads back as v when v's mantissa is
    even (reading rounds half to even), so then the bounds are 1 more.
    """
    mant, exp = np.frexp(v)
    gap = np.ldexp(_POW5[k], exp.astype(np.int64) + k - 6).astype(np.int64)
    even = (v.view(np.int64) & 1) ^ 1
    return np.where(mant == 0.5, gap >> 1, gap) + even, gap + even


def repr_cells(values):
    """Cells of ``repr(x)`` for each x of a float array.

    repr gives the fewest digits that read back as x, and of those the
    nearest to x (Steele & White, 1990; Gay's dtoa mode 0). For
    1e-4 <= |x| < 1e16 Python writes them in fixed notation, and this
    renders them in numpy. With 10**e <= |x| < 10**(e+1) and k = 16 - e,
    X = |x|*10**k = N + f exactly (N an int64 of 17 digits, 0 <= f < 1,
    from _decimal_scale), and the half-gaps to the neighbouring doubles,
    scaled alike, are 5**k * 2**(E-53+k) for 2**E <= |x|; below a power of
    two the gap is half as wide. f and both gaps are multiples of 2**-48,
    so every test runs exactly in int64. The digits are:

    - 15: at most one multiple of 100 lies within the gaps, and if one
      does, its digits are repr's;
    - else 16: of the multiples of 10 within the gaps, the nearer, a tie
      going to the even digit (with unequal gaps only the farther one may
      fit);
    - else 17: X rounded half to even, which always fits.

    Trailing zeros are dropped and the digits laid out as Python does:
    ``0.000ddd`` for e < 0, a ``.`` inside the digits, or ``.0`` after an
    integral value. Zero, -0.0, NaN, infinities, subnormals and every |x|
    outside [1e-4, 1e16) are formatted by Python.
    """
    x = np.asarray(values, dtype=float)
    a = np.abs(x)
    ok = (1e-4 <= a) & (a < 1e16)  # False for NaN
    v = np.where(ok, a, 1.0)
    k, hi, lo, inside = _decimal_scale(v, 17)
    ok &= inside
    # hi >= 1e16 > 2**53 is an integer, and lo a multiple of 2**-46 with
    # |lo| <= 8, so f = lo - floor(lo) is exact
    floor_lo = np.floor(lo)
    n = hi.astype(np.int64) + floor_lo.astype(np.int64)
    f = ((lo - floor_lo) * _UNIT).astype(np.int64)
    gap_lo, gap_hi = _half_gaps(v, k)
    fits15, m15 = _shortest(n, f, 100, gap_lo, gap_hi)
    fits16, m16 = _shortest(n, f, 10, gap_lo, gap_hi)
    # 17 digits: X rounded half to even, always within the gaps
    n = n + ((2 * f > _UNIT) | ((2 * f == _UNIT) & (n & 1 == 1)))
    n = np.where(fits15, m15, np.where(fits16, m16, n))
    n[~ok] = 10**16  # any 17 digits: Python formats these
    e = 16 - k
    # a carry to 10**17 would move to the next exponent; none happens in the
    # domain, since every power of ten in it reads as a double at or above it
    wrap = n == 10**17
    n[wrap] = 10**16
    e += wrap

    # Rows: the sign, the prefix "0.000", then the digits with a '.' after
    # the first dot = e + 1 of them and ".0" after an integral value. When
    # e < 0 the prefix keeps "0." and -e - 1 zeros, and the digits no '.'.
    # The choices per value are blended in uint8 arithmetic, which numpy
    # vectorises.
    digits = _digits(n, 17)
    n_digits = ((digits != 48) * _DIGIT_COUNT).max(axis=0)
    cells = np.empty((_REPR_ROWS, x.size), dtype=np.uint8)
    cells[0] = np.where(np.signbit(x), ord("-"), 0)
    np.multiply(_PREFIX, _PREFIX_ROW < np.where(e < 0, 1 - e, 0), out=cells[1:6])
    padded = np.full((19, x.size), 48, dtype=np.uint8)
    padded[1:18] = digits
    dot = np.where(e < 0, 18, e + 1)
    text = cells[6:]
    np.subtract(padded[1:], padded[:-1], out=text)
    text *= _TEXT_ROW < dot  # the digit before the '.', or the one after
    text += padded[:-1]
    text += (ord(".") - text) * (_TEXT_ROW == dot)
    length = np.where(n_digits > dot, n_digits + 1, dot + 2)
    text *= _TEXT_ROW < np.where(e < 0, n_digits, length)
    return _python_cells(cells, x, ~ok, repr)


def fixed2_cells(values):
    """Cells of ``"{:.2f}".format(v)`` for each v of a float array in
    [0, 2**40), right-aligned, with leading zeros dropped.

    v is M * 2**-k exactly, with M the 53-bit mantissa from frexp, so 100*v
    rounds half to even in int64 arithmetic: q = (100*M) >> k, with the
    remainder compared against 2**(k-1). That is the rounding str.format
    applies to the exact binary value (0.125 -> "0.12", 0.375 -> "0.38").
    """
    v = np.asarray(values, dtype=float)
    if (np.signbit(v) | ~(v < 2.0**40)).any():  # also -0.0, which formats as "-0.00"
        raise ValueError("fixed-point text needs values in [0, 2**40)")
    mant, exp = np.frexp(v)
    # k >= 62 leaves 100*M < 2**60 below half a unit: it rounds to 0 there too
    k = np.minimum(53 - exp.astype(np.int64), 62)
    scaled = (mant * 2.0**53).astype(np.int64) * 100
    one = np.int64(1)
    q = scaled >> k
    rem = scaled & ((one << k) - 1)
    half = one << (k - 1)
    q += (rem > half) | ((rem == half) & (q & 1 == 1))
    whole, cents = np.divmod(q, 100)
    width = len(str(int(whole.max(initial=0))))
    cells = np.empty((width + 3, v.size), dtype=np.uint8)
    cells[:width] = _digits(whole, width)
    for j in range(width - 1):
        cells[j] *= whole >= 10 ** (width - 1 - j)
    cells[width] = ord(".")
    cells[width + 1] = cents // 10 + 48
    cells[width + 2] = cents % 10 + 48
    return cells


def join_rows(pieces, columns) -> bytes:
    """``pieces[0] + c0 + pieces[1] + c1 + ... + pieces[-1]`` for every value
    of the cell matrices ``columns``, all rows concatenated, as bytes."""
    n = columns[0].shape[1]
    rows = []
    for i, text in enumerate(pieces):
        if text:
            lit = np.frombuffer(text.encode("ascii"), dtype=np.uint8)[:, None]
            rows.append(np.broadcast_to(lit, (lit.size, n)))
        if i < len(columns):
            rows.append(columns[i])
    # transposed, one line per value; translate drops the 0s fastest
    return np.concatenate(rows).T.tobytes().translate(None, b"\0")


def write_rows(fh, pieces, columns, render) -> None:
    """Write ``join_rows(pieces, ...)`` of every row of ``columns`` (arrays of
    one length) to the binary file ``fh``, CSV_CHUNK rows at a time.

    ``render`` gives each column's renderer, a function from a slice of the
    column to its cells, so no more than a chunk is rendered at once.
    """
    for start in range(0, columns[0].shape[0], CSV_CHUNK):
        stop = start + CSV_CHUNK
        fh.write(join_rows(pieces, [r(c[start:stop]) for r, c in zip(render, columns)]))


def write_csv(path, header, columns, config_digest: str | None = None, render=None) -> None:
    """Stream a CSV artefact: an optional `# config_digest=` line, the header,
    then one comma-separated row per row of ``columns``.

    ``render`` gives each column's renderer (write_rows); by default every
    column is a float array written as repr_cells. A column of byte strings
    goes with text_cells.
    """
    columns = [np.asarray(c) for c in columns]
    render = render or (repr_cells,) * len(columns)
    pieces = ("",) + (",",) * (len(columns) - 1) + ("\n",)
    with open(path, "wb") as fh:
        if config_digest:
            fh.write(f"# config_digest={config_digest}\n".encode("ascii"))
        fh.write((",".join(header) + "\n").encode("ascii"))
        write_rows(fh, pieces, columns, render)
