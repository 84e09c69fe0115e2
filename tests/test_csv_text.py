"""CSV cell text: the numpy ``%.12e`` and ``repr`` formatters against
Python's, and the chunked CSV writers against row-by-row references."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chuarc import cells
from chuarc.circuit import TAPS, Trace, trace_to_csv


def text(matrix):
    """The text of each value of a cell matrix; 0 marks no character."""
    return [bytes(col[col != 0]).decode("ascii") for col in matrix.T]


def e12(values):
    return text(cells.e12_cells(np.asarray(values, dtype=float)))


def python_e12(values):
    return ["%.12e" % v for v in np.asarray(values, dtype=float).tolist()]


def _dyadic_ties():
    """Doubles x with x * 10**k exactly halfway between two 13-digit integers.

    x * 10**k = N + 1/2 needs x = m / 2**(k+1) with m odd and 5**k * m = 2N + 1,
    so that 10**12 <= x * 10**k < 10**13 bounds m; k reaches 19.
    """
    ties = []
    for k in range(20):
        lo, hi = -(-2 * 10**12 // 5**k), 2 * 10**13 // 5**k
        for m in {lo, lo + 1, (lo + hi) // 2, (lo + hi) // 2 + 1, hi - 1, hi - 2}:
            if lo <= m < hi and m % 2 == 1:
                ties.append(m / 2 ** (k + 1))
    return ties


def _near_ties(count=200):
    """Doubles x whose rounded product hi = fl(x * 10**k) is exactly N + 1/2
    while x * 10**k is not: only the sign of the product's error decides."""
    rng = random.Random(3)
    found = []
    while len(found) < count:
        k = rng.randrange(1, 23)
        x = (rng.randrange(10**12, 10**13) + 0.5) / 10.0**k
        hi = x * 10.0**k
        if hi % 1.0 == 0.5 and Fraction(x) * 10**k != Fraction(hi):
            found.append(x)
    return found


TIES = [1234567890123.5, 1234567890122.5, 9999999999999.5, 9999999999998.5] + _dyadic_ties()
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
            math.nan, -1.0, 1.7976931348623157e308, 1e13, 1e-10, 1e-11, 1e14]


def test_near_ties_follow_the_product_error():
    near = _near_ties()
    assert e12(near) == python_e12(near)


def test_exact_ties_round_half_to_even():
    for x in TIES:  # each is exactly halfway: 13 digits and a half
        scaled = Fraction(x) * 10 ** (12 - math.floor(math.log10(x)))
        assert 10**12 <= scaled < 10**13 and scaled.denominator == 2
    assert len(TIES) >= 60
    assert e12(TIES) == python_e12(TIES)


@pytest.mark.parametrize("k", range(-10, 13))
def test_both_neighbours_of_powers_of_ten(k):
    p = 10.0**k
    values = [math.nextafter(math.nextafter(p, 0.0), 0.0), math.nextafter(p, 0.0), p,
              math.nextafter(p, math.inf), math.nextafter(math.nextafter(p, math.inf), math.inf)]
    assert e12(values) == python_e12(values)


def test_values_python_formats():
    # outside the certified domain every value takes the Python fallback
    assert e12(SPECIALS) == python_e12(SPECIALS)
    assert e12([0.0, -0.0, math.nan, math.inf, -math.inf]) == [
        "0.000000000000e+00", "-0.000000000000e+00", "nan", "inf", "-inf"]


def test_round_up_carries_into_the_exponent():
    values = [9999999999999.5, math.nextafter(1e13, 0.0), 9.9999999999995e-3, 9.99999999999951e5]
    assert e12(values) == python_e12(values)
    assert e12([9999999999999.5])[0] == "1.000000000000e+13"


def test_trace_times_and_empty_input():
    for dt in (1e-6, 1e-7, 1e-8, 2.5e-9, 1.0 / 3e6):
        times = np.arange(20001) * dt
        assert e12(times) == python_e12(times)
    assert e12([]) == []


_any_float = st.one_of(
    st.floats(),
    st.floats(1e-10, 1e13),
    st.sampled_from(TIES + SPECIALS),
    st.integers(10**12, 10**13).map(lambda n: n + 0.5),
    st.tuples(st.integers(10**12, 10**13 - 1), st.integers(0, 22)).map(
        lambda nk: (nk[0] + 0.5) / 10.0 ** nk[1]),  # exact or near ties
    st.integers(-10, 12).flatmap(lambda k: st.sampled_from(
        [math.nextafter(10.0**k, 0.0), 10.0**k, math.nextafter(10.0**k, math.inf)])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_float, max_size=40))
def test_e12_text_equals_python_for_any_float(values):
    assert e12(values) == python_e12(values)


def reference_trace_csv(trace, digest):
    """The row-by-row writer the chunked one replaced."""
    lines = [f"# config_digest={digest}\n", ",".join(("t", *TAPS)) + "\n"]
    for t, *taps in zip(trace.times.tolist(), *trace.channels.tolist()):
        lines.append(f"{t:.12e}" + "".join(f",{v!r}" for v in taps) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("chunk", sorted({1, 7, 4096, cells.CSV_CHUNK}))
def test_trace_csv_matches_row_by_row_writer(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cells, "CSV_CHUNK", chunk)
    rng = np.random.default_rng(5)
    channels = rng.normal(size=(2, 503)) * 10.0 ** rng.integers(-300, 300, size=(2, 503))
    channels[0, :3] = [-0.0, 0.0, 5e-324]
    trace = Trace(dt=1e-7, channels=channels)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path, config_digest="cafe")
    assert path.read_text() == reference_trace_csv(trace, "cafe")
