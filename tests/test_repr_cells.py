"""repr cells: the numpy shortest round-trip formatter against Python's repr,
and every writer built on it against a row-by-row repr reference."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chuarc import cells
from chuarc.circuit import BifurcationPoint, bifurcation_to_csv, spectrum_to_csv
from chuarc.experiment import SweepCell, sweep_to_csv
from chuarc.tasks import TASK_KINDS, TaskSpec, build_dataset, dataset_to_csv, pair_teachers


def reprs(values):
    matrix = cells.repr_cells(np.asarray(values, dtype=float))
    return [bytes(col[col != 0]).decode("ascii") for col in matrix.T]


def python(values):
    return [repr(v) for v in np.asarray(values, dtype=float).tolist()]


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def mantissa_is_even(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0] % 2 == 0


def _sixteen_digit_ties():
    """Doubles x = j/32 in [2**39, 10**12), j odd.

    There the spacing of doubles is 2**-13, and x * 10**5 is an integer
    ending in 5: exactly half-way between two 16-digit decimals, both
    2.5 / 10**5 from x, inside its half-gap of 2**-14. No 15-digit
    decimal is within it (those end in 00, 25 or more away), so repr takes
    the neighbour with the even last digit.
    """
    ties = []
    for j in (2**44 + 1, 2**44 + 3, 2**44 + 99, 3 * 10**13 + 1, 31 * 10**12 - 1):
        x = j / 32
        assert 2**39 <= x < 10**12 and x * 32 == j
        ties.append(x)
    return ties


def _neighbours(x, n=2):
    out, down, up = [x], x, x
    for _ in range(n):
        down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
        out += [down, up]
    return out


POWERS_OF_TWO = [2.0**j for j in range(-16, 55)]
SPECIALS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
            2.0**-1022 * 3, 1e-4, -1e-4, 1e16, -1e16, 0.1, 0.2, 0.3, 1 / 3, 123.0]


def test_sixteen_digit_ties_take_the_even_digit():
    ties = _sixteen_digit_ties()
    for x in ties:
        scaled = Fraction(x) * 10**5
        assert scaled.denominator == 1 and scaled % 10 == 5
        assert float((scaled - 5) / 10**5) == x == float((scaled + 5) / 10**5)
        assert float(round(scaled / 100) * 100 / Fraction(10**5)) != x
        assert int(repr(x)[-1]) % 2 == 0
    assert reprs(ties) == python(ties)
    assert reprs([-x for x in ties]) == python([-x for x in ties])


def test_powers_of_two_and_their_neighbours():
    values = [v for p in POWERS_OF_TWO for v in _neighbours(p)]
    assert reprs(values) == python(values)
    assert reprs([-v for v in values]) == python([-v for v in values])


@pytest.mark.parametrize("k", range(-5, 18))
def test_both_neighbours_of_powers_of_ten(k):
    values = _neighbours(float(f"1e{k}"))
    assert reprs(values) == python(values)
    assert reprs([-v for v in values]) == python([-v for v in values])


def test_domain_edges():
    # fixed notation from 1e-4 up to below 1e16; beyond it Python formats
    values = _neighbours(1e-4, 3) + _neighbours(1e16, 3) + SPECIALS
    assert reprs(values) == python(values)
    assert reprs([1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e16, 0.0), 1e16]) == [
        "0.0001", "9.999999999999999e-05", "9999999999999998.0", "1e+16"]


def test_no_value_below_a_power_of_ten_carries():
    # 17 digits of x * 10**k round up to 10**17 only when 10**(e+1) reads
    # back as x; every double nearest a power of ten in the domain lies at or
    # above it, so the values just below print their own digits
    below = [math.nextafter(float(f"1e{k}"), 0.0) for k in range(-3, 17)]
    assert reprs(below) == python(below)


def test_half_gaps_are_exact():
    rng = np.random.default_rng(8)
    values = np.concatenate([
        [v for p in POWERS_OF_TWO if 1e-4 <= p < 1e16 for v in _neighbours(p)],
        rng.uniform(1.0, 10.0, 400) * 10.0 ** rng.integers(-4, 16, 400),
    ])
    values = values[(values >= 1e-4) & (values < 1e16)]
    k, _, _, ok = cells._decimal_scale(values, 17)
    assert ok.all()
    below, above = cells._half_gaps(values, k)
    for x, kx, lo, hi in zip(values.tolist(), k.tolist(), below.tolist(), above.tolist()):
        mant, exp = math.frexp(x)
        half = Fraction(2) ** (exp - 54) * 10**kx * 2**48
        assert half.denominator == 1
        even = mantissa_is_even(x)
        assert hi == half + even
        assert lo == (half / 2 if mant == 0.5 else half) + even


def test_random_bit_patterns_and_scaled_normals():
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2**63, size=20000, dtype=np.uint64)
    bits[::2] |= np.uint64(1 << 63)
    values = np.concatenate([
        bits.view(np.float64),
        rng.normal(size=20000) * 10.0 ** rng.uniform(-6, 17, 20000),
        -(8.0 + np.arange(4000) * 2.0**-16),
    ])
    assert reprs(values) == python(values)


_any_float = st.one_of(
    st.integers(0, 2**64 - 1).map(from_bits),
    st.floats(),
    st.floats(1e-4, 1e16),
    st.floats(-1e16, -1e-4),
    st.floats(0.0, 2.2250738585072014e-308),  # zero and subnormals
    st.sampled_from(SPECIALS + POWERS_OF_TWO + _sixteen_digit_ties()),
    st.integers(-5, 17).map(lambda k: float(f"1e{k}")).flatmap(
        lambda p: st.sampled_from(_neighbours(p, 1))),
    st.integers(10**15, 10**17).map(lambda n: n / 10.0**16),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_float, max_size=40))
def test_repr_cells_equal_python_for_any_float(values):
    assert reprs(values) == python(values)


def test_empty_input():
    assert cells.repr_cells(np.array([])).shape[1] == 0


# The writers, each against the row-by-row writer it replaced. Cells cover
# both notations, signs, zeros and non-finite values.

def _values(rng, n):
    v = rng.normal(size=n) * 10.0 ** rng.integers(-8, 20, size=n)
    v[:6] = [0.0, -0.0, math.nan, math.inf, 1e-4, 5e-324][:n]
    return v


def _header(digest, *names):
    return (f"# config_digest={digest}\n" if digest else "") + ",".join(names) + "\n"


CHUNKS = [1, 7, cells.CSV_CHUNK]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_spectrum_csv_matches_row_by_row_writer(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cells, "CSV_CHUNK", chunk)
    rng = np.random.default_rng(1)
    freqs, mags = np.arange(301) * 3.3, _values(rng, 301)
    spectrum_to_csv(freqs, mags, tmp_path / "s.csv", "cafe")
    want = _header("cafe", "freq_hz", "magnitude") + "".join(
        f"{f!r},{m!r}\n" for f, m in zip(freqs.tolist(), mags.tolist()))
    assert (tmp_path / "s.csv").read_text() == want


@pytest.mark.parametrize("chunk", CHUNKS)
def test_bifurcation_csv_matches_row_by_row_writer(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cells, "CSV_CHUNK", chunk)
    rng = np.random.default_rng(2)
    points = [BifurcationPoint(1500.0 + 40.0 * i, _values(rng, i % 9)) for i in range(20)]
    points.append(BifurcationPoint(2300.0, np.empty(0), error="non-finite state at step 3"))
    bifurcation_to_csv(points, tmp_path / "b.csv", None)
    want = _header(None, "param", "extremum_value") + "".join(
        f"{pt.value!r},{e!r}\n" for pt in points for e in pt.extrema.tolist())
    assert (tmp_path / "b.csv").read_text() == want


def reference_sweep_csv(cells_, digest):
    """The row-by-row sweep writer the shared one replaced."""
    with_mask = any(c.n_mask is not None for c in cells_)
    out = [f"# config_digest={digest}\n" if digest else "",
           ("n_mask," if with_mask else "") + "r_ohms,v_center,mean_nmse\n"]
    for c in cells_:
        prefix = f"{c.n_mask}," if with_mask else ""
        out.append(prefix + f"{repr(c.r_ohms)},{repr(c.v_center)},{repr(c.mean_nmse)}\n")
    return "".join(out)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("masks", [(None,), (10, 200), (None, 20)])
def test_sweep_csv_matches_row_by_row_writer(tmp_path, monkeypatch, chunk, masks):
    monkeypatch.setattr(cells, "CSV_CHUNK", chunk)
    rng = np.random.default_rng(3)
    grid = [(nm, r, v) for nm in masks for r in (1600.0, 1680.0, 1760.0) for v in (0.4, 0.6000000000000001)]
    scores = _values(rng, len(grid))
    sweep = [SweepCell(r, v, nm, s) for (nm, r, v), s in zip(grid, scores.tolist())]
    sweep_to_csv(sweep, tmp_path / "sweep.csv", "beef")
    assert (tmp_path / "sweep.csv").read_text() == reference_sweep_csv(sweep, "beef")


def reference_dataset_csv(dataset, digest):
    """The row-by-row dataset writer the shared one replaced."""
    out = [f"# config_digest={digest}\n" if digest else ""]
    if dataset.kind in ("polynomial", "modulo", "poly-mod"):
        out.append("x,y_teacher\n")
        for inp, t in zip(dataset.inputs, dataset.teachers):
            out.append(f"{repr(inp[0])},{repr(float(t[0]))}\n")
    elif dataset.kind in ("pair-sum", "pair-product", "pair-modlin"):
        out.append("x1,x2,sum,product,modlin\n")
        for inp in dataset.inputs:
            s, p, m = pair_teachers(inp[0], inp[1])
            out.append(f"{repr(inp[0])},{repr(inp[1])},{repr(s)},{repr(p)},{repr(m)}\n")
    else:
        out.append("x,y,class\n")
        for inp, label in zip(dataset.inputs, dataset.labels):
            out.append(f"{repr(inp[0])},{repr(inp[1])},{label}\n")
    return "".join(out)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kind", [k for k in TASK_KINDS if not k.startswith("lwe")])
def test_dataset_csv_matches_row_by_row_writer(tmp_path, monkeypatch, chunk, kind):
    monkeypatch.setattr(cells, "CSV_CHUNK", chunk)
    dataset = build_dataset(TaskSpec(kind=kind), n_cases=37, seed=5)
    dataset_to_csv(dataset, tmp_path / "d.csv", "f00d")
    assert (tmp_path / "d.csv").read_text() == reference_dataset_csv(dataset, "f00d")
