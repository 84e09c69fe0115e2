"""SVG coordinate text: the integer fixed-point formatter against str.format,
and the line and scatter plots built from it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chuarc import cells, plots
from tests.test_streaming import reference_scale

LARGEST = math.nextafter(2.0**40, 0.0)

CIRCLE = ('<circle cx="', '" cy="', '" r="1.4" fill="steelblue"/>')
CIRCLE_FMT = '<circle cx="{:.2f}" cy="{:.2f}" r="1.4" fill="steelblue"/>'


def fixed2_text(values, pieces=("", "|")):
    return cells.join_rows(pieces, (cells.fixed2_cells(np.asarray(values, dtype=float)),)).decode()


def format_text(values, fmt="{:.2f}|"):
    return "".join(fmt.format(v) for v in values)


def _near_half_cents(n):
    """A value on the x.xx5 grid and its float neighbours on both sides."""
    v = (10 * n + 5) / 1000
    return [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]


_pixels = st.one_of(
    st.floats(0.0, 2.0**40, exclude_max=True).map(abs),  # abs: no -0.0
    st.floats(0.0, 1000.0).map(abs),
    st.integers(0, 8 * 10**6).map(lambda n: n / 8),  # exact ties at n/8
    st.integers(0, 10**6).flatmap(lambda n: st.sampled_from(_near_half_cents(n))),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 0.005, 0.015, 9.995,
                     99.995, 659.995, LARGEST]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_pixels, _pixels), min_size=1, max_size=40))
def test_rows_text_matches_str_format(rows):
    xs, ys = (np.array(col) for col in zip(*rows))
    text = cells.join_rows(CIRCLE, (cells.fixed2_cells(xs), cells.fixed2_cells(ys))).decode()
    assert text == "".join(CIRCLE_FMT.format(*row) for row in rows)


def test_ties_round_half_to_even():
    ties = [n / 8 for n in range(8 * 1000)]
    assert fixed2_text(ties) == format_text(ties)
    assert fixed2_text([0.125, 0.375, 0.625, 0.875]) == "0.12|0.38|0.62|0.88|"


def test_neighbours_of_every_half_cent():
    grid = [v for n in range(100 * 1000) for v in _near_half_cents(n)]
    assert fixed2_text(grid) == format_text(grid)


def test_domain_edges():
    edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.004999999999999999,
             1.0, 2.0**39, LARGEST]
    assert fixed2_text(edges) == format_text(edges)
    assert fixed2_text([LARGEST]) == "1099511627776.00|"  # rounds up past 2**40


def test_log_uniform_values():
    values = np.exp(np.random.default_rng(3).uniform(math.log(1e-6), math.log(2.0**40), 20000))
    values = values[values < 2.0**40].tolist()
    assert fixed2_text(values) == format_text(values)


@pytest.mark.parametrize("value", [-0.0, -1.0, math.nan, math.inf, 2.0**40])
def test_out_of_domain_is_rejected(value):
    with pytest.raises(ValueError):
        cells.fixed2_cells(np.array([1.0, value]))


def _points(svg):
    return [chunk.split('"', 1)[0] for chunk in svg.split('points="')[1:]]


def test_one_point_line(tmp_path):
    csv = tmp_path / "trace.csv"
    csv.write_text("t,v_cd\n0.0,0.5\n")
    assert plots.render_plot(csv, tmp_path / "t.svg") == "trace"
    assert _points((tmp_path / "t.svg").read_text()) == ["60.00,420.00"]


def test_constant_series(tmp_path):
    # vmax == vmin: the range widens by 1.0, so the flat line sits at the bottom
    csv = tmp_path / "trace.csv"
    csv.write_text("t,v_cd,v_l\n0.0,0.3,0.3\n1e-06,0.3,0.3\n2e-06,0.3,0.3\n")
    plots.render_plot(csv, tmp_path / "t.svg")
    line = "60.00,420.00 360.00,420.00 660.00,420.00"
    assert _points((tmp_path / "t.svg").read_text()) == [line, line]


def test_line_matches_per_point_format(tmp_path):
    rng = np.random.default_rng(11)
    t = np.arange(300) * 1e-6
    v = np.cumsum(rng.normal(size=(300, 2)), axis=0)
    csv = tmp_path / "trace.csv"
    csv.write_text("t,a,b\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, (b, c) in zip(t.tolist(), v.tolist())))
    plots.render_plot(csv, tmp_path / "t.svg")
    px = reference_scale(t, plots.MARGIN, plots.WIDTH - plots.MARGIN)[0].tolist()
    py = reference_scale(v.T.reshape(-1), plots.HEIGHT - plots.MARGIN, plots.MARGIN)[0].tolist()
    expected = [" ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py[k * 300:(k + 1) * 300]))
                for k in range(2)]
    assert _points((tmp_path / "t.svg").read_text()) == expected
