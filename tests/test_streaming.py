"""Artefacts in bounded memory: SVG line and scatter plots streamed a chunk of
points at a time, against the whole-string writers they replaced, and the
undriven kernel without a per-step drive list."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chuarc import cells, plots
from chuarc.circuit import DEFAULT_INITIAL_STATE, Trace, integrate, kennedy_circuit, trace_to_csv
from chuarc.cli import main
from chuarc.errors import ConfigurationError

MARGIN, WIDTH, HEIGHT = plots.MARGIN, plots.WIDTH, plots.HEIGHT
CHUNKS = [1, 7, cells.CSV_CHUNK]


# The whole-string writers: each builds the document as one str, with the
# range of a multi-series line plot taken over the concatenated series.

def reference_scale(values, lo_px, hi_px):
    if isinstance(values, np.ndarray):
        vmin, vmax = values[values.argmin()].item(), values[values.argmax()].item()
    else:
        vmin, vmax = min(values), max(values)
    vmax, span = plots._span(vmin, vmax)
    with np.errstate(all="ignore"):
        px = lo_px + (np.asarray(values, dtype=float) - vmin) / span * (hi_px - lo_px)
    return px, vmin, vmax


def reference_scatter_svg(xs, ys, x_label, y_label, title, digest):
    px, xmin, xmax = reference_scale(xs, MARGIN, WIDTH - MARGIN)
    py, ymin, ymax = reference_scale(ys, HEIGHT - MARGIN, MARGIN)
    dots = cells.join_rows(('<circle cx="', '" cy="', '" r="1.4" fill="steelblue"/>'),
                           (cells.fixed2_cells(px), cells.fixed2_cells(py))).decode("ascii")
    return (plots._svg_header(title, digest) + plots._axes(x_label, y_label, xmin, xmax, ymin, ymax)
            + dots + "</svg>")


def reference_line_svg(xs, series, x_label, y_label, title, digest):
    px, xmin, xmax = reference_scale(xs, MARGIN, WIDTH - MARGIN)
    x_text = cells.fixed2_cells(px)
    py, ymin, ymax = reference_scale(np.concatenate(list(series.values())), HEIGHT - MARGIN, MARGIN)
    colors = ("steelblue", "firebrick", "seagreen", "darkorange")
    paths = []
    start = 0
    for i, (name, ys) in enumerate(series.items()):
        pts = cells.join_rows(("", ",", " "), (x_text, cells.fixed2_cells(py[start:start + len(ys)])))
        pts = pts[:-1].decode("ascii")
        start += len(ys)
        color = colors[i % len(colors)]
        paths.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1"/>')
        paths.append(
            f'<text x="{WIDTH-MARGIN}" y="{MARGIN+14*(i+1)}" text-anchor="end" '
            f'font-size="12" fill="{color}">{name}</text>'
        )
    return (plots._svg_header(title, digest) + plots._axes(x_label, y_label, xmin, xmax, ymin, ymax)
            + "".join(paths) + "</svg>")


def _streamed(tmp_path, write, *args):
    """(text, None) of a streamed writer, or (None, message) if it raised
    _Unscalable, in which case it must have left no file."""
    path = tmp_path / "streamed.svg"
    path.unlink(missing_ok=True)
    try:
        write(path, *args)
    except plots._Unscalable as exc:
        assert not path.exists()
        return None, str(exc)
    return path.read_text(), None


def _reference(write, *args):
    try:
        return write(*args), None
    except plots._Unscalable as exc:
        return None, str(exc)


def check_line(tmp_path, xs, series):
    args = ("time (s)", "volts", "trace", "d1g")
    assert _streamed(tmp_path, plots._line_svg, xs, series, *args) == _reference(
        reference_line_svg, xs, series, *args)


def check_scatter(tmp_path, xs, ys):
    # render_plot passed the scatter's columns as lists; it now streams arrays
    args = ("parameter", "extremum (V)", "bifurcation scan", None)
    assert _streamed(tmp_path, plots._scatter_svg, xs, ys, *args) == _reference(
        reference_scatter_svg, xs.tolist(), ys.tolist(), *args)


# 0.0 and -0.0 compare equal: the first of them is the range end, and its sign
# shows in the axis label ("0" or "-0")
SIGNED_ZERO_SERIES = [
    {"a": [0.0, 1.0], "b": [-0.0, 2.0]},
    {"a": [-0.0, 1.0], "b": [0.0, 2.0]},
    {"a": [1.0, 2.0], "b": [0.0, -0.0], "c": [-0.0, 0.5]},
    {"a": [-1.0, -0.0], "b": [-2.0, 0.0]},
    {"a": [-1.0, 0.0], "b": [-2.0, -0.0]},
]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("series", SIGNED_ZERO_SERIES)
def test_line_signed_zero_ranges(tmp_path, monkeypatch, chunk, series):
    monkeypatch.setattr(cells, "CSV_CHUNK", chunk)
    series = {name: np.array(ys) for name, ys in series.items()}
    check_line(tmp_path, np.array([0.0, 1e-6]), series)
    check_scatter(tmp_path, np.array([-0.0, 0.0]), np.concatenate(list(series.values()))[:2])


@pytest.mark.parametrize("chunk", CHUNKS)
def test_line_random_walk(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cells, "CSV_CHUNK", chunk)
    rng = np.random.default_rng(7)
    xs = np.arange(1000) * 1e-6
    walk = np.cumsum(rng.normal(size=(3, 1000)), axis=1)
    check_line(tmp_path, xs, {f"v{i}": walk[i] for i in range(3)})
    check_scatter(tmp_path, walk[0], walk[1])


_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e308, -1e308, 1e20]),
                    st.floats(-1e6, 1e6, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), n_series=st.integers(1, 4), chunk=st.sampled_from(CHUNKS),
       data=st.data())
def test_streamed_plots_equal_the_whole_string_writers(tmp_path_factory, n, n_series, chunk, data):
    column = st.lists(_VALUES, min_size=n, max_size=n).map(np.array)
    xs = data.draw(column)
    series = {f"s{i}": data.draw(column) for i in range(n_series)}
    tmp_path = tmp_path_factory.mktemp("svg")
    saved = cells.CSV_CHUNK
    cells.CSV_CHUNK = chunk
    try:
        check_line(tmp_path, xs, series)
        check_scatter(tmp_path, xs, series["s0"])
    finally:
        cells.CSV_CHUNK = saved


@pytest.mark.parametrize("xs, ys", [
    ([0.0, 1.0, 2.0], [-1e308, 0.0, 1e308]),  # no finite span
    ([-1e308, 0.0, 1e308], [0.0, 1.0, 2.0]),  # the x range is checked first
    ([0.0, 1.0, 2.0], [1e20, 1e20, 1e20]),    # a widening by 1.0 does not move
])
def test_unscalable_ranges_raise_before_any_file(tmp_path, xs, ys):
    xs, ys = np.array(xs), np.array(ys)
    line = _streamed(tmp_path, plots._line_svg, xs, {"a": ys}, "time (s)", "volts", "trace", None)
    assert line[0] is None and "cannot be scaled" in line[1]
    check_line(tmp_path, xs, {"a": ys})
    check_scatter(tmp_path, xs, ys)


def _trace_csv(path, n):
    rng = np.random.default_rng(3)
    trace_to_csv(Trace(1e-6, ("v_cd", "v_l"), np.cumsum(rng.normal(size=(2, n)), axis=1)), path, "ab")
    return path


def _render_peak(csv, svg):
    tracemalloc.start()
    try:
        plots.render_plot(csv, svg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_render_peak_grows_by_the_parsed_table_only(tmp_path, monkeypatch):
    # Rendering holds the parsed (rows, 3) float table and one chunk of pixel
    # text; the document is never built. So from N to 4N rows the peak grows
    # by the table's extra 3N * 24 bytes, plus a 128 KiB slack for the
    # reader's growth. The whole-string writer grew by ~8x that.
    monkeypatch.setattr(cells, "CSV_CHUNK", 1024)
    n = 4096
    small, large = _trace_csv(tmp_path / "n.csv", n), _trace_csv(tmp_path / "4n.csv", 4 * n)
    plots.render_plot(small, tmp_path / "warm.svg")
    peak_small = _render_peak(small, tmp_path / "n.svg")
    peak_large = _render_peak(large, tmp_path / "4n.svg")
    table_growth = 3 * n * 3 * 8
    assert peak_large - peak_small <= table_growth + 128 * 1024


def test_undriven_integrate_keeps_no_float_per_step():
    # the two 8-byte taps and one copy of a tap, as the channel array takes
    # over the v_cd buffer, are all: ~25.5 bytes per sample with the arrays'
    # growth. A copy of both taps (a vstack) would reach 33, and a drive list
    # adds a float object and a pointer per step, 32 more.
    n_steps = 50_000
    integrate(kennedy_circuit(), DEFAULT_INITIAL_STATE, None, n_steps * 1e-8, 1e-8)  # warm up
    tracemalloc.start()
    try:
        trace = integrate(kennedy_circuit(), DEFAULT_INITIAL_STATE, None, n_steps * 1e-8, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.n_samples == n_steps + 1
    assert peak < 30 * trace.n_samples


def test_negative_horizon_is_a_configuration_error():
    with pytest.raises(ConfigurationError) as err:
        integrate(kennedy_circuit(), DEFAULT_INITIAL_STATE, None, -1e-6, 1e-8)
    assert err.value.field == "t_end"


@pytest.mark.parametrize("kind", ["trace", "bifurcation"])
def test_failure_mid_stream_leaves_no_svg(tmp_path, monkeypatch, capsys, kind):
    monkeypatch.setattr(cells, "CSV_CHUNK", 16)
    if kind == "trace":
        csv = _trace_csv(tmp_path / "t.csv", 200)
    else:
        csv = tmp_path / "b.csv"
        csv.write_text("param,extremum_value\n" + "".join(f"{i}.0,{math.sin(i)!r}\n" for i in range(200)))
    real = plots.fixed2_cells
    calls = []

    def failing(values):
        calls.append(len(values))
        if len(calls) == 5:
            raise MemoryError("out of memory while rendering")
        return real(values)

    monkeypatch.setattr(plots, "fixed2_cells", failing)
    svg = tmp_path / "out.svg"
    svg.write_text("an older plot")
    with pytest.raises(MemoryError):
        main(["plot", "--csv", str(csv), "--out-svg", str(svg)])
    assert len(calls) == 5  # after the header and the first chunks were written
    assert not svg.exists()
    monkeypatch.setattr(plots, "fixed2_cells", real)
    assert main(["plot", "--csv", str(csv), "--out-svg", str(svg)]) == 0
    assert svg.read_text().endswith("</svg>")


def test_trace_without_a_tap_column_exits_1(tmp_path, capsys):
    # the line plot's y range needs at least one series (was a ValueError
    # traceback from np.concatenate)
    csv = tmp_path / "t.csv"
    csv.write_text("t\n0.0\n1e-06\n")
    assert main(["plot", "--csv", str(csv), "--out-svg", str(tmp_path / "t.svg")]) == 1
    assert f"csv: {csv}: a trace needs a column besides t" in capsys.readouterr().err
    assert not (tmp_path / "t.svg").exists()
