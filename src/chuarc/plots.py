"""Hand-rolled SVG rendering for the CSV artifacts.

Purely presentational: scatter for bifurcation data, lines for traces and
spectra, a heatmap for sweeps, and a histogram for per-case error lists.
No numeric transformation beyond axis scaling.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .cells import fixed2_cells, write_rows
from .errors import ConfigurationError

WIDTH, HEIGHT = 720, 480
MARGIN = 60
PLOT_W, PLOT_H = WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN


def _read_header(fh, path):
    """Skip comment and blank lines up to the header; returns (header, digest)."""
    digest = None
    for line in iter(fh.readline, ""):
        if line.startswith("#"):
            if "config_digest=" in line:
                digest = line.split("config_digest=", 1)[1].strip()
        elif line.strip():
            return line.rstrip("\n").split(","), digest
    raise ConfigurationError("csv", f"{path}: no header row")


def _read_csv(path, columns=None, nan_column=None):
    """Parse a CSV artefact into (header, float table, config digest).

    The table holds the named ``columns`` (all when None), in that order, with
    one row per data row. A missing column, an empty or non-numeric cell, a
    short row, no data rows, or a NaN or infinity (other than a NaN in
    ``nan_column``) raises ConfigurationError naming the file.
    """
    with open(path) as fh:
        header, digest = _read_header(fh, path)
        names = header if columns is None else columns
        missing = [c for c in names if c not in header]
        if missing:
            raise ConfigurationError("csv", f"{path}: no column {missing[0]!r} in {header}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            try:
                table = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2,
                                   usecols=[header.index(c) for c in names])
            except ValueError as exc:
                raise ConfigurationError("csv", f"{path}: {exc}") from None
    if table.shape[0] == 0:
        raise ConfigurationError("csv", f"{path}: no data rows")
    finite = np.isfinite(table)
    if nan_column is not None:
        j = names.index(nan_column)
        finite[:, j] |= np.isnan(table[:, j])
    if not finite.all():
        column = names[finite.all(axis=0).argmin()]
        raise ConfigurationError("csv", f"{path}: non-finite value in column {column!r}")
    return header, table, digest


class _Unscalable(ValueError):
    """A data range with no finite, nonzero span: it has no pixel scale."""


def _span(vmin, vmax, parts=1):
    """(vmax, (vmax - vmin) / parts), vmax widened by 1.0 when it equals vmin.

    Raises _Unscalable when that step is not finite or is zero (a range such
    as [-1e308, 1e308], or a constant 1e20 that the widening cannot move).
    """
    if vmax == vmin:
        vmax = vmin + 1.0
    step = (vmax - vmin) / parts
    if not 0.0 < step < math.inf:
        raise _Unscalable(f"data range [{vmin!r}, {vmax!r}] cannot be scaled")
    return vmax, step


def _first_range(columns):
    """(vmin, vmax) over NaN-free arrays as min() and max() pick them from
    their concatenation: the first minimum and the first maximum, so of
    -0.0 and 0.0 the one that comes first."""
    vmin = vmax = None
    for values in columns:
        lo, hi = values[values.argmin()].item(), values[values.argmax()].item()
        if vmin is None or lo < vmin:
            vmin = lo
        if vmax is None or hi > vmax:
            vmax = hi
    return vmin, vmax


def _pixels(values, vmin, span, lo_px, hi_px):
    with np.errstate(all="ignore"):
        return lo_px + (np.asarray(values, dtype=float) - vmin) / span * (hi_px - lo_px)


def _axis(columns, lo_px, hi_px):
    """(vmin, vmax, render) of one plot axis over NaN-free arrays: the range
    _first_range picks, widened and checked by _span, and a renderer from a
    slice of data to the cells of its pixel text, elementwise the bits
    _pixels gives for the whole column."""
    vmin, vmax = _first_range(columns)
    vmax, span = _span(vmin, vmax)
    return vmin, vmax, lambda values: fixed2_cells(_pixels(values, vmin, span, lo_px, hi_px))


@contextmanager
def _output(path):
    """The binary file at ``path``, removed again if writing it fails."""
    fh = open(path, "wb")
    try:
        with fh:
            yield fh
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _svg_header(title, digest):
    """The SVG start tag, metadata, background and title; ``digest`` is the
    metadata text after ``config_digest=``."""
    meta = f"<metadata>config_digest={digest or 'unknown'}</metadata>"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">{meta}'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>'
        f'<text x="{WIDTH/2}" y="24" text-anchor="middle" font-size="16">{title}</text>'
    )


def _axes(x_label, y_label, xmin, xmax, ymin, ymax):
    parts = [
        f'<line x1="{MARGIN}" y1="{HEIGHT-MARGIN}" x2="{WIDTH-MARGIN}" y2="{HEIGHT-MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT-MARGIN}" stroke="black"/>',
        f'<text x="{WIDTH/2}" y="{HEIGHT-16}" text-anchor="middle" font-size="13">{x_label}</text>',
        f'<text x="18" y="{HEIGHT/2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {HEIGHT/2})">{y_label}</text>',
        f'<text x="{MARGIN}" y="{HEIGHT-MARGIN+16}" font-size="11">{xmin:.4g}</text>',
        f'<text x="{WIDTH-MARGIN}" y="{HEIGHT-MARGIN+16}" text-anchor="end" font-size="11">{xmax:.4g}</text>',
        f'<text x="{MARGIN-4}" y="{HEIGHT-MARGIN}" text-anchor="end" font-size="11">{ymin:.4g}</text>',
        f'<text x="{MARGIN-4}" y="{MARGIN+4}" text-anchor="end" font-size="11">{ymax:.4g}</text>',
    ]
    return "".join(parts)


def _scatter_svg(out_path, xs, ys, x_label, y_label, title, digest):
    """Write the scatter plot of the NaN-free arrays ``xs``, ``ys``, one
    chunk of points at a time."""
    xmin, xmax, x_cells = _axis([xs], MARGIN, WIDTH - MARGIN)
    ymin, ymax, y_cells = _axis([ys], HEIGHT - MARGIN, MARGIN)
    with _output(out_path) as fh:
        fh.write((_svg_header(title, digest)
                  + _axes(x_label, y_label, xmin, xmax, ymin, ymax)).encode())
        write_rows(fh, ('<circle cx="', '" cy="', '" r="1.4" fill="steelblue"/>'),
                   (xs, ys), (x_cells, y_cells))
        fh.write(b"</svg>")


def _line_svg(out_path, xs, series, x_label, y_label, title, digest):
    """Write the line plot of each NaN-free array of ``series`` (name ->
    ys) against ``xs``, one chunk of each polyline's points at a time; the
    y axis spans every series."""
    xmin, xmax, x_cells = _axis([xs], MARGIN, WIDTH - MARGIN)
    ymin, ymax, y_cells = _axis(series.values(), HEIGHT - MARGIN, MARGIN)
    colors = ("steelblue", "firebrick", "seagreen", "darkorange")
    with _output(out_path) as fh:
        fh.write((_svg_header(title, digest)
                  + _axes(x_label, y_label, xmin, xmax, ymin, ymax)).encode())
        for i, (name, ys) in enumerate(series.items()):
            color = colors[i % len(colors)]
            fh.write(b'<polyline points="')
            # points are space-separated: the last one goes without
            write_rows(fh, ("", ",", " "), (xs[:-1], ys[:-1]), (x_cells, y_cells))
            write_rows(fh, ("", ",", ""), (xs[-1:], ys[-1:]), (x_cells, y_cells))
            fh.write(f'" fill="none" stroke="{color}" stroke-width="1"/>'
                     f'<text x="{WIDTH-MARGIN}" y="{MARGIN+14*(i+1)}" text-anchor="end" '
                     f'font-size="12" fill="{color}">{name}</text>'.encode())
        fh.write(b"</svg>")


def _heat_color(t):
    # blue (low) -> yellow -> red (high)
    t = min(1.0, max(0.0, t))
    if t < 0.5:
        r, g, b = int(510 * t), int(510 * t), int(255 * (1 - 2 * t))
    else:
        r, g, b = 255, int(255 * (2 - 2 * t)), 0
    return f"rgb({r},{g},{b})"


def _heatmap_svg(out_path, xs, ys, values, x_label, y_label, title, digest):
    ux = sorted(set(xs))
    uy = sorted(set(ys))
    finite = [v for v in values if math.isfinite(v)]
    vmin = min(finite) if finite else 0.0
    vmax = max(finite) if finite else 1.0
    span = (vmax - vmin) or 1.0
    cw = PLOT_W / len(ux)
    ch = PLOT_H / len(uy)
    cells = []
    for x, y, v in zip(xs, ys, values):
        ix = ux.index(x)
        iy = uy.index(y)
        color = _heat_color((v - vmin) / span) if math.isfinite(v) else "gray"
        cx = MARGIN + ix * cw
        cy = HEIGHT - MARGIN - (iy + 1) * ch
        cells.append(f'<rect x="{cx:.2f}" y="{cy:.2f}" width="{cw:.2f}" height="{ch:.2f}" fill="{color}"/>')
    with _output(out_path) as fh:
        fh.write((_svg_header(title, digest)
                  + _axes(x_label, y_label, ux[0], ux[-1], uy[0], uy[-1])
                  + "".join(cells) + "</svg>").encode())


def _histogram_svg(out_path, values, x_label, title, digest, n_bins=20):
    vmin = min(values)
    vmax, width = _span(vmin, max(values), n_bins)
    edges = [vmin + i * width for i in range(n_bins + 1)]
    counts = [0] * n_bins
    for v in values:
        idx = min(n_bins - 1, int((v - vmin) / width))
        counts[idx] += 1
    # edges ascend, so edges[0] and edges[-1] are their min() and max()
    ex = _pixels(edges, edges[0], _span(edges[0], edges[-1])[1], MARGIN, WIDTH - MARGIN).tolist()
    peak = max(counts) or 1
    bars = []
    for i, c in enumerate(counts):
        x0 = ex[i]
        x1 = ex[i + 1]
        h = PLOT_H * c / peak
        bars.append(
            f'<rect x="{x0:.2f}" y="{HEIGHT-MARGIN-h:.2f}" width="{x1-x0:.2f}" '
            f'height="{h:.2f}" fill="steelblue" stroke="white" stroke-width="0.5"/>'
        )
    header = _svg_header(title, f"{digest or 'unknown'};bin_edges={edges}")
    with _output(out_path) as fh:
        fh.write((header + _axes(x_label, "count", vmin, vmax, 0, peak)
                  + "".join(bars) + "</svg>").encode())


#: Columns each plot kind reads (None: all; a trace's first is time, a
#: sweep's last three are r_ohms, v_center, mean_nmse after an optional n_mask).
_KIND_COLUMNS = {
    "bifurcation": ["param", "extremum_value"],
    "spectrum": ["freq_hz", "magnitude"],
    "sweep": None,
    "histogram": ["nmse"],
    "trace": None,
}


def _detect_kind(header):
    if header == ["param", "extremum_value"]:
        return "bifurcation"
    if header == ["freq_hz", "magnitude"]:
        return "spectrum"
    if header[-3:] == ["r_ohms", "v_center", "mean_nmse"]:
        return "sweep"
    if "nmse" in header:
        return "histogram"
    if header and header[0] == "t":
        return "trace"
    raise ConfigurationError("csv", f"unrecognised schema {header}")


def render_plot(csv_path, out_path) -> str:
    """Render a recognised CSV artifact to SVG; returns the detected kind.

    Detection is by header: bifurcation scatter (`param,extremum_value`),
    spectrum line (`freq_hz,magnitude`), sweep heatmap
    (`[n_mask,]r_ohms,v_center,mean_nmse`, one mask count), per-case
    histogram (any header with an `nmse` column), and multi-channel traces
    (`t,...`).
    """
    with open(csv_path) as fh:
        header, _ = _read_header(fh, csv_path)
    kind = _detect_kind(header)
    # plots need finite data to scale; only a failed sweep cell has a NaN
    # mean_nmse, which the heatmap draws grey
    header, table, digest = _read_csv(csv_path, _KIND_COLUMNS[kind],
                                      nan_column="mean_nmse" if kind == "sweep" else None)
    # line and scatter plots stream arrays; the heatmap and the histogram
    # take lists, so their min/max follow Python's
    cols = table.T.tolist() if kind in ("sweep", "histogram") else list(table.T)
    masks = set(cols[header.index("n_mask")]) if kind == "sweep" and "n_mask" in header else ()
    if len(masks) > 1:
        # one heatmap cell per (r_ohms, v_center): a second mask count would overdraw the first
        raise ConfigurationError("csv", f"{csv_path}: column 'n_mask' holds {sorted(masks)};"
                                        " the heatmap draws one mask count")

    try:
        if kind == "bifurcation":
            _scatter_svg(out_path, cols[0], cols[1], "parameter", "extremum (V)",
                         "bifurcation scan", digest)
        elif kind == "spectrum":
            _line_svg(out_path, cols[0], {"magnitude": cols[1]},
                      "frequency (Hz)", "|X|", "power spectrum", digest)
        elif kind == "sweep":
            _heatmap_svg(out_path, *cols[-3:], "resistance (ohm)", "centre voltage (V)",
                         "sweep mean NMSE", digest)
        elif kind == "histogram":
            _histogram_svg(out_path, cols[0], "NMSE", "validation NMSE distribution", digest)
        else:
            if len(cols) < 2:
                raise ConfigurationError("csv", f"{csv_path}: a trace needs a column besides t")
            _line_svg(out_path, cols[0], dict(zip(header[1:], cols[1:])),
                      "time (s)", "volts", "trace", digest)
    except _Unscalable as exc:
        raise ConfigurationError("csv", f"{csv_path}: {exc}") from None
    return kind
