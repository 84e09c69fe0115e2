"""Golden-bytes regression tests for the trace artefact path.

The digests below were recorded from the row-by-row writers, reader and SVG
renderers that the columnar ones replaced. They pin every byte of the
artefacts and every bit of the scalar kernel's output, so the kernel, the
writers and the plots cannot drift together unnoticed (``test_lanes.py``
compares the lane kernel with ``integrate`` and would not see both move).

The spectrum digests depend on numpy's FFT, so they are checked only on the
numpy release they were recorded with.
"""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chuarc import plots
from chuarc.circuit import (
    DEFAULT_INITIAL_STATE,
    DriveSignal,
    bifurcation_scan,
    bifurcation_to_csv,
    integrate,
    kennedy_circuit,
)
from chuarc.cli import main
from chuarc.experiment import SweepCell, sweep_to_csv

FFT_NUMPY = "2.4.6"

GOLDEN = {
    "trace.csv": "bc5ec064188cd39954406cfcb37df7629a6efc5d2e9b160427cae46ceb4ece74",
    "spectrum.csv": "6fb2833d3e2a6b483d4a3fa3f02e6ba4b8c413bc051ac1faf182e6cf24e1fc10",
    "trace.svg": "a8c5859bf68ba7527cfdcb7634b437f606159d8b409b26619a6e212ca83e3c53",
    "spectrum.svg": "1d988d1d6ce3127f7a3f4be046c8cde9c09cab0a9a4cb9aacceefe063ccb8ebe",
    "bifurcation.csv": "0a22fbbbcb68a529b7790b1d09b0185a4cd1176a5d47a5f40d08d696aa6c9c1c",
    "bifurcation.svg": "8e6205b5561d148ddce64deccd907faaef86a9e840b0bf9a7976ec4082d22b58",
    "sweep.svg": "2baa0e012cd1796804c02fbfad689500882705be8f57d0dc43e2688ef364524f",
    "cases.svg": "64a7227429145a354e12790eb354fb6957f2bd9e72b0448e76a8f5ad1c67f27f",
    "integrate.undriven": "f0d5f2e26f47fb4610072085b03f4720f038e909e6e29eaa48a7f22c8b99199e",
    "integrate.driven": "c6b85f97d04345d1b7a5cef890c8d49c287b703ac2875aa9db408a5e1f9a7b3e",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_chain(out):
    """simulate -> spectrum -> plot both, as the CLI runs them; returns paths."""
    assert main(["simulate", "--profile", "desk", "--out", str(out),
                 "--t-end", "5e-3", "--dt", "1e-6"]) == 0
    assert main(["spectrum", "--profile", "desk", "--out", str(out),
                 "--trace", str(out / "trace.csv"), "--tap", "v_cd"]) == 0
    for name in ("trace", "spectrum"):
        assert main(["plot", "--csv", str(out / f"{name}.csv"),
                     "--out-svg", str(out / f"{name}.svg")]) == 0
    return {name: out / name for name in ("trace.csv", "spectrum.csv", "trace.svg", "spectrum.svg")}


def bifurcation_artefacts(out):
    points = bifurcation_scan("r_variable", [1600.0, 1800.0, 2000.0], kennedy_circuit(),
                              t_end=5e-3, dt=1e-6)
    csv, svg = out / "bifurcation.csv", out / "bifurcation.svg"
    bifurcation_to_csv(points, csv, config_digest="cafe")
    assert plots.render_plot(csv, svg) == "bifurcation"
    return {"bifurcation.csv": csv, "bifurcation.svg": svg}


def sweep_svg(out):
    # n_mask prefix column, repeated (r, v) cells and one failed (NaN) cell
    cells = [SweepCell(r, v, nm, float("nan") if (r, v, nm) == (1700.0, 0.6, 20)
                       else r / 4000.0 + v * v - nm / 100.0)
             for nm in (10, 20) for r in (1600.0, 1700.0, 1800.0) for v in (0.4, 0.6)]
    csv, svg = out / "sweep.csv", out / "sweep.svg"
    sweep_to_csv(cells, csv, digest="beef")
    assert plots.render_plot(csv, svg) == "sweep"
    return svg


def cases_svg(out):
    # a cases.csv as the experiment writes it: text split column, repr floats
    rng = np.random.default_rng(7)
    rows = []
    for i in range(40):
        t, e, score = rng.random(3).tolist()
        rows.append(f"{i},{'val' if i % 4 == 0 else 'train'},{t!r},{e!r},{score * 0.3!r}\n")
    csv, svg = out / "cases.csv", out / "cases.svg"
    csv.write_text("# config_digest=f00d\ncase,split,target_0,estimate_0,nmse\n" + "".join(rows))
    assert plots.render_plot(csv, svg) == "histogram"
    return svg


def integrate_channels(driven: bool) -> bytes:
    if driven:
        # square drive at 100 kS/s, exactly representable, zero-order held
        # over ten 1 us steps per sample
        level = np.where((np.arange(400) // 50) % 2 == 0, 0.5, -0.5)
        trace = integrate(kennedy_circuit(), DEFAULT_INITIAL_STATE,
                          DriveSignal(level, 1e5), 4e-3, 1e-6)
    else:
        trace = integrate(kennedy_circuit(1700.0), DEFAULT_INITIAL_STATE, None, 1e-3, 1e-7)
    return np.ascontiguousarray(trace.channels).view(np.int64).tobytes()


def record(out):
    """Digest of every artefact above, keyed like GOLDEN."""
    paths = {**trace_chain(out), **bifurcation_artefacts(out),
             "sweep.svg": sweep_svg(out), "cases.svg": cases_svg(out)}
    digests = {k: sha256(p.read_bytes()) for k, p in paths.items()}
    digests["integrate.undriven"] = sha256(integrate_channels(False))
    digests["integrate.driven"] = sha256(integrate_channels(True))
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return record(tmp_path_factory.mktemp("artefacts"))


@pytest.mark.parametrize("name", ["trace.csv", "trace.svg", "bifurcation.csv",
                                  "bifurcation.svg", "sweep.svg", "cases.svg"])
def test_artefact_bytes(digests, name):
    assert digests[name] == GOLDEN[name]


@pytest.mark.parametrize("name", ["spectrum.csv", "spectrum.svg"])
def test_spectrum_artefact_bytes(digests, name):
    if np.__version__ != FFT_NUMPY:
        pytest.skip(f"spectrum digests were recorded with numpy {FFT_NUMPY}")
    assert digests[name] == GOLDEN[name]


@pytest.mark.parametrize("name", ["integrate.undriven", "integrate.driven"])
def test_integrate_bits(digests, name):
    assert digests[name] == GOLDEN[name]


def test_integrate_fails_at_the_same_step():
    from chuarc.circuit import ChuaParams
    from chuarc.errors import IntegrationError

    p = ChuaParams(r_variable=1800.0, c1=1e-10, c2=100e-9, l=18e-3, r_series=17.0)
    with pytest.raises(IntegrationError) as err:
        integrate(p, DEFAULT_INITIAL_STATE, None, 1e-3, 1e-6)
    assert err.value.step_index == 229


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


_edge_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308, -1e-310,
    1e308, -1e308, 1.7976931348623157e308, 1.0, -3.0, 1e16, 2.0**53 + 2.0, 123456789.0,
])
_floats = st.one_of(_edge_floats, st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2**60, 2**60).map(float))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_floats, _floats), min_size=1, max_size=20))
def test_read_csv_parses_like_float(tmp_path_factory, rows):
    """The reader returns exactly float(text) for what the writers emit:
    repr in value columns and "{:.12e}" in the time column."""
    path = tmp_path_factory.mktemp("parse") / "t.csv"
    texts = [(f"{t:.12e}", repr(v)) for t, v in rows]
    path.write_text("# config_digest=ab\nt,v_cd\n" + "".join(f"{a},{b}\n" for a, b in texts))
    header, table, digest = plots._read_csv(path)
    assert header == ["t", "v_cd"] and digest == "ab"
    assert table.shape == (len(rows), 2)
    for (a, b), got in zip(texts, table.tolist()):
        assert [_bits(x) for x in got] == [_bits(float(a)), _bits(float(b))]
        assert math.copysign(1.0, got[1]) == math.copysign(1.0, float(b))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6)), min_size=1, max_size=50))
def test_scale_matches_the_scalar_expression(values):
    """Arrays and lists scale exactly like the per-point Python expression,
    with the range that min() and max() pick (signed zeros in list order)."""
    vmin, vmax = min(values), max(values)
    if vmax == vmin:
        vmax = vmin + 1.0
    span = vmax - vmin
    expected = [_bits(plots.MARGIN + (v - vmin) / span * (660 - plots.MARGIN)) for v in values]
    for given_values in (values, np.array(values)):
        px, lo, hi = plots._scale(given_values, plots.MARGIN, 660)
        assert [_bits(x) for x in px.tolist()] == expected
        assert (_bits(lo), _bits(hi)) == (_bits(vmin), _bits(vmax))
