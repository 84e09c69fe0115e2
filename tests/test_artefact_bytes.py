"""Golden-bytes regression tests for the trace artefact path.

The digests below were recorded from the row-by-row writers, reader and SVG
renderers that the columnar ones replaced. They pin every byte of the
artefacts and every bit of the scalar kernel's output, so the kernel, the
writers and the plots cannot drift together unnoticed (``test_lanes.py``
compares the lane kernel with ``integrate`` and would not see both move).

The spectrum digests depend on numpy's FFT, and the train digests on the
readout Gram's matrix products in the numpy-bundled OpenBLAS (its dgemm
can change bits with the thread count; the least-squares solve of a fixed
Gram does not), so both are checked only on the numpy release they were
recorded with.
"""

import hashlib
import math
import re
import struct
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chuarc import plots
from chuarc.circuit import (
    DEFAULT_INITIAL_STATE,
    ChuaParams,
    CircuitState,
    DiodePwl,
    bifurcation_scan,
    bifurcation_to_csv,
    integrate,
    integrate_lanes,
    kennedy_circuit,
)
from chuarc.cli import main
from chuarc.errors import IntegrationError
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
    # recorded from the kernel that called one rates() helper per RK4 stage
    "integrate.overflowing_sum": "1c87b83d205e6bcb9a1901f5f3a69b8e242f6a0ecd7737de04a4493a0d189cbc",
    # `chuarc train --profile desk --n-cases 24 --seed 3`, one task each
    "polynomial/cases.csv": "04b201fd930c560a672c6fb33e25670183c79af5ed0a28baf0caa86c95c1182a",
    "polynomial/weight.json": "fc7171472a235fcc336b697646bbb3689279a6e02fe7b4ec62c06197079457c9",
    "lwe-encrypt/cases.csv": "ab43778f22e7b98cfbfcb21b6a522f8b7115c15ef9816f0a40ef56570d849dfe",
    "lwe-encrypt/weight.json": "715cef73e9715917e21d85925a80071a745b9b418d0b01dea36a5573f6ad976e",
    "circles/cases.csv": "b142654e0b87663c9debc8b54938e6b6144768ee7c9c29585042c2f1ac09f9ce",
    "circles/weight.json": "59c05a393ec38560e45dce68edfb29167e7fcc4bc1fd488131ad477635c35fe9",
    # `--task polynomial --n-cases 1`: the one case trains and validates
    "polynomial-1/cases.csv": "d473575199b8d043ccbc2e61aa1916abe99a06d237104d68e06e12b69861d0b9",
    "polynomial-1/weight.json": "1efcd5631daeff01026e0c0bfc4db72803800357e039fcb9faafbbb1a86df8c7",
    # `--n-cases 40`: one lockstep group whose lanes share message prefixes,
    # recorded from the kernel that integrated every lane over every value
    "lwe-encrypt-40/cases.csv": "cea61e2312ec88d1b92d6574c0d98bc34c823f1ba0e8edfeecf6b8080e236193",
    "lwe-encrypt-40/weight.json": "7e6ed98bfe9997b9280383876a7fb144cb9193dc91de3f4aecf6731853b5c5bb",
    "lwe-decrypt-40/cases.csv": "8077ea3a4d73eb29356fd52f9f39616896350c08a4c8e3f2f16fa116c28d9634",
    "lwe-decrypt-40/weight.json": "4ec4288985388fafaa0335c4f10d368c0dbc7ea90a2894ef010673fc83ef98b1",
    "pair-sum-40/cases.csv": "d1fdb8f446b1f6350dec765c20f5532d70acb6fd41c6ab750fc2394134338104",
    "pair-sum-40/weight.json": "1870f6cf09fe3ddb74afe21313bda87a3e8093378434a941cc491fcfc94b8197",
    # the circles run's report.json without its "runtime_s" line
    "circles/report.json": "9cc468bc45a93c8e6c91a68635240ebae7758567bac890d39ca21749478f8267",
    # `chuarc dataset --profile desk --n-cases 40 --seed 5`, one task each
    "dataset-40/lwe_cases.json": "804535c81733dad555dfa5879bdb339af3f8c53662c59a5b224be8323f7be22d",
    "dataset-40/lwe_key.json": "1bbed2155706164e940cffa54fe14b7455d3b0f933b91016b21483f4c79d2d6f",
    "dataset-40/lwe_secret.json": "60c8169753f5178afa1119428cdee5bf67602f766ffed54f3572f832aa101fb6",
    "dataset-40/dataset_circles.csv": "5155c493c3e52641de290efd34812c2d436f2af498b08c1c79d16d1dfaeddaed",
    "dataset-40/dataset_pair-sum.csv": "30d28b4bad3a8237c3bd59a852ec1854f994a04a934116f2ec60a0ad7f95bc4b",
    "dataset-40/dataset_polynomial.csv": "266ece6647384241dc3420a1efd2585ae636b79409ed7587d0f4016703eac7cf",
}

#: GOLDEN prefix -> (task, case count) of its `chuarc train` run
TRAIN_RUNS = {"polynomial": ("polynomial", 24), "lwe-encrypt": ("lwe-encrypt", 24),
              "circles": ("circles", 24), "polynomial-1": ("polynomial", 1),
              "lwe-encrypt-40": ("lwe-encrypt", 40), "lwe-decrypt-40": ("lwe-decrypt", 40),
              "pair-sum-40": ("pair-sum", 40)}

#: task -> the files its `chuarc dataset` run writes, each a "dataset-40/" GOLDEN entry
DATASET_RUNS = {"lwe-encrypt": ("lwe_cases.json", "lwe_key.json", "lwe_secret.json"),
                "circles": ("dataset_circles.csv",), "pair-sum": ("dataset_pair-sum.csv",),
                "polynomial": ("dataset_polynomial.csv",)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_bytes(path) -> bytes:
    """report.json's bytes without its "runtime_s" line, the one that varies run to run."""
    return re.sub(rb'\n "runtime_s": [^\n]*', b"", path.read_bytes())


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
    # n_mask prefix column with one mask count (the heatmap draws no more),
    # repeated (r, v) cells and one failed (NaN) cell
    cells = [SweepCell(r, v, 10, float("nan") if (r, v, k) == (1700.0, 0.6, 20)
                       else r / 4000.0 + v * v - k / 100.0)
             for k in (10, 20) for r in (1600.0, 1700.0, 1800.0) for v in (0.4, 0.6)]
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
        # square drive of exactly representable levels, each held for ten
        # 1 us steps
        level = np.where((np.arange(400) // 50) % 2 == 0, 0.5, -0.5)
        trace = integrate(kennedy_circuit(), DEFAULT_INITIAL_STATE,
                          np.repeat(level, 10), 4e-3, 1e-6)
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


@pytest.mark.parametrize("run", list(TRAIN_RUNS))
def test_train_artefact_bytes(tmp_path, run):
    if np.__version__ != FFT_NUMPY:
        pytest.skip(f"train digests were recorded with numpy {FFT_NUMPY}")
    task, n_cases = TRAIN_RUNS[run]
    assert main(["train", "--profile", "desk", "--task", task, "--n-cases", str(n_cases),
                 "--seed", "3", "--jobs", "1", "--out", str(tmp_path)]) == 0
    for name in ("cases.csv", "weight.json"):
        assert sha256((tmp_path / name).read_bytes()) == GOLDEN[f"{run}/{name}"], name
    if f"{run}/report.json" in GOLDEN:
        assert sha256(report_bytes(tmp_path / "report.json")) == GOLDEN[f"{run}/report.json"]


@pytest.mark.parametrize("task", list(DATASET_RUNS))
def test_dataset_artefact_bytes(tmp_path, task):
    if np.__version__ != FFT_NUMPY:
        pytest.skip(f"dataset digests were recorded with numpy {FFT_NUMPY}")
    assert main(["dataset", "--profile", "desk", "--task", task, "--n-cases", "40",
                 "--seed", "5", "--out", str(tmp_path)]) == 0
    for name in DATASET_RUNS[task]:
        assert sha256((tmp_path / name).read_bytes()) == GOLDEN[f"dataset-40/{name}"], name


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


def test_integrate_fails_at_the_same_step_without_series_resistance():
    # r_series = 0: rs*il is 0*inf = nan once il overflows
    p = ChuaParams(r_variable=1800.0, c1=1e-10, c2=100e-9, l=18e-3, r_series=0.0)
    with pytest.raises(IntegrationError) as err:
        integrate(p, DEFAULT_INITIAL_STATE, None, 1e-3, 1e-6)
    assert err.value.step_index == 227


def test_integrate_keeps_a_finite_state_whose_sum_overflows():
    # v_c2 + v_c1 = 2e308 overflows at every step while each state stays
    # finite: the kernel's cheap finiteness guard must not raise on it
    p = ChuaParams(r_variable=1e3, c1=1.0, c2=1.0, l=100.0, r_series=0.0)
    trace = integrate(p, CircuitState(i_l=0.0, v_c2=1e308, v_c1=1e308), None, 1e-6, 1e-9)
    assert trace.n_samples == 1001 and np.isfinite(trace.channels).all()
    channels = np.ascontiguousarray(trace.channels).view(np.int64).tobytes()
    assert sha256(channels) == GOLDEN["integrate.overflowing_sum"]


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
    """An array scales through _first_range, _span and _pixels, and an
    ascending list through the histogram's edge expression, exactly like the
    per-point Python expression with the range that min() and max() pick
    (signed zeros in list order)."""
    def expected(vs):
        vmin, vmax = min(vs), max(vs)
        if vmax == vmin:
            vmax = vmin + 1.0
        span = vmax - vmin
        return [_bits(plots.MARGIN + (v - vmin) / span * (660 - plots.MARGIN)) for v in vs], vmin, vmax

    want, vmin, vmax = expected(values)
    array = np.array(values)
    lo, hi = plots._first_range([array])
    hi, span = plots._span(lo, hi)
    assert [_bits(x) for x in plots._pixels(array, lo, span, plots.MARGIN, 660).tolist()] == want
    assert (_bits(lo), _bits(hi)) == (_bits(vmin), _bits(vmax))
    edges = sorted(values)
    px = plots._pixels(edges, edges[0], plots._span(edges[0], edges[-1])[1], plots.MARGIN, 660)
    assert [_bits(x) for x in px.tolist()] == expected(edges)[0]


def closure_integrate(p, init, vin, dt):
    """The kernel as it was before its stages were written out: one rates()
    closure per RK4 stage. Returns the two taps, or the failing step."""
    d = p.diode
    gi, gm, go, bi, bo = d.g_inner, d.g_mid, d.g_outer, d.bp_inner, d.bp_outer
    i_bi = gi * bi
    i_bo = i_bi + gm * (bo - bi)
    inv_l, inv_c2, inv_c1 = 1.0 / p.l, 1.0 / p.c2, 1.0 / p.c1
    inv_rc2, inv_rc1 = 1.0 / (p.r_variable * p.c2), 1.0 / (p.r_variable * p.c1)
    rs, h = p.r_series, dt

    def rates(il, v2, v1, u):
        a = v1 if v1 >= 0.0 else -v1
        if a <= bi:
            idio = gi * a
        elif a <= bo:
            idio = i_bi + gm * (a - bi)
        else:
            idio = i_bo + go * (a - bo)
        if v1 < 0.0:
            idio = -idio
        return ((-v2 - rs * il - u) * inv_l, il * inv_c2 - (v2 - v1) * inv_rc2,
                (v2 - v1) * inv_rc1 - idio * inv_c1)

    hh, h6 = 0.5 * h, h / 6.0
    il, v2, v1 = init.i_l, init.v_c2, init.v_c1
    taps = []
    for i, u in enumerate(vin[:-1]):
        taps.append((v1, v2 - rs * il - u))
        a1, b1, d1 = rates(il, v2, v1, u)
        a2, b2, d2 = rates(il + hh * a1, v2 + hh * b1, v1 + hh * d1, u)
        a3, b3, d3 = rates(il + hh * a2, v2 + hh * b2, v1 + hh * d2, u)
        a4, b4, d4 = rates(il + h * a3, v2 + h * b3, v1 + h * d3, u)
        il += h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        v2 += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        v1 += h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        if not (math.isfinite(il) and math.isfinite(v2) and math.isfinite(v1)):
            return i
    taps.append((v1, v2 - rs * il - vin[-1]))
    return np.ascontiguousarray(np.array(taps).T)


# the default diode's breakpoints, each with its two float neighbours and
# negated: starts on and beside each boundary of the segment select
_DIODE = DiodePwl.from_nic_branches()
_BREAKS = [s * float(x) for b in (_DIODE.bp_inner, _DIODE.bp_outer)
           for x in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)) for s in (1.0, -1.0)]
_volts = st.one_of(st.sampled_from([0.0, -0.0, 1.0833, -1.0833, 7.5454, -7.5454, *_BREAKS]),
                   st.floats(-12.0, 12.0))


def _every_boundary(test):
    """Explicit examples that start v_c1 on, and beside, each diode boundary
    and on both signed zeros, plus one diverging circuit, on every run."""
    for v1 in [*_BREAKS, 0.0, -0.0]:
        test = example(init=(1e-4, 0.5, v1), r=1800.0, c1=1e-9, r_series=17.0, seed=1)(test)
    return example(init=(1e-4, 0.5, 1.0833), r=1800.0, c1=1e-11, r_series=0.0, seed=1)(test)


@_every_boundary
@settings(max_examples=60, deadline=None)
@given(init=st.tuples(st.floats(-2e-3, 2e-3), _volts, _volts),
       r=st.floats(1000.0, 2500.0), c1=st.sampled_from([1e-11, 1e-10, 1e-9, 1e-8]),
       r_series=st.sampled_from([0.0, 17.0]), seed=st.integers(0, 2**16))
def test_integrate_matches_the_closure_kernel(init, r, c1, r_series, seed):
    """Bit for bit, on the taps and on the failing step, across diode segments,
    signed zeros, drives and diverging circuits; a one-lane integrate_lanes
    run from the same state, in the same field order, gives the same taps and
    ends non-finite exactly when integrate raises."""
    p = ChuaParams(r_variable=r, c1=c1, c2=100e-9, l=18e-3, r_series=r_series)
    state = CircuitState(*init)
    levels = np.random.default_rng(seed).uniform(-2.0, 2.0, 30)
    drive = np.repeat(levels, 10)
    # each level drives ten 1 us steps, and the kernel holds the last sample for the final tap
    want = closure_integrate(p, state, np.repeat(levels, 10).tolist() + [levels[-1]], 1e-6)
    lane_taps = np.empty((30, 10, 2, 1))
    end = integrate_lanes(p, np.array(astuple(state))[:, None], levels[:, None], np.ones(300),
                          1e-6, 0, lane_taps)
    lane_taps = lane_taps.reshape(300, 2, 1)
    try:
        got = integrate(p, state, drive, 300e-6, 1e-6).channels
    except IntegrationError as err:
        assert err.step_index == want
        assert not np.isfinite(end).all()
    else:
        assert not isinstance(want, int)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(lane_taps[:, :, 0].T.copy().view(np.int64), want[:, :-1].view(np.int64))
        assert np.isfinite(end).all()
