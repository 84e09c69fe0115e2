"""Circuit kernel tests: diode oracle, state equations, RK4 order,
bifurcation regimes and spectra."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chuarc.circuit import (
    DEFAULT_INITIAL_STATE,
    TAP_DIODE,
    TAP_INDUCTOR,
    TAPS,
    ChuaParams,
    CircuitState,
    DiodePwl,
    Trace,
    bifurcation_scan,
    derivatives,
    diode_current,
    integrate,
    kennedy_circuit,
    power_spectrum,
    steady_state_extrema,
)
from chuarc.errors import ConfigurationError, IntegrationError

NIC_TRIPLES = ((220.0, 220.0, 2200.0), (22000.0, 22000.0, 3300.0))
ESAT = 8.3


def nic_oracle(v: float) -> float:
    """Independent diode model: sum of per-op-amp branch currents.

    Linear branch current is -r2/(r1*r3)*v until the op-amp output
    (v*(r2+r3)/r3) saturates at +/-esat, after which the branch is a plain
    resistor r1 to the saturated rail.
    """
    total = 0.0
    for r1, r2, r3 in NIC_TRIPLES:
        bp = ESAT * r3 / (r2 + r3)
        if abs(v) <= bp:
            total += -r2 / (r1 * r3) * v
        else:
            total += (v - math.copysign(ESAT, v)) / r1
    return total


class TestDiode:
    def test_default_coefficients(self):
        d = DiodePwl.from_nic_branches()
        assert d.g_inner == pytest.approx(-0.7576e-3, rel=1e-3)
        assert d.g_mid == pytest.approx(-0.409e-3, rel=1e-3)
        assert d.g_outer == pytest.approx(4.59e-3, rel=1e-3)
        assert d.bp_inner == pytest.approx(1.08, abs=5e-3)
        assert d.bp_outer == pytest.approx(7.54, abs=1e-2)

    def test_zero_crossing(self):
        assert diode_current(0.0, DiodePwl.from_nic_branches()) == 0.0

    def test_kennedy_value_at_one_volt(self):
        d = DiodePwl.from_nic_branches()
        assert diode_current(1.0, d) == pytest.approx(-7.576e-4, abs=1e-7)

    def test_matches_nic_oracle_on_grid(self):
        d = DiodePwl.from_nic_branches()
        for v in np.linspace(-12.0, 12.0, 2001):
            assert diode_current(float(v), d) == pytest.approx(nic_oracle(float(v)), abs=1e-12)

    def test_segment_continuity_at_breakpoints(self):
        d = DiodePwl.from_nic_branches()
        # adjacent segment formulas evaluated exactly at each breakpoint
        inner_at_bp = d.g_inner * d.bp_inner
        mid_at_bp = d.g_inner * d.bp_inner + d.g_mid * 0.0
        assert abs(inner_at_bp - mid_at_bp) < 1e-12
        mid_at_outer = d.g_inner * d.bp_inner + d.g_mid * (d.bp_outer - d.bp_inner)
        outer_at_outer = mid_at_outer + d.g_outer * 0.0
        assert abs(mid_at_outer - outer_at_outer) < 1e-12
        for bp in (d.bp_inner, d.bp_outer):
            for s in (1.0, -1.0):
                below = diode_current(s * bp * (1 - 1e-12), d)
                above = diode_current(s * bp * (1 + 1e-12), d)
                assert abs(above - below) < 1e-12

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_odd_symmetry(self, v):
        d = DiodePwl.from_nic_branches()
        assert diode_current(-v, d) == -diode_current(v, d)

    def test_five_segments_have_expected_slopes(self):
        d = DiodePwl.from_nic_branches()
        h = 1e-6
        probes = {
            0.5 * d.bp_inner: d.g_inner,
            0.5 * (d.bp_inner + d.bp_outer): d.g_mid,
            d.bp_outer + 2.0: d.g_outer,
        }
        for v, g in probes.items():
            for s in (1.0, -1.0):
                slope = (diode_current(s * v + h, d) - diode_current(s * v - h, d)) / (2 * h)
                assert slope == pytest.approx(g, rel=1e-6)

    def test_invariants_enforced(self):
        with pytest.raises(ConfigurationError):
            DiodePwl(g_inner=-1e-3, g_mid=-2e-3, g_outer=1e-3, bp_inner=1.0, bp_outer=2.0)
        with pytest.raises(ConfigurationError):
            DiodePwl(g_inner=-2e-3, g_mid=-1e-3, g_outer=1e-3, bp_inner=2.0, bp_outer=1.0)


def reference_rates(il, v2, v1, p):
    """Hand-coded undriven state equations, written independently of the
    production formula (uses the NIC diode oracle)."""
    d_il = -(1.0 / p.l) * v2
    d_v2 = (1.0 / p.c2) * il - (1.0 / (p.r_variable * p.c2)) * (v2 - v1)
    d_v1 = (1.0 / (p.r_variable * p.c1)) * (v2 - v1) - (1.0 / p.c1) * nic_oracle(v1)
    return np.array([d_il, d_v2, d_v1])


class TestDerivatives:
    def test_origin_is_fixed_point(self):
        p = kennedy_circuit()
        assert derivatives(CircuitState(0.0, 0.0, 0.0), p, v_in=0.0) == (0.0, 0.0, 0.0)

    def test_matches_reference_on_random_states(self):
        p = ChuaParams(r_variable=1800.0, c1=10e-9, c2=100e-9, l=18e-3, r_series=0.0)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            il = float(rng.uniform(-10e-3, 10e-3))
            v2 = float(rng.uniform(-8.0, 8.0))
            v1 = float(rng.uniform(-10.0, 10.0))
            got = np.array(derivatives(CircuitState(il, v2, v1), p, v_in=0.0))
            want = reference_rates(il, v2, v1, p)
            scale = np.maximum(np.abs(want), 1e-6)
            assert np.all(np.abs(got - want) / scale < 1e-12)

    def test_capacitance_scaling(self):
        s = CircuitState(1e-3, 0.4, 0.8)
        base = kennedy_circuit()
        doubled = ChuaParams(r_variable=base.r_variable, c1=2 * base.c1, c2=base.c2,
                             l=base.l, r_series=base.r_series, diode=base.diode)
        assert derivatives(s, doubled)[2] == pytest.approx(derivatives(s, base)[2] / 2.0)

    def test_drive_enters_inductor_equation_only(self):
        p = kennedy_circuit()
        s = CircuitState(1e-3, 0.4, 0.8)
        quiet = derivatives(s, p, v_in=0.0)
        driven = derivatives(s, p, v_in=0.5)
        assert driven[0] == pytest.approx(quiet[0] - 0.5 / p.l)
        assert driven[1] == quiet[1]
        assert driven[2] == quiet[2]


def middle_segment_start(p):
    """Rest point inside the middle diode segment, nudged to start a smooth
    damped oscillation that never crosses a breakpoint."""
    v1 = 4.3517
    il = -v1 / (p.r_variable + p.r_series)
    return CircuitState(i_l=il, v_c2=-p.r_series * il, v_c1=v1 + 1.2)


class TestIntegrate:
    def test_origin_zero_drive_is_identically_zero(self):
        p = kennedy_circuit()
        tr = integrate(p, CircuitState(0.0, 0.0, 0.0), None, 1e-4, 1e-7)
        assert np.all(tr.channels == 0.0)

    def test_deterministic_bit_identical(self):
        p = kennedy_circuit(1700.0)
        a = integrate(p, DEFAULT_INITIAL_STATE, None, 1e-3, 1e-6)
        b = integrate(p, DEFAULT_INITIAL_STATE, None, 1e-3, 1e-6)
        assert np.array_equal(a.channels, b.channels)

    def test_rk4_convergence_order(self):
        # smooth horizon: damped oscillation confined to one diode segment
        p = kennedy_circuit(2000.0)
        init = middle_segment_start(p)
        horizon = 1e-4
        dts = [8e-7, 4e-7, 2e-7, 1e-7]
        ref = integrate(p, init, None, horizon, dts[-1] / 8.0).channels[:, -1]
        errs = []
        for dt in dts:
            end = integrate(p, init, None, horizon, dt).channels[:, -1]
            errs.append(np.linalg.norm(end - ref))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 3.5 <= slope <= 4.5
        # halving dt cuts the endpoint error by roughly 2**4
        for a, b in zip(errs, errs[1:]):
            assert 8.0 < a / b < 32.0

    def test_double_scroll_regime_at_1600_ohms(self):
        tr = integrate(kennedy_circuit(1600.0), DEFAULT_INITIAL_STATE, None, 20e-3, 1e-6)
        v_cd = tr.channel(TAP_DIODE)
        assert v_cd.max() > 1.0 and v_cd.min() < -1.0

    def test_divergence_reports_step_index(self):
        p = ChuaParams(r_variable=1800.0, c1=1e-14, c2=100e-9, l=18e-3, r_series=17.0)
        with pytest.raises(IntegrationError) as err:
            integrate(p, DEFAULT_INITIAL_STATE, None, 1e-3, 1e-6)
        assert err.value.step_index >= 0

    def test_first_step_matches_manual_rk4_from_derivatives(self):
        p = kennedy_circuit(1800.0)
        s0 = DEFAULT_INITIAL_STATE
        dt = 1e-7

        def step(state, vin):
            k1 = derivatives(state, p, vin)
            mid1 = CircuitState(*(x + 0.5 * dt * k for x, k in
                                  zip((state.i_l, state.v_c2, state.v_c1), k1)))
            k2 = derivatives(mid1, p, vin)
            mid2 = CircuitState(*(x + 0.5 * dt * k for x, k in
                                  zip((state.i_l, state.v_c2, state.v_c1), k2)))
            k3 = derivatives(mid2, p, vin)
            end = CircuitState(*(x + dt * k for x, k in
                                 zip((state.i_l, state.v_c2, state.v_c1), k3)))
            k4 = derivatives(end, p, vin)
            return tuple(
                x + dt / 6.0 * (a + 2 * b + 2 * c + d)
                for x, a, b, c, d in zip((state.i_l, state.v_c2, state.v_c1), k1, k2, k3, k4)
            )

        manual = step(s0, 0.0)
        tr = integrate(p, s0, None, dt, dt)
        assert tr.channel(TAP_DIODE)[-1] == pytest.approx(manual[2], rel=1e-12)

        # nonzero drive pins the solver to the same sign convention
        drive = np.array([0.3, 0.3])
        manual_driven = step(s0, 0.3)
        tr_driven = integrate(p, s0, drive, dt, dt)
        assert tr_driven.channel(TAP_DIODE)[-1] == pytest.approx(manual_driven[2], rel=1e-12)
        assert tr_driven.channel(TAP_INDUCTOR)[-1] == pytest.approx(
            manual_driven[1] - p.r_series * manual_driven[0] - 0.3, rel=1e-12
        )

    @pytest.mark.parametrize("drive", [np.array([]), np.zeros((2, 3))], ids=["empty", "2-d"])
    def test_drive_must_be_a_nonempty_1d_array(self, drive):
        with pytest.raises(ConfigurationError) as err:
            integrate(kennedy_circuit(), CircuitState(0.0, 0.0, 0.0), drive, 6e-6, 1e-6)
        assert err.value.field == "drive"

    @pytest.mark.parametrize("t_end, dt, field", [
        (1e-6, math.nan, "dt"), (1e-6, math.inf, "dt"), (1e-6, 0.0, "dt"), (1e-6, -1e-8, "dt"),
        (math.nan, 1e-8, "t_end"), (math.inf, 1e-8, "t_end"), (-math.inf, 1e-8, "t_end"),
    ])
    def test_time_grid_must_be_finite(self, t_end, dt, field):
        with pytest.raises(ConfigurationError) as err:
            integrate(kennedy_circuit(), DEFAULT_INITIAL_STATE, None, t_end, dt)
        assert err.value.field == field


class TestBifurcation:
    def test_dc_equilibrium_cluster_at_2000_ohms(self):
        pts = bifurcation_scan(
            "r_variable", [2000.0, 2050.0], kennedy_circuit(), t_end=40e-3, dt=1e-6
        )
        ext = pts[0].extrema
        assert pts[0].error is None
        assert ext.max() - ext.min() < 10e-3

    def test_chaotic_span_at_1600_ohms(self):
        pts = bifurcation_scan(
            "r_variable", [1600.0, 1650.0], kennedy_circuit(), t_end=40e-3, dt=1e-6
        )
        ext = pts[0].extrema
        assert ext.max() - ext.min() > 2.0

    def test_drive_amplitude_scan_shows_jump(self):
        amplitudes = [0.05, 0.2, 0.4, 0.6, 0.8]
        pts = bifurcation_scan(
            "drive_amplitude",
            amplitudes,
            kennedy_circuit(1950.0),
            drive_frequency=100.0,
            dt=1e-6,
        )
        spreads = [p.extrema.max() - p.extrema.min() for p in pts]
        assert spreads[-1] > 4.0 * spreads[0]
        # the spread envelope grows with amplitude, with one major jump
        for a, b in zip(spreads, spreads[1:]):
            assert b > 0.99 * a
        jumps = [b / max(a, 1e-9) for a, b in zip(spreads, spreads[1:])]
        assert max(jumps) > 2.0

    def test_failed_points_are_flagged_and_scan_continues(self):
        pts = bifurcation_scan(
            "c1", [1e-8, 1e-14], kennedy_circuit(), t_end=2e-3, dt=1e-6
        )
        assert pts[0].error is None
        assert pts[1].error is not None and pts[1].extrema.size == 0

    def test_unknown_tap_fails_before_any_point_runs(self, monkeypatch):
        def no_integration(*args):
            raise AssertionError("a point was integrated")

        monkeypatch.setattr("chuarc.circuit.integrate", no_integration)
        with pytest.raises(ConfigurationError) as err:
            bifurcation_scan("r_variable", [1800.0, 1900.0], kennedy_circuit(), tap="v_x",
                             t_end=1e-5, dt=1e-6, jobs=2)
        assert err.value.field == "tap"

    def test_monotone_range_required(self):
        with pytest.raises(ConfigurationError):
            bifurcation_scan("r_variable", [1800.0, 1600.0, 1700.0], kennedy_circuit())

    def test_extrema_fallback_for_constant_tail(self):
        ext = steady_state_extrema(np.ones(100) * 4.2)
        assert ext.min() == ext.max() == 4.2

    def test_parallel_scan_matches_serial_in_order(self):
        values = [1900.0, 2000.0]
        serial = bifurcation_scan("r_variable", values, kennedy_circuit(),
                                  t_end=4e-3, dt=1e-6, jobs=1)
        parallel = bifurcation_scan("r_variable", values, kennedy_circuit(),
                                    t_end=4e-3, dt=1e-6, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.value == b.value
            assert np.array_equal(a.extrema, b.extrema)


class TestSpectrum:
    def test_sine_peak_location(self):
        fs = 100e3
        t = np.arange(int(fs)) / fs
        x = np.sin(2 * math.pi * 1000.0 * t)
        freqs, mags = power_spectrum(x, 1.0 / fs)
        peak = freqs[np.argmax(mags)]
        bin_width = freqs[1] - freqs[0]
        assert abs(peak - 1000.0) <= bin_width

    def test_parseval_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=4096)
        freqs, mags = power_spectrum(x, 1e-5)
        n = x.size
        weights = np.full(mags.size, 2.0)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0
        spectral = float(np.sum(weights * mags**2) / n)
        time_domain = float(np.sum((x - x.mean()) ** 2))
        assert abs(spectral - time_domain) / time_domain < 1e-9

    def test_single_period_orbit_peak_band(self):
        # just below the equilibrium boundary the circuit settles on a simple orbit
        tr = integrate(kennedy_circuit(1900.0), DEFAULT_INITIAL_STATE, None, 40e-3, 1e-6)
        tail = tr.channel(TAP_DIODE)[tr.n_samples // 2:]
        freqs, mags = power_spectrum(tail, 1e-6)
        peak = freqs[np.argmax(mags)]
        assert 500.0 <= peak <= 5000.0


class TestTypeInvariants:
    def test_trace_holds_one_row_per_tap(self):
        trace = Trace(1e-6, np.arange(6.0).reshape(2, 3))
        assert [trace.channel(tap).tolist() for tap in TAPS] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        with pytest.raises(ConfigurationError) as err:
            trace.channel("v_x")
        assert err.value.field == "tap"
        with pytest.raises(ConfigurationError):
            Trace(1e-6, np.zeros((3, 4)))

    def test_state_must_be_finite(self):
        with pytest.raises(ConfigurationError):
            CircuitState(float("nan"), 0.0, 0.0)

    def test_trace_csv_time_column_has_12_significant_digits(self, tmp_path):
        from chuarc.circuit import trace_to_csv

        tr = integrate(kennedy_circuit(), DEFAULT_INITIAL_STATE, None, 5e-6, 1e-6)
        path = tmp_path / "t.csv"
        trace_to_csv(tr, path, config_digest="cafe")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_digest=cafe"
        assert lines[1] == "t,v_cd,v_l"
        t_field = lines[3].split(",")[0]
        mantissa = t_field.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 12
        assert float(t_field) == pytest.approx(1e-6, rel=1e-12)


#: Forward error bound per rate (Higham, Accuracy and Stability of Numerical
#: Algorithms, 2nd ed., 2002, ch. 3): both sides compute each rate as a short
#: sum of rounded products, so they differ by at most C * eps * sum(|term_i|)
#: over the rate's terms. Either side rounds a term about nine times at most,
#: its coefficients included, so C = 16 leaves a margin; where the terms do
#: not cancel, the bound is far below the relative 1e-12 it replaces.
RATE_ERROR_C = 16


def rate_terms(il, v2, v1, p):
    """sum(|term_i|) of each rate: the terms of the reference equations, the
    diode contributing the parts of each NIC branch current."""
    a = abs(v1)
    diode = 0.0
    for r1, r2, r3 in NIC_TRIPLES:
        bp = ESAT * r3 / (r2 + r3)
        diode += r2 / (r1 * r3) * a if a <= bp else (a + ESAT) / r1
    return np.array([abs(v2) / p.l,
                     abs(il) / p.c2 + (abs(v2) + abs(v1)) / (p.r_variable * p.c2),
                     (abs(v2) + abs(v1)) / (p.r_variable * p.c1) + diode / p.c1])


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-9.0, max_value=9.0, allow_nan=False),
       st.floats(min_value=-9.0, max_value=9.0, allow_nan=False),
       st.floats(min_value=-9.0, max_value=9.0, allow_nan=False))
# d_v1 cancels here: the two sides differ by 8.7e-11 on 40.69
@example(il_mA=0.0, v2=8.30078125, v1=8.3)
def test_derivative_oracle_property(il_mA, v2, v1):
    p = ChuaParams(r_variable=1920.0, c1=10e-9, c2=100e-9, l=18e-3, r_series=0.0)
    got = np.array(derivatives(CircuitState(il_mA * 1e-3, v2, v1), p))
    want = reference_rates(il_mA * 1e-3, v2, v1, p)
    bound = RATE_ERROR_C * np.finfo(float).eps * rate_terms(il_mA * 1e-3, v2, v1, p)
    assert np.all(np.abs(got - want) <= bound)
