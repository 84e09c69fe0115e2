"""Driven Chua circuit kernel: piecewise-linear diode, RK4 integration,
bifurcation scans and spectra.

Every kernel boundary orders the state as CircuitState does: (i_l, v_c2,
v_c1), the inductor current and the two capacitor voltages. A drive is a
1-D array with one sample per step of dt. Two voltage taps are recorded, in
the order of TAPS: the diode-side capacitor voltage ("v_cd") and the
inductor terminal voltage ("v_l").
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .cells import e12_cells, repr_cells, write_csv
from .errors import ConfigurationError, IntegrationError

TAP_DIODE = "v_cd"
TAP_INDUCTOR = "v_l"
#: Row order of the (tap, sample) channels array of every kernel.
TAPS = (TAP_DIODE, TAP_INDUCTOR)

# Kennedy-style component values: 18 mH radial inductor (17 ohm series
# resistance), 10 nF / 100 nF capacitors, dual op-amp negative-impedance
# diode built from 220/220/2.2k and 22k/22k/3.3k resistor triples.
NIC_BRANCHES = ((220.0, 220.0, 2200.0), (22000.0, 22000.0, 3300.0))
DEFAULT_ESAT = 8.3  # op-amp saturation for a +/-9 V supply


@dataclass(frozen=True)
class DiodePwl:
    """Odd, continuous 5-segment piecewise-linear resistor.

    Slopes are conductances in siemens; breakpoints in volts. The two inner
    slopes are negative (locally active), the outer one positive.
    """

    g_inner: float
    g_mid: float
    g_outer: float
    bp_inner: float
    bp_outer: float

    def __post_init__(self):
        if not (self.g_inner < self.g_mid < 0.0 < self.g_outer):
            raise ConfigurationError("circuit.diode", "slopes must satisfy g_inner < g_mid < 0 < g_outer")
        if not (0.0 < self.bp_inner < self.bp_outer):
            raise ConfigurationError("circuit.diode", "breakpoints must satisfy 0 < bp_inner < bp_outer")

    @classmethod
    def from_nic_branches(cls) -> "DiodePwl":
        """Derive the PWL coefficients from the two op-amp NIC resistor
        triples of NIC_BRANCHES, saturating at DEFAULT_ESAT.

        Each branch (r1, r2, r3) contributes conductance -r2/(r1*r3) while the
        op amp is linear and +1/r1 once it saturates; saturation onset is at
        esat*r3/(r2 + r3) volts.
        """
        params = sorted(
            ((DEFAULT_ESAT * r3 / (r2 + r3), -r2 / (r1 * r3), 1.0 / r1) for r1, r2, r3 in NIC_BRANCHES),
        )
        (bp_in, g_in, s_in), (bp_out, g_out, s_out) = params
        return cls(
            g_inner=g_in + g_out,
            g_mid=g_out + s_in,
            g_outer=s_in + s_out,
            bp_inner=bp_in,
            bp_outer=bp_out,
        )


def diode_current(v: float, d: DiodePwl) -> float:
    """Current through the PWL diode at voltage ``v`` (exact segment arithmetic)."""
    a = abs(v)
    if a <= d.bp_inner:
        i = d.g_inner * a
    elif a <= d.bp_outer:
        i = d.g_inner * d.bp_inner + d.g_mid * (a - d.bp_inner)
    else:
        i = (
            d.g_inner * d.bp_inner
            + d.g_mid * (d.bp_outer - d.bp_inner)
            + d.g_outer * (a - d.bp_outer)
        )
    return i if v >= 0.0 else -i


@dataclass(frozen=True)
class ChuaParams:
    """Circuit constants: series resistor, capacitors, inductor and diode."""

    r_variable: float  # ohms
    c1: float  # farads, diode-side capacitor
    c2: float  # farads
    l: float  # henries
    r_series: float  # ohms, inductor series resistance
    diode: DiodePwl = field(default_factory=DiodePwl.from_nic_branches)

    def __post_init__(self):
        for name in ("r_variable", "c1", "c2", "l"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"circuit.{name}", "must be strictly positive")
        if self.r_series < 0.0:
            raise ConfigurationError("circuit.r_series", "must be non-negative")


def kennedy_circuit(r_variable: float = 1920.0) -> ChuaParams:
    """Default circuit built from the stock component values."""
    return ChuaParams(r_variable=r_variable, c1=10e-9, c2=100e-9, l=18e-3, r_series=17.0)


@dataclass(frozen=True)
class CircuitState:
    """Dynamical state (inductor current, outer and diode-side capacitor voltages)."""

    i_l: float = 0.0
    v_c2: float = 0.0
    v_c1: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.i_l, self.v_c2, self.v_c1)):
            raise ConfigurationError("state", "all components must be finite")


#: Conventional off-equilibrium starting point; the exact origin is a fixed point.
DEFAULT_INITIAL_STATE = CircuitState(i_l=0.0, v_c2=0.0, v_c1=0.1)


def _step_count(steps: float) -> int:
    """``steps`` rounded to a whole number of steps; ConfigurationError on
    t_end when the two-tap trace of that many steps, 16 bytes per step
    boundary, could not be addressed."""
    if not steps < math.inf or 16 * (round(steps) + 1) > sys.maxsize:
        raise ConfigurationError("t_end", f"spans {steps:.6g} steps of dt, too many for a two-tap trace")
    return round(steps)


def sine_drive(amplitude: float, frequency: float, duration: float, dt: float) -> np.ndarray:
    """Plain sinusoidal drive volts, one sample per step of ``dt``."""
    sample_rate = 1.0 / dt
    n = max(1, _step_count(duration * sample_rate))
    t = np.arange(n) / sample_rate
    return amplitude * np.sin(2.0 * math.pi * frequency * t)


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled voltage record of the two taps."""

    dt: float  # seconds
    channels: np.ndarray  # shape (len(TAPS), n_samples), volts

    def __post_init__(self):
        object.__setattr__(self, "channels", np.asarray(self.channels, dtype=float))
        if not 0.0 < self.dt < math.inf:
            raise ConfigurationError("trace.dt", f"must be finite and positive, got {self.dt!r}")
        if self.channels.ndim != 2 or self.channels.shape[0] != len(TAPS):
            raise ConfigurationError("trace.channels", "one row per tap required")

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.dt

    def channel(self, tap: str) -> np.ndarray:
        if tap not in TAPS:
            raise ConfigurationError("tap", f"must be one of {TAPS}, got {tap!r}")
        return self.channels[TAPS.index(tap)]


def derivatives(state: CircuitState, p: ChuaParams, v_in: float = 0.0) -> tuple:
    """Per-second rates of (i_l, v_c2, v_c1).

    The drive voltage and the inductor series resistance enter only the
    inductor-current equation; with both zero the rates reduce to the
    undriven three-state circuit equations.
    """
    il, v2, v1 = state.i_l, state.v_c2, state.v_c1
    d_il = (-v2 - p.r_series * il - v_in) / p.l
    d_v2 = il / p.c2 - (v2 - v1) / (p.r_variable * p.c2)
    d_v1 = (v2 - v1) / (p.r_variable * p.c1) - diode_current(v1, p.diode) / p.c1
    return (d_il, d_v2, d_v1)


def _drive_lookup(drive, n_steps: int) -> np.ndarray:
    """The drive at the n_steps + 1 step boundaries, one sample per step;
    past its end the last sample is held."""
    drive = np.asarray(drive, dtype=float)
    if drive.ndim != 1 or drive.size == 0:
        raise ConfigurationError("drive", f"must be a nonempty 1-D array, got shape {drive.shape}")
    return drive[np.minimum(np.arange(n_steps + 1), drive.size - 1)]


def _rk4_constants(p: ChuaParams, dt: float) -> tuple:
    """The coefficients both RK4 kernels step with: the diode's slopes,
    breakpoints and breakpoint currents, the reciprocal component values,
    r_series, and the step with its half and sixth."""
    d = p.diode
    gi, gm, bi, bo = d.g_inner, d.g_mid, d.bp_inner, d.bp_outer
    i_bi = gi * bi
    return (gi, gm, d.g_outer, bi, bo, i_bi, i_bi + gm * (bo - bi), 1.0 / p.l, 1.0 / p.c2,
            1.0 / p.c1, 1.0 / (p.r_variable * p.c2), 1.0 / (p.r_variable * p.c1), p.r_series,
            dt, 0.5 * dt, dt / 6.0)


def integrate(
    p: ChuaParams,
    init: CircuitState,
    drive: np.ndarray | None,
    t_end: float,
    dt: float = 1e-8,
) -> Trace:
    """Fixed-step classical RK4 integration of the driven circuit.

    ``drive`` holds the input volts, one sample per step of ``dt``; past its
    end the last sample is held. Returns a two-tap trace sampled at every
    step boundary (n_steps + 1 samples including the initial state). Tap
    "v_cd" is the diode-side capacitor voltage; tap "v_l" is
    v_c2 - r_series*i_l - v_in, the voltage seen at the inductor terminal.
    Deterministic: identical inputs give bit-identical traces.

    Raises IntegrationError (with the failing step index) if the state
    becomes non-finite.
    """
    if not 0.0 < dt < math.inf:
        raise ConfigurationError("dt", f"must be finite and positive, got {dt!r}")
    if not 0.0 <= t_end < math.inf:
        raise ConfigurationError("t_end", f"must be finite and non-negative, got {t_end!r}")
    n_steps = _step_count(t_end / dt)
    if drive is None:
        # one shared 0.0, not a list of n_steps + 1 float objects
        vin, last = itertools.repeat(0.0, n_steps), 0.0
    else:
        # plain Python floats keep the scalar RK4 loop fast; the drive at
        # the final tap is popped, since a slice of vin would copy it
        vin = _drive_lookup(drive, n_steps).tolist()
        last = vin.pop()

    gi, gm, go, bi, bo, i_bi, i_bo, inv_l, inv_c2, inv_c1, inv_rc2, inv_rc1, rs, h, hh, h6 = (
        _rk4_constants(p, dt))
    nbi, nbo = -bi, -bo
    isfinite = math.isfinite
    il, v2, v1 = init.i_l, init.v_c2, init.v_c1
    # array('d') appends cost what list appends do and keep 8 bytes per
    # sample instead of a float object; numpy item stores cost more
    v_cd, v_l = array("d"), array("d")
    tap_cd, tap_l = v_cd.append, v_l.append
    # The four RK4 stages are written out, with no call per stage: stage j
    # takes the rates (a, b, d) of (i_l, v_c2, v_c1) at the point (x, y, z),
    # with w the diode current from one segment chain on the signed voltage:
    # below -bi it is negated from the segment at -v, as in diode_current
    # (not gm*(v + bi) - i_bi, whose zero can take the other sign), and gi*v
    # has the bits of -(gi*(-v)). A NaN takes the last branch; the step then
    # raises. Every IEEE operation keeps the order that integrate_lanes
    # repeats per lane; the golden digests and a per-stage reference kernel
    # in the tests pin it bit for bit.
    for u in vin:
        rsil = rs * il
        tap_cd(v1)
        tap_l(v2 - rsil - u)
        dv = v2 - v1
        if v1 > bi:
            w = i_bi + gm * (v1 - bi) if v1 <= bo else i_bo + go * (v1 - bo)
        elif v1 >= nbi:
            w = gi * v1
        else:
            w = -(i_bi + gm * (-v1 - bi)) if v1 >= nbo else -(i_bo + go * (-v1 - bo))
        a1 = (-v2 - rsil - u) * inv_l
        b1 = il * inv_c2 - dv * inv_rc2
        d1 = dv * inv_rc1 - w * inv_c1
        x, y, z = il + hh * a1, v2 + hh * b1, v1 + hh * d1
        dv = y - z
        if z > bi:
            w = i_bi + gm * (z - bi) if z <= bo else i_bo + go * (z - bo)
        elif z >= nbi:
            w = gi * z
        else:
            w = -(i_bi + gm * (-z - bi)) if z >= nbo else -(i_bo + go * (-z - bo))
        a2 = (-y - rs * x - u) * inv_l
        b2 = x * inv_c2 - dv * inv_rc2
        d2 = dv * inv_rc1 - w * inv_c1
        x, y, z = il + hh * a2, v2 + hh * b2, v1 + hh * d2
        dv = y - z
        if z > bi:
            w = i_bi + gm * (z - bi) if z <= bo else i_bo + go * (z - bo)
        elif z >= nbi:
            w = gi * z
        else:
            w = -(i_bi + gm * (-z - bi)) if z >= nbo else -(i_bo + go * (-z - bo))
        a3 = (-y - rs * x - u) * inv_l
        b3 = x * inv_c2 - dv * inv_rc2
        d3 = dv * inv_rc1 - w * inv_c1
        x, y, z = il + h * a3, v2 + h * b3, v1 + h * d3
        dv = y - z
        if z > bi:
            w = i_bi + gm * (z - bi) if z <= bo else i_bo + go * (z - bo)
        elif z >= nbi:
            w = gi * z
        else:
            w = -(i_bi + gm * (-z - bi)) if z >= nbo else -(i_bo + go * (-z - bo))
        il += h6 * (a1 + 2.0 * a2 + 2.0 * a3 + (-y - rs * x - u) * inv_l)
        v2 += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + (x * inv_c2 - dv * inv_rc2))
        v1 += h6 * (d1 + 2.0 * d2 + 2.0 * d3 + (dv * inv_rc1 - w * inv_c1))
        # a finite sum proves a finite state; an overflowing one falls
        # through to the exact check
        s = il + v2 + v1
        if s - s != 0.0 and not (isfinite(il) and isfinite(v2) and isfinite(v1)):
            raise IntegrationError(len(v_cd) - 1)
    tap_cd(v1)
    tap_l(v2 - rs * il - last)
    # the v_l tap is appended to the v_cd buffer, which then becomes the
    # (2, n) channel array without a copy: one tap is copied, never both
    del tap_cd, tap_l
    v_cd.extend(v_l)
    del v_l
    channels = np.frombuffer(v_cd).reshape(2, -1)
    return Trace(dt=dt, channels=channels)


def integrate_lanes(
    p: ChuaParams,
    start: np.ndarray,
    levels: np.ndarray,
    carrier: np.ndarray,
    dt: float,
    lo: int,
    taps: np.ndarray,
) -> np.ndarray:
    """Lockstep RK4 over independent lanes that share the circuit and carrier.

    ``start`` is (3, n_lanes): each lane's (i_l, v_c2, v_c1) before step 0.
    ``levels`` is (n_levels, n_lanes); each level is held for
    len(carrier) // n_levels steps, and lane k is driven at step s by
    levels[s // hold, k] * carrier[s]. ``taps`` is an (n_levels, n_keep, 2,
    n_lanes) array of any strides, with 0 <= lo and lo + n_keep <= hold:
    taps[j, r] receives v_cd and v_l of all lanes before step
    j * hold + lo + r; another shape or window raises ConfigurationError
    (taps) before any step. Returns the (3, n_lanes) state after the last
    step, in the order of ``start``.

    Every lane repeats the IEEE operations of ``integrate`` in the same order
    (see the note on the diode's sign below), so each one matches the scalar
    kernel bit for bit, and a run continued from a returned state matches an
    uninterrupted one. Non-finite states stay non-finite and do not raise:
    the caller tests the returned state.
    """
    n_levels, n_lanes = levels.shape
    if start.shape != (3, n_lanes):
        raise ConfigurationError("start", f"must be (3, {n_lanes}) for {n_lanes} lanes, got {start.shape}")
    n_steps = carrier.size
    if n_levels == 0 or n_steps % n_levels != 0:
        raise ConfigurationError("levels", "carrier length must be a whole number of levels")
    hold = n_steps // n_levels
    n_keep = taps.shape[1] if taps.ndim == 4 else 0
    if taps.shape != (n_levels, n_keep, 2, n_lanes) or not 0 <= lo <= hold - n_keep:
        raise ConfigurationError("taps", f"must be ({n_levels}, n_keep, 2, {n_lanes}) with 0 <= lo"
                                         f" <= {hold} - n_keep, got {taps.shape} at lo {lo}")
    gi, gm, go, bi, bo, i_bi, i_bo, inv_l, inv_c2, inv_c1, inv_rc2, inv_rc1, rs, h, hh, h6 = (
        _rk4_constants(p, dt))

    # Each evaluation point is a (7, n_lanes) block: the state as (v_c2,
    # v_c1, i_l), then v_c2 - v_c1 and the outer, middle and inner diode
    # segments. That order, unlike start's, puts the operands of one
    # expression in neighbouring rows, so one ufunc call over contiguous rows
    # does the work of two or three scalar expressions; every element still
    # sees the scalar operation sequence. Constants are 0-d arrays or
    # columns, which numpy applies faster than Python floats.
    def col(*values):
        return np.repeat(np.array(values)[:, None], n_lanes, axis=1)

    seg_g, seg_i = col(go, gm, gi), col(i_bo, i_bi)
    lhs_c, rhs_c = col(inv_c2, inv_rc1), col(inv_rc2, inv_c1)
    bi, bo, inv_c1, rs, inv_l, h, hh, h6, two = map(
        np.array, (bi, bo, inv_c1, rs, inv_l, h, hh, h6, 2.0))
    k = np.empty((4, 3, n_lanes))  # rates of (v_c2, v_c1, i_l) at the 4 stages
    acc, tmp, pair = np.empty((3, n_lanes)), np.empty((3, n_lanes)), np.empty((2, n_lanes))
    u, t1, t2 = np.empty(n_lanes), np.empty(n_lanes), np.empty(n_lanes)
    inner, mid = np.empty(n_lanes, dtype=bool), np.empty(n_lanes, dtype=bool)
    add, sub, mul, le, copyto = np.add, np.subtract, np.multiply, np.less_equal, np.copyto

    y, ys = np.empty((7, n_lanes)), np.empty((7, n_lanes))
    y[:3] = start[[1, 2, 0]]
    state, point = y[:3], ys[:3]

    # one entry per RK4 stage: the rows of its point, its rates, and the step
    # that takes the state along those rates to the next stage's point (the
    # last stage's rates go into the weighted sum instead)
    def stage(b, kj, step):
        return (b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[4:6], b[4:7], b[2:4], b[3:5],
                kj[0:2], kj[2], kj, step)

    stages = (stage(y, k[0], hh), stage(ys, k[1], hh), stage(ys, k[2], h), stage(ys, k[3], None))
    with np.errstate(all="ignore"):
        for i, c in enumerate(carrier.tolist()):
            j, r = divmod(i, hold)
            mul(levels[j], c, u)
            if 0 <= r - lo < n_keep:
                # v_cd = v1 and v_l = v2 - rs*il - u, with one write to each
                # row of a strided taps
                v_cd, v_l = taps[j, r - lo]
                copyto(v_cd, y[1])
                mul(y[2], rs, t1)
                sub(y[0], t1, t1)
                sub(t1, u, v_l)
            for v2, v1, il, dv, idio, seg, a, segs, segs3, lhs, rhs, out, out_il, kj, step in stages:
                # the segment at |v1| over a 1/c1 of v1's sign stands in for
                # the scalar's chain on the signed v1 (negated from -v1 below
                # -bi, gi*v1 within ±bi): a sign flip commutes with rounding.
                # At v1 = -0.0 the scalar takes gi*(-0.0)/c1 and this
                # gi*(+0.0)/(-c1), the same signed zero
                np.abs(v1, a)
                le(a, bi, inner)
                le(a, bo, mid)
                np.copysign(inv_c1, v1, rhs_c[1])
                # outer, middle and inner segments: i_bo + go*(a - bo),
                # i_bi + gm*(a - bi) and gi*a
                sub(a, bo, idio)
                sub(a, bi, seg)
                mul(segs3, seg_g, segs3)
                add(segs, seg_i, segs)
                copyto(idio, seg, where=mid)
                copyto(idio, a, where=inner)
                # il/c2 - (v2 - v1)/(r c2) and (v2 - v1)/(r c1) - i_d/c1
                sub(v2, v1, dv)
                mul(lhs, lhs_c, out)
                mul(rhs, rhs_c, pair)
                sub(out, pair, out)
                # (-v2 - rs*il - u) / l
                np.negative(v2, t1)
                mul(il, rs, t2)
                sub(t1, t2, t1)
                sub(t1, u, t1)
                mul(t1, inv_l, out_il)
                if step is not None:
                    mul(kj, step, tmp)
                    add(state, tmp, point)
            # ((k1 + 2 k2) + 2 k3) + k4
            mul(k[1:3], two, k[1:3])
            add(k[0], k[1], acc)
            add(acc, k[2], acc)
            add(acc, k[3], acc)
            mul(acc, h6, acc)
            add(state, acc, state)
    return state[[2, 0, 1]]


def steady_state_extrema(samples: np.ndarray) -> np.ndarray:
    """Strict 3-sample local maxima and minima of the second half of
    ``samples``; the first half is discarded as the transient.

    If the steady segment has no strict extrema (constant or monotone decay
    below float resolution), the segment min and max stand in for them.
    """
    tail = np.asarray(samples, dtype=float)[len(samples) // 2:]
    if tail.size < 3:
        return np.array([tail.min(), tail.max()]) if tail.size else np.empty(0)
    a, b, c = tail[:-2], tail[1:-1], tail[2:]
    mask = ((b > a) & (b > c)) | ((b < a) & (b < c))
    ext = b[mask]
    if ext.size == 0:
        ext = np.array([tail.min(), tail.max()])
    return ext


@dataclass(frozen=True)
class BifurcationPoint:
    """Extrema of one tap at one value of the swept parameter."""

    value: float
    extrema: np.ndarray
    error: str | None = None


SWEEPABLE = ("r_variable", "c1", "drive_amplitude")


def _scan_point(args) -> BifurcationPoint:
    value, p, drive_freq, amplitude, tap, t_end, dt = args
    try:
        drive = None
        if amplitude and drive_freq:
            drive = sine_drive(amplitude, drive_freq, t_end, dt)
        trace = integrate(p, DEFAULT_INITIAL_STATE, drive, t_end, dt)
        ext = steady_state_extrema(trace.channel(tap))
        return BifurcationPoint(value=value, extrema=ext)
    except IntegrationError as exc:
        return BifurcationPoint(value=value, extrema=np.empty(0), error=str(exc))


def bifurcation_scan(
    vary: str,
    values,
    fixed: ChuaParams,
    tap: str = TAP_DIODE,
    drive_frequency: float = 0.0,
    drive_amplitude: float = 0.0,
    t_end: float | None = None,
    dt: float = 1e-8,
    jobs: int = 1,
) -> list:
    """Sweep one parameter and collect steady-state extrema of the chosen tap.

    ``vary`` is one of r_variable, c1, drive_amplitude. The horizon defaults
    to 40 ms undriven and 20 drive periods when driven. Failed points are
    flagged in place and the scan continues. Points may be evaluated in
    parallel; results are always returned in parameter order.
    """
    if vary not in SWEEPABLE:
        raise ConfigurationError("vary", f"must be one of {SWEEPABLE}")
    if tap not in TAPS:
        raise ConfigurationError("tap", f"must be one of {TAPS}, got {tap!r}")
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ConfigurationError("values", "at least 2 scan points required")
    diffs = np.diff(values)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigurationError("values", "scan range must be monotone")
    if vary == "drive_amplitude" and drive_frequency <= 0.0:
        raise ConfigurationError("drive_frequency", "required for a drive-amplitude scan")
    if t_end is None:
        t_end = 20.0 / drive_frequency if drive_frequency > 0.0 else 40e-3

    # every point's circuit is built, and so checked, before any point runs
    if vary == "drive_amplitude":
        tasks = [(v, fixed, drive_frequency, v, tap, t_end, dt) for v in values]
    else:
        tasks = [(v, replace(fixed, **{vary: v}), drive_frequency, drive_amplitude, tap, t_end, dt)
                 for v in values]
    return _map(_scan_point, tasks, jobs)


def _map(fn, items, jobs: int) -> list:
    """``[fn(x) for x in items]``, on up to ``jobs`` worker processes when
    jobs > 1; results come back in the order of ``items``."""
    items = list(items)
    if jobs > 1 and len(items) > 1:
        # imported here: it pulls in multiprocessing, which no serial run needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def power_spectrum(samples: np.ndarray, dt: float) -> tuple:
    """One-sided DFT magnitude of the mean-removed signal.

    Returns (frequencies in Hz, |X_k|) with bin spacing 1/(n*dt). Magnitudes
    are raw DFT coefficients, so sum((x - mean)**2) equals
    sum(w_k * |X_k|**2) / n with w_k = 2 everywhere except DC and (for even
    n) the Nyquist bin.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ConfigurationError("samples", "need at least 2 samples")
    if not 0.0 < dt < math.inf:
        raise ConfigurationError("dt", f"must be finite and positive, got {dt!r}")
    x = x - x.mean()
    mags = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(x.size, d=dt)
    return freqs, mags


def trace_to_csv(trace: Trace, path, config_digest: str | None = None) -> None:
    """Write a trace as CSV (`t,<tap1>,<tap2>`).

    Times carry 13 significant digits (`%.12e`); voltages are written as
    their repr, which round-trips exactly.
    """
    write_csv(path, ("t", *TAPS), (trace.times, *trace.channels), config_digest,
              render=(e12_cells,) + (repr_cells,) * len(TAPS))


def bifurcation_to_csv(points: list, path, config_digest: str | None = None) -> None:
    """Write scan results as `param,extremum_value` rows (failed points skipped)."""
    params = [pt.value for pt in points for _ in pt.extrema]
    extrema = [e for pt in points for e in pt.extrema.tolist()]
    write_csv(path, ("param", "extremum_value"), (params, extrema), config_digest)


def spectrum_to_csv(freqs: np.ndarray, mags: np.ndarray, path, config_digest: str | None = None) -> None:
    """Write a spectrum as `freq_hz,magnitude` rows."""
    write_csv(path, ("freq_hz", "magnitude"), (freqs, mags), config_digest)
