"""Time-multiplexed reservoir pipeline around the circuit kernel.

Input values are normalised into a voltage window, multiplexed with a
near-unity random mask, sample-held, and amplitude-modulated onto a fixed
carrier. The kernel trace is demultiplexed back into one channel per
(tap, mask) pair, and a linear readout with optional bias is trained by
accumulated least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    DEFAULT_INITIAL_STATE,
    TAP_DIODE,
    TAP_INDUCTOR,
    ChuaParams,
    DriveSignal,
    Trace,
    integrate,
    integrate_lanes,
)
from .errors import (
    ConfigurationError,
    InputDomainError,
    IntegrationError,
    LayoutError,
    MetricError,
    NoSignalError,
)

CARRIERS = ("square", "sine", "dc")


@dataclass(frozen=True)
class ReservoirConfig:
    """Pipeline parameters.

    v_min..v_max is the drive amplitude window; value_max the largest raw
    input value; theta the sample-hold factor (envelope points per masked
    value); n_periods the nominal carrier periods spanned by one case.
    """

    v_min: float = 0.4
    v_max: float = 1.0
    value_max: float = 6.0
    n_mask: int = 50
    mask_deviation: float = 0.01
    theta: int = 10
    carrier: str = "square"
    f_carrier: float = 5802.5
    n_periods: int = 5
    sample_rate: float = 1e8
    n_taps: int = 2
    middle_fraction: float = 0.8
    use_envelope: bool = False
    seed: int = 0

    def __post_init__(self):
        if not self.v_min < self.v_max:
            raise ConfigurationError("reservoir.v_min", "v_min must be below v_max")
        if self.value_max <= 0.0:
            raise ConfigurationError("reservoir.value_max", "must be positive")
        if self.n_mask < 1:
            raise ConfigurationError("reservoir.n_mask", "must be >= 1")
        if self.mask_deviation < 0.0:
            raise ConfigurationError("reservoir.mask_deviation", "must be non-negative")
        if self.theta < 1:
            raise ConfigurationError("reservoir.theta", "must be >= 1")
        if self.carrier not in CARRIERS:
            raise ConfigurationError("reservoir.carrier", f"must be one of {CARRIERS}")
        if self.f_carrier <= 0.0:
            raise ConfigurationError("reservoir.f_carrier", "must be positive")
        if self.n_periods < 1:
            raise ConfigurationError("reservoir.n_periods", "must be >= 1")
        if self.sample_rate <= 0.0:
            raise ConfigurationError("reservoir.sample_rate", "must be positive")
        if self.n_taps != 2:
            raise ConfigurationError("reservoir.n_taps", "exactly two physical taps are supported")
        if not 0.0 < self.middle_fraction <= 1.0:
            raise ConfigurationError("reservoir.middle_fraction", "must be in (0, 1]")

    @property
    def n_channels(self) -> int:
        return self.n_mask * self.n_taps


@dataclass(frozen=True)
class Mask:
    """Multiplicative per-slot factors, all close to one."""

    factors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "factors", np.asarray(self.factors, dtype=float))
        if self.factors.size == 0:
            raise ConfigurationError("mask", "must be nonempty")

    def __len__(self) -> int:
        return self.factors.size


def make_mask(cfg: ReservoirConfig) -> Mask:
    """Draw n_mask factors uniformly in [1-d, 1+d] from the seeded generator.

    The mask is fixed per reservoir instance: the same seed always yields
    the same factors.
    """
    rng = np.random.default_rng([cfg.seed, 0x6D61736B])
    d = cfg.mask_deviation
    factors = 1.0 + d * (2.0 * rng.random(cfg.n_mask) - 1.0)
    return Mask(factors)


def normalize(values, cfg: ReservoirConfig) -> np.ndarray:
    """Linear map of raw values in [0, value_max] onto [v_min, v_max] volts."""
    x = np.asarray(values, dtype=float)
    if np.any(x < 0.0) or np.any(x > cfg.value_max):
        raise InputDomainError(f"input values must lie in [0, {cfg.value_max}]")
    return cfg.v_min + (x / cfg.value_max) * (cfg.v_max - cfg.v_min)


def denormalize(volts, cfg: ReservoirConfig) -> np.ndarray:
    """Inverse of normalize."""
    v = np.asarray(volts, dtype=float)
    return (v - cfg.v_min) / (cfg.v_max - cfg.v_min) * cfg.value_max


def multiplex(message, mask: Mask) -> np.ndarray:
    """Repeat each message value across the mask block: out[i*n+j] = msg[i]*m[j]."""
    msg = np.asarray(message, dtype=float)
    if msg.size == 0:
        raise ConfigurationError("message", "must be nonempty")
    return np.repeat(msg, len(mask)) * np.tile(mask.factors, msg.size)


def sample_hold(seq, theta: int) -> np.ndarray:
    """Repeat each envelope point theta times, order preserved."""
    if theta < 1:
        raise ConfigurationError("theta", "must be >= 1")
    return np.repeat(np.asarray(seq, dtype=float), theta)


def modulate(envelope, cfg: ReservoirConfig) -> DriveSignal:
    """Amplitude-modulate the envelope onto the configured carrier.

    The nominal duration is n_periods/f_carrier; envelope points occupy
    equal-duration slots, quantised to an integer number of samples per
    point (at least one, so a dense envelope stretches the realised
    duration).
    """
    env = np.asarray(envelope, dtype=float)
    if env.size == 0:
        raise ConfigurationError("envelope", "must be nonempty")
    held = np.repeat(env, samples_per_envelope_point(env.size, cfg))
    return DriveSignal(held * carrier_wave(held.size, cfg), cfg.sample_rate)


def carrier_wave(n_samples: int, cfg: ReservoirConfig) -> np.ndarray:
    """The configured unit carrier, sampled at cfg.sample_rate from t = 0."""
    if cfg.sample_rate < 2.0 * cfg.f_carrier:
        raise ConfigurationError("reservoir.sample_rate", "must be at least twice f_carrier")
    t = np.arange(n_samples) / cfg.sample_rate
    if cfg.carrier == "square":
        return np.where(np.sin(2.0 * math.pi * cfg.f_carrier * t) >= 0.0, 1.0, -1.0)
    if cfg.carrier == "sine":
        return np.sin(2.0 * math.pi * cfg.f_carrier * t)
    return np.ones(n_samples)  # dc


def samples_per_envelope_point(n_envelope: int, cfg: ReservoirConfig) -> int:
    duration = cfg.n_periods / cfg.f_carrier
    return max(1, int(round(duration * cfg.sample_rate / n_envelope)))


@dataclass(frozen=True)
class StateMatrix:
    """Demultiplexed kernel activations: one row per kept timestep, one
    column per (tap, mask) channel, tap-major."""

    values: np.ndarray  # (n_rows, n_mask*n_taps) volts
    n_mask: int
    n_taps: int
    row_times: np.ndarray  # seconds, per row (first channel's source samples)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "row_times", np.asarray(self.row_times, dtype=float))
        if self.values.ndim != 2:
            raise LayoutError("state matrix must be rectangular")
        if self.values.shape[1] != self.n_mask * self.n_taps:
            raise LayoutError("column count must equal n_mask * n_taps")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


def hstack_cases(parts) -> StateMatrix:
    """Column-concatenate state matrices from independent kernel runs
    (multi-coordinate inputs)."""
    if not parts:
        raise ConfigurationError("parts", "must be nonempty")
    rows = {p.n_rows for p in parts}
    if len(rows) != 1:
        raise LayoutError("all parts must share the row count")
    return StateMatrix(
        values=np.hstack([p.values for p in parts]),
        n_mask=sum(p.n_mask for p in parts),
        n_taps=parts[0].n_taps,
        row_times=parts[0].row_times,
    )


def demultiplex(trace: Trace, n_values: int, n_mask: int, middle_fraction: float = 0.8) -> StateMatrix:
    """Regroup a trace into per-(tap, mask) channels.

    The trace must contain exactly n_values*n_mask equal slots per tap
    (value-major mask blocks); from every slot the central middle_fraction of
    samples is kept. Raises LayoutError on a slot/sample mismatch.
    """
    n_slots = n_values * n_mask
    n = trace.n_samples
    if n_slots <= 0 or n % n_slots != 0:
        raise LayoutError(
            f"{n} samples do not divide into {n_slots} slots ({n_values} values x {n_mask} masks)"
        )
    spp = n // n_slots
    n_keep, lo = _slot_window(spp, middle_fraction)
    n_taps = len(trace.tap_names)
    out = np.empty((n_values * n_keep, n_taps * n_mask))
    for k in range(n_taps):
        # (n_values, n_mask, spp) -> kept window -> channels stacked per mask
        blocks = trace.channels[k].reshape(n_values, n_mask, spp)[:, :, lo:lo + n_keep]
        out[:, k * n_mask:(k + 1) * n_mask] = blocks.transpose(0, 2, 1).reshape(
            n_values * n_keep, n_mask
        )
    times = _row_times(trace.times, n_values, n_mask, spp, middle_fraction)
    return StateMatrix(values=out, n_mask=n_mask, n_taps=n_taps, row_times=times)


def _slot_window(spp: int, middle_fraction: float) -> tuple:
    """(n_keep, lo): the central middle_fraction of a slot of spp samples."""
    n_keep = max(1, int(round(spp * middle_fraction)))
    return n_keep, (spp - n_keep) // 2


def _row_times(times, n_values: int, n_mask: int, spp: int, middle_fraction: float) -> np.ndarray:
    """Times of the kept samples of each value's first mask slot."""
    n_keep, lo = _slot_window(spp, middle_fraction)
    return times.reshape(n_values, n_mask, spp)[:, 0, lo:lo + n_keep].reshape(-1)


def align_trace(trace: Trace, threshold: float = 0.1) -> Trace:
    """Trim the leading prefix where the inductor tap stays below threshold.

    Used when ingesting externally recorded traces; simulator output starts
    at the signal and is returned unchanged.
    """
    level = np.abs(trace.channel(TAP_INDUCTOR))
    above = np.nonzero(level >= threshold)[0]
    if above.size == 0:
        raise NoSignalError(f"no sample reaches the {threshold} V threshold")
    start = int(above[0])
    if start == 0:
        return trace
    return Trace(dt=trace.dt, tap_names=trace.tap_names, channels=trace.channels[:, start:])


def envelope_extract(channel, window: int) -> tuple:
    """Upper and lower envelopes by windowed max/min pooling.

    ``window`` is the anchor spacing in samples (one carrier half-period);
    each anchor pools over a two-window span so every sample is covered by
    two neighbouring anchors, which keeps upper >= signal >= lower after
    linear interpolation back to full length.
    """
    x = np.asarray(channel, dtype=float)
    if window < 1:
        raise ConfigurationError("window", "must be >= 1")
    n = x.size
    centers = list(range(0, n, window))
    if centers[-1] != n - 1:
        centers.append(n - 1)
    span = 2 * window + 1
    upper_pts, lower_pts = [], []
    for c in centers:
        lo, hi = c - window, c + window + 1
        # truncated edge windows slide inward so every anchor pools a full span
        if lo < 0:
            lo, hi = 0, min(n, span)
        elif hi > n:
            lo, hi = max(0, n - span), n
        seg = x[lo:hi]
        upper_pts.append(seg.max())
        lower_pts.append(seg.min())
    idx = np.arange(n)
    upper = np.interp(idx, centers, upper_pts)
    lower = np.interp(idx, centers, lower_pts)
    return upper, lower


def _passthrough_kernel(drive: DriveSignal, circuit: ChuaParams, dt: float) -> Trace:
    """Identity kernel for pipeline algebra checks: both taps echo the drive."""
    return Trace(dt=dt, tap_names=(TAP_DIODE, TAP_INDUCTOR),
                 channels=np.vstack([drive.samples, drive.samples]))


def _chua_kernel(drive: DriveSignal, circuit: ChuaParams, dt: float) -> Trace:
    t_end = drive.samples.size * dt
    return integrate(circuit, DEFAULT_INITIAL_STATE, drive, t_end, dt)


def run_case(raw_values, cfg: ReservoirConfig, circuit: ChuaParams, kernel=None) -> StateMatrix:
    """Full input pipeline for one case: normalise, multiplex, hold, modulate,
    drive the kernel, then demultiplex (dummy-slot samples dropped).

    A trailing dummy value of 0 is appended before pre-processing so the end
    of the real message survives acquisition trimming. Deterministic given
    the config seed.
    """
    raw = list(raw_values)
    if not raw:
        raise ConfigurationError("raw_values", "must be nonempty")
    kernel = kernel or _chua_kernel
    mask = make_mask(cfg)
    message = normalize(raw + [0.0], cfg)
    envelope = sample_hold(multiplex(message, mask), cfg.theta)
    drive = modulate(envelope, cfg)
    dt = 1.0 / cfg.sample_rate
    trace = kernel(drive, circuit, dt)

    spe = samples_per_envelope_point(envelope.size, cfg)
    spp = cfg.theta * spe  # samples per (value, mask) slot
    n_real = len(raw) * cfg.n_mask * spp
    trimmed = Trace(dt=dt, tap_names=trace.tap_names, channels=trace.channels[:, :n_real])
    if cfg.use_envelope:
        half_period = max(1, int(round(cfg.sample_rate / (2.0 * cfg.f_carrier))))
        upper = np.vstack([envelope_extract(ch, half_period)[0] for ch in trimmed.channels])
        trimmed = Trace(dt=dt, tap_names=trace.tap_names, channels=upper)
    return demultiplex(trimmed, len(raw), cfg.n_mask, cfg.middle_fraction)


def run_cases(cases, cfg: ReservoirConfig, circuit: ChuaParams, per_coordinate: bool = False) -> list:
    """``run_case`` for a group of equal-length cases, as lanes of one lockstep
    kernel run.

    With ``per_coordinate`` each coordinate of a case drives its own lane and
    the case's state matrix concatenates the coordinates' channels, as
    ``hstack_cases`` does. Results match the per-case path bit for bit. The
    drive is built step by step from the lane's message, the mask and the
    shared carrier, and the kept taps go straight into one
    (case, row, coordinate, channel) array, so each case's values are a view
    of it. A diverging lane raises IntegrationError naming the lowest
    failing case, with the step taken from a scalar rerun of that lane.
    """
    if cfg.use_envelope:
        raise ConfigurationError("reservoir.use_envelope", "envelope detection runs through run_case")
    cases = [list(raw) for raw in cases]
    lanes = [[x] for raw in cases for x in raw] if per_coordinate else cases
    if not cases or len({len(raw) for raw in cases}) != 1:
        raise ConfigurationError("cases", "lockstep cases must be nonempty and of equal length")
    if not cases[0]:
        raise ConfigurationError("raw_values", "must be nonempty")
    n_cases, n_lanes, n_values = len(cases), len(lanes), len(lanes[0])
    n_coords = n_lanes // n_cases
    n_mask = cfg.n_mask
    dt = 1.0 / cfg.sample_rate

    mask = make_mask(cfg)
    messages = normalize(np.hstack([np.asarray(lanes, dtype=float), np.zeros((n_lanes, 1))]), cfg)
    # levels[i*n_mask + j, lane] = message[lane, i] * mask[j], as multiplex builds it
    levels = np.ascontiguousarray(
        (messages[:, :, None] * mask.factors).reshape(n_lanes, -1).T
    )
    n_envelope = levels.shape[0] * cfg.theta
    spp = cfg.theta * samples_per_envelope_point(n_envelope, cfg)
    carrier = carrier_wave(levels.shape[0] * spp, cfg)

    n_keep, lo = _slot_window(spp, cfg.middle_fraction)
    n_real = n_values * n_mask * spp  # the dummy value's slots are not kept
    steps = np.arange(carrier.size)
    offset = steps % spp
    keep = ((steps < n_real) & (offset >= lo) & (offset < lo + n_keep)).tolist()
    out = np.empty((n_cases, n_values * n_keep, n_coords, 2 * n_mask))

    def sink(step, v_cd, v_l):
        slot, off = divmod(step, spp)
        value, j = divmod(slot, n_mask)
        row = out[:, value * n_keep + off - lo]
        row[:, :, j] = v_cd.reshape(n_cases, n_coords)
        row[:, :, n_mask + j] = v_l.reshape(n_cases, n_coords)

    finite = integrate_lanes(circuit, DEFAULT_INITIAL_STATE, levels, carrier, dt, keep, sink)
    if not finite.all():
        lane = int(np.flatnonzero(~finite)[0])
        case = lane // n_coords
        try:
            run_case(lanes[lane], cfg, circuit)
        except IntegrationError as exc:
            raise IntegrationError(exc.step_index, case_index=case) from None
        raise AssertionError(f"lane {lane} diverged but its scalar rerun did not")

    times = _row_times(np.arange(n_real) * dt, n_values, n_mask, spp, cfg.middle_fraction)
    values = out.reshape(n_cases, n_values * n_keep, -1)
    return [StateMatrix(values=v, n_mask=n_coords * n_mask, n_taps=2, row_times=times)
            for v in values]


@dataclass(frozen=True)
class ReadoutWeight:
    """Trained linear readout.

    matrix has one row per output; when bias is enabled column 0 multiplies
    the constant 1 and the remaining columns the offset-shifted channels.
    """

    matrix: np.ndarray  # (n_outputs, n_channels + bias)
    bias: bool
    offset: float
    ridge_lambda: float
    seed: int
    config_digest: str

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        if not np.all(np.isfinite(self.matrix)):
            raise ConfigurationError("weight.matrix", "entries must be finite")

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_channels(self) -> int:
        return self.matrix.shape[1] - (1 if self.bias else 0)


def train_readout(
    cases,
    bias: bool = True,
    offset: float = 0.0,
    ridge_lambda: float = 0.0,
    seed: int = 0,
    config_digest: str = "",
) -> ReadoutWeight:
    """Fit the readout on (StateMatrix, teacher) pairs by accumulated least squares.

    Every timestep row p (bias prepended, offset added to channel voltages)
    contributes p p^T to the Gram accumulator and teacher * p^T to the
    cross accumulator, in fixed case-then-row order. The weight solves
    (XX + lambda*I') W^T = YY^T by minimum-norm least squares, where I'
    leaves the bias row/column unregularised.
    """
    cases = list(cases)
    if not cases:
        raise ConfigurationError("cases", "at least one training case required")
    n_ch = cases[0][0].n_channels
    teacher0 = np.atleast_1d(np.asarray(cases[0][1], dtype=float))
    n_out = teacher0.size
    d = n_ch + (1 if bias else 0)
    xx = np.zeros((d, d))
    yy = np.zeros((n_out, d))
    for sm, teacher in cases:
        if sm.n_channels != n_ch:
            raise ConfigurationError("cases", "all cases must share the channel count")
        y = np.atleast_1d(np.asarray(teacher, dtype=float))
        if y.size != n_out:
            raise ConfigurationError("cases", "all teachers must share the output count")
        p = sm.values + offset
        if bias:
            p = np.hstack([np.ones((p.shape[0], 1)), p])
        xx += p.T @ p
        yy += y[:, None] * p.sum(axis=0)[None, :]
    reg = ridge_lambda * np.eye(d)
    if bias:
        reg[0, 0] = 0.0
    solution, *_ = np.linalg.lstsq(xx + reg, yy.T, rcond=None)
    return ReadoutWeight(
        matrix=solution.T,
        bias=bias,
        offset=offset,
        ridge_lambda=ridge_lambda,
        seed=seed,
        config_digest=config_digest,
    )


def predict(w: ReadoutWeight, x: StateMatrix) -> np.ndarray:
    """Case estimate: per-row readout outputs averaged over all rows."""
    if x.n_channels != w.n_channels:
        raise ConfigurationError(
            "predict", f"state matrix has {x.n_channels} channels, weight expects {w.n_channels}"
        )
    p = x.values + w.offset
    if w.bias:
        p = np.hstack([np.ones((p.shape[0], 1)), p])
    return (w.matrix @ p.T).mean(axis=1)


@dataclass(frozen=True)
class NmseReport:
    """Per-case normalised squared errors with aggregates."""

    scores: np.ndarray
    mean: float
    median: float
    zero_targets: np.ndarray  # indices where the score was forced to the cap


def nmse(estimates, targets, cap: float = 1.0) -> NmseReport:
    """Normalised mean square error per case, clipped to ``cap``.

    Scalar cases score (est - target)^2 / target^2; vector cases sum the
    squared errors and normalise by n * sum(target^2). An exactly zero
    target denominator scores ``cap`` and is flagged.
    """
    if len(estimates) != len(targets):
        raise MetricError("estimates and targets must have equal length")
    scores = np.empty(len(targets))
    flagged = []
    for i, (e, t) in enumerate(zip(estimates, targets)):
        ev = np.atleast_1d(np.asarray(e, dtype=float))
        tv = np.atleast_1d(np.asarray(t, dtype=float))
        denom = tv.size * float(np.sum(tv**2))
        if denom == 0.0:
            scores[i] = cap
            flagged.append(i)
            continue
        scores[i] = min(cap, float(np.sum((ev - tv) ** 2)) / denom)
    return NmseReport(
        scores=scores,
        mean=float(scores.mean()),
        median=float(np.median(scores)),
        zero_targets=np.asarray(flagged, dtype=int),
    )


def nrmse(estimates, targets) -> float:
    """Root mean square error divided by the target standard deviation."""
    est = np.asarray(estimates, dtype=float)
    tgt = np.asarray(targets, dtype=float)
    if est.shape != tgt.shape or tgt.size < 2:
        raise MetricError("need >= 2 equal-length estimates and targets")
    sigma = float(tgt.std())
    if sigma == 0.0:
        raise MetricError("target set has zero spread; NRMSE undefined")
    rmse = math.sqrt(float(np.mean((est - tgt) ** 2)))
    return rmse / sigma
