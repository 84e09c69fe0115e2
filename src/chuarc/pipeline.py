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
        if not 0.0 < self.middle_fraction <= 1.0:
            raise ConfigurationError("reservoir.middle_fraction", "must be in (0, 1]")


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
    """Repeat each message value across the mask block: out[i*n+j] = msg[i]*m[j].

    A 2-D ``message`` holds one message per row and is multiplexed row by row.
    """
    msg = np.asarray(message, dtype=float)
    if msg.size == 0:
        raise ConfigurationError("message", "must be nonempty")
    return (msg[..., None] * mask.factors).reshape(*msg.shape[:-1], -1)


def sample_hold(seq, theta: int) -> np.ndarray:
    """Repeat each point theta times, order preserved (an envelope point
    theta times, or a slot level for its samples)."""
    if theta < 1:
        raise ConfigurationError("theta", "must be >= 1")
    return np.repeat(np.asarray(seq, dtype=float), theta)


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


#: Narrowest lane group (cases, times coordinates for multi-input tasks) that
#: runs the lockstep kernel. A lockstep step costs ~50 us of numpy call
#: overhead however few lanes it has, against ~2 us per lane-step for the
#: scalar loop, so narrower groups run faster lane by lane (measured
#: break-even on desk groups on a 2-vCPU VM: 24-32 lanes; 32 leaves a margin
#: for host noise).
LANE_CROSSOVER = 32


def run_case(raw_values, cfg: ReservoirConfig, circuit: ChuaParams, kernel=None) -> StateMatrix:
    """Full input pipeline for one case: ``run_cases`` with a single lane."""
    return run_cases([raw_values], cfg, circuit, kernel=kernel)[0]


def run_cases(cases, cfg: ReservoirConfig, circuit: ChuaParams, per_coordinate: bool = False,
              kernel=None) -> list:
    """Normalise, multiplex, hold and modulate a group of equal-length cases,
    drive the kernel, and demultiplex each case into its state matrix.

    The slot length ``spp`` is set as if a trailing dummy value of 0 followed
    every lane's message, but the dummy is never driven: every backend
    integrates exactly the n_values * n_mask * spp steps of the real message.
    With ``per_coordinate`` each coordinate of a case drives its own lane and
    the case's state matrix concatenates the coordinates' channels. Lane k is
    driven at step s by levels[s // spp, k] * carrier[s], and the kept taps
    fill one (case, row, coordinate, channel) array, so each case's values are
    a view of it.

    Groups of at least LANE_CROSSOVER lanes run as lanes of one lockstep
    kernel; narrower groups, ``use_envelope`` runs and a ``kernel`` override
    run lane by lane through the scalar kernel. Both give the same bits. A
    ``kernel(drive, circuit, dt) -> Trace`` override receives the drive of the
    real message only (n_values * n_mask * spp samples) and must return at
    least that many samples per tap. A lane that turns non-finite within the
    integrated steps raises IntegrationError naming the lowest failing case
    and the step of its scalar run.
    """
    cases = [list(raw) for raw in cases]
    if not cases or len({len(raw) for raw in cases}) != 1:
        raise ConfigurationError("cases", "cases must be nonempty and of equal length")
    if not cases[0]:
        raise ConfigurationError("raw_values", "must be nonempty")
    lanes = [[x] for raw in cases for x in raw] if per_coordinate else cases
    n_cases, n_lanes, n_values = len(cases), len(lanes), len(lanes[0])
    n_coords = n_lanes // n_cases
    n_mask = cfg.n_mask
    dt = 1.0 / cfg.sample_rate

    levels = np.ascontiguousarray(multiplex(normalize(lanes, cfg), make_mask(cfg)).T)  # (slot, lane)
    spp = cfg.theta * samples_per_envelope_point((n_values + 1) * n_mask * cfg.theta, cfg)
    n_real = n_values * n_mask * spp
    carrier = carrier_wave(n_real, cfg)
    n_keep, lo = _slot_window(spp, cfg.middle_fraction)
    out = np.empty((n_cases, n_values * n_keep, n_coords, 2 * n_mask))

    def scalar(lane):
        case, coord = divmod(lane, n_coords)
        drive = DriveSignal(sample_hold(levels[:, lane], spp) * carrier, cfg.sample_rate)
        try:
            trace = (kernel or _chua_kernel)(drive, circuit, dt)
        except IntegrationError as exc:
            raise IntegrationError(exc.step_index, case_index=case) from None
        channels = trace.channels[:, :n_real]
        if cfg.use_envelope:
            half_period = max(1, int(round(cfg.sample_rate / (2.0 * cfg.f_carrier))))
            channels = np.vstack([envelope_extract(ch, half_period)[0] for ch in channels])
        trimmed = Trace(dt=dt, tap_names=trace.tap_names, channels=channels)
        out[case, :, coord] = demultiplex(trimmed, n_values, n_mask, cfg.middle_fraction).values

    if kernel is not None or cfg.use_envelope or n_lanes < LANE_CROSSOVER:
        for lane in range(n_lanes):
            scalar(lane)
    else:
        offset = np.arange(n_real) % spp
        keep = ((offset >= lo) & (offset < lo + n_keep)).tolist()

        def sink(step, v_cd, v_l):
            slot, off = divmod(step, spp)
            value, j = divmod(slot, n_mask)
            row = out[:, value * n_keep + off - lo]
            row[:, :, j] = v_cd.reshape(n_cases, n_coords)
            row[:, :, n_mask + j] = v_l.reshape(n_cases, n_coords)

        finite = integrate_lanes(circuit, DEFAULT_INITIAL_STATE, levels, carrier, dt, keep, sink)
        if not finite.all():
            lane = int(np.flatnonzero(~finite)[0])
            scalar(lane)
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


#: Byte budget of the buffers the readout fills per block of cases: the rows
#: of each case with the bias column, plus the caller's per-case arrays (the
#: Grams in train_readout). A block always holds at least one case.
READOUT_BLOCK_BYTES = 1 << 18


def _row_blocks(states, bias: bool, offset: float, case_bytes: int = 0):
    """Consecutive equally shaped states as (start, rows) blocks.

    ``rows`` is an (n, n_rows, bias + n_channels) view of one reused buffer:
    per case and row, the constant 1 when ``bias`` (set once per buffer) and
    then the channel values + offset, exactly the rows a lone case builds.
    """
    k = 1 if bias else 0
    buf, start = None, 0
    while start < len(states):
        shape = states[start].values.shape
        size = max(1, READOUT_BLOCK_BYTES // (8 * shape[0] * (k + shape[1]) + case_bytes))
        stop = start + 1
        while stop < min(len(states), start + size) and states[stop].values.shape == shape:
            stop += 1
        if buf is None or buf.shape != (size, shape[0], k + shape[1]):
            buf = np.empty((size, shape[0], k + shape[1]))
            buf[:, :, :k] = 1.0
        rows = buf[:stop - start]
        for j in range(stop - start):
            np.add(states[start + j].values, offset, out=rows[j, :, k:])
        yield start, rows
        start = stop


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
    leaves the bias row/column unregularised. The Grams of a block of cases
    are formed in one call and added case by case, so the sums have the bits
    of a case-by-case accumulation.
    """
    cases = list(cases)
    if not cases:
        raise ConfigurationError("cases", "at least one training case required")
    states = [sm for sm, _ in cases]
    teachers = [np.atleast_1d(np.asarray(teacher, dtype=float)) for _, teacher in cases]
    n_ch, n_out = states[0].n_channels, teachers[0].size
    for sm, y in zip(states, teachers):
        if sm.n_channels != n_ch:
            raise ConfigurationError("cases", "all cases must share the channel count")
        if y.size != n_out:
            raise ConfigurationError("cases", "all teachers must share the output count")
    d = n_ch + (1 if bias else 0)
    xx = np.zeros((d, d))
    yy = np.zeros((n_out, d))
    grams = np.empty((0, d, d))
    for start, rows in _row_blocks(states, bias, offset, 8 * d * d):
        if len(grams) < len(rows):
            grams = np.empty((len(rows), d, d))
        gram = np.matmul(rows.transpose(0, 2, 1), rows, out=grams[:len(rows)])
        sums = rows.sum(axis=1)
        for j in range(len(rows)):
            xx += gram[j]
            yy += teachers[start + j][:, None] * sums[j][None, :]
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


def predict(w: ReadoutWeight, x) -> np.ndarray:
    """Case estimates: per-row readout outputs averaged over each case's rows.

    ``x`` is one StateMatrix, giving an (n_outputs,) estimate, or a sequence
    of them, giving (n_cases, n_outputs). Each estimate has the bits of its
    case predicted alone.
    """
    states = [x] if isinstance(x, StateMatrix) else list(x)
    for sm in states:
        if sm.n_channels != w.n_channels:
            raise ConfigurationError(
                "predict",
                f"state matrix has {sm.n_channels} channels, weight expects {w.n_channels}",
            )
    estimates = np.empty((len(states), w.n_outputs))
    for start, rows in _row_blocks(states, w.bias, w.offset):
        outputs = np.matmul(w.matrix, rows.transpose(0, 2, 1))
        estimates[start:start + len(rows)] = outputs.mean(axis=2)
    return estimates[0] if isinstance(x, StateMatrix) else estimates


@dataclass(frozen=True)
class NmseReport:
    """Per-case normalised squared errors with aggregates."""

    scores: np.ndarray
    mean: float
    median: float
    zero_targets: np.ndarray  # indices where the score was forced to the cap


def _per_case(values) -> np.ndarray:
    """(n_cases, n_outputs) floats from per-case scalars or equal-length vectors."""
    return np.atleast_2d(np.asarray(values, dtype=float).T).T


def nmse(estimates, targets, cap: float = 1.0) -> NmseReport:
    """Normalised mean square error per case, clipped to ``cap``.

    Scalar cases score (est - target)^2 / target^2; vector cases sum the
    squared errors and normalise by n * sum(target^2). An exactly zero
    target denominator scores ``cap`` and is flagged. Each case scores from
    its own row, with the bits of a case scored alone.
    """
    if len(estimates) != len(targets):
        raise MetricError("estimates and targets must have equal length")
    est, tgt = _per_case(estimates), _per_case(targets)
    denom = tgt.shape[1] * np.sum(tgt**2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.sum((est - tgt) ** 2, axis=1) / denom
    # a zero denominator or a tiny target gives an infinite or NaN ratio; like
    # min(cap, ratio), `ratio < cap` is false for both, so they score the cap
    scores = np.where(ratio < cap, ratio, float(cap))
    return NmseReport(
        scores=scores,
        mean=float(scores.mean()),
        median=_median(scores),
        zero_targets=np.flatnonzero(denom == 0.0),
    )


def _median(x: np.ndarray) -> float:
    """np.median of a NaN-free 1-D array, bit for bit, without the import of
    numpy.ma that np.median makes on its first call."""
    if not x.size:
        return math.nan
    s, half = np.sort(x), x.size // 2
    return float(s[half] if x.size % 2 else (s[half - 1] + s[half]) / 2.0)


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
