"""Time-multiplexed reservoir pipeline around the circuit kernel.

Input values are normalised into a voltage window, multiplexed with a
near-unity random mask, sample-held, and amplitude-modulated onto a fixed
carrier. The kernel's (tap, sample) channels are demultiplexed back into
one channel per (tap, mask) pair, and a linear readout with a bias column
is trained by accumulated least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import DEFAULT_INITIAL_STATE, ChuaParams, integrate, integrate_lanes
from .errors import ConfigurationError, IntegrationError

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
        if self.use_envelope:
            raise ConfigurationError("reservoir.use_envelope", "must be false (kept for the config digest)")


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
    # a NaN fails both comparisons, so it is rejected with the out-of-range values
    if not np.all((x >= 0.0) & (x <= cfg.value_max)):
        raise ConfigurationError("values", f"must lie in [0, {cfg.value_max}]")
    return cfg.v_min + (x / cfg.value_max) * (cfg.v_max - cfg.v_min)


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

    values: np.ndarray  # (n_rows, n_channels) volts

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 2:
            raise ConfigurationError("state", "must be a rectangular matrix")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


def demultiplex(channels, n_values: int, n_mask: int, middle_fraction: float = 0.8) -> StateMatrix:
    """Regroup a (tap, sample) channels array into per-(tap, mask) channels.

    Each tap must contain exactly n_values*n_mask equal slots (value-major
    mask blocks); from every slot the central middle_fraction of samples is
    kept. An array that is not 2-D, or a slot/sample mismatch, raises
    ConfigurationError (trace).
    """
    channels = np.asarray(channels, dtype=float)
    if channels.ndim != 2:
        raise ConfigurationError("trace", f"must be a (tap, sample) array, got shape {channels.shape}")
    n_slots = n_values * n_mask
    n = channels.shape[1]
    if n_slots <= 0 or n % n_slots != 0:
        raise ConfigurationError("trace", f"{n} samples do not divide into {n_slots} slots"
                                          f" ({n_values} values x {n_mask} masks)")
    spp = n // n_slots
    n_keep, lo = _slot_window(spp, middle_fraction)
    out = np.empty((n_values * n_keep, len(channels) * n_mask))
    for k, samples in enumerate(channels):
        # (n_values, n_mask, spp) -> kept window -> channels stacked per mask
        blocks = samples.reshape(n_values, n_mask, spp)[:, :, lo:lo + n_keep]
        out[:, k * n_mask:(k + 1) * n_mask] = blocks.transpose(0, 2, 1).reshape(
            n_values * n_keep, n_mask
        )
    return StateMatrix(out)


def _slot_window(spp: int, middle_fraction: float) -> tuple:
    """(n_keep, lo): the central middle_fraction of a slot of spp samples."""
    n_keep = max(1, int(round(spp * middle_fraction)))
    return n_keep, (spp - n_keep) // 2


def _passthrough_kernel(drive: np.ndarray, circuit: ChuaParams, dt: float) -> np.ndarray:
    """Identity kernel for pipeline algebra checks: both taps echo the drive."""
    return np.vstack([drive, drive])


#: Narrowest lane group (cases, times coordinates for multi-input tasks) that
#: runs the lockstep kernel. A lockstep step costs ~50 us of numpy call
#: overhead however few lanes it has, against ~2 us per lane-step for the
#: scalar loop, so narrower groups run faster lane by lane (measured
#: break-even on desk groups on a 2-vCPU VM: 24-32 lanes; 32 leaves a margin
#: for host noise).
LANE_CROSSOVER = 32

#: Byte budget of three buffers: the lockstep sink's slab (the kept taps of
#: a value's prefixes, whole slots or rows of one slot, at least one row of
#: every prefix), each copy of a value's taps from a prefix's first lane to its
#: other lanes, and the readout's blocks of cases (their rows with the bias
#: column, plus the Grams in train_readout; at least one case).
BUFFER_BYTES = 1 << 18


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
    driven at step s by the multiplexed message's level s // spp times
    carrier[s], and the kept taps fill one (case, row, coordinate, channel)
    array, so each case's values are a view of it.

    Groups of at least LANE_CROSSOVER lanes run as lanes of one lockstep
    kernel, value by value: lanes whose messages share a prefix share its
    states bit for bit, so each value integrates one lane per distinct
    (prefix, value) pair, from the end state of its prefix, and its kept taps
    are copied to every lane of that prefix through a slab of at most
    BUFFER_BYTES. Narrower groups and a ``kernel`` override run lane by lane
    through the scalar kernel. Both give the same bits. A
    ``kernel(drive, circuit, dt)`` override receives the 1-D drive of the real
    message only (n_values * n_mask * spp samples) and must return a
    (2, >= that many) channels array, rows in the order of circuit.TAPS. A
    lane that turns non-finite within the integrated steps raises
    IntegrationError naming the lowest failing case and the step of its
    scalar run.
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

    messages = normalize(lanes, cfg)  # (lane, value)
    mask = make_mask(cfg)
    spp = cfg.theta * samples_per_envelope_point((n_values + 1) * n_mask * cfg.theta, cfg)
    n_real = n_values * n_mask * spp
    carrier = carrier_wave(n_real, cfg)
    n_keep, lo = _slot_window(spp, cfg.middle_fraction)
    out = np.empty((n_cases, n_values * n_keep, n_coords, 2 * n_mask))

    def scalar(lane):
        case, coord = divmod(lane, n_coords)
        levels = multiplex(messages[lane], mask)
        drive = sample_hold(levels, spp) * carrier
        try:
            channels = (integrate(circuit, DEFAULT_INITIAL_STATE, drive, n_real * dt, dt).channels
                        if kernel is None else np.asarray(kernel(drive, circuit, dt), dtype=float))
        except IntegrationError as exc:
            raise IntegrationError(exc.step_index, case_index=case) from None
        if channels.ndim != 2 or channels.shape[0] != 2 or channels.shape[1] < n_real:
            raise ConfigurationError("trace", f"the kernel must return a (2, >= {n_real}) array,"
                                              f" got shape {channels.shape}")
        out[case, :, coord] = demultiplex(channels[:, :n_real], n_values, n_mask,
                                          cfg.middle_fraction).values

    if kernel is not None or n_lanes < LANE_CROSSOVER:
        for lane in range(n_lanes):
            scalar(lane)
    else:
        finite = _run_prefixes(messages, mask, circuit, carrier, dt, spp, (n_keep, lo),
                               out.reshape(n_cases, n_values, n_keep, n_coords, 2, n_mask))
        if not finite.all():
            lane = int(np.flatnonzero(~finite)[0])
            scalar(lane)
            raise AssertionError(f"lane {lane} diverged but its scalar rerun did not")

    values = out.reshape(n_cases, n_values * n_keep, -1)
    return [StateMatrix(v) for v in values]


def _run_prefixes(messages, mask: Mask, circuit: ChuaParams, carrier, dt: float, spp: int,
                  window: tuple, out) -> np.ndarray:
    """The lockstep branch of ``run_cases``: walk the prefix tree of the lanes'
    (lane, value) ``messages`` one value at a time, fill ``out``, viewed as
    (case, value, kept step, coordinate, tap, slot), and return which lanes
    ended finite.

    A prefix is keyed by its parent prefix and the bit pattern of the value's
    normalised level, so the lanes of one prefix hold bit-identical states.
    The kept taps of a value's prefixes go to a slab, which is copied into
    the prefixes' first lanes when it is full and at the end of the value;
    the other lanes of each prefix then copy the value's block from its first
    lane.
    """
    n_lanes, n_values = messages.shape
    n_coords, n_mask = out.shape[3], len(mask)
    n_keep, lo = window
    steps = n_mask * spp
    keep = [lo <= s % spp < lo + n_keep for s in range(steps)]
    s0 = DEFAULT_INITIAL_STATE
    state = np.array([[s0.v_c2], [s0.v_c1], [s0.i_l]])  # (3, prefix)
    prefix = np.zeros(n_lanes, dtype=np.int64)  # lane -> prefix of its values so far
    # the slab holds whole slots, or rows of one slot, at 2 taps x 8 bytes per
    # row and prefix; a copy between lanes moves 2 taps x 8 bytes per kept
    # step and slot
    block_rows = max(1, BUFFER_BYTES // (16 * n_lanes))
    rows_per, slots_per = min(n_keep, block_rows), max(1, min(n_mask, block_rows // n_keep))
    slab = np.empty(slots_per * rows_per * 2 * n_lanes)
    block_lanes = max(1, BUFFER_BYTES // (16 * n_keep * n_mask))
    lanes = np.arange(n_lanes)

    for k in range(n_values):
        _, level = np.unique(np.ascontiguousarray(messages[:, k]).view(np.int64),
                             return_inverse=True)
        _, first, lane_prefix = np.unique(prefix * n_lanes + level.reshape(-1),
                                          return_index=True, return_inverse=True)
        parent, prefix, n_prefix = prefix[first], lane_prefix.reshape(-1), first.size
        case, coord = np.divmod(first, n_coords)
        levels = np.ascontiguousarray(multiplex(messages[first, k, None], mask).T)
        taps = slab[:slots_per * rows_per * 2 * n_prefix].reshape(-1, 2, n_prefix)

        def flush(j0, j1, r0, r1):
            rows = taps[:(j1 - j0) * (r1 - r0)].reshape(j1 - j0, r1 - r0, 2, n_prefix)
            out[case, k, r0:r1, coord, :, j0:j1] = rows.transpose(3, 1, 2, 0)

        def sink(step, v_cd, v_l):
            slot, row = divmod(step, spp)
            row -= lo
            j, r = slot % slots_per, row % rows_per
            taps[j * rows_per + r, 0] = v_cd
            taps[j * rows_per + r, 1] = v_l
            if ((r == rows_per - 1 or row == n_keep - 1)
                    and (j == slots_per - 1 or slot == n_mask - 1)):
                flush(slot - j, slot + 1, row - r, row + 1)

        state = integrate_lanes(circuit, state[:, parent], levels,
                                carrier[k * steps:(k + 1) * steps], dt, keep, sink)
        # every other lane of a prefix copies the value's taps of its first lane
        copies = np.flatnonzero(first[prefix] != lanes)
        for b in range(0, copies.size, block_lanes):
            dst = np.divmod(copies[b:b + block_lanes], n_coords)
            src = np.divmod(first[prefix[copies[b:b + block_lanes]]], n_coords)
            out[dst[0], k, :, dst[1]] = out[src[0], k, :, src[1]]
    return np.isfinite(state).all(axis=0)[prefix]


@dataclass(frozen=True)
class ReadoutWeight:
    """Trained linear readout.

    matrix has one row per output; column 0 multiplies the constant 1 and
    the remaining columns the channel voltages.
    """

    matrix: np.ndarray  # (n_outputs, 1 + n_channels)
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
        return self.matrix.shape[1] - 1


def _shape(states, field: str) -> tuple:
    """The (n_rows, n_channels) of all ``states``, else ConfigurationError naming ``field``."""
    shapes = {sm.values.shape for sm in states}
    if len(shapes) != 1:
        raise ConfigurationError(field, f"states must share one (n_rows, n_channels), got {sorted(shapes)}")
    return shapes.pop()


def _row_blocks(states, case_bytes: int = 0):
    """States of one shape as (start, rows) blocks of consecutive cases.

    ``rows`` is an (n, n_rows, 1 + n_channels) view of one buffer sized from
    BUFFER_BYTES: per case and row, the constant 1 and then the channel
    values, exactly the rows a lone case builds.
    """
    n_rows, n_ch = states[0].values.shape
    size = max(1, BUFFER_BYTES // (8 * n_rows * (1 + n_ch) + case_bytes))
    buf = np.empty((min(size, len(states)), n_rows, 1 + n_ch))
    buf[:, :, 0] = 1.0
    for start in range(0, len(states), size):
        rows = buf[:len(states) - start]
        for j, sm in enumerate(states[start:start + size]):
            rows[j, :, 1:] = sm.values
        yield start, rows


def train_readout(cases, seed: int = 0, config_digest: str = "") -> ReadoutWeight:
    """Fit the readout on (StateMatrix, teacher) pairs by accumulated least squares.

    Every timestep row p (the constant 1, then the channel voltages)
    contributes p p^T to the Gram accumulator and teacher * p^T to the
    cross accumulator, in fixed case-then-row order. The weight solves
    XX W^T = YY^T by minimum-norm least squares. The states share one shape;
    the Grams of a block of cases are formed in one call and added case by
    case, so the sums have the bits of a case-by-case accumulation.
    """
    cases = list(cases)
    if not cases:
        raise ConfigurationError("cases", "at least one training case required")
    states = [sm for sm, _ in cases]
    teachers = [np.atleast_1d(np.asarray(teacher, dtype=float)) for _, teacher in cases]
    d, n_out = 1 + _shape(states, "cases")[1], teachers[0].size
    if len({y.size for y in teachers}) != 1:
        raise ConfigurationError("cases", "all teachers must share the output count")
    xx, yy, grams = np.zeros((d, d)), np.zeros((n_out, d)), None
    for start, rows in _row_blocks(states, 8 * d * d):
        if grams is None:  # the first block is the largest
            grams = np.empty((len(rows), d, d))
        gram = np.matmul(rows.transpose(0, 2, 1), rows, out=grams[:len(rows)])
        sums = rows.sum(axis=1)
        for j in range(len(rows)):
            xx += gram[j]
            yy += teachers[start + j][:, None] * sums[j][None, :]
    solution, *_ = np.linalg.lstsq(xx, yy.T, rcond=None)
    return ReadoutWeight(matrix=solution.T, seed=seed, config_digest=config_digest)


def predict(w: ReadoutWeight, states) -> np.ndarray:
    """Case estimates: per-row readout outputs averaged over each case's rows.

    ``states`` is a sequence of StateMatrix of one shape, giving (n_cases,
    n_outputs). Each estimate has the bits of its case predicted alone.
    """
    states = list(states)
    estimates = np.empty((len(states), w.n_outputs))
    if not states:
        return estimates
    n_ch = _shape(states, "predict")[1]
    if n_ch != w.n_channels:
        raise ConfigurationError(
            "predict", f"state matrix has {n_ch} channels, weight expects {w.n_channels}")
    for start, rows in _row_blocks(states):
        outputs = np.matmul(w.matrix, rows.transpose(0, 2, 1))
        estimates[start:start + len(rows)] = outputs.mean(axis=2)
    return estimates


@dataclass(frozen=True)
class NmseReport:
    """Per-case normalised squared errors with aggregates."""

    scores: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.scores.mean())

    @property
    def median(self) -> float:
        return _median(self.scores)


def _per_case(values) -> np.ndarray:
    """(n_cases, n_outputs) floats from per-case scalars or equal-length vectors."""
    return np.atleast_2d(np.asarray(values, dtype=float).T).T


def nmse(estimates, targets) -> NmseReport:
    """Normalised mean square error per case, capped at 1.

    Scalar cases score (est - target)^2 / target^2; vector cases sum the
    squared errors and normalise by n * sum(target^2). An exactly zero
    target denominator scores 1. Each case scores from its own row, with
    the bits of a case scored alone.
    """
    est, tgt = _per_case(estimates), _per_case(targets)
    if est.shape != tgt.shape:
        raise ConfigurationError("estimates", f"shape {est.shape} differs from the targets' {tgt.shape}")
    denom = tgt.shape[1] * np.sum(tgt**2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.sum((est - tgt) ** 2, axis=1) / denom
    # a zero denominator or a tiny target gives an infinite or NaN ratio; like
    # min(1.0, ratio), `ratio < 1.0` is false for both, so they score the cap
    scores = np.where(ratio < 1.0, ratio, 1.0)
    return NmseReport(scores)


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
        raise ConfigurationError("targets", "need >= 2, of the estimates' length")
    sigma = float(tgt.std())
    if sigma == 0.0:
        raise ConfigurationError("targets", "zero spread; NRMSE undefined")
    rmse = math.sqrt(float(np.mean((est - tgt) ** 2)))
    return rmse / sigma
