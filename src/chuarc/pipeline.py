"""Time-multiplexed reservoir pipeline around the circuit kernel.

Input values are normalised into a voltage window, multiplexed with a
near-unity random mask, sample-held, and amplitude-modulated onto a fixed
carrier. The kernel's (tap, sample) channels are demultiplexed back into
one channel per (tap, mask) pair, and a linear readout with a bias column
is trained by accumulated least squares.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

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
    column per (tap, mask) channel, tap-major.

    The matrix is held as 2-D blocks stacked along ``axis`` (0: rows, 1:
    columns). ``run_cases`` gives a case one block per value or coordinate,
    which cases with a shared message prefix hold as one object, and
    ``values`` stacks them on demand; ``shape`` is the stack's, set once.
    """

    blocks: tuple  # 2-D volts, stacked along axis
    axis: int

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=float) for b in self.blocks)
        if not blocks or {b.ndim for b in blocks} != {2} or len({b.shape[1 - self.axis]
                                                                 for b in blocks}) != 1:
            raise ConfigurationError("state", "must be a rectangular matrix")
        shape = list(blocks[0].shape)
        shape[self.axis] = sum(b.shape[self.axis] for b in blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "shape", tuple(shape))

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_channels(self) -> int:
        return self.shape[1]

    @property
    def values(self) -> np.ndarray:  # (n_rows, n_channels)
        return np.concatenate(self.blocks, axis=self.axis)


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
    return StateMatrix((out,), 0)


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
    carrier[s]. Each lane's kept taps are 2-D (kept step, channel) blocks
    stacked along rows, and a case's StateMatrix holds the blocks of its
    lanes: stacked along rows, or along columns with ``per_coordinate``.

    Groups of at least LANE_CROSSOVER lanes run as lanes of one lockstep
    kernel, value by value: lanes whose messages share a prefix share its
    states bit for bit, so each value is one kernel call with one lane per
    distinct (prefix, value) pair, from the end state of its prefix, which
    writes the kept taps straight into one stored block per pair that every
    lane of the prefix holds (``_run_prefixes``).
    Narrower groups and a ``kernel`` override run lane by lane through the
    scalar kernel, one block per lane. Both give the same bits. A
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
    blocks = [[] for _ in range(n_lanes)]  # lane -> its blocks, stacked along rows

    def scalar(lane):
        levels = multiplex(messages[lane], mask)
        drive = sample_hold(levels, spp) * carrier
        try:
            channels = (integrate(circuit, DEFAULT_INITIAL_STATE, drive, n_real * dt, dt).channels
                        if kernel is None else np.asarray(kernel(drive, circuit, dt), dtype=float))
        except IntegrationError as exc:
            raise IntegrationError(exc.step_index, case_index=lane // n_coords) from None
        if channels.ndim != 2 or channels.shape[0] != 2 or channels.shape[1] < n_real:
            raise ConfigurationError("trace", f"the kernel must return a (2, >= {n_real}) array,"
                                              f" got shape {channels.shape}")
        blocks[lane] += demultiplex(channels[:, :n_real], n_values, n_mask,
                                    cfg.middle_fraction).blocks

    if kernel is not None or n_lanes < LANE_CROSSOVER:
        for lane in range(n_lanes):
            scalar(lane)
    else:
        finite = _run_prefixes(messages, mask, circuit, carrier, dt, (n_keep, lo), blocks)
        if not finite.all():
            lane = int(np.flatnonzero(~finite)[0])
            scalar(lane)
            raise AssertionError(f"lane {lane} diverged but its scalar rerun did not")

    return [StateMatrix([b for lane in blocks[c * n_coords:(c + 1) * n_coords] for b in lane],
                        int(per_coordinate)) for c in range(n_cases)]


def _run_prefixes(messages, mask: Mask, circuit: ChuaParams, carrier, dt: float, window: tuple,
                  blocks: list) -> np.ndarray:
    """The lockstep branch of ``run_cases``: walk the prefix tree of the lanes'
    (lane, value) ``messages`` one value at a time, append each lane's block of
    the value to ``blocks[lane]``, and return which lanes ended finite.

    A prefix is keyed by its parent prefix and the bit pattern of the value's
    normalised level, so the lanes of one prefix hold bit-identical states.
    Each value stores the kept taps of its prefixes once, as a (prefix, kept
    step, tap, slot) array, which one kernel call fills through its (slot,
    kept step, tap, prefix) transpose. Every lane of a prefix then appends
    the same view object of the prefix's block, so the block is also pickled
    once with the lanes that share it.
    """
    n_lanes, n_values = messages.shape
    n_mask = len(mask)
    n_keep, lo = window
    carrier = carrier.reshape(n_values, -1)  # (value, step)
    state = np.array(astuple(DEFAULT_INITIAL_STATE))[:, None]  # (3, prefix)
    prefix = np.zeros(n_lanes, dtype=np.int64)  # lane -> prefix of its values so far

    for k in range(n_values):
        _, level = np.unique(np.ascontiguousarray(messages[:, k]).view(np.int64),
                             return_inverse=True)
        _, first, lane_prefix = np.unique(prefix * n_lanes + level.reshape(-1),
                                          return_index=True, return_inverse=True)
        parent, prefix, n_prefix = prefix[first], lane_prefix.reshape(-1), first.size
        levels = np.ascontiguousarray(multiplex(messages[first, k, None], mask).T)
        store = np.empty((n_prefix, n_keep, 2, n_mask))
        state = integrate_lanes(circuit, state[:, parent], levels, carrier[k], dt, lo,
                                store.transpose(3, 1, 2, 0))
        views = list(store.reshape(n_prefix, n_keep, 2 * n_mask))
        for lane, p in enumerate(prefix.tolist()):
            blocks[lane].append(views[p])
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
    shapes = {sm.shape for sm in states}
    if len(shapes) != 1:
        raise ConfigurationError(field, f"states must share one (n_rows, n_channels), got {sorted(shapes)}")
    return shapes.pop()


def _rows(states):
    """Each of ``states`` (one shape) as its rows, in one reused (n_rows,
    1 + n_channels) buffer: per row the constant 1, then the channel values."""
    n_rows, n_ch = states[0].shape
    rows = np.empty((n_rows, 1 + n_ch))
    rows[:, 0] = 1.0
    for sm in states:
        np.concatenate(sm.blocks, axis=sm.axis, out=rows[:, 1:])
        yield rows


def train_readout(cases, seed: int = 0, config_digest: str = "") -> ReadoutWeight:
    """Fit the readout on (StateMatrix, teacher) pairs by accumulated least squares.

    Every timestep row p (the constant 1, then the channel voltages)
    contributes p p^T to the Gram accumulator and teacher * p^T to the
    cross accumulator, case by case in the order given. The weight solves
    XX W^T = YY^T by minimum-norm least squares. The states share one shape.
    """
    cases = list(cases)
    if not cases:
        raise ConfigurationError("cases", "at least one training case required")
    states = [sm for sm, _ in cases]
    teachers = [np.atleast_1d(np.asarray(teacher, dtype=float)) for _, teacher in cases]
    d, n_out = 1 + _shape(states, "cases")[1], teachers[0].size
    if len({y.size for y in teachers}) != 1:
        raise ConfigurationError("cases", "all teachers must share the output count")
    xx, yy = np.zeros((d, d)), np.zeros((n_out, d))
    for rows, teacher in zip(_rows(states), teachers):
        xx += rows.T @ rows
        yy += teacher[:, None] * rows.sum(axis=0)[None, :]
    solution, *_ = np.linalg.lstsq(xx, yy.T, rcond=None)
    return ReadoutWeight(matrix=solution.T, seed=seed, config_digest=config_digest)


def predict(w: ReadoutWeight, states) -> np.ndarray:
    """Case estimates: per-row readout outputs averaged over each case's rows.

    ``states`` is a sequence of StateMatrix of one shape, giving (n_cases,
    n_outputs), one case at a time.
    """
    states = list(states)
    estimates = np.empty((len(states), w.n_outputs))
    if not states:
        return estimates
    n_ch = _shape(states, "predict")[1]
    if n_ch != w.n_channels:
        raise ConfigurationError(
            "predict", f"state matrix has {n_ch} channels, weight expects {w.n_channels}")
    for j, rows in enumerate(_rows(states)):
        estimates[j] = (w.matrix @ rows.T).mean(axis=1)
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
