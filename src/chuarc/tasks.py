"""Benchmark dataset generators and teacher functions.

Covers concentric-circle classification, polynomial and modulo regression,
two-input time-varying targets, and the LWE encryption/decryption tasks,
plus train/validation splitting and classification scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lwe
from .cells import write_csv
from .errors import ConfigurationError

#: The family of each task kind: its inputs, teachers, case bounds and CSV schema.
FAMILIES = {
    "circles": "circles",
    "polynomial": "line", "modulo": "line", "poly-mod": "line",
    "pair-sum": "pair", "pair-product": "pair", "pair-modlin": "pair",
    "lwe-encrypt": "lwe", "lwe-decrypt": "lwe",
}
TASK_KINDS = tuple(FAMILIES)

#: teacher values used for the two circle classes (class index + 1, keeping
#: targets away from zero so the error metric stays finite)
CLASS_TEACHERS = (1.0, 2.0)

#: the largest pair_max: numpy draws the (pair_max + 1)**2 pair indices as int64
PAIR_MAX_LIMIT = math.isqrt(2**63 - 1) - 1


@dataclass(frozen=True)
class TaskSpec:
    """Benchmark task selector with per-kind parameters."""

    kind: str
    x_range: tuple = (0.1, 3.0)
    modulo_base: float = 1.3
    poly_mod_base: float = 50.0
    pair_max: int = 40
    inner_radius: float = 1.0
    outer_radii: tuple = (1.5, 2.5)

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigurationError("task.kind", f"must be one of {TASK_KINDS}")
        if not 0.0 <= self.x_range[0] < self.x_range[1]:
            raise ConfigurationError("task.x_range", "must be an increasing interval from 0 or above")
        if not 1 <= self.pair_max <= PAIR_MAX_LIMIT:
            raise ConfigurationError("task.pair_max", f"must lie in [1, {PAIR_MAX_LIMIT}]")
        for name in ("modulo_base", "poly_mod_base"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"task.{name}", "modulo bases must be positive")
        if not 0.0 < self.outer_radii[0] < self.outer_radii[1]:
            raise ConfigurationError("task.outer_radii", "must be an increasing positive interval")
        if not 0.0 < self.inner_radius < self.outer_radii[0]:
            raise ConfigurationError("task.inner_radius", "inner disk must sit inside the outer annulus")

    @property
    def is_lwe(self) -> bool:
        """Whether the task encrypts or decrypts LWE messages: only these take an lwe section."""
        return FAMILIES[self.kind] == "lwe"

    def max_cases(self) -> float:
        """The distinct cases the task draws: the (pair_max + 1)**2 pairs of a pair task, else no bound."""
        return (self.pair_max + 1) ** 2 if FAMILIES[self.kind] == "pair" else math.inf

    def check_n_cases(self, n_cases: int) -> None:
        """ConfigurationError (n_cases) outside [1, max_cases()], or [2, ...] for circles' two classes."""
        low, high = (2 if FAMILIES[self.kind] == "circles" else 1), self.max_cases()
        if not low <= n_cases <= high:
            raise ConfigurationError("n_cases", f"{n_cases} outside [{low}, {high}] for {self.kind}")


def polynomial_teacher(x: float) -> float:
    """Degree-9 benchmark polynomial with roots at 0, 1, 2, 3, 4, -1, -2, -3, -10."""
    return x * (x - 4) * (x - 3) * (x - 2) * (x - 1) * (x + 1) * (x + 2) * (x + 3) * (x + 10)


def modulo_teacher(x: float, base: float) -> float:
    """Non-negative remainder of x modulo base."""
    if base <= 0.0:
        raise ConfigurationError("base", "must be positive")
    return x - base * math.floor(x / base)


def pair_teachers(x1: float, x2: float, pair_max: int = 40) -> tuple:
    """(sum, product, mod(2*x2 - x1, 3)) for a two-value input."""
    if not (0 <= x1 <= pair_max and 0 <= x2 <= pair_max):
        raise ConfigurationError("pair", f"inputs must lie in [0, {pair_max}]")
    return (x1 + x2, x1 * x2, modulo_teacher(2.0 * x2 - x1, 3.0))


def concentric_circles(n_points: int, seed: int, inner_radius: float = 1.0,
                       outer_radii: tuple = (1.5, 2.5)) -> tuple:
    """Two-class ring dataset: class 1 inside the inner disk, class 0 on the
    outer annulus. Returns (points (n, 2), labels (n,))."""
    if n_points < 2:
        raise ConfigurationError("n_points", "need at least 2 points")
    rng = np.random.default_rng([seed, 0x63697263])
    labels = np.arange(n_points) % 2
    angles = rng.uniform(0.0, 2.0 * math.pi, n_points)
    radii = np.where(
        labels == 1,
        rng.uniform(0.0, inner_radius, n_points),
        rng.uniform(outer_radii[0], outer_radii[1], n_points),
    )
    points = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return points, labels


def classify(estimate: float) -> int:
    """Nearest-teacher-value rule mapped back to the class label."""
    teachers = np.asarray(CLASS_TEACHERS)
    return int(np.argmin(np.abs(teachers - estimate)))


@dataclass(frozen=True)
class Dataset:
    """Task inputs and teachers with a train/validation split.

    inputs hold raw (unnormalised) value sequences; teachers is one
    (n_cases, n_outputs) float array, from which ``classify`` reads a
    circle's class; value_max is the normalisation ceiling.
    """

    kind: str
    inputs: list
    teachers: np.ndarray
    value_max: float
    train_idx: np.ndarray
    val_idx: np.ndarray

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ConfigurationError("dataset.kind", f"{self.kind!r} is not one of {TASK_KINDS}")
        if self.teachers.ndim != 2 or len(self.teachers) != len(self.inputs):
            raise ConfigurationError("dataset", "teachers must be one (n_cases, n_outputs) array")
        train = set(int(i) for i in self.train_idx)
        val = set(int(i) for i in self.val_idx)
        if len(self.inputs) == 1:
            # single-case interpolation mode: the same case trains and validates
            if train == val == {0}:
                return
        if train & val or train | val != set(range(len(self.inputs))):
            raise ConfigurationError("dataset.split", "split sets must be disjoint and covering")

    @property
    def n_cases(self) -> int:
        return len(self.inputs)

    @property
    def multi_input(self) -> bool:
        """Whether each input coordinate is its own kernel run (classification)
        rather than one value of a time-varying message."""
        return FAMILIES[self.kind] == "circles"


def check_split(n: int, val_fraction: float) -> int:
    """The validation count round(n * val_fraction) of an n-case split: ConfigurationError
    (val_fraction) unless 0 < val_fraction < 1 and, for n > 1, the count lies in [1, n - 1]."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigurationError("val_fraction", "must lie strictly between 0 and 1")
    n_val = int(round(n * val_fraction))
    if n > 1 and not 1 <= n_val <= n - 1:
        raise ConfigurationError("val_fraction", f"degenerate split for {n} cases")
    return n_val


def split_indices(n: int, val_fraction: float, seed: int) -> tuple:
    """Uniform random disjoint partition into (train, val) index arrays.

    A single-case dataset trains and validates on that one case (the
    interpolation sanity check).
    """
    n_val = check_split(n, val_fraction)
    if n == 1:
        return np.array([0]), np.array([0])
    rng = np.random.default_rng([seed, 0x73706C69])
    order = rng.permutation(n)
    return np.sort(order[n_val:]), np.sort(order[:n_val])


def lwe_cases(params: lwe.LweParams, n_cases: int, seed: int) -> tuple:
    """(public key, test cases) of the LWE tasks' dataset for this seed."""
    rng = np.random.default_rng([seed, 0x6C7765])
    pk = lwe.keygen(params, rng)
    return pk, lwe.generate_testcases(params, n_cases, rng, pk=pk)


def build_dataset(spec: TaskSpec, n_cases: int, seed: int, val_fraction: float = 0.2,
                  lwe_params: lwe.LweParams | None = None) -> Dataset:
    """Generate n_cases inputs and teachers for one task kind, reproducibly from the seed."""
    spec.check_n_cases(n_cases)
    kind, family = spec.kind, FAMILIES[spec.kind]

    if family == "line":
        xs = [float(x) for x in np.linspace(spec.x_range[0], spec.x_range[1], n_cases)]
        inputs = [[x] for x in xs]
        ys = xs if kind == "modulo" else [polynomial_teacher(x) for x in xs]
        if not all(map(math.isfinite, ys)):
            raise ConfigurationError("task.x_range", f"the polynomial teacher overflows on {spec.x_range}")
        if kind != "polynomial":
            name = "modulo_base" if kind == "modulo" else "poly_mod_base"
            base = getattr(spec, name)
            # math.floor of an infinite quotient raises OverflowError
            if not all(math.isfinite(y / base) for y in ys):
                raise ConfigurationError(f"task.{name}", f"{base!r} is too small a base for {spec.x_range}")
            ys = [modulo_teacher(y, base) for y in ys]
        teachers = [[y] for y in ys]
        value_max = float(spec.x_range[1])
    elif family == "pair":
        rng = np.random.default_rng([seed, 0x70616972])
        side = spec.pair_max + 1
        chosen = rng.choice(side * side, size=n_cases, replace=False)
        pairs = [(int(c // side), int(c % side)) for c in chosen]
        inputs = [[float(a), float(b)] for a, b in pairs]
        col = {"pair-sum": 0, "pair-product": 1, "pair-modlin": 2}[kind]
        teachers = [[pair_teachers(a, b, spec.pair_max)[col]] for a, b in pairs]
        value_max = float(spec.pair_max)
    elif family == "circles":
        shift = spec.outer_radii[1]
        # each shifted coordinate, and the normalisation ceiling, lies in [0, 2 * shift]
        if not math.isfinite(2.0 * shift):
            raise ConfigurationError("task.outer_radii", f"{shift!r} overflows the input range [0, 2 * radius]")
        points, point_labels = concentric_circles(n_cases, seed, spec.inner_radius, spec.outer_radii)
        inputs = [[float(p[0] + shift), float(p[1] + shift)] for p in points]
        teachers = [[CLASS_TEACHERS[l]] for l in point_labels]
        value_max = 2.0 * shift
    else:
        if lwe_params is None:
            raise ConfigurationError("lwe", f"required for {kind}")
        _, cases = lwe_cases(lwe_params, n_cases, seed)
        if kind == "lwe-encrypt":
            inputs = [list(c.a_samples) + list(c.b_samples) + [c.phi] for c in cases]
            teachers = [[float(c.u), float(c.v)] for c in cases]
        else:
            inputs = [[float(c.u), float(c.v)] for c in cases]
            teachers = [[float(c.decrypt_value)] for c in cases]
        value_max = float(lwe_params.q - 1)

    train_idx, val_idx = split_indices(len(inputs), val_fraction, seed)
    return Dataset(kind=kind, inputs=inputs, teachers=np.array(teachers, dtype=float),
                   value_max=value_max, train_idx=train_idx, val_idx=val_idx)


def confusion_matrix(true_labels, predicted_labels) -> np.ndarray:
    """Counts[i, j] of true class i predicted as class j, over classes 0 and 1."""
    counts = np.zeros((2, 2), dtype=int)
    for t, p in zip(true_labels, predicted_labels):
        counts[int(t), int(p)] += 1
    return counts


def dataset_to_csv(dataset: Dataset, path, config_digest: str | None = None) -> None:
    """Write a task dataset with per-kind headers."""
    family = FAMILIES[dataset.kind]
    inputs = list(zip(*dataset.inputs))
    if family == "line":
        header = ("x", "y_teacher")
        columns = (inputs[0], dataset.teachers[:, 0])
    elif family == "pair":
        header = ("x1", "x2", "sum", "product", "modlin")
        pair_max = int(dataset.value_max)  # build_dataset's spec.pair_max
        targets = zip(*(pair_teachers(inp[0], inp[1], pair_max) for inp in dataset.inputs))
        columns = (inputs[0], inputs[1], *targets)
    elif family == "circles":
        header = ("x", "y", "class")
        classes = [str(classify(t)).encode("ascii") for t in dataset.teachers[:, 0]]
        columns = (inputs[0], inputs[1], classes)
    else:
        raise ConfigurationError("task.kind", f"no CSV schema for {dataset.kind} (use the JSON dataset)")
    write_csv(path, header, columns, config_digest)
