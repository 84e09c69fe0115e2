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
from .cells import repr_cells, text_cells, write_csv
from .errors import ConfigurationError, InputDomainError

TASK_KINDS = (
    "circles",
    "polynomial",
    "modulo",
    "poly-mod",
    "pair-sum",
    "pair-product",
    "pair-modlin",
    "lwe-encrypt",
    "lwe-decrypt",
)

#: teacher values used for the two circle classes (class index + 1, keeping
#: targets away from zero so the error metric stays finite)
CLASS_TEACHERS = (1.0, 2.0)


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
        if self.x_range[0] >= self.x_range[1]:
            raise ConfigurationError("task.x_range", "must be an increasing interval")
        for name in ("modulo_base", "poly_mod_base"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"task.{name}", "modulo bases must be positive")
        if not 0.0 < self.outer_radii[0] < self.outer_radii[1]:
            raise ConfigurationError("task.outer_radii", "must be an increasing positive interval")
        if not 0.0 < self.inner_radius < self.outer_radii[0]:
            raise ConfigurationError("task.inner_radius", "inner disk must sit inside the outer annulus")


def polynomial_teacher(x: float) -> float:
    """Degree-9 benchmark polynomial with roots at 0, 1, 2, 3, 4, -1, -2, -3, -10."""
    return x * (x - 4) * (x - 3) * (x - 2) * (x - 1) * (x + 1) * (x + 2) * (x + 3) * (x + 10)


def modulo_teacher(x: float, base: float) -> float:
    """Non-negative remainder of x modulo base."""
    if base <= 0.0:
        raise ConfigurationError("base", "must be positive")
    return x - base * math.floor(x / base)


def poly_mod_teacher(x: float, base: float = 50.0) -> float:
    """Benchmark polynomial folded into [0, base)."""
    return modulo_teacher(polynomial_teacher(x), base)


def pair_teachers(x1: float, x2: float, pair_max: int = 40) -> tuple:
    """(sum, product, mod(2*x2 - x1, 3)) for a two-value input."""
    if not (0 <= x1 <= pair_max and 0 <= x2 <= pair_max):
        raise InputDomainError(f"pair inputs must lie in [0, {pair_max}]")
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


def class_teacher(label: int) -> float:
    """Teacher value for a class label (label + 1)."""
    return CLASS_TEACHERS[int(label)]


def classify(estimate: float) -> int:
    """Nearest-teacher-value rule mapped back to the class label."""
    teachers = np.asarray(CLASS_TEACHERS)
    return int(np.argmin(np.abs(teachers - estimate)))


@dataclass(frozen=True)
class Dataset:
    """Task inputs and teachers with a train/validation split.

    inputs hold raw (unnormalised) value sequences; teachers is one
    (n_cases, n_outputs) float array; value_max is the normalisation
    ceiling; multi_input marks per-coordinate kernel runs (classification)
    rather than one time-varying message.
    """

    kind: str
    inputs: list
    teachers: np.ndarray
    value_max: float
    train_idx: np.ndarray
    val_idx: np.ndarray
    multi_input: bool = False
    labels: list | None = None

    def __post_init__(self):
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


def split_indices(n: int, val_fraction: float, seed: int) -> tuple:
    """Uniform random disjoint partition into (train, val) index arrays.

    A single-case dataset trains and validates on that one case (the
    interpolation sanity check).
    """
    if not 0.0 < val_fraction < 1.0:
        raise ConfigurationError("val_fraction", "must lie strictly between 0 and 1")
    if n == 1:
        return np.array([0]), np.array([0])
    n_val = int(round(n * val_fraction))
    if n_val == 0 or n_val == n:
        raise ConfigurationError("val_fraction", f"degenerate split for {n} cases")
    rng = np.random.default_rng([seed, 0x73706C69])
    order = rng.permutation(n)
    return np.sort(order[n_val:]), np.sort(order[:n_val])


def lwe_cases(params: lwe.LweParams, n_cases: int, seed: int) -> tuple:
    """(public key, test cases) of the LWE tasks' dataset for this seed."""
    rng = np.random.default_rng([seed, 0x6C7765])
    pk = lwe.keygen(params, rng)
    return pk, lwe.generate_testcases(params, n_cases, rng, pk=pk)


def build_dataset(
    spec: TaskSpec,
    n_cases: int,
    seed: int,
    val_fraction: float = 0.2,
    lwe_params: lwe.LweParams | None = None,
) -> Dataset:
    """Generate inputs and teachers for one task kind, reproducibly from the seed."""
    if n_cases < 1:
        raise ConfigurationError("n_cases", "need at least 1 case")
    kind = spec.kind
    labels = None
    multi_input = False

    if kind in ("polynomial", "modulo", "poly-mod"):
        xs = np.linspace(spec.x_range[0], spec.x_range[1], n_cases)
        inputs = [[float(x)] for x in xs]
        if kind == "polynomial":
            teachers = [[polynomial_teacher(x)] for x in xs]
        elif kind == "modulo":
            teachers = [[modulo_teacher(float(x), spec.modulo_base)] for x in xs]
        else:
            teachers = [[poly_mod_teacher(float(x), spec.poly_mod_base)] for x in xs]
        value_max = float(spec.x_range[1])
    elif kind in ("pair-sum", "pair-product", "pair-modlin"):
        rng = np.random.default_rng([seed, 0x70616972])
        side = spec.pair_max + 1
        total = side * side
        chosen = rng.choice(total, size=min(n_cases, total), replace=False)
        pairs = [(int(c // side), int(c % side)) for c in chosen]
        inputs = [[float(a), float(b)] for a, b in pairs]
        col = {"pair-sum": 0, "pair-product": 1, "pair-modlin": 2}[kind]
        teachers = [[pair_teachers(a, b, spec.pair_max)[col]] for a, b in pairs]
        value_max = float(spec.pair_max)
    elif kind == "circles":
        points, point_labels = concentric_circles(
            n_cases, seed, spec.inner_radius, spec.outer_radii
        )
        shift = spec.outer_radii[1]
        inputs = [[float(p[0] + shift), float(p[1] + shift)] for p in points]
        teachers = [[class_teacher(l)] for l in point_labels]
        labels = [int(l) for l in point_labels]
        value_max = 2.0 * shift
        multi_input = True
    elif kind in ("lwe-encrypt", "lwe-decrypt"):
        params = lwe_params or lwe.LweParams()
        _, cases = lwe_cases(params, n_cases, seed)
        if kind == "lwe-encrypt":
            inputs = [list(c.a_samples) + list(c.b_samples) + [c.phi] for c in cases]
            teachers = [[float(c.u), float(c.v)] for c in cases]
        else:
            inputs = [[float(c.u), float(c.v)] for c in cases]
            teachers = [[float(c.decrypt_value)] for c in cases]
            labels = [c.phi for c in cases]
        value_max = float(params.q - 1)
    else:  # pragma: no cover - guarded by TaskSpec
        raise ConfigurationError("task.kind", f"unhandled kind {kind}")

    train_idx, val_idx = split_indices(len(inputs), val_fraction, seed)
    return Dataset(
        kind=kind, inputs=inputs, teachers=np.array(teachers, dtype=float), value_max=value_max,
        train_idx=train_idx, val_idx=val_idx,
        multi_input=multi_input, labels=labels,
    )


def confusion_matrix(true_labels, predicted_labels, n_classes: int = 2) -> np.ndarray:
    """Counts[i, j] of true class i predicted as class j."""
    counts = np.zeros((n_classes, n_classes), dtype=int)
    for t, p in zip(true_labels, predicted_labels):
        counts[int(t), int(p)] += 1
    return counts


def dataset_to_csv(dataset: Dataset, path, config_digest: str | None = None) -> None:
    """Write a task dataset with per-kind headers."""
    kind = dataset.kind
    inputs = list(zip(*dataset.inputs))
    render = None
    if kind in ("polynomial", "modulo", "poly-mod"):
        header = ("x", "y_teacher")
        columns = (inputs[0], dataset.teachers[:, 0])
    elif kind in ("pair-sum", "pair-product", "pair-modlin"):
        header = ("x1", "x2", "sum", "product", "modlin")
        pair_max = int(dataset.value_max)  # build_dataset's spec.pair_max
        targets = zip(*(pair_teachers(inp[0], inp[1], pair_max) for inp in dataset.inputs))
        columns = (inputs[0], inputs[1], *targets)
    elif kind == "circles":
        header = ("x", "y", "class")
        columns = (inputs[0], inputs[1], [str(label).encode("ascii") for label in dataset.labels])
        render = (repr_cells, repr_cells, text_cells)
    else:
        raise ConfigurationError("task.kind", f"no CSV schema for {kind} (use the JSON dataset)")
    write_csv(path, header, columns, config_digest, render)
