"""Experiment orchestration: single runs, parameter sweeps, persistence.

Cases are simulated independently (optionally on a process pool); all
randomness is derived per-unit from the master seed, and results are
assembled in case order so output is identical for any worker count.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import tasks
from .cells import repr_cells, text_cells, write_csv
from .circuit import _map
from .config import ExperimentConfig, carrier_frequency, config_digest, seed_for
from .errors import ChuaRcError, ConfigurationError, IntegrationError
from .pipeline import NmseReport, ReadoutWeight, nmse, predict, run_cases, train_readout


@dataclass(frozen=True)
class MetricsReport:
    """Validation metrics for one experiment."""

    per_case_nmse: np.ndarray
    mean_nmse: float
    median_nmse: float
    accuracy: float | None
    confusion: np.ndarray | None
    estimates: np.ndarray  # (n_val, n_outputs)
    targets: np.ndarray
    val_idx: np.ndarray
    n_train: int
    runtime_s: float
    config_digest: str


def _effective_reservoir(cfg: ExperimentConfig, value_max: float):
    """The data's normalisation ceiling, and the mask seed from the master seed."""
    return replace(cfg.reservoir, value_max=value_max, seed=seed_for(cfg.master_seed, "mask"))


def _simulate_group(args):
    reservoir, circuit, start, cases, multi_input = args
    try:
        return run_cases(cases, reservoir, circuit, per_coordinate=multi_input)
    except IntegrationError as exc:
        raise IntegrationError(exc.step_index, case_index=start + exc.case_index) from None


def _simulate(reservoir, circuit, inputs, multi_input, jobs) -> list:
    """Kernel runs for all inputs, in input order: one contiguous group of
    cases per worker, each group one ``run_cases`` call."""
    jobs = max(1, jobs)
    size = max(1, -(-len(inputs) // jobs))
    work = [(reservoir, circuit, start, inputs[start:start + size], multi_input)
            for start in range(0, len(inputs), size)]
    return [sm for group in _map(_simulate_group, work, jobs) for sm in group]


def simulate_cases(cfg: ExperimentConfig, dataset: tasks.Dataset, jobs: int = 1) -> list:
    """Drive the kernel for every dataset case, in index order.

    Results are identical for any worker count. A diverging case raises
    IntegrationError naming the case and the step.
    """
    reservoir = _effective_reservoir(cfg, dataset.value_max)
    return _simulate(reservoir, cfg.circuit, dataset.inputs, dataset.multi_input, jobs)


def build_dataset(cfg: ExperimentConfig) -> tasks.Dataset:
    return tasks.build_dataset(
        cfg.task,
        n_cases=cfg.n_cases,
        seed=seed_for(cfg.master_seed, "dataset"),
        val_fraction=cfg.val_fraction,
        lwe_params=cfg.lwe,
    )


def run_experiment(
    cfg: ExperimentConfig,
    jobs: int = 1,
    write_artifacts: bool = True,
) -> MetricsReport:
    """Generate the dataset, simulate, train on the train split, then predict
    and score every case once; the metrics are those of the val_idx rows.

    Writes per-case CSV and the trained weight under cfg.out_dir when
    ``write_artifacts`` is set. Per-case simulation failures abort the run
    after flushing a failure manifest with whatever completed.
    """
    started = time.perf_counter()
    digest = config_digest(cfg)

    out_dir = Path(cfg.out_dir)
    if write_artifacts:
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        dataset = build_dataset(cfg)
        states = simulate_cases(cfg, dataset, jobs=jobs)
    except ChuaRcError as exc:
        if write_artifacts:
            manifest = {"config_digest": digest, "task": cfg.task.kind,
                        "n_cases": cfg.n_cases, "error": str(exc)}
            (out_dir / "failure_manifest.json").write_text(json.dumps(manifest, indent=1))
        raise

    train_cases = [(states[i], dataset.teachers[i]) for i in dataset.train_idx]
    weight = train_readout(train_cases, seed=cfg.master_seed, config_digest=digest)

    estimates = predict(weight, states)
    scores = nmse(estimates, dataset.teachers).scores
    val_idx = dataset.val_idx
    val = NmseReport(scores[val_idx])

    accuracy = None
    confusion = None
    if dataset.kind == "circles":
        true = [dataset.labels[i] for i in val_idx]
        predicted = [tasks.classify(float(e[0])) for e in estimates[val_idx]]
        confusion = tasks.confusion_matrix(true, predicted)
        accuracy = float(np.trace(confusion) / max(1, confusion.sum()))

    report = MetricsReport(
        per_case_nmse=val.scores,
        mean_nmse=val.mean,
        median_nmse=val.median,
        accuracy=accuracy,
        confusion=confusion,
        estimates=estimates[val_idx],
        targets=dataset.teachers[val_idx],
        val_idx=val_idx,
        n_train=len(dataset.train_idx),
        runtime_s=time.perf_counter() - started,
        config_digest=digest,
    )
    if write_artifacts:
        _write_case_csv(out_dir / "cases.csv", dataset, estimates, scores, digest)
        save_weight(weight, out_dir / "weight.json")
        _write_report_json(out_dir / "report.json", report)
    return report


def _write_case_csv(path, dataset, estimates, scores, digest):
    """One row per case: split, teachers, estimates and NMSE; the report's
    metrics derive from the split == val rows."""
    n_cases, n_out = dataset.teachers.shape
    is_val = np.zeros(n_cases, dtype=bool)
    is_val[dataset.val_idx] = True
    header = ["case", "split"]
    header += [f"target_{j}" for j in range(n_out)]
    header += [f"estimate_{j}" for j in range(n_out)]
    header.append("nmse")
    columns = [np.arange(n_cases).astype(bytes), np.where(is_val, b"val", b"train"),
               *dataset.teachers.T, *estimates.T, scores]
    write_csv(path, header, columns, digest,
              (text_cells, text_cells) + (repr_cells,) * (2 * n_out + 1))


def _write_report_json(path, report: MetricsReport) -> None:
    payload = {
        "config_digest": report.config_digest,
        "mean_nmse": report.mean_nmse,
        "median_nmse": report.median_nmse,
        "accuracy": report.accuracy,
        "confusion": None if report.confusion is None else report.confusion.tolist(),
        "n_train": report.n_train,
        "n_val": int(report.val_idx.size),
        "runtime_s": report.runtime_s,
        "per_case_nmse": [float(x) for x in report.per_case_nmse],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def classification_surface(
    cfg: ExperimentConfig,
    weight: ReadoutWeight,
    x_values,
    y_values,
    value_max: float,
    jobs: int = 1,
) -> np.ndarray:
    """Class grid for a trained circle classifier.

    Every (x, y) grid point is run through the kernel like a dataset case
    (each coordinate separately, column-concatenated) and classified by the
    nearest teacher value.
    """
    reservoir = _effective_reservoir(cfg, value_max)
    points = [[float(x), float(y)] for y in y_values for x in x_values]
    states = _simulate(reservoir, cfg.circuit, points, True, jobs)
    classes = [tasks.classify(float(e[0])) for e in predict(weight, states)]
    return np.asarray(classes, dtype=int).reshape(len(y_values), len(x_values))


@dataclass(frozen=True)
class SweepGrid:
    """Axes for the tuning sweep: resistances crossed with amplitude-window
    centres (fixed total width), optionally crossed with mask counts."""

    resistances: tuple
    v_centers: tuple
    range_width: float = 0.6
    n_masks: tuple | None = None

    def __post_init__(self):
        if not self.resistances or not self.v_centers:
            raise ConfigurationError("sweep", "axes must be nonempty")
        for name, axis in (("resistances", self.resistances), ("v_centers", self.v_centers)):
            diffs = np.diff(np.asarray(axis, dtype=float))
            if diffs.size and not (np.all(diffs > 0) or np.all(diffs < 0)):
                raise ConfigurationError(f"sweep.{name}", "axis values must be monotone")
        if self.range_width <= 0.0:
            raise ConfigurationError("sweep.range_width", "must be positive")
        if self.n_masks is not None and (not self.n_masks or min(self.n_masks) < 1):
            raise ConfigurationError("sweep.n_masks", "must list at least one mask count, each >= 1")

    @property
    def cells(self) -> list:
        masks = self.n_masks or (None,)
        return [(r, vc, nm) for nm in masks for r in self.resistances for vc in self.v_centers]


def axis_values(start: float, stop: float, step: float) -> tuple:
    """Inclusive arithmetic axis, e.g. 1600..2000 at 80 -> 6 values."""
    n = int(round((stop - start) / step)) + 1
    return tuple(start + i * step for i in range(n))


@dataclass(frozen=True)
class SweepCell:
    r_ohms: float
    v_center: float
    n_mask: int | None
    mean_nmse: float
    error: str | None = None


def run_sweep(cfg: ExperimentConfig, grid: SweepGrid, jobs: int = 1,
              out_path=None) -> list:
    """One experiment per grid cell; per-cell failures are recorded and the
    sweep continues.

    Cell seeds hash the master seed with the cell's parameter values, so
    adding rows or columns to the grid never changes existing cells.
    """
    results = []
    for r, vc, nm in grid.cells:
        half = grid.range_width / 2.0
        reservoir = replace(
            cfg.reservoir,
            v_min=vc - half,
            v_max=vc + half,
            f_carrier=carrier_frequency(r, cfg.circuit.c1),
            **({"n_mask": nm} if nm is not None else {}),
        )
        cell_cfg = replace(
            cfg,
            circuit=replace(cfg.circuit, r_variable=r),
            reservoir=reservoir,
            master_seed=seed_for(cfg.master_seed, "sweep", r, vc, nm),
        )
        try:
            report = run_experiment(cell_cfg, jobs=jobs, write_artifacts=False)
            results.append(SweepCell(r, vc, nm, report.mean_nmse))
        except ChuaRcError as exc:
            results.append(SweepCell(r, vc, nm, float("nan"), error=str(exc)))
    if out_path is not None:
        sweep_to_csv(results, out_path, config_digest(cfg))
    return results


def sweep_to_csv(cells, path, digest: str | None = None) -> None:
    """`r_ohms,v_center,mean_nmse` rows (an n_mask column is prefixed when swept)."""
    header = ["r_ohms", "v_center", "mean_nmse"]
    columns = [[c.r_ohms for c in cells], [c.v_center for c in cells],
               [c.mean_nmse for c in cells]]
    render = [repr_cells] * 3
    if any(c.n_mask is not None for c in cells):
        header.insert(0, "n_mask")
        columns.insert(0, [str(c.n_mask).encode("ascii") for c in cells])
        render.insert(0, text_cells)
    write_csv(path, header, columns, digest, render)


def save_weight(weight: ReadoutWeight, path) -> None:
    """Lossless JSON persistence of a trained readout. ``bias`` and ``offset``
    record the one readout form: a bias column and unshifted voltages."""
    payload = {
        "n_outputs": weight.n_outputs,
        "n_channels": weight.n_channels,
        "bias": True,
        "offset": 0.0,
        "lambda": weight.ridge_lambda,
        "seed": weight.seed,
        "config_digest": weight.config_digest,
        "matrix": [float(x) for x in weight.matrix.reshape(-1)],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def _field(payload, key, valid, rule):
    """payload[key] when valid(value) holds, else ValueError naming the key."""
    value = payload[key]
    if not valid(value):
        raise ValueError(f"{key} must be {rule}, got {value!r}")
    return value


def load_weight(path, expected_digest: str | None = None) -> ReadoutWeight:
    """Read a weight file of the one readout form (bias true, offset 0.0); a
    digest mismatch warns but the weight stays usable.

    Counts are JSON integers >= 1, the seed a JSON integer, lambda a finite
    number >= 0, the matrix n_outputs * (1 + n_channels) numbers and the
    digest a string; anything else is a ``weight_file`` error naming the key.
    Numbers are tested with ``type(v) in (int, float)``, not isinstance: a
    JSON true or false is no number.
    """
    try:
        payload = json.loads(Path(path).read_text())
        bias, offset = payload["bias"], payload["offset"]
        if bias is not True or type(offset) not in (int, float) or offset != 0.0:
            raise ValueError(f"bias {bias!r} and offset {offset!r};"
                             " only bias true and offset 0.0 are supported")
        n_out, n_ch = (_field(payload, key, lambda v: type(v) is int and v >= 1, "an integer >= 1")
                       for key in ("n_outputs", "n_channels"))
        matrix = _field(payload, "matrix",
                        lambda v: type(v) is list and len(v) == n_out * (1 + n_ch)
                        and all(type(x) in (int, float) for x in v),
                        f"a list of {n_out} * (1 + {n_ch}) numbers")
        weight = ReadoutWeight(
            matrix=np.array(matrix, dtype=float).reshape(n_out, 1 + n_ch),
            ridge_lambda=float(_field(payload, "lambda",
                                      lambda v: type(v) in (int, float) and math.isfinite(v)
                                      and v >= 0, "a finite number >= 0")),
            seed=_field(payload, "seed", lambda v: type(v) is int, "an integer"),
            config_digest=_field(payload, "config_digest", lambda v: type(v) is str, "a string"),
        )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigurationError("weight_file", f"malformed weight file: {exc}") from None
    if expected_digest and weight.config_digest != expected_digest:
        warnings.warn(
            f"weight was trained under config {weight.config_digest}, "
            f"active config is {expected_digest}",
            stacklevel=2,
        )
    return weight
