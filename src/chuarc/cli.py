"""Command-line entry points.

Exit codes: 0 success, 1 validation error (bad config or arguments),
2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import circuit as circ
from . import experiment as exp
from . import lwe as lwe_mod
from . import plots, tasks
from .config import PROFILES, config_digest, parse_config, read_config, seed_for, serialize_config
from .errors import ChuaRcError, ConfigurationError
from .pipeline import nmse, predict

#: A sweep axis spans fewer steps than this, and a bifurcation scan takes at
#: most this many. Every sweep axis value adds a row or a column of whole
#: experiments, and every scan point a circuit run, so a longer axis is a
#: mistyped step or count, and its values would be built before any run starts.
MAX_AXIS_STEPS = 10_000


def _load_config(args):
    """The config file's object (or {}) with the given flags on top, parsed
    once. Without a file, the profile defaults to desk."""
    raw = read_config(args.config) if args.config else {}
    flags = {"profile": args.profile or (None if args.config else "desk"),
             "master_seed": args.seed, "out_dir": args.out,
             "n_cases": getattr(args, "n_cases", None)}
    raw.update((key, value) for key, value in flags.items() if value is not None)
    task = getattr(args, "task", None)
    if task and isinstance(raw.get("task", {}), dict):
        raw["task"] = {**raw.get("task", {}), "kind": task}
    return parse_config(raw)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    dt = 1.0 / cfg.reservoir.sample_rate if args.dt is None else args.dt
    drive = None
    if args.drive_amplitude != 0.0:
        drive = circ.sine_drive(args.drive_amplitude, args.drive_frequency, args.t_end, dt)
    trace = circ.integrate(cfg.circuit, circ.DEFAULT_INITIAL_STATE, drive, args.t_end, dt)
    path = exp.make_out_dir(cfg.out_dir) / "trace.csv"
    circ.trace_to_csv(trace, path, config_digest(cfg))
    print(f"wrote {path} ({trace.n_samples} samples)")
    return 0


def _cmd_bifurcate(args) -> int:
    cfg = _load_config(args)
    if not 2 <= args.steps <= MAX_AXIS_STEPS:
        raise ConfigurationError("steps", f"must lie in [2, {MAX_AXIS_STEPS}], got {args.steps}")
    values = [args.start + i * (args.stop - args.start) / (args.steps - 1)
              for i in range(args.steps)]
    points = circ.bifurcation_scan(
        vary=args.param,
        values=values,
        fixed=cfg.circuit,
        tap=args.tap,
        drive_frequency=args.drive_frequency,
        drive_amplitude=args.drive_amplitude,
        dt=args.dt,
        t_end=args.t_end,
        jobs=args.jobs,
    )
    path = exp.make_out_dir(cfg.out_dir) / f"bifurcation_{args.param}.csv"
    circ.bifurcation_to_csv(points, path, config_digest(cfg))
    failed = [p.value for p in points if p.error]
    print(f"wrote {path} ({len(points)} points, {len(failed)} failed)")
    return 0


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    _, table, _ = plots._read_csv(args.trace, ["t", args.tap])
    if len(table) < 2:
        raise ConfigurationError("trace", "need at least 2 samples")
    times = table[:, 0]
    dt = float(times[1] - times[0])
    if dt > 0.0:
        # 13 significant digits put a written stamp within 5e-13*|t_i| of its
        # grid point; a missing, repeated or shifted sample is a whole step off
        off = np.abs(times - times[0] - np.arange(len(times)) * dt) > 0.01 * dt
        if off.any():
            row = int(off.argmax())
            raise ConfigurationError("dt", f"{args.trace}: data row {row + 1} has t = {float(times[row])!r},"
                                           f" off the {dt!r} s grid of the first two rows")
    freqs, mags = circ.power_spectrum(table[:, 1], dt)
    path = exp.make_out_dir(cfg.out_dir) / "spectrum.csv"
    circ.spectrum_to_csv(freqs, mags, path, config_digest(cfg))
    print(f"wrote {path} ({len(freqs)} bins)")
    return 0


def _cmd_dataset(args) -> int:
    cfg = _load_config(args)
    if cfg.task.is_lwe:
        # the cases the experiment harness trains on for this master seed
        seed = seed_for(cfg.master_seed, "dataset")
        pk, cases = tasks.lwe_cases(cfg.lwe, cfg.n_cases, seed)
        out = exp.make_out_dir(cfg.out_dir)
        path = out / "lwe_cases.json"
        lwe_mod.save_dataset(cases, cfg.lwe, pk, seed, path)
        lwe_mod.save_keypair(cfg.lwe, pk, out / "lwe_key.json", out / "lwe_secret.json")
    else:
        dataset = exp.build_dataset(cfg)
        path = exp.make_out_dir(cfg.out_dir) / f"dataset_{cfg.task.kind}.csv"
        tasks.dataset_to_csv(dataset, path, config_digest(cfg))
    print(f"wrote {path} ({cfg.n_cases} cases)")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    report = exp.run_experiment(cfg, jobs=args.jobs)
    line = f"mean NMSE {report.mean_nmse:.6f}, median {report.median_nmse:.6f}"
    if report.accuracy is not None:
        line += f", accuracy {report.accuracy:.3f}"
    print(f"{cfg.task.kind}: {line}; artifacts in {cfg.out_dir}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    weight, digest = exp.load_weight(args.weight), config_digest(cfg)
    if weight.config_digest != digest:
        # a mismatch leaves the weight usable: one line, not a Python warning
        print(f"warning: weight was trained under config {weight.config_digest}, active config is"
              f" {digest}", file=sys.stderr)
    dataset = exp.build_dataset(cfg)
    n_out = dataset.teachers.shape[1]
    if weight.n_outputs != n_out:
        raise ConfigurationError("weight_file", f"weight has {weight.n_outputs} outputs,"
                                                f" task {cfg.task.kind} has {n_out}")
    states = exp.simulate_cases(cfg, dataset, jobs=args.jobs)
    report = nmse(predict(weight, states), dataset.teachers)
    print(f"eval {cfg.task.kind}: mean NMSE {report.mean:.6f}, median {report.median:.6f}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    for axis in ("r", "vc"):
        start, stop, step = (getattr(args, f"{axis}_{end}") for end in ("start", "stop", "step"))
        # finite flags: the quotient is finite unless stop - start overflows;
        # a whole count may miss its integer by rounding, as 0.8 / 0.2 does
        n = (stop - start) / step if step else math.nan
        if not (0.0 <= n < MAX_AXIS_STEPS and abs(n - round(n)) < 1e-9):
            raise ConfigurationError(f"{axis}_step", f"must be nonzero, have the sign of stop - start"
                                                     f" and divide it into fewer than {MAX_AXIS_STEPS}"
                                                     f" whole steps; {start!r} to {stop!r} by {step!r}")
    grid = exp.SweepGrid(
        resistances=exp.axis_values(args.r_start, args.r_stop, args.r_step),
        v_centers=exp.axis_values(args.vc_start, args.vc_stop, args.vc_step),
        range_width=args.range_width,
        n_masks=None if args.n_masks is None else tuple(args.n_masks),
    )
    if args.svg and len(grid.n_masks or ()) > 1:
        raise ConfigurationError("sweep.n_masks", f"--svg draws one mask count, got {args.n_masks}")
    out = exp.make_out_dir(cfg.out_dir)
    path = out / "sweep.csv"
    cells = exp.run_sweep(cfg, grid, jobs=args.jobs, out_path=path)
    failed = sum(1 for c in cells if c.error)
    print(f"wrote {path} ({len(cells)} cells, {failed} failed)")
    if args.svg:
        plots.render_plot(path, out / "sweep.svg")
        print(f"wrote {out / 'sweep.svg'}")
    return 0


def _cmd_plot(args) -> int:
    kind = plots.render_plot(args.csv, args.out_svg)
    print(f"wrote {args.out_svg} ({kind})")
    return 0


def _cmd_show_config(args) -> int:
    cfg = _load_config(args)
    print(json.dumps(serialize_config(cfg), indent=1, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with bad usage exiting 1, as any other bad input does; the
    subparsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chuarc", description="Chua-circuit reservoir computer laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_jobs=True):
        p.add_argument("--config", help="JSON config file (missing fields take defaults)")
        p.add_argument("--profile", default=None, choices=tuple(PROFILES),
                       help="profile whose defaults fill absent fields (default: the"
                            " file's profile, full if it names none; desk without --config)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory")
        if with_jobs:
            p.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1")

    p = sub.add_parser("simulate", help="integrate the circuit and dump a trace CSV")
    common(p, with_jobs=False)
    p.add_argument("--t-end", type=float, default=20e-3)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--drive-amplitude", type=float, default=0.0)
    p.add_argument("--drive-frequency", type=float, default=100.0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bifurcate", help="sweep a parameter and record steady-state extrema")
    common(p)
    p.add_argument("--param", required=True, choices=circ.SWEEPABLE)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, default=41)
    p.add_argument("--tap", default=circ.TAP_DIODE, choices=circ.TAPS)
    p.add_argument("--drive-amplitude", type=float, default=0.0)
    p.add_argument("--drive-frequency", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=1e-6)
    p.add_argument("--t-end", type=float, default=None)
    p.set_defaults(func=_cmd_bifurcate)

    p = sub.add_parser("spectrum", help="DFT magnitude of one tap of a trace CSV")
    common(p, with_jobs=False)
    p.add_argument("--trace", required=True)
    p.add_argument("--tap", default=circ.TAP_DIODE, choices=circ.TAPS)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("dataset", help="generate a task dataset (CSV, or JSON for LWE)")
    common(p, with_jobs=False)
    p.add_argument("--task", default=None, choices=tasks.TASK_KINDS)
    p.add_argument("--n-cases", type=int, default=None)
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("train", help="run a full experiment and persist the weight")
    common(p)
    p.add_argument("--task", default=None, choices=tasks.TASK_KINDS)
    p.add_argument("--n-cases", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="re-score a saved weight on a fresh dataset")
    common(p)
    p.add_argument("--task", default=None, choices=tasks.TASK_KINDS)
    p.add_argument("--weight", required=True)
    p.add_argument("--n-cases", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="grid of experiments over resistance and voltage centre")
    common(p)
    p.add_argument("--task", default=None, choices=tasks.TASK_KINDS)
    p.add_argument("--n-cases", type=int, default=None)
    p.add_argument("--r-start", type=float, default=1600.0)
    p.add_argument("--r-stop", type=float, default=2000.0)
    p.add_argument("--r-step", type=float, default=80.0)
    p.add_argument("--vc-start", type=float, default=0.4)
    p.add_argument("--vc-stop", type=float, default=1.2)
    p.add_argument("--vc-step", type=float, default=0.2)
    p.add_argument("--range-width", type=float, default=0.6)
    p.add_argument("--n-masks", type=int, nargs="*", default=None)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("plot", help="render a CSV artifact to SVG")
    p.add_argument("--csv", required=True)
    p.add_argument("--out-svg", required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("show-config", help="print the resolved configuration")
    common(p, with_jobs=False)
    p.add_argument("--task", default=None, choices=tasks.TASK_KINDS)
    p.set_defaults(func=_cmd_show_config)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or bad usage (1), returned as exit codes
        return exc.code
    try:
        for dest, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(dest, f"must be finite, got {value!r}")
        if getattr(args, "dt", None) is not None and args.dt <= 0.0:
            raise ConfigurationError("dt", f"must be positive, got {args.dt!r}")
        if getattr(args, "jobs", 1) < 1:
            raise ConfigurationError("jobs", f"must be >= 1, got {args.jobs}")
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ChuaRcError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
