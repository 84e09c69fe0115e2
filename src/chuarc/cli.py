"""Command-line entry points.

Exit codes: 0 success, 1 validation error (bad config or arguments),
2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import circuit as circ
from . import experiment as exp
from . import lwe as lwe_mod
from . import plots, tasks
from .config import PROFILES, config_digest, parse_config, read_config, seed_for, serialize_config
from .errors import ChuaRcError, ConfigurationError
from .pipeline import nmse, predict

ENV_JOBS = "CHUARC_JOBS"

#: A sweep axis spans fewer steps than this. Every axis value adds a row or a
#: column of whole experiments, so a longer axis is a mistyped step, and its
#: values would be built before any cell runs.
MAX_AXIS_STEPS = 10_000


def default_jobs() -> int:
    """The worker count in CHUARC_JOBS (1 when unset); a value that is not an
    integer >= 1 raises ConfigurationError."""
    value = os.environ.get(ENV_JOBS, "1")
    if not (value.strip().isdecimal() and int(value) >= 1):
        raise ConfigurationError(ENV_JOBS, f"must be an integer >= 1, got {value!r}")
    return int(value)


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
    out = exp.make_out_dir(cfg.out_dir)
    dt = 1.0 / cfg.reservoir.sample_rate if args.dt is None else args.dt
    drive = None
    if args.drive_amplitude != 0.0:
        drive = circ.sine_drive(args.drive_amplitude, args.drive_frequency, args.t_end, dt)
    trace = circ.integrate(cfg.circuit, circ.DEFAULT_INITIAL_STATE, drive, args.t_end, dt)
    path = out / "trace.csv"
    circ.trace_to_csv(trace, path, config_digest(cfg))
    print(f"wrote {path} ({trace.n_samples} samples)")
    return 0


def _cmd_bifurcate(args) -> int:
    cfg = _load_config(args)
    if args.steps < 2:
        raise ConfigurationError("steps", f"must be >= 2, got {args.steps}")
    out = exp.make_out_dir(cfg.out_dir)
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
    path = out / f"bifurcation_{args.param}.csv"
    circ.bifurcation_to_csv(points, path, config_digest(cfg))
    failed = [p.value for p in points if p.error]
    print(f"wrote {path} ({len(points)} points, {len(failed)} failed)")
    return 0


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    out = exp.make_out_dir(cfg.out_dir)
    _, table, _ = plots._read_csv(args.trace, ["t", args.tap])
    if len(table) < 2:
        raise ConfigurationError("trace", "need at least 2 samples")
    freqs, mags = circ.power_spectrum(table[:, 1], float(table[1, 0] - table[0, 0]))
    path = out / "spectrum.csv"
    circ.spectrum_to_csv(freqs, mags, path, config_digest(cfg))
    print(f"wrote {path} ({len(freqs)} bins)")
    return 0


def _cmd_dataset(args) -> int:
    cfg = _load_config(args)
    out = exp.make_out_dir(cfg.out_dir)
    if cfg.task.kind.startswith("lwe"):
        # the cases the experiment harness trains on for this master seed
        seed = seed_for(cfg.master_seed, "dataset")
        pk, cases = tasks.lwe_cases(cfg.lwe, cfg.n_cases, seed)
        path = out / "lwe_cases.json"
        lwe_mod.save_dataset(cases, pk, seed, path)
        lwe_mod.save_keypair(cfg.lwe, pk, out / "lwe_key.json", out / "lwe_secret.json")
        n_cases = len(cases)
    else:
        dataset = exp.build_dataset(cfg)
        path = out / f"dataset_{cfg.task.kind}.csv"
        tasks.dataset_to_csv(dataset, path, config_digest(cfg))
        n_cases = dataset.n_cases
    print(f"wrote {path} ({n_cases} cases)")
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
    weight = exp.load_weight(args.weight, expected_digest=config_digest(cfg))
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
        # finite flags: the quotient is finite unless stop - start overflows
        if step == 0.0 or not (stop - start) / step < MAX_AXIS_STEPS:
            raise ConfigurationError(f"{axis}_step", f"must be nonzero and span {start!r} to {stop!r}"
                                                     f" in fewer than {MAX_AXIS_STEPS} steps, got {step!r}")
    grid = exp.SweepGrid(
        resistances=exp.axis_values(args.r_start, args.r_stop, args.r_step),
        v_centers=exp.axis_values(args.vc_start, args.vc_stop, args.vc_step),
        range_width=args.range_width,
        n_masks=None if args.n_masks is None else tuple(args.n_masks),
    )
    if args.svg and len(set(grid.n_masks or ())) > 1:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chuarc",
                                     description="Chua-circuit reservoir computer laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_jobs=True):
        p.add_argument("--config", help="JSON config file (missing fields take defaults)")
        p.add_argument("--profile", default=None, choices=tuple(PROFILES),
                       help="profile whose defaults fill absent fields (default: the"
                            " file's profile, full if it names none; desk without --config)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory")
        if with_jobs:
            p.add_argument("--jobs", type=int, default=None,
                           help="worker processes, at least 1 (default: env CHUARC_JOBS, or 1)")

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
    p.add_argument("--tap", default=circ.TAP_DIODE)
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
    args = build_parser().parse_args(argv)
    try:
        for dest, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(dest, f"must be finite, got {value!r}")
        if getattr(args, "dt", None) is not None and args.dt <= 0.0:
            raise ConfigurationError("dt", f"must be positive, got {args.dt!r}")
        if hasattr(args, "jobs"):
            if args.jobs is None:
                args.jobs = default_jobs()
            elif args.jobs < 1:
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
