"""One benchmark pass in a fresh interpreter.

Set-up imports ``chuarc`` from ``src/`` of this checkout, parses the
workload config and starts BLAS, then prints ``ready <seconds>``: the time
since the parent launched this interpreter. With ``--setup-only`` the process
exits there; otherwise it runs the workload's commands through
``chuarc.cli.main`` (timed, optionally traced), checks their artefacts and
prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import BIF_STEPS, WORKLOADS, lane_steps

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def set_up(config_path):
    sys.path.insert(0, str(SRC))
    import numpy as np

    import chuarc.cli
    from chuarc.config import parse_config

    if not Path(chuarc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"chuarc was imported from {chuarc.__file__}, not from {SRC}")
    cfg = parse_config(config_path)
    # the first LAPACK call starts OpenBLAS; users pay that on every CLI call,
    # so it belongs to set-up and not to the first timed readout solve
    a = np.eye(8) + 1.0
    np.linalg.lstsq(a @ a, np.ones((8, 2)), rcond=None)
    return cfg


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own, kids


def _cpu(r):
    return r.ru_utime + r.ru_stime


def _run_command(main, argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 2


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _csv_rows(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _outcome(workload, out):
    """Artefact digests, validation NMSE and failed scan points / sweep cells."""
    digests = {}
    for name in workload.artefacts:
        path = out / name
        digests[name] = _sha256(path) if path.is_file() else None
    failed = 0
    mean_nmse = None
    if "bifurcation_r_variable.csv" in digests:
        # a failed point is flagged and writes no rows
        bif = out / "bifurcation_r_variable.csv"
        scanned = {row[0] for row in _csv_rows(bif)} if bif.is_file() else set()
        failed += BIF_STEPS - len(scanned)
    if "sweep.csv" in digests and (out / "sweep.csv").is_file():
        cells = [float(row[-1]) for row in _csv_rows(out / "sweep.csv")]
        finite = [c for c in cells if math.isfinite(c)]
        failed += len(cells) - len(finite)
        mean_nmse = sum(finite) / len(finite) if finite else None
    if "cases.csv" in digests and (out / "report.json").is_file():
        mean_nmse = json.loads((out / "report.json").read_text())["mean_nmse"]
    return digests, failed, mean_nmse


def run_pass(workload, cfg, config_path, seed, out, tracer):
    from chuarc import cli

    commands = workload.commands(str(config_path), seed, str(out))
    exits = []
    own0, kids0 = _usage()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for i, argv in enumerate(commands):
            if tracer is None:
                exits.append(_run_command(cli.main, argv))
            else:
                tracer.run_id = f"{i}:{argv[0]}"
                exits.append(tracer.call(f"cli.{argv[0]}", _run_command, cli.main, argv))
    wall = time.perf_counter() - t0
    own1, kids1 = _usage()
    worker_cpu = _cpu(kids1) - _cpu(kids0)
    digests, failed, mean_nmse = _outcome(workload, out)
    result = {
        "wall_s": wall,
        "cpu_s": _cpu(own1) - _cpu(own0) + worker_cpu,
        "peak_rss_mb": max(own1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "exits": exits,
        "failed_ops": failed + sum(1 for code in exits if code != 0),
        "artefacts": digests,
        "mean_nmse": mean_nmse,
        "lane_steps": lane_steps(workload, cfg),
        "versions": _versions(),
    }
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer, wall, worker_cpu, workload.jobs)
        result["missing_wrappers"] = tracer.missing
    return result


def _versions():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() of the parent just before the launch")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here as JSON")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    cfg = set_up(args.config)
    print(f"ready {time.monotonic() - args.launched!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_pass(workload, cfg, args.config, args.seed, out, tracer)
    if tracer is not None:
        tracer.uninstall()
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.dump()))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
