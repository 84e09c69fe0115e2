"""chuarc benchmark: one workload per run, measured through the CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload desk-lwe --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --record        # re-record expected.json

A run times set-up in several fresh interpreters, then repeats the workload,
one fresh interpreter per pass, for ``--seconds``. With ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics instead
of end-to-end ones. Every run checks the artefacts against the digests
recorded at the default seed and checks that its own repeats agree. The last
line of stdout is the JSON result; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

SETUP_REPEATS = 9
MIN_PASSES = 3  # untraced passes per --trace 0 run
MIN_TRACED_PASSES = 2  # pairs of untraced + traced passes per --trace 1 run
SLACK_S = 120.0  # set-up, checks and the last pass; with --seconds 40 a run ends within 180 s
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CHUARC_JOBS")


def metric_units():
    """Metric name -> unit for each section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def calibrate():
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def run_child(workload, config_path, deadline, *extra):
    """Run child.py to completion; return its set-up seconds and later stdout lines.

    The child gets its own process group, so a pass that overruns the run's
    deadline is killed together with its pool workers.
    """
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--config", str(config_path), "--launched", repr(time.monotonic()), *extra]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{workload.name}: a pass outlasted the run's time limit")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise RuntimeError(f"{workload.name}: pass process failed (exit {proc.returncode})")
    return float(lines[0].split()[1]), lines[1:]


def run_pass(workload, config_path, deadline, seed, out, spans=None):
    extra = ["--seed", str(seed), "--out", str(out)]
    if spans is not None:
        extra += ["--trace", "--spans", str(spans)]
    try:
        _, lines = run_child(workload, config_path, deadline, *extra)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return json.loads(lines[-1])


def differences(reference, result):
    """Artefacts (and the mean NMSE) that differ between two results."""
    bad = [name for name, digest in reference["artefacts"].items()
           if digest is None or result["artefacts"].get(name) != digest]
    if reference["mean_nmse"] != result["mean_nmse"]:
        bad.append("mean_nmse")
    return bad


def run_metadata(versions):
    def git_sha():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                                 capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "chuarc").rglob("*.py")))
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        **versions,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "src_chuarc_lines": src_lines,
    }


def fresh_workdir(workload):
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config, indent=1))
    return work, config_path


def check(workload, seed, plain, traced, verify):
    """Failed operations and notes: repeats at ``seed`` must agree, the
    default-seed pass must match expected.json and traced counts must repeat."""
    units = metric_units()["per_layer"]
    passes = plain + traced
    notes = []
    failed = sum(p["failed_ops"] for p in passes)
    for p in passes[1:]:
        bad = differences(passes[0], p)
        failed += len(bad)
        if bad:
            notes.append(f"repeats at seed {seed} disagree on {bad}")
    if verify is not plain[0]:
        failed += verify["failed_ops"]
    want = json.loads(EXPECTED.read_text())["workloads"][workload.name]
    bad = differences(want, verify)
    failed += len(bad)
    if bad:
        notes.append(f"at seed {DEFAULT_SEED}, {bad} differ from expected.json")
    for name, value in (traced[0]["layers"].items() if traced else ()):
        if units[name] in ("count", "bytes") and any(t["layers"][name] != value
                                                     for t in traced[1:]):
            failed += 1
            notes.append(f"count {name} differs between traced passes")
    missing = sorted({m for t in traced for m in t["missing_wrappers"]})
    if missing:
        notes.append(f"not traced (attribute not found): {missing}")
    return failed, notes


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + seconds + SLACK_S
    work, config_path = fresh_workdir(workload)

    calib = [calibrate()]
    setups = [run_child(workload, config_path, deadline, "--setup-only")[0]
              for _ in range(SETUP_REPEATS)]
    plain, traced = [], []
    start = time.monotonic()
    while True:
        k = len(plain)
        plain.append(run_pass(workload, config_path, deadline, seed, work / f"pass{k}"))
        if trace:
            traced.append(run_pass(workload, config_path, deadline, seed, work / f"traced{k}",
                                   spans=work / f"spans{k}.json"))
        enough = len(plain) >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
        if enough and time.monotonic() - start >= seconds:
            break
    verify = plain[0]
    if seed != DEFAULT_SEED:
        verify = run_pass(workload, config_path, deadline, DEFAULT_SEED, work / "verify")
    failed, notes = check(workload, seed, plain, traced, verify)
    attempted = (len(plain) + len(traced) + (verify is not plain[0])) * workload.operations()
    calib.append(calibrate())

    median = statistics.median
    units = metric_units()["per_layer" if trace else "end_to_end"]
    if trace:
        # counts repeat exactly (see check); times are medians over the passes
        metrics = {name: value if units[name] in ("count", "bytes")
                   else median(t["layers"][name] for t in traced)
                   for name, value in traced[0]["layers"].items()}
        metrics["experiment.mean_nmse"] = plain[0]["mean_nmse"] or 0.0
        metrics["host.calib_s"] = median(calib)
        metrics["trace.overhead_frac"] = (median(t["wall_s"] for t in traced)
                                          / median(p["wall_s"] for p in plain) - 1.0)
        metrics["run.failed_frac"] = failed / attempted
    else:
        wall_s = median(p["wall_s"] for p in plain)
        metrics = {
            "wall_s": wall_s,
            "cpu_s": median(p["cpu_s"] for p in plain),
            "setup_s": median(setups),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
            "lane_steps_per_s": plain[0]["lane_steps"] / wall_s,
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    info = {
        "workload": workload.name,
        "seed": seed,
        "passes": len(plain),
        "traced_passes": len(traced),
        "wall_s_samples": [p["wall_s"] for p in plain],
        "setup_s_samples": setups,
        "host_calib_s": calib,
        "lane_steps": plain[0]["lane_steps"],
        "mean_nmse": plain[0]["mean_nmse"],
        "failed_frac": failed / attempted,
        "notes": notes,
        "meta": run_metadata(plain[0]["versions"]),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return info, result


def record():
    """Re-record the default-seed digests and mean NMSE of every workload."""
    payload = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        work, config_path = fresh_workdir(workload)
        deadline = time.monotonic() + SLACK_S
        result = run_pass(workload, config_path, deadline, DEFAULT_SEED, work / "record")
        if result["failed_ops"] or None in result["artefacts"].values():
            raise SystemExit(f"{workload.name} failed at the default seed; nothing recorded")
        payload["workloads"][workload.name] = {
            "artefacts": result["artefacts"],
            "mean_nmse": result["mean_nmse"],
        }
        print(f"recorded {workload.name}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(payload, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description="chuarc benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json at the default seed")
    args = parser.parse_args()

    if not (ROOT / "src" / "chuarc" / "__init__.py").is_file():
        print(f"perfbench: no chuarc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    info, result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    (WORK / args.workload / "result.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1))
    print("info " + json.dumps(info))
    for note in info["notes"]:
        print("check " + note)
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
