"""Spans and counters recorded from outside the program.

Wrappers are installed on the module attribute where each caller looks the
name up (``pipeline.integrate`` for the reservoir kernel, ``circuit.integrate``
for scans and ``simulate``), so no file of the program changes. Spans live in
memory until the pass ends. Only the process that installs the wrappers is
traced: forked pool workers record into their own copy, which is discarded.
"""

from __future__ import annotations

import concurrent.futures
import functools
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "config", "circuit", "pipeline", "lwe", "tasks", "experiment", "plots")


class Tracer:
    """Span recorder: name, start, end, parent span and run id per span."""

    def __init__(self):
        self.spans = []  # (id, parent, run_id, name, start, end)
        self.counts = Counter()
        self.missing = []
        self.run_id = None
        self._stack = []
        self._restore = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.run_id, name, start, end))

    def wrap(self, module, attr, name, on_return=None):
        """Replace ``module.attr`` by a spanning wrapper.

        ``on_return(tracer, result, arguments)`` adds counts after each call;
        ``arguments`` maps parameter names to the values passed.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        signature = inspect.signature(original) if on_return else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if on_return:
                on_return(self, result, signature.bind(*args, **kwargs).arguments)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def count_calls(self, module, attr, key, when):
        """Count calls of ``module.attr`` whose arguments satisfy ``when``, without a span."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        signature = inspect.signature(original)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if when(signature.bind(*args, **kwargs).arguments):
                self.counts[key] += 1
            return original(*args, **kwargs)

        setattr(module, attr, counted)
        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def busy(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child_time = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _, _, name, start, end in self.spans:
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[sid]
        return stats

    def dump(self):
        keys = ("id", "parent", "run_id", "name", "start", "end")
        return [dict(zip(keys, span)) for span in self.spans]


def _file_bytes(key, path_arg):
    def on_return(tracer, result, arguments):
        tracer.counts[key] += os.path.getsize(arguments[path_arg])
    return on_return


def _add(key, measure):
    def on_return(tracer, result, arguments):
        tracer.counts[key] += measure(result, arguments)
    return on_return


def install(tracer: Tracer) -> None:
    """Wrap the public calls into each layer of ``chuarc``."""
    from chuarc import circuit, cli, experiment, lwe, pipeline, plots, tasks

    # config
    tracer.wrap(cli, "parse_config", "config.parse_config")
    for module in (cli, experiment):
        tracer.wrap(module, "config_digest", "config.config_digest")

    # circuit: the kernel as the reservoir pipeline calls it, and as scans and
    # `simulate` call it
    steps = _add("circuit.integrate.lane_steps", lambda trace, _: trace.n_samples - 1)
    tracer.wrap(pipeline, "integrate", "circuit.integrate", steps)
    tracer.wrap(circuit, "integrate", "circuit.integrate", steps)
    tracer.wrap(circuit, "bifurcation_scan", "circuit.bifurcation_scan",
                _add("circuit.bifurcation_scan.points_failed",
                     lambda points, _: sum(1 for p in points if p.error)))
    tracer.wrap(circuit, "power_spectrum", "circuit.power_spectrum")
    tracer.wrap(circuit, "trace_to_csv", "circuit.trace_to_csv",
                _file_bytes("circuit.trace_to_csv.bytes", "path"))
    tracer.wrap(circuit, "spectrum_to_csv", "circuit.spectrum_to_csv")
    tracer.wrap(circuit, "bifurcation_to_csv", "circuit.bifurcation_to_csv")

    # pipeline
    tracer.wrap(experiment, "run_case", "pipeline.run_case")
    tracer.wrap(pipeline, "demultiplex", "pipeline.demultiplex",
                _add("pipeline.demultiplex.rows", lambda sm, _: sm.n_rows))
    tracer.wrap(experiment, "train_readout", "pipeline.train_readout",
                _add("pipeline.train_readout.rows",
                     lambda _, a: sum(sm.n_rows for sm, _t in a["cases"])))
    tracer.wrap(experiment, "predict", "pipeline.predict")
    tracer.wrap(experiment, "nmse", "pipeline.nmse")

    # lwe: a candidate draw encrypts phi=0 first, so those calls count draws
    tracer.wrap(lwe, "generate_testcases", "lwe.generate_testcases",
                _add("lwe.cases", lambda cases, _: len(cases)))
    tracer.count_calls(lwe, "encrypt_sums", "lwe.attempts", lambda a: a["phi"] == 0)

    # tasks
    tracer.wrap(tasks, "build_dataset", "tasks.build_dataset")

    # experiment
    tracer.wrap(experiment, "run_experiment", "experiment.run_experiment")
    tracer.wrap(experiment, "simulate_cases", "experiment.simulate_cases")
    tracer.wrap(experiment, "run_sweep", "experiment.run_sweep",
                _add("experiment.run_sweep.cells_failed",
                     lambda cells, _: sum(1 for c in cells if c.error)))
    tracer.wrap(experiment, "_write_case_csv", "experiment.write",
                _file_bytes("experiment.write.bytes", "path"))
    tracer.wrap(experiment, "save_weight", "experiment.write",
                _file_bytes("experiment.write.bytes", "path"))
    tracer.wrap(experiment, "sweep_to_csv", "experiment.write",
                _file_bytes("experiment.write.bytes", "path"))
    # report.json holds a run time, so its size is not counted in write.bytes
    tracer.wrap(experiment, "_write_report_json", "experiment.write")

    # plots
    tracer.wrap(plots, "_read_csv", "plots.read_csv",
                _add("plots.read_csv.rows", lambda parsed, _: len(parsed[1])))
    tracer.wrap(plots, "render_plot", "plots.render_plot",
                _file_bytes("plots.render_plot.bytes", "out_path"))

    # every ProcessPoolExecutor, wherever the program imported the name from
    pool_cls = concurrent.futures.ProcessPoolExecutor
    pool_init = pool_cls.__init__

    def counting_init(pool, *args, **kwargs):
        tracer.counts["experiment.pool_starts"] += 1
        pool_init(pool, *args, **kwargs)

    pool_cls.__init__ = counting_init
    tracer._restore.append((pool_cls, "__init__", pool_init))


def layer_metrics(tracer: Tracer, wall_s: float, worker_cpu_s: float, jobs: int) -> dict:
    """Per-layer metrics of one traced pass (the keys of ``PER_LAYER`` in run.py)."""
    stats = tracer.busy()
    counts = tracer.counts

    def calls(name):
        return stats[name][0] if name in stats else 0

    def busy(name):
        return stats[name][1] if name in stats else 0.0

    def self_s(name):
        return stats[name][2] if name in stats else 0.0

    lane_steps = counts["circuit.integrate.lane_steps"]
    attempts = counts["lwe.attempts"]
    fanout_wall = busy("experiment.simulate_cases") + busy("circuit.bifurcation_scan")
    m = {
        "circuit.integrate.calls": calls("circuit.integrate"),
        "circuit.integrate.lane_steps": lane_steps,
        "circuit.integrate.busy_s": busy("circuit.integrate"),
        "circuit.integrate.us_per_lane_step":
            1e6 * busy("circuit.integrate") / lane_steps if lane_steps else 0.0,
        "circuit.bifurcation_scan.busy_s": busy("circuit.bifurcation_scan"),
        "circuit.bifurcation_scan.points_failed": counts["circuit.bifurcation_scan.points_failed"],
        "circuit.power_spectrum.busy_s": busy("circuit.power_spectrum"),
        "circuit.trace_to_csv.busy_s": busy("circuit.trace_to_csv"),
        "circuit.trace_to_csv.bytes": counts["circuit.trace_to_csv.bytes"],
        "circuit.spectrum_to_csv.busy_s": busy("circuit.spectrum_to_csv"),
        "pipeline.run_case.calls": calls("pipeline.run_case"),
        "pipeline.run_case.busy_s": busy("pipeline.run_case"),
        # drive synthesis: run_case time outside the kernel and demultiplex
        "pipeline.encode.busy_s": self_s("pipeline.run_case"),
        "pipeline.demultiplex.busy_s": busy("pipeline.demultiplex"),
        "pipeline.demultiplex.rows": counts["pipeline.demultiplex.rows"],
        "pipeline.train_readout.calls": calls("pipeline.train_readout"),
        "pipeline.train_readout.rows": counts["pipeline.train_readout.rows"],
        "pipeline.train_readout.busy_s": busy("pipeline.train_readout"),
        "pipeline.predict.calls": calls("pipeline.predict"),
        "pipeline.predict.busy_s": busy("pipeline.predict"),
        "pipeline.nmse.busy_s": busy("pipeline.nmse"),
        "lwe.generate_testcases.busy_s": busy("lwe.generate_testcases"),
        "lwe.attempts": attempts,
        "lwe.retention": counts["lwe.cases"] / attempts if attempts else 0.0,
        "tasks.build_dataset.busy_s": busy("tasks.build_dataset"),
        "experiment.simulate_cases.busy_s": busy("experiment.simulate_cases"),
        "experiment.pool_starts": counts["experiment.pool_starts"],
        "experiment.worker_cpu_s": worker_cpu_s,
        "experiment.fanout_efficiency":
            worker_cpu_s / (jobs * fanout_wall) if jobs > 1 and fanout_wall else 0.0,
        "experiment.write.busy_s": busy("experiment.write"),
        "experiment.write.bytes": counts["experiment.write.bytes"],
        "experiment.run_sweep.cells_failed": counts["experiment.run_sweep.cells_failed"],
        "plots.read_csv.busy_s": busy("plots.read_csv"),
        "plots.read_csv.rows": counts["plots.read_csv.rows"],
        "plots.render_plot.busy_s": busy("plots.render_plot"),
        "plots.render_plot.bytes": counts["plots.render_plot.bytes"],
        "config.parse_config.busy_s": busy("config.parse_config"),
        "config.config_digest.calls": calls("config.config_digest"),
    }
    for command in ("train", "bifurcate", "sweep", "simulate", "spectrum", "plot"):
        m[f"cli.{command}.wall_s"] = busy(f"cli.{command}")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, own) in stats.items():
        layer_self[name.split(".", 1)[0]] += own
    for layer, own in layer_self.items():
        m[f"{layer}.self_s"] = own
    m["trace.accounted_frac"] = sum(layer_self.values()) / wall_s
    return m
