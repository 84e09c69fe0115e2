"""The benchmark workloads: CLI commands, configs, artefacts and work counts.

``BENCHMARK.json`` lists the workloads the gated runs use. ``full-poly`` and
``tune`` run the same way by hand (``--workload tune``). They are left out of
the gated set because all gated runs share one time budget, and four
workloads leave too little time per run for a steady median on a noisy
2-vCPU host.

Each workload is a list of ``chuarc`` CLI invocations that run in one fresh
interpreter. The workload's config is written to a JSON file and passed with
``--config``; the benchmark seed is passed with ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed at which the artefact digests and mean NMSE in ``expected.json`` were
#: recorded. Every run re-checks it, whatever seed it measures.
DEFAULT_SEED = 0

BIF_STEPS = 16
BIF_T_END = 40e-3  # the CLI's undriven bifurcation horizon
BIF_DT = 1e-6
SWEEP_R = (1600.0, 2000.0, 80.0)
SWEEP_VC = (0.4, 1.2, 0.2)
TRACE_T_END = 0.2
TRACE_DT = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    jobs: int
    artefacts: tuple  # deterministic outputs, hashed and checked after each pass

    def commands(self, config_path: str, seed: int, out: str) -> list:
        """argv lists for ``chuarc.cli.main``, run in order."""
        common = ["--config", config_path, "--seed", str(seed), "--out", out]
        if self.name in ("desk-lwe", "full-poly"):
            return [["train", *common, "--jobs", str(self.jobs)]]
        if self.name == "tune":
            return [
                ["bifurcate", *common, "--jobs", str(self.jobs), "--param", "r_variable",
                 "--start", "1500", "--stop", "2100", "--steps", str(BIF_STEPS),
                 "--dt", repr(BIF_DT)],
                ["sweep", *common, "--jobs", str(self.jobs), "--svg",
                 "--r-start", repr(SWEEP_R[0]), "--r-stop", repr(SWEEP_R[1]),
                 "--r-step", repr(SWEEP_R[2]),
                 "--vc-start", repr(SWEEP_VC[0]), "--vc-stop", repr(SWEEP_VC[1]),
                 "--vc-step", repr(SWEEP_VC[2])],
            ]
        trace_csv, spectrum_csv = f"{out}/trace.csv", f"{out}/spectrum.csv"
        return [
            ["simulate", *common, "--t-end", repr(TRACE_T_END), "--dt", repr(TRACE_DT)],
            ["spectrum", *common, "--trace", trace_csv, "--tap", "v_cd"],
            ["plot", "--csv", trace_csv, "--out-svg", f"{out}/trace.svg"],
            ["plot", "--csv", spectrum_csv, "--out-svg", f"{out}/spectrum.svg"],
        ]

    def operations(self) -> int:
        """Operations one pass attempts: CLI commands, scan points, sweep cells
        and artefact checks."""
        ops = len(self.commands("", 0, "")) + len(self.artefacts)
        if self.name == "tune":
            ops += BIF_STEPS + len(_axis(*SWEEP_R)) * len(_axis(*SWEEP_VC))
        return ops


def _axis(start, stop, step):
    n = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(n)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-lwe",
            config={"profile": "desk", "task": {"kind": "lwe-encrypt"}, "n_cases": 520},
            jobs=1,
            artefacts=("cases.csv", "weight.json"),
        ),
        Workload(
            name="full-poly",
            config={"profile": "full", "task": {"kind": "polynomial"}, "n_cases": 16},
            jobs=1,
            artefacts=("cases.csv", "weight.json"),
        ),
        Workload(
            name="tune",
            config={"profile": "desk", "task": {"kind": "circles"}, "n_cases": 40},
            jobs=2,
            artefacts=("bifurcation_r_variable.csv", "sweep.csv", "sweep.svg"),
        ),
        Workload(
            name="trace",
            config={"profile": "desk"},
            jobs=1,
            artefacts=("trace.csv", "spectrum.csv", "trace.svg", "spectrum.svg"),
        ),
    )
}


def lane_steps(workload: Workload, cfg) -> int:
    """RK4 lane-steps one pass of the workload integrates.

    ``cfg`` is the parsed ``ExperimentConfig``. A reservoir case drives the
    kernel for one sample per integration step: (values + 1 dummy) x n_mask
    x theta envelope points, each held for ``samples_per_envelope_point``
    samples.
    """
    from dataclasses import replace

    from chuarc.config import carrier_frequency
    from chuarc.pipeline import samples_per_envelope_point

    def case_steps(reservoir, n_values):
        n_env = (n_values + 1) * reservoir.n_mask * reservoir.theta
        return n_env * samples_per_envelope_point(n_env, reservoir)

    res = cfg.reservoir
    if workload.name == "desk-lwe":
        # a_samples + b_samples + phi
        return cfg.n_cases * case_steps(res, 2 * cfg.lwe.n_samples + 1)
    if workload.name == "full-poly":
        return cfg.n_cases * case_steps(res, 1)
    if workload.name == "tune":
        scan = BIF_STEPS * int(round(BIF_T_END / BIF_DT))
        sweep = 0
        for r in _axis(*SWEEP_R):
            cell_res = replace(res, f_carrier=carrier_frequency(r, cfg.circuit.c1))
            # circles: one kernel run per coordinate
            sweep += len(_axis(*SWEEP_VC)) * cfg.n_cases * 2 * case_steps(cell_res, 1)
        return scan + sweep
    return int(round(TRACE_T_END / TRACE_DT))
