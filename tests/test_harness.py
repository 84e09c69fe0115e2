"""Harness tests: config parsing and defaults, experiment runs, sweeps,
weight persistence, SVG rendering, and the CLI."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chuarc import experiment, plots
from chuarc.cli import build_parser, main
from chuarc.config import (
    ExperimentConfig,
    carrier_frequency,
    config_digest,
    default_config,
    parse_config,
    serialize_config,
)
from chuarc.errors import ConfigurationError
from chuarc.experiment import (
    SweepGrid,
    axis_values,
    load_weight,
    run_experiment,
    run_sweep,
    save_weight,
    sweep_to_csv,
)
from chuarc.pipeline import nmse, predict, train_readout
from chuarc.plots import render_plot
from chuarc.tasks import TASK_KINDS

#: where the chuarc under test is imported from, for subprocesses
SRC = str(Path(experiment.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


def tiny_config(tmp_path, kind="polynomial", **overrides) -> ExperimentConfig:
    cfg = default_config(profile="desk", task_kind=kind)
    fields = dict(n_cases=24, out_dir=str(tmp_path / "out"), master_seed=5)
    fields.update(overrides)
    return replace(cfg, reservoir=replace(cfg.reservoir, n_mask=8, theta=2), **fields)


@st.composite
def _raw_configs(draw):
    """A config object over any profile and task kind, with a pinned or
    derived carrier and LWE parameters absent or with either error mode."""
    raw = {"profile": draw(st.sampled_from(("full", "desk"))),
           "task": {"kind": draw(st.sampled_from(TASK_KINDS))},
           "circuit": {"r_variable": draw(st.floats(1000.0, 3000.0))},
           "n_cases": draw(st.integers(1, 5000)),
           "master_seed": draw(st.integers(0, 2**63))}
    if draw(st.booleans()):
        raw["reservoir"] = {"f_carrier": draw(st.floats(100.0, 2e4))}
    errors = draw(st.sampled_from((None, "uniform", "gaussian")))
    if errors == "uniform":
        lo = draw(st.integers(-3, 3))
        raw["lwe"] = {"q": 11, "error_mode": {"kind": "uniform", "lo": lo,
                                              "hi": lo + draw(st.integers(0, 3))}}
    elif errors == "gaussian":
        raw["lwe"] = {"error_mode": {"kind": "gaussian", "alpha": draw(st.floats(0.1, 10.0))}}
    return raw


class TestConfig:
    def test_empty_object_gives_bench_defaults(self):
        cfg = parse_config({})
        assert cfg.circuit.r_variable == 1920.0
        assert cfg.circuit.c1 == 10e-9
        assert cfg.reservoir.n_mask == 50
        assert cfg.reservoir.carrier == "square"
        assert (cfg.reservoir.v_min, cfg.reservoir.v_max) == (0.4, 1.0)
        assert cfg.reservoir.n_periods == 5
        assert cfg.reservoir.sample_rate == 1e8
        assert cfg.reservoir.f_carrier == pytest.approx(5.8e3, rel=0.01)

    def test_carrier_follows_resistance(self):
        cfg = parse_config({"circuit": {"r_variable": 1800.0}})
        assert cfg.reservoir.f_carrier == pytest.approx(carrier_frequency(1800.0, 10e-9))

    def test_invalid_range_names_field(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config({"reservoir": {"v_min": 1.0, "v_max": 0.5}})
        assert "v_min" in str(err.value)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            parse_config(str(path))

    def test_missing_config_file_is_named(self, tmp_path, capsys):
        # --config takes a file: JSON text is a path that does not exist
        for source in (str(tmp_path / "nosuch.json"), '{"profile": "desk"}'):
            for argv in (["show-config"], ["train", "--out", str(tmp_path / "out")]):
                assert main([*argv, "--config", source]) == 1
                err = capsys.readouterr().err
                assert f"no such file: {source}" in err
                assert "malformed JSON" not in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @settings(max_examples=60, deadline=None)
    @given(_raw_configs())
    @example({"profile": "desk", "task": {"kind": "modulo"}, "n_cases": 77, "master_seed": 3})
    def test_round_trip_keeps_config_and_digest(self, raw):
        cfg = parse_config(raw)
        once = serialize_config(cfg)
        again = parse_config(json.loads(json.dumps(once)))
        assert again == cfg
        assert serialize_config(again) == once
        assert config_digest(again) == config_digest(cfg)

    def test_digest_stable_and_sensitive(self):
        a = parse_config({})
        b = parse_config({"n_cases": 12})
        assert config_digest(a) == config_digest(parse_config({}))
        assert config_digest(a) != config_digest(b)

    def test_file_source(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"profile": "desk", "n_cases": 9}))
        cfg = parse_config(str(path))
        assert cfg.n_cases == 9 and cfg.profile == "desk"

    @pytest.mark.parametrize("raw, field", [
        ({"reservoir": {"n_mask": "x"}}, "reservoir.n_mask"),
        ({"circuit": {"c1": [1e-8]}}, "circuit.c1"),
        ({"circuit": {"c1": "NaN"}}, "circuit.c1"),
        ({"circuit": {"r_variable": "-inf"}}, "circuit.r_variable"),
        ({"reservoir": {"sample_rate": math.inf}}, "reservoir.sample_rate"),
        ({"val_fraction": math.nan}, "val_fraction"),
        ({"reservoir": {"theta": 2.7}}, "reservoir.theta"),
        ({"n_cases": "12.5"}, "n_cases"),
        ({"master_seed": True}, "master_seed"),
        ({"lwe": {"q": 7.5}}, "lwe.q"),
        ({"task": {"x_range": [0.1, "inf"]}}, "task.x_range[1]"),
        ({"reservoir": {"use_envelope": "yes"}}, "reservoir.use_envelope"),
        ({"circuit": {"r_varaible": 1800.0}}, "circuit.r_varaible"),
        ({"circuit": {"diode": {"g_iner": -1e-3}}}, "circuit.diode.g_iner"),
        ({"reservoir": {"n_taps": 2}}, "reservoir.n_taps"),
        ({"lwe": {"error_mode": {"kind": "gausian"}}}, "lwe.error_mode.kind"),
        ({"lwe": {"error_mode": {"kind": "gaussian"}}}, "lwe.error_mode.alpha"),
        ({"tsak": {"kind": "circles"}}, "tsak"),
        ({"lwe": {"error_mode": {"kind": "uniform", "alpha": 1.0}}}, "lwe.error_mode.alpha"),
        ({"lwe": {"error_mode": {"kind": "gaussian", "alpha": 1, "lo": 5}}}, "lwe.error_mode.lo"),
        ({"task": {"inner_radius": 5}}, "task.inner_radius"),
        ({"task": {"poly_mod_base": -1}}, "task.poly_mod_base"),
        ({"lwe": {"error_mode": {"kind": "gaussian", "alpha": -1}}}, "lwe.error_mode.alpha"),
        ({"lwe": {"error_mode": {"kind": "uniform", "lo": 3, "hi": 1}}}, "lwe.error_mode.lo"),
        ({"out_dir": None}, "out_dir"),
        ({"out_dir": ["x"]}, "out_dir"),
    ])
    def test_bad_value_or_key_names_its_path(self, raw, field):
        with pytest.raises(ConfigurationError) as err:
            parse_config(raw)
        assert err.value.field == field

    @pytest.mark.parametrize("raw", [
        {"reservoir": {"sample_rate": 1e3}},
        {"profile": "desk", "reservoir": {"sample_rate": 1e4}},
        {"profile": "desk", "reservoir": {"f_carrier": 6e5}},
        {"profile": "desk", "circuit": {"r_variable": 10.0}},  # the carrier follows R
    ])
    def test_sample_rate_below_twice_the_carrier_fails_at_parse_time(self, raw, tmp_path, capsys):
        with pytest.raises(ConfigurationError) as err:
            parse_config(raw)
        assert err.value.field == "reservoir.sample_rate"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        for argv in (["show-config"], ["train", "--out", str(tmp_path / "out")]):
            assert main([*argv, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert "reservoir.sample_rate" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_sample_rate_of_exactly_twice_the_carrier_is_accepted(self):
        cfg = parse_config({"reservoir": {"f_carrier": 500.0, "sample_rate": 1000.0}})
        assert cfg.reservoir.sample_rate == 2.0 * cfg.reservoir.f_carrier

    # recorded before the sample-rate check existed: a valid config keeps its digest
    DIGESTS = {
        ("desk", "circles"): "0ed60b5dc31be41d", ("desk", "polynomial"): "35a80142cc511f77",
        ("desk", "pair-sum"): "26534bd09b0607ae", ("desk", "lwe-encrypt"): "1211299048541e37",
        ("full", "circles"): "9e4a5c7f42f74cdd", ("full", "polynomial"): "58ca0353cd49581c",
        ("full", "pair-modlin"): "25bffd9de1f64368", ("full", "lwe-decrypt"): "8a39c35e8019296a",
    }

    @pytest.mark.parametrize("profile, kind", sorted(DIGESTS))
    def test_profile_digests_are_unchanged(self, profile, kind):
        cfg = parse_config({"profile": profile, "task": {"kind": kind}})
        assert config_digest(cfg) == self.DIGESTS[profile, kind]

    def test_integral_numbers_and_numeric_strings_keep_their_digest(self):
        plain = parse_config({"reservoir": {"n_mask": 8, "theta": 4}, "n_cases": 30})
        loose = parse_config({"reservoir": {"n_mask": 8.0, "theta": "4"}, "n_cases": "30"})
        assert config_digest(plain) == config_digest(loose)
        assert loose.reservoir.n_mask == 8 and isinstance(loose.reservoir.n_mask, int)


def _reference_case_csv(path, cfg, weight):
    """cases.csv as written case by case: predict and score every case alone."""
    dataset = experiment.build_dataset(cfg)
    states = experiment.simulate_cases(cfg, dataset)
    val = set(dataset.val_idx.tolist())
    n_out = dataset.teachers.shape[1]
    lines = [f"# config_digest={config_digest(cfg)}",
             ",".join(["case", "split"] + [f"target_{j}" for j in range(n_out)]
                      + [f"estimate_{j}" for j in range(n_out)] + ["nmse"])]
    for i, sm in enumerate(states):
        est = predict(weight, [sm])[0]
        teacher = dataset.teachers[i]
        score = nmse([est], [teacher]).scores[0]
        lines.append(",".join([str(i), "val" if i in val else "train"]
                              + [repr(float(t)) for t in teacher]
                              + [repr(float(e)) for e in est] + [repr(float(score))]))
    path.write_text("\n".join(lines) + "\n")


class TestExperiment:
    def test_report_mean_matches_csv(self, tmp_path):
        cfg = tiny_config(tmp_path)
        report = run_experiment(cfg, jobs=1)
        rows = [
            line.split(",")
            for line in (tmp_path / "out" / "cases.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        header = rows[0]
        nmse_col = header.index("nmse")
        split_col = header.index("split")
        val_scores = [float(r[nmse_col]) for r in rows[1:] if r[split_col] == "val"]
        assert np.mean(val_scores) == pytest.approx(report.mean_nmse, rel=1e-12)
        assert len(val_scores) == report.val_idx.size

    def test_rerun_same_seed_is_byte_identical(self, tmp_path):
        cfg_a = tiny_config(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = tiny_config(tmp_path, out_dir=str(tmp_path / "b"))
        run_experiment(cfg_a, jobs=1)
        run_experiment(cfg_b, jobs=1)
        assert (tmp_path / "a" / "cases.csv").read_bytes() == (tmp_path / "b" / "cases.csv").read_bytes()
        assert (tmp_path / "a" / "weight.json").read_bytes() == (tmp_path / "b" / "weight.json").read_bytes()

    @pytest.mark.parametrize("kind", ["polynomial", "lwe-encrypt"])
    def test_case_csv_matches_per_case_reference(self, tmp_path, kind):
        # the run predicts and scores all cases at once; the reference
        # predicts and scores every case on its own
        cfg = tiny_config(tmp_path, kind)
        run_experiment(cfg, jobs=1)
        reference = tmp_path / "reference.csv"
        _reference_case_csv(reference, cfg, load_weight(tmp_path / "out" / "weight.json"))
        assert (tmp_path / "out" / "cases.csv").read_bytes() == reference.read_bytes()

    def test_case_csv_predicts_each_case_once(self, tmp_path, monkeypatch):
        # one predict call over every case and one nmse call, with or
        # without artefacts
        calls = {"predict": 0, "cases": 0, "nmse": 0}
        for name in ("predict", "nmse"):
            real = getattr(experiment, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                calls["cases"] += len(args[1]) if _name == "predict" else 0
                return _real(*args)

            monkeypatch.setattr(experiment, name, counted)
        cfg = tiny_config(tmp_path)
        for write_artifacts in (False, True):
            calls.update(predict=0, cases=0, nmse=0)
            run_experiment(cfg, jobs=1, write_artifacts=write_artifacts)
            assert calls == {"predict": 1, "cases": cfg.n_cases, "nmse": 1}

    def test_different_seed_changes_results(self, tmp_path):
        r1 = run_experiment(tiny_config(tmp_path, out_dir=str(tmp_path / "s1")), jobs=1)
        r2 = run_experiment(replace(tiny_config(tmp_path, out_dir=str(tmp_path / "s2")),
                                    master_seed=6), jobs=1)
        assert r1.mean_nmse != r2.mean_nmse

    def test_circles_report_includes_confusion(self, tmp_path):
        cfg = tiny_config(tmp_path, kind="circles")
        report = run_experiment(cfg, jobs=1)
        assert report.accuracy is not None
        assert report.confusion.sum() == report.val_idx.size

    @pytest.mark.parametrize("kind", ["poly-mod", "pair-sum", "pair-product",
                                      "pair-modlin", "lwe-decrypt"])
    def test_every_task_kind_runs_end_to_end(self, tmp_path, kind):
        cfg = tiny_config(tmp_path, kind=kind, n_cases=16,
                          out_dir=str(tmp_path / kind))
        report = run_experiment(cfg, jobs=1)
        assert np.isfinite(report.mean_nmse)
        assert 0.0 <= report.mean_nmse <= 1.0
        assert (tmp_path / kind / "cases.csv").exists()

    @pytest.mark.parametrize("carrier", ["square", "sine", "dc"])
    def test_every_carrier_runs_end_to_end(self, tmp_path, carrier):
        cfg = tiny_config(tmp_path, n_cases=16, out_dir=str(tmp_path / carrier))
        cfg = replace(cfg, reservoir=replace(cfg.reservoir, carrier=carrier))
        report = run_experiment(cfg, jobs=1, write_artifacts=False)
        assert np.isfinite(report.mean_nmse)

    def test_higher_sample_rate_config_runs(self, tmp_path):
        # one case at 10 MHz sampling exercises the fuller-fidelity path
        cfg = tiny_config(tmp_path, n_cases=1)
        cfg = replace(cfg, reservoir=replace(cfg.reservoir, sample_rate=1e7))
        report = run_experiment(cfg, jobs=1, write_artifacts=False)
        assert report.per_case_nmse[0] < 1e-6

    def test_full_profile_single_case_interpolation(self, tmp_path):
        # bench fidelity (100 MHz sampling, 50 masks, hold 10) on one case
        cfg = default_config(profile="full", task_kind="lwe-encrypt")
        cfg = replace(cfg, n_cases=1, master_seed=12, out_dir=str(tmp_path))
        report = run_experiment(cfg, jobs=1, write_artifacts=False)
        assert report.mean_nmse < 1e-6

    def test_classification_surface_grid(self, tmp_path):
        from chuarc.experiment import classification_surface, load_weight

        cfg = tiny_config(tmp_path, kind="circles", n_cases=40)
        run_experiment(cfg, jobs=1)
        weight = load_weight(tmp_path / "out" / "weight.json")
        xs = np.linspace(1.0, 4.0, 4)
        ys = np.linspace(1.0, 4.0, 4)
        grid = classification_surface(cfg, weight, xs, ys, value_max=5.0)
        assert grid.shape == (4, 4)
        assert set(np.unique(grid)) <= {0, 1}
        # centre of the shifted plane is inside the inner class-1 disk
        assert grid[2, 2] == 1

    def test_failure_manifest_written_on_generation_error(self, tmp_path):
        from chuarc.errors import GenerationError
        from chuarc.lwe import LweParams, UniformErrors

        cfg = tiny_config(tmp_path, kind="lwe-encrypt", n_cases=4)
        cfg = replace(cfg, lwe=LweParams(q=2, m=8, error_mode=UniformErrors(0, 0),
                                         n_samples=3, s=1))
        with pytest.raises(GenerationError):
            run_experiment(cfg, jobs=1)
        manifest = json.loads((tmp_path / "out" / "failure_manifest.json").read_text())
        assert manifest["task"] == "lwe-encrypt" and "error" in manifest


class TestSweep:
    def test_resistance_axis_at_80_ohm_steps(self):
        values = axis_values(1600.0, 2000.0, 80.0)
        assert len(values) == 6
        assert values[0] == 1600.0 and values[-1] == 2000.0

    def test_140_region_grid(self):
        grid = SweepGrid(
            resistances=axis_values(1700.0, 2100.0, 400.0 / 9),
            v_centers=tuple(np.linspace(0.2, 0.85, 14)),
            range_width=0.3,
        )
        assert len(grid.resistances) == 10
        assert len(grid.cells) == 140

    def test_mask_axis_rows(self):
        grid = SweepGrid(resistances=(1800.0,), v_centers=(0.7,),
                         n_masks=(1, 10, 25, 40, 50))
        assert len(grid.cells) == 5

    @pytest.mark.parametrize("n_masks", [(), (0,), (5, 0), (-1,)])
    def test_mask_axis_rejects_empty_or_below_one(self, n_masks):
        with pytest.raises(ConfigurationError) as err:
            SweepGrid(resistances=(1800.0,), v_centers=(0.7,), n_masks=n_masks)
        assert err.value.field == "sweep.n_masks"

    def test_small_sweep_runs_and_writes_csv(self, tmp_path):
        cfg = tiny_config(tmp_path, n_cases=10)
        grid = SweepGrid(resistances=(1700.0, 1800.0), v_centers=(0.7,), range_width=0.6)
        out = tmp_path / "sweep.csv"
        cells = run_sweep(cfg, grid, jobs=1, out_path=out)
        assert len(cells) == 2 and all(c.error is None for c in cells)
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "r_ohms,v_center,mean_nmse"
        assert len(lines) == 3

    def test_cell_below_the_sampling_limit_is_a_recorded_failure(self, tmp_path):
        # parse_config checks the configured carrier; a sweep cell derives its
        # own from R (at 10 ohm, 1.1 MHz against 1 MHz sampling), and
        # carrier_wave fails that cell alone
        cfg = tiny_config(tmp_path, n_cases=10)
        grid = SweepGrid(resistances=(10.0, 1800.0), v_centers=(0.7,))
        low, ok = run_sweep(cfg, grid, jobs=1)
        assert "reservoir.sample_rate" in low.error and math.isnan(low.mean_nmse)
        assert ok.error is None

    def test_cell_seeds_ignore_grid_shape(self, tmp_path):
        cfg = tiny_config(tmp_path, n_cases=10)
        small = SweepGrid(resistances=(1800.0,), v_centers=(0.7,))
        large = SweepGrid(resistances=(1700.0, 1800.0), v_centers=(0.7,))
        a = run_sweep(cfg, small, jobs=1)
        b = run_sweep(cfg, large, jobs=1)
        matching = [c for c in b if c.r_ohms == 1800.0][0]
        assert matching.mean_nmse == a[0].mean_nmse


class TestWeightPersistence:
    def _weight(self):
        rng = np.random.default_rng(3)
        from tests.test_pipeline import make_state

        cases = [(make_state(rng.normal(size=(6, 4))), rng.normal(size=2)) for _ in range(3)]
        return train_readout(cases, config_digest="abc123"), cases[0][0]

    def test_save_load_predict_identical(self, tmp_path):
        weight, sm = self._weight()
        path = tmp_path / "w.json"
        save_weight(weight, path)
        loaded = load_weight(path)
        assert np.array_equal(loaded.matrix, weight.matrix)
        assert np.array_equal(predict(loaded, [sm]), predict(weight, [sm]))

    def test_weight_file_schema(self, tmp_path):
        weight, _ = self._weight()
        path = tmp_path / "w.json"
        save_weight(weight, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"n_outputs", "n_channels", "bias", "offset",
                                "lambda", "seed", "config_digest", "matrix"}
        assert len(payload["matrix"]) == payload["n_outputs"] * (payload["n_channels"] + 1)

    def test_digest_mismatch_warns_but_loads(self, tmp_path):
        weight, sm = self._weight()
        path = tmp_path / "w.json"
        save_weight(weight, path)
        with pytest.warns(UserWarning):
            loaded = load_weight(path, expected_digest="different")
        assert np.array_equal(predict(loaded, [sm]), predict(weight, [sm]))

    def test_corrupted_file_is_structured_error(self, tmp_path):
        path = tmp_path / "w.json"
        save_weight(self._weight()[0], path)
        payload = json.loads(path.read_text())
        # a readout form nothing trains: no bias column, or shifted voltages;
        # then each key with a value of the wrong JSON type or range
        bad = [("bias", False), ("offset", 0.5), ("offset", False),
               ("n_outputs", -1), ("n_outputs", 2.7), ("n_outputs", True), ("n_outputs", 0),
               ("n_channels", 0), ("n_channels", 4.0), ("n_channels", "4"),
               ("seed", 1.5), ("seed", "0"), ("seed", None),
               ("lambda", "nan"), ("lambda", float("nan")), ("lambda", float("inf")),
               ("lambda", -1.0), ("lambda", True),
               ("matrix", [str(x) for x in payload["matrix"]]), ("matrix", payload["matrix"][1:]),
               ("matrix", [True] * len(payload["matrix"])), ("matrix", 1.0),
               ("config_digest", 5), ("config_digest", None)]
        files = [("bias", "{\"n_outputs\": 2}"), ("Expecting value", "not json at all")]
        files += [(key, json.dumps({**payload, key: value})) for key, value in bad]
        for key, text in files:
            path.write_text(text)
            with pytest.raises(ConfigurationError, match=key) as err:
                load_weight(path)
            assert err.value.field == "weight_file"


class TestPlots:
    def test_bifurcation_scatter(self, tmp_path):
        csv = tmp_path / "bif.csv"
        csv.write_text("# config_digest=feed\nparam,extremum_value\n1600.0,2.5\n1600.0,-2.5\n1700.0,1.0\n")
        out = tmp_path / "bif.svg"
        assert render_plot(csv, out) == "bifurcation"
        text = out.read_text()
        assert text.startswith("<svg") and "feed" in text

    def test_spectrum_line(self, tmp_path):
        csv = tmp_path / "spec.csv"
        csv.write_text("freq_hz,magnitude\n0.0,0.0\n100.0,2.0\n200.0,1.0\n")
        assert render_plot(csv, tmp_path / "spec.svg") == "spectrum"

    def test_sweep_heatmap(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        sweep_to_csv(
            [type("C", (), {"r_ohms": r, "v_center": v, "n_mask": None, "mean_nmse": r / 4000 + v})()
             for r in (1600.0, 1700.0) for v in (0.5, 0.7)],
            csv,
        )
        assert render_plot(csv, tmp_path / "sweep.svg") == "sweep"

    def test_histogram_with_bin_edges_metadata(self, tmp_path):
        csv = tmp_path / "cases.csv"
        rows = "\n".join(f"{i},val,1.0,1.1,{i/20}" for i in range(20))
        csv.write_text("case,split,target_0,estimate_0,nmse\n" + rows + "\n")
        out = tmp_path / "hist.svg"
        assert render_plot(csv, out) == "histogram"
        assert "bin_edges=" in out.read_text()

    def test_trace_lines(self, tmp_path):
        csv = tmp_path / "trace.csv"
        csv.write_text("t,v_cd,v_l\n0.0,0.1,0.0\n1e-06,0.2,0.1\n2e-06,0.15,0.05\n")
        assert render_plot(csv, tmp_path / "trace.svg") == "trace"

    def test_unknown_schema_rejected(self, tmp_path):
        csv = tmp_path / "odd.csv"
        csv.write_text("alpha,beta\n1,2\n")
        with pytest.raises(ConfigurationError):
            render_plot(csv, tmp_path / "odd.svg")


MALFORMED_TRACES = {
    "header_only": "# config_digest=ab\nt,v_cd,v_l\n",
    "non_numeric": "t,v_cd,v_l\n0.0,0.1,0.0\n1e-06,abc,0.1\n2e-06,0.15,0.05\n",
    "ragged": "t,v_cd,v_l\n0.0,0.1,0.0\n1e-06\n2e-06,0.15,0.05\n",
    "nan": "t,v_cd,v_l\n0.0,0.1,0.0\n1e-06,nan,0.1\n2e-06,0.15,0.05\n",
    "inf": "t,v_cd,v_l\n0.0,0.1,0.0\n1e-06,0.2,0.1\n2e-06,-inf,0.05\n",
}

#: Finite data whose range has no pixel scale.
UNSCALABLE = {
    # the span overflows to inf
    "wide_trace": "t,v_cd\n0.0,-1e308\n1e-06,1e308\n",
    # vmin + 1.0 == vmin: the widened span is still zero
    "constant_trace": "t,v_cd\n0.0,1e20\n1e-06,1e20\n",
    "constant_histogram": "case,split,nmse\n0,val,1e20\n1,val,1e20\n",
}


class TestMalformedCsv:
    """A malformed trace or spectrum CSV is a validation error (exit 1) that
    names the file, never a traceback."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
    def test_plot(self, tmp_path, capsys, case):
        csv = tmp_path / "trace.csv"
        csv.write_text(MALFORMED_TRACES[case])
        assert main(["plot", "--csv", str(csv), "--out-svg", str(tmp_path / "t.svg")]) == 1
        assert f"csv: {csv}:" in capsys.readouterr().err
        assert not (tmp_path / "t.svg").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
    def test_spectrum(self, tmp_path, capsys, case):
        csv = tmp_path / "trace.csv"
        csv.write_text(MALFORMED_TRACES[case])
        assert main(["spectrum", "--trace", str(csv), "--tap", "v_cd",
                     "--out", str(tmp_path), "--profile", "desk"]) == 1
        assert f"csv: {csv}:" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("case", ["nan", "inf"])
    def test_plot_spectrum_csv_non_finite(self, tmp_path, capsys, case):
        csv = tmp_path / "spectrum.csv"
        csv.write_text(f"freq_hz,magnitude\n0.0,1.0\n100.0,{case}\n")
        assert main(["plot", "--csv", str(csv), "--out-svg", str(tmp_path / "s.svg")]) == 1
        assert f"csv: {csv}:" in capsys.readouterr().err

    def test_missing_tap(self, tmp_path, capsys):
        csv = tmp_path / "trace.csv"
        csv.write_text("t,v_cd,v_l\n0.0,0.1,0.0\n1e-06,0.2,0.1\n")
        assert main(["spectrum", "--trace", str(csv), "--tap", "v_x",
                     "--out", str(tmp_path), "--profile", "desk"]) == 1
        assert "'v_x'" in capsys.readouterr().err

    def test_histogram_ignores_text_columns(self, tmp_path):
        # only the nmse column is parsed; a bad cell elsewhere is not read
        csv = tmp_path / "cases.csv"
        csv.write_text("case,split,target_0,estimate_0,nmse\n0,val,x,1.0,0.5\n1,train,1.0,1.1,0.25\n")
        assert render_plot(csv, tmp_path / "h.svg") == "histogram"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_plot_histogram_non_finite(self, tmp_path, capsys, value):
        csv = tmp_path / "cases.csv"
        csv.write_text(f"case,split,target_0,estimate_0,nmse\n0,val,1.0,1.1,0.5\n1,val,1.0,1.2,{value}\n")
        assert main(["plot", "--csv", str(csv), "--out-svg", str(tmp_path / "h.svg")]) == 1
        assert f"csv: {csv}:" in capsys.readouterr().err
        assert not (tmp_path / "h.svg").exists()

    def test_plot_bifurcation_nan_extremum(self, tmp_path, capsys):
        csv = tmp_path / "bifurcation.csv"
        csv.write_text("param,extremum_value\n1600.0,0.5\n1700.0,nan\n")
        assert main(["plot", "--csv", str(csv), "--out-svg", str(tmp_path / "b.svg")]) == 1
        assert f"csv: {csv}:" in capsys.readouterr().err
        assert not (tmp_path / "b.svg").exists()

    @pytest.mark.parametrize("column, value", [
        ("n_mask", "nan"), ("r_ohms", "nan"), ("r_ohms", "inf"), ("v_center", "inf"),
        ("v_center", "-inf"), ("mean_nmse", "inf"), ("mean_nmse", "-inf"), ("n_mask", "20"),
    ])
    def test_plot_sweep_non_finite(self, tmp_path, capsys, column, value):
        # a NaN mean_nmse (a failed cell, drawn grey) is the only non-finite
        # value a sweep CSV may hold, and the heatmap draws one mask count
        row = {"n_mask": "10", "r_ohms": "1700.0", "v_center": "0.6", "mean_nmse": "0.2", column: value}
        csv = tmp_path / "sweep.csv"
        csv.write_text("n_mask,r_ohms,v_center,mean_nmse\n10,1600.0,0.4,0.1\n10,1600.0,0.6,nan\n"
                       + ",".join(row.values()) + "\n")
        assert main(["plot", "--csv", str(csv), "--out-svg", str(tmp_path / "s.svg")]) == 1
        err = capsys.readouterr().err
        assert f"csv: {csv}:" in err and repr(column) in err
        assert not (tmp_path / "s.svg").exists()

    @pytest.mark.parametrize("case", sorted(UNSCALABLE))
    def test_plot_unscalable_range(self, tmp_path, capsys, case):
        csv = tmp_path / f"{case}.csv"
        csv.write_text(UNSCALABLE[case])
        assert main(["plot", "--csv", str(csv), "--out-svg", str(tmp_path / "u.svg")]) == 1
        err = capsys.readouterr().err
        assert f"csv: {csv}:" in err and "cannot be scaled" in err
        assert not (tmp_path / "u.svg").exists()


class TestCli:
    def test_import_starts_no_pool_machinery(self):
        code = ("import sys, chuarc.cli; "
                "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
        assert out.strip() == "[]"

    def test_show_config(self, capsys):
        assert main(["show-config", "--profile", "desk"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["profile"] == "desk"

    @pytest.mark.parametrize("file, flag, profile", [
        (None, None, "desk"),
        (None, "full", "full"),
        ({"n_cases": 9}, None, "full"),
        ({"n_cases": 9}, "desk", "desk"),
        ({"profile": "desk", "n_cases": 9}, None, "desk"),
        ({"profile": "desk", "n_cases": 9}, "full", "full"),
    ])
    def test_profile_flag_overrides_the_file(self, tmp_path, capsys, file, flag, profile):
        argv = ["show-config"] + (["--profile", flag] if flag else [])
        if file is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(file))
            argv += ["--config", str(path)]
        assert main(argv) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["profile"] == profile
        assert shown["reservoir"]["sample_rate"] == {"full": 1e8, "desk": 1e6}[profile]
        assert shown["n_cases"] == (9 if file else {"full": 2900, "desk": 320}[profile])

    #: sha256 of the `show-config` output for the benchmark workload configs
    #: and two flag-only resolutions, recorded before the dataclass codec
    SHOW_CONFIG = {
        ("desk-lwe", ()): "d6dc9068c57567e00676e20418665e2b5d2faaf984b387f10b0dec2d31b1f448",
        ("full-poly", ()): "daf93c78ae75a54285d1a66f695534c9990d7d6cf1edbf4177d59549c9cb8e71",
        ("tune", ()): "dc45201496dee12c651ac435171bec5e7b98f81f332ec32164d787db09029734",
        ("trace", ()): "b6d81fa6f6e11867bb04c08a3a84992dbc2825526746e6d7688096921bfd70b3",
        ("desk-lwe", ("--seed", "7", "--out", "runs/x")):
            "fad92716f816e7b9683fce02766b7bebd2b900edae4fb254c7a4a6ff2f094f85",
        ("full-poly", ("--seed", "7", "--out", "runs/x")):
            "65f59cd56bd823eb171ff9fe566239188c76123730759ad0bae2efb139cd85e2",
        ("tune", ("--seed", "7", "--out", "runs/x")):
            "f9dc94efa0ec3bff22465ac5de5c5203a7ab84f48012d9e4560db602a9498353",
        ("trace", ("--seed", "7", "--out", "runs/x")):
            "35dd685d61f8b83a4cae25e70e7c67cdbea97bbba2dd517a35b8cd847b5948bd",
        (None, ()): "b6d81fa6f6e11867bb04c08a3a84992dbc2825526746e6d7688096921bfd70b3",
        (None, ("--profile", "full", "--task", "lwe-decrypt", "--seed", "3")):
            "e3f9afdefca91405cdcbcb4e437fb7190ca2b705e06d419640ad7ada1a14de74",
    }
    WORKLOAD_CONFIGS = {
        "desk-lwe": {"profile": "desk", "task": {"kind": "lwe-encrypt"}, "n_cases": 520},
        "full-poly": {"profile": "full", "task": {"kind": "polynomial"}, "n_cases": 16},
        "tune": {"profile": "desk", "task": {"kind": "circles"}, "n_cases": 40},
        "trace": {"profile": "desk"},
    }

    @pytest.mark.parametrize("workload, flags", sorted(SHOW_CONFIG, key=str))
    def test_show_config_bytes_are_pinned(self, tmp_path, workload, flags):
        argv = ["show-config", *flags]
        if workload:
            path = tmp_path / f"{workload}.json"
            path.write_text(json.dumps(self.WORKLOAD_CONFIGS[workload]))
            argv += ["--config", str(path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == self.SHOW_CONFIG[workload, flags]

    @pytest.mark.parametrize("config, digest", [
        (None, "411836bddd0817ba79689691ef5768b9a133faaef1f871dbc283e00280670683"),
        ({"profile": "desk", "task": {"kind": "lwe-decrypt"},
          "lwe": {"q": 11, "m": 16, "s": 4, "error_mode": {"kind": "gaussian", "alpha": 1.5}}},
         "35701ac5109fb7069d45fe1738380944628af2614c88c03b2b2482ab2046da45"),
    ])
    def test_lwe_key_bytes_are_pinned(self, tmp_path, config, digest):
        argv = ["dataset", "--task", "lwe-encrypt", "--profile", "desk"]
        if config:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))
            argv = ["dataset", "--config", str(path)]
        assert main([*argv, "--n-cases", "6", "--out", str(tmp_path / "ds")]) == 0
        key = (tmp_path / "ds" / "lwe_key.json").read_bytes()
        assert hashlib.sha256(key).hexdigest() == digest

    def test_simulate_writes_trace(self, tmp_path):
        code = main(["simulate", "--profile", "desk", "--out", str(tmp_path),
                     "--t-end", "0.0002", "--dt", "1e-6"])
        assert code == 0
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[1] == "t,v_cd,v_l"

    def test_dataset_csv(self, tmp_path):
        code = main(["dataset", "--task", "modulo", "--n-cases", "12",
                     "--out", str(tmp_path), "--profile", "desk"])
        assert code == 0
        lines = (tmp_path / "dataset_modulo.csv").read_text().splitlines()
        assert lines[1] == "x,y_teacher"

    def test_dataset_lwe_json(self, tmp_path):
        code = main(["dataset", "--task", "lwe-encrypt", "--n-cases", "6",
                     "--out", str(tmp_path), "--profile", "desk"])
        assert code == 0
        rows = json.loads((tmp_path / "lwe_cases.json").read_text())
        assert len(rows) == 6
        assert set(rows[0]) == {"phi", "decrypt_value", "u", "v", "a_samples",
                                "b_samples", "q", "s", "m", "n_samples",
                                "public_a", "public_b", "seed"}
        assert (tmp_path / "lwe_key.json").exists()
        assert (tmp_path / "lwe_secret.json").exists()

    def test_dataset_lwe_json_holds_the_training_teachers(self, tmp_path):
        assert main(["dataset", "--task", "lwe-encrypt", "--n-cases", "30", "--seed", "5",
                     "--out", str(tmp_path), "--profile", "desk"]) == 0
        rows = json.loads((tmp_path / "lwe_cases.json").read_text())
        cfg = replace(default_config(profile="desk", task_kind="lwe-encrypt"),
                      n_cases=30, master_seed=5)
        assert [[float(r["u"]), float(r["v"])] for r in rows] == \
            experiment.build_dataset(cfg).teachers.tolist()

    def test_bifurcate_and_plot(self, tmp_path):
        code = main(["bifurcate", "--param", "r_variable", "--start", "1900",
                     "--stop", "2000", "--steps", "2", "--out", str(tmp_path),
                     "--t-end", "0.004", "--dt", "1e-6", "--profile", "desk"])
        assert code == 0
        csv = tmp_path / "bifurcation_r_variable.csv"
        assert csv.exists()
        assert main(["plot", "--csv", str(csv), "--out-svg", str(tmp_path / "b.svg")]) == 0

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"reservoir": {"v_min": 2.0, "v_max": 1.0}}))
        assert main(["show-config", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("raw, field", [
        ('{"reservoir": {"n_mask": "x"}}', "reservoir.n_mask"),
        ('{"circuit": {"c2": NaN}}', "circuit.c2"),
        ('{"reservoir": {"theta": 2.7}}', "reservoir.theta"),
        ('{"circuit": {"r_varaible": 1800}}', "circuit.r_varaible"),
        ('{"out_dir": null}', "out_dir"),
        ('{"out_dir": ["x"]}', "out_dir"),
        ('{"reservoir": {"use_envelope": true}}', "reservoir.use_envelope"),
        ('{"reservoir": {"seed": 5}}', "reservoir.seed"),
        ('{"reservoir": {"value_max": 1.0}}', "reservoir.value_max"),
    ])
    def test_bad_config_exits_1_without_traceback(self, tmp_path, capsys, monkeypatch, raw, field):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(raw)
        assert main(["train", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_spectrum_from_trace(self, tmp_path):
        assert main(["simulate", "--profile", "desk", "--out", str(tmp_path),
                     "--t-end", "0.002", "--dt", "1e-6"]) == 0
        assert main(["spectrum", "--trace", str(tmp_path / "trace.csv"),
                     "--out", str(tmp_path), "--profile", "desk"]) == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[1] == "freq_hz,magnitude"

    def test_runtime_failure_exit_code(self, tmp_path):
        # q=2 with zero errors never passes the round-trip filter
        cfg = {
            "profile": "desk",
            "task": {"kind": "lwe-encrypt"},
            "lwe": {"q": 2, "m": 8, "n_samples": 3, "s": 1,
                    "error_mode": {"kind": "uniform", "lo": 0, "hi": 0}},
            "n_cases": 4,
            "out_dir": str(tmp_path),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["dataset", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("command", ["dataset", "train", "eval", "sweep"])
    @pytest.mark.parametrize("n_cases", ["0", "-3"])
    def test_n_cases_below_one_exits_1(self, tmp_path, capsys, command, n_cases):
        out = tmp_path / "out"
        argv = [command, "--n-cases", n_cases, "--out", str(out)]
        if command == "eval":
            argv += ["--weight", str(tmp_path / "weight.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n_cases: ") and "Traceback" not in err
        assert not out.exists()

    # --svg draws one mask count
    @pytest.mark.parametrize("n_masks", [[], ["0"], ["5", "0"], ["5", "10", "--svg"]])
    def test_sweep_bad_mask_axis_exits_1(self, tmp_path, capsys, n_masks):
        out = tmp_path / "out"
        assert main(["sweep", "--out", str(out), "--n-cases", "10", "--n-masks", *n_masks]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sweep.n_masks: ") and "Traceback" not in err
        assert not (out / "sweep.csv").exists()

    def test_jobs_env_var_default(self, monkeypatch):
        from chuarc.cli import default_jobs

        monkeypatch.delenv("CHUARC_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("CHUARC_JOBS", "3")
        assert default_jobs() == 3
        for junk in ("junk", "0", "-2", "1.5", ""):
            monkeypatch.setenv("CHUARC_JOBS", junk)
            with pytest.raises(ConfigurationError, match="^CHUARC_JOBS: "):
                default_jobs()

    BIFURCATE = ["bifurcate", "--param", "r_variable", "--start", "1900", "--stop", "2000",
                 "--steps", "2", "--t-end", "0.001", "--dt", "1e-6", "--profile", "desk"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setenv("CHUARC_JOBS", "2")
        assert main([*self.BIFURCATE, "--out", str(tmp_path), "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: jobs: must be >= 1, got {jobs}") and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["bifurcate", "train", "eval", "sweep"])
    def test_bad_jobs_env_var_exits_1(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("CHUARC_JOBS", "junk")
        argv = self.BIFURCATE if command == "bifurcate" else [command, "--profile", "desk"]
        if command == "eval":
            argv = [*argv, "--weight", str(tmp_path / "w.json")]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CHUARC_JOBS: must be an integer >= 1, got 'junk'")
        assert "Traceback" not in err and not list(tmp_path.iterdir())

    def test_jobs_flag_overrides_a_bad_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHUARC_JOBS", "junk")
        assert main([*self.BIFURCATE, "--out", str(tmp_path), "--jobs", "1"]) == 0

    @pytest.mark.parametrize("argv, field", [
        ([*BIFURCATE, "--steps", "1"], "steps"),
        ([*BIFURCATE, "--steps", "0"], "steps"),
        (["sweep", "--r-step", "0"], "r_step"),
        (["sweep", "--vc-step", "0"], "vc_step"),
        (["sweep", "--r-step", "nan"], "r_step"),
        (["sweep", "--vc-start", "inf"], "vc_start"),
        (["sweep", "--r-stop=-inf"], "r_stop"),
        (["sweep", "--range-width", "nan"], "range_width"),
        (["sweep", "--r-step", "1e-320"], "r_step"),
        (["sweep", "--r-step", "1e-300"], "r_step"),
        (["sweep", "--vc-step", "1e-5"], "vc_step"),
        (["simulate", "--dt", "0"], "dt"),
        (["simulate", "--dt", "nan"], "dt"),
        (["simulate", "--t-end", "nan"], "t_end"),
        (["simulate", "--t-end", "inf"], "t_end"),
        (["simulate", "--drive-amplitude", "nan"], "drive_amplitude"),
        ([*BIFURCATE, "--dt", "nan"], "dt"),
        ([*BIFURCATE, "--t-end", "nan"], "t_end"),
        ([*BIFURCATE, "--drive-amplitude", "0.5", "--drive-frequency", "100", "--dt", "0"], "dt"),
        ([*BIFURCATE, "--drive-amplitude", "nan"], "drive_amplitude"),
        ([*BIFURCATE, "--start", "nan"], "start"),
    ])
    def test_bad_axis_exits_1(self, tmp_path, capsys, argv, field):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "Traceback" not in err
        assert not out.exists()

    def test_simulate_drives_with_a_negative_amplitude(self, tmp_path):
        argv = ["simulate", "--t-end", "0.0002", "--dt", "1e-6", "--drive-frequency", "1000"]
        assert main([*argv, "--out", str(tmp_path / "undriven")]) == 0
        assert main([*argv, "--drive-amplitude=-0.5", "--out", str(tmp_path / "driven")]) == 0
        trace = {run: plots._read_csv(tmp_path / run / "trace.csv")[1] for run in ("undriven", "driven")}
        assert not np.array_equal(trace["driven"], trace["undriven"])

    def test_readme_cli_examples_parse(self):
        block = README.read_text().split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        assert len(lines) == 9
        for line in lines:
            assert line.split()[0] == "chuarc"
            build_parser().parse_args(line.split()[1:])
        with pytest.raises(SystemExit):  # a removed flag fails the same way
            build_parser().parse_args(["plot", "--csv", "a.csv", "--out-svg", "a.svg", "--kind", "trace"])

    def test_sweep_command_with_svg(self, tmp_path):
        cfg = {
            "profile": "desk",
            "reservoir": {"n_mask": 6, "theta": 2},
            "n_cases": 10,
            "out_dir": str(tmp_path),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(cfg_path), "--jobs", "1",
                     "--r-start", "1700", "--r-stop", "1800", "--r-step", "100",
                     "--vc-start", "0.7", "--vc-stop", "0.7", "--vc-step", "0.1",
                     "--svg"])
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.svg").read_text().startswith("<svg")

    def test_train_and_eval(self, tmp_path, capsys):
        cfg = {
            "profile": "desk",
            "reservoir": {"n_mask": 6, "theta": 2},
            "n_cases": 16,
            "master_seed": 4,
            "out_dir": str(tmp_path / "run"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path), "--jobs", "1"]) == 0
        weight = tmp_path / "run" / "weight.json"
        assert weight.exists()
        assert main(["eval", "--config", str(cfg_path), "--weight", str(weight),
                     "--jobs", "1"]) == 0
        for key, value in (("bias", False), ("offset", 0.5), ("n_outputs", -1), ("seed", 1.5)):
            bad = tmp_path / f"{key}.json"
            bad.write_text(json.dumps({**json.loads(weight.read_text()), key: value}))
            assert main(["eval", "--config", str(cfg_path), "--weight", str(bad), "--jobs", "1"]) == 1
        # the polynomial weight has 1 output, lwe-encrypt 2 teachers
        capsys.readouterr()
        with pytest.warns(UserWarning, match="trained under config"):
            assert main(["eval", "--config", str(cfg_path), "--task", "lwe-encrypt",
                         "--weight", str(weight), "--jobs", "1"]) == 1
        assert "weight_file: weight has 1 outputs, task lwe-encrypt has 2" in capsys.readouterr().err
