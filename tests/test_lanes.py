"""Lockstep lane kernel and the one encoding path: bit-for-bit agreement with
the scalar kernel and with the per-case pipeline chain, for either backend, any
lane grouping and worker count, and failures that name the case."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from chuarc import experiment, pipeline
from chuarc.circuit import (
    DEFAULT_INITIAL_STATE,
    CircuitState,
    integrate,
    integrate_lanes,
    kennedy_circuit,
)
from chuarc.config import default_config
from chuarc.errors import ChuaRcError, ConfigurationError, GenerationError, IntegrationError
from chuarc.pipeline import (
    StateMatrix,
    carrier_wave,
    demultiplex,
    make_mask,
    multiplex,
    normalize,
    run_cases,
    samples_per_envelope_point,
)


def bits(x):
    """Exact bit patterns, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def lane_start(init, n_lanes):
    """``init`` as the (3, n_lanes) start state of integrate_lanes."""
    return np.repeat([[init.v_c2], [init.v_c1], [init.i_l]], n_lanes, axis=1)


def lane_trace(p, init, levels, carrier, dt):
    """Both taps of every lane at every step, as (2, n_steps, n_lanes), and
    which lanes' end states are finite."""
    taps = np.empty((2, carrier.size, levels.shape[1]))

    def sink(step, v_cd, v_l):
        taps[0, step] = v_cd
        taps[1, step] = v_l

    end = integrate_lanes(p, lane_start(init, levels.shape[1]), levels, carrier, dt,
                          [True] * carrier.size, sink)
    return taps, np.isfinite(end).all(axis=0)


class TestIntegrateLanes:
    @pytest.mark.parametrize("carrier_kind", ["square", "sine", "dc"])
    def test_every_tap_matches_scalar_integrate(self, carrier_kind):
        p, dt, hold = kennedy_circuit(1800.0), 1e-6, 3
        rng = np.random.default_rng(4)
        levels = rng.uniform(0.4, 1.0, size=(40, 5))
        t = np.arange(levels.shape[0] * hold) * dt
        wave = np.sin(2.0 * np.pi * 6000.0 * t)
        carrier = {"square": np.where(wave >= 0.0, 1.0, -1.0), "sine": wave,
                   "dc": np.ones(t.size)}[carrier_kind]
        taps, finite = lane_trace(p, DEFAULT_INITIAL_STATE, levels, carrier, dt)
        assert finite.all()
        for lane in range(levels.shape[1]):
            drive = np.repeat(levels[:, lane], hold) * carrier
            trace = integrate(p, DEFAULT_INITIAL_STATE, drive, carrier.size * dt, dt)
            assert np.array_equal(bits(taps[:, :, lane]), bits(trace.channels[:, :-1]))

    def test_signed_zero_state_matches_bit_for_bit(self):
        # v_c1 = -0.0 is where |v1| differs from the scalar abs; the rates must not
        p, dt = kennedy_circuit(1800.0), 1e-6
        init = CircuitState(i_l=0.0, v_c2=0.0, v_c1=-0.0)
        levels = np.array([[0.0, 0.5]])
        carrier = np.ones(50)
        taps, _ = lane_trace(p, init, levels, carrier, dt)
        for lane in range(2):
            drive = levels[0, lane] * carrier
            trace = integrate(p, init, drive, carrier.size * dt, dt)
            assert np.array_equal(bits(taps[:, :, lane]), bits(trace.channels[:, :-1]))

    def test_a_run_continues_from_its_end_state(self):
        # the prefix walk of run_cases integrates a message value by value
        p, dt, hold = kennedy_circuit(1800.0), 1e-6, 4
        rng = np.random.default_rng(5)
        levels = rng.uniform(0.4, 1.0, size=(6, 3))
        carrier = np.where(np.sin(np.arange(levels.shape[0] * hold) * 0.3) >= 0.0, 1.0, -1.0)
        whole, _ = lane_trace(p, DEFAULT_INITIAL_STATE, levels, carrier, dt)
        state = lane_start(DEFAULT_INITIAL_STATE, 3)
        taps = np.empty_like(whole)
        for part in range(3):
            steps = slice(part * 2 * hold, (part + 1) * 2 * hold)

            def sink(step, v_cd, v_l, base=steps.start):
                taps[:, base + step] = v_cd, v_l

            state = integrate_lanes(p, state, levels[2 * part:2 * part + 2], carrier[steps], dt,
                                    [True] * (2 * hold), sink)
        assert np.array_equal(bits(taps), bits(whole))

    def test_divergence_is_reported_per_lane(self):
        p = replace(kennedy_circuit(1800.0), c1=1e-14)
        levels = np.array([[0.5, 0.0]])
        _, finite = lane_trace(p, DEFAULT_INITIAL_STATE, levels, np.ones(100), 1e-6)
        assert not finite.any()


def dataset_config(kind, **reservoir):
    cfg = default_config(profile="desk", task_kind=kind)
    fields = dict(n_mask=8, theta=2, n_periods=1)
    fields.update(reservoir)
    return replace(cfg, n_cases=10, master_seed=3,
                   reservoir=replace(cfg.reservoir, **fields))


CONFIGS = {
    "square": dataset_config("polynomial"),
    "sine": dataset_config("polynomial", carrier="sine"),
    "dc": dataset_config("polynomial", carrier="dc"),
    "one-sample-per-point": dataset_config("pair-sum", n_mask=50, theta=4),
    "circles": dataset_config("circles"),
    # lanes that share message prefixes: the two records of an LWE candidate
    # share all but the last value, and 40 decrypt cases hold exact duplicates
    "lwe-encrypt": dataset_config("lwe-encrypt"),
    "lwe-decrypt": dataset_config("lwe-decrypt"),
    "duplicates": replace(dataset_config("lwe-decrypt"), n_cases=40),
}


def reference_drive(raw, cfg, with_dummy=False):
    """Normalise, multiplex, hold each envelope point theta times and then for
    its samples, and modulate the carrier, independent of run_cases. The slot
    length counts a trailing dummy value of 0, which is driven only
    ``with_dummy``."""
    message = list(raw) + ([0.0] if with_dummy else [])
    n_env = (len(raw) + 1) * cfg.n_mask * cfg.theta
    envelope = np.repeat(multiplex(normalize(message, cfg), make_mask(cfg)), cfg.theta)
    held = np.repeat(envelope, samples_per_envelope_point(n_env, cfg))
    return held * carrier_wave(held.size, cfg)


def reference_state(raw, cfg, circuit):
    """One case through the per-case chain: drive the real message alone,
    integrate its steps, demultiplex."""
    drive = reference_drive(raw, cfg)
    dt = 1.0 / cfg.sample_rate
    n_real = drive.size
    trace = integrate(circuit, DEFAULT_INITIAL_STATE, drive, n_real * dt, dt)
    return demultiplex(trace.channels[:, :n_real], len(raw), cfg.n_mask, cfg.middle_fraction)


def per_case_states(cfg, dataset):
    """Reference states; multi-input cases run each coordinate alone and
    concatenate the coordinates' channels."""
    reservoir = experiment._effective_reservoir(cfg, dataset.value_max)
    if not dataset.multi_input:
        return [reference_state(raw, reservoir, cfg.circuit) for raw in dataset.inputs]
    states = []
    for raw in dataset.inputs:
        parts = [reference_state([c], reservoir, cfg.circuit) for c in raw]
        states.append(StateMatrix(values=np.hstack([p.values for p in parts])))
    return states


def assert_same_states(got, want, key):
    assert len(got) == len(want), key
    for a, b in zip(got, want):
        assert np.array_equal(a.values, b.values), key


class TestSimulateCases:
    def test_configs_cover_both_hold_regimes(self):
        spe = {}
        for name, cfg in CONFIGS.items():
            ds = experiment.build_dataset(cfg)
            n_values = 1 if ds.multi_input else len(ds.inputs[0])
            n_env = (n_values + 1) * cfg.reservoir.n_mask * cfg.reservoir.theta
            spe[name] = samples_per_envelope_point(n_env, cfg.reservoir)
        assert spe["one-sample-per-point"] == 1
        assert spe["square"] > 1

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_any_lane_grouping_matches_run_case(self, name, monkeypatch):
        cfg = CONFIGS[name]
        dataset = experiment.build_dataset(cfg)
        want = per_case_states(cfg, dataset)
        reservoir = experiment._effective_reservoir(cfg, dataset.value_max)
        # the default crossover keeps these small groups scalar; 1 forces lockstep
        for crossover in (pipeline.LANE_CROSSOVER, 1):
            monkeypatch.setattr(pipeline, "LANE_CROSSOVER", crossover)
            for size in (1, 7, dataset.n_cases):
                got = []
                for start in range(0, dataset.n_cases, size):
                    got += run_cases(dataset.inputs[start:start + size], reservoir,
                                     cfg.circuit, per_coordinate=dataset.multi_input)
                assert_same_states(got, want, (crossover, size))

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_any_worker_count_matches_run_case(self, name, monkeypatch):
        cfg = CONFIGS[name]
        dataset = experiment.build_dataset(cfg)
        want = per_case_states(cfg, dataset)
        width = sum(map(len, dataset.inputs)) if dataset.multi_input else dataset.n_cases
        # lockstep, the default, and scalar for every group; pool workers are
        # forked, so they see the patched crossover
        for crossover in (1, pipeline.LANE_CROSSOVER, width + 1):
            monkeypatch.setattr(pipeline, "LANE_CROSSOVER", crossover)
            for jobs in (1, 2):
                got = experiment.simulate_cases(cfg, dataset, jobs=jobs)
                assert_same_states(got, want, (crossover, jobs))

    def test_zero_jobs_runs_in_process(self):
        cfg = CONFIGS["square"]
        dataset = experiment.build_dataset(cfg)
        got = experiment.simulate_cases(cfg, dataset, jobs=0)
        assert_same_states(got, per_case_states(cfg, dataset), 0)

    def test_duplicates_config_holds_duplicate_cases(self):
        inputs = experiment.build_dataset(CONFIGS["duplicates"]).inputs
        assert len({tuple(raw) for raw in inputs}) < len(inputs)

    def test_case_values_are_contiguous_views_of_one_block(self):
        cfg = CONFIGS["circles"]
        dataset = experiment.build_dataset(cfg)
        reservoir = experiment._effective_reservoir(cfg, dataset.value_max)
        states = run_cases(dataset.inputs, reservoir, cfg.circuit, per_coordinate=True)
        base = states[0].values.base
        assert base is not None
        for sm in states:
            assert sm.values.flags.c_contiguous and sm.values.base is base


def count_lane_steps(monkeypatch):
    """Patch pipeline.integrate_lanes to add up the lane-steps it integrates."""
    counted = []

    def counting(p, start, levels, carrier, *args):
        counted.append(levels.shape[1] * carrier.size)
        return integrate_lanes(p, start, levels, carrier, *args)

    monkeypatch.setattr(pipeline, "integrate_lanes", counting)
    return counted


class TestSharedPrefixes:
    def lane_steps(self, cfg, monkeypatch):
        """(counted lane-steps, distinct prefixes per value, steps per value)
        of one lockstep group of the config's dataset."""
        dataset = experiment.build_dataset(cfg)
        reservoir = experiment._effective_reservoir(cfg, dataset.value_max)
        counted = count_lane_steps(monkeypatch)
        monkeypatch.setattr(pipeline, "LANE_CROSSOVER", 1)
        run_cases(dataset.inputs, reservoir, cfg.circuit)
        n_values = len(dataset.inputs[0])
        spp = reservoir.theta * samples_per_envelope_point(
            (n_values + 1) * reservoir.n_mask * reservoir.theta, reservoir)
        distinct = [len({tuple(raw[:k + 1]) for raw in dataset.inputs}) for k in range(n_values)]
        return sum(counted), distinct, reservoir.n_mask * spp

    def test_each_distinct_prefix_is_integrated_once(self, monkeypatch):
        # the desk-lwe benchmark's dataset (seed 0)
        cfg = replace(default_config(profile="desk", task_kind="lwe-encrypt"), n_cases=520,
                      master_seed=0)
        counted, distinct, steps = self.lane_steps(cfg, monkeypatch)
        assert distinct == [7, 47, 164, 236, 257, 257, 258, 258, 258, 258, 516]
        assert counted == sum(distinct) * steps == 503_200
        assert 520 * len(distinct) * steps == 1_144_000

    def test_lanes_without_shared_prefixes_are_each_integrated(self, monkeypatch):
        cfg = replace(default_config(profile="desk", task_kind="polynomial"), n_cases=40)
        counted, distinct, steps = self.lane_steps(cfg, monkeypatch)
        assert distinct == [40]
        assert counted == 40 * steps

    # a slot of lwe-encrypt's 10 lanes keeps 2 steps, at 16 bytes per lane and
    # step: one row of a slot per flush, 3 + 3 + 2 slots per value, and one
    # flush per value
    @pytest.mark.parametrize("name", ["lwe-encrypt", "circles"])
    @pytest.mark.parametrize("slab_bytes", [1, 3 * 16 * 2 * 10, 1 << 30])
    def test_any_slab_budget_gives_the_same_bits(self, name, slab_bytes, monkeypatch):
        cfg = CONFIGS[name]
        dataset = experiment.build_dataset(cfg)
        reservoir = experiment._effective_reservoir(cfg, dataset.value_max)
        monkeypatch.setattr(pipeline, "LANE_CROSSOVER", 1)
        monkeypatch.setattr(pipeline, "BUFFER_BYTES", slab_bytes)
        got = run_cases(dataset.inputs, reservoir, cfg.circuit,
                        per_coordinate=dataset.multi_input)
        assert_same_states(got, per_case_states(cfg, dataset), slab_bytes)

    def test_a_diverging_shared_prefix_names_the_lower_case(self, monkeypatch):
        cfg = diverging_config()
        reservoir = replace(cfg.reservoir, value_max=3.0)
        # cases 1 and 2 share the prefix (2.0, 3.0), which diverges in its
        # second value; case 3 diverges at an earlier step, but is higher
        inputs = [[0.1, 0.1, 0.1], [2.0, 3.0, 0.2], [2.0, 3.0, 0.9], [3.0, 3.0, 0.1]]
        steps = []
        for raw in inputs[1:]:
            with pytest.raises(IntegrationError) as err:
                reference_state(raw, reservoir, cfg.circuit)
            steps.append(err.value.step_index)
        per_value = reference_drive(inputs[0], reservoir).size // 3
        assert steps[0] == steps[1] < 2 * per_value
        assert steps[2] < steps[0]
        monkeypatch.setattr(pipeline, "LANE_CROSSOVER", 1)
        for group in (inputs, inputs[1:3]):
            with pytest.raises(IntegrationError) as err:
                run_cases(group, reservoir, cfg.circuit)
            assert (err.value.case_index, err.value.step_index) == (group.index(inputs[1]),
                                                                    steps[0])


def diverging_config():
    # with a 1 nF diode-side capacitor the outer diode segment is too stiff for
    # a 1 us step, so only cases driven hard enough to reach it diverge
    cfg = default_config(profile="desk", task_kind="polynomial")
    return replace(cfg, n_cases=12, circuit=replace(cfg.circuit, c1=1e-9),
                   reservoir=replace(cfg.reservoir, n_mask=8, theta=2, v_min=0.1, v_max=60.0))


class TestDivergence:
    def first_scalar_failure(self, cfg, dataset):
        reservoir = experiment._effective_reservoir(cfg, dataset.value_max)
        for index, raw in enumerate(dataset.inputs):
            try:
                reference_state(raw, reservoir, cfg.circuit)
            except IntegrationError as exc:
                return index, exc.step_index
        raise AssertionError("no case diverged")

    def test_only_the_real_message_can_diverge(self, monkeypatch):
        # case 6 diverges only inside the dummy value's slots, which are never
        # integrated: it passes, and case 7 is the first failure
        cfg = diverging_config()
        dataset = experiment.build_dataset(cfg)
        reservoir = experiment._effective_reservoir(cfg, dataset.value_max)
        assert self.first_scalar_failure(cfg, dataset) == (7, 347)
        drive = reference_drive(dataset.inputs[6], reservoir, with_dummy=True)
        n_real = reference_drive(dataset.inputs[6], reservoir).size
        dt = 1.0 / reservoir.sample_rate
        with pytest.raises(IntegrationError) as err:
            integrate(cfg.circuit, DEFAULT_INITIAL_STATE, drive, drive.size * dt, dt)
        assert err.value.step_index == 439 >= n_real
        inputs = dataset.inputs[:7]
        want = [reference_state(raw, reservoir, cfg.circuit) for raw in inputs]
        for crossover in (1, pipeline.LANE_CROSSOVER):
            monkeypatch.setattr(pipeline, "LANE_CROSSOVER", crossover)
            for size in (1, 3, len(inputs)):
                got = []
                for start in range(0, len(inputs), size):
                    got += run_cases(inputs[start:start + size], reservoir, cfg.circuit)
                assert_same_states(got, want, (crossover, size))
            for jobs in (1, 2):
                got = experiment._simulate(reservoir, cfg.circuit, inputs, False, jobs)
                assert_same_states(got, want, (crossover, jobs))
                with pytest.raises(IntegrationError) as err:
                    experiment._simulate(reservoir, cfg.circuit, dataset.inputs, False, jobs)
                assert (err.value.case_index, err.value.step_index) == (7, 347)

    def test_error_names_the_first_failing_case_and_step(self, monkeypatch):
        cfg = diverging_config()
        dataset = experiment.build_dataset(cfg)
        case, step = self.first_scalar_failure(cfg, dataset)
        assert case > 0  # earlier cases stay finite
        for crossover in (1, pipeline.LANE_CROSSOVER):
            monkeypatch.setattr(pipeline, "LANE_CROSSOVER", crossover)
            for jobs in (1, 2):
                with pytest.raises(IntegrationError) as err:
                    experiment.simulate_cases(cfg, dataset, jobs=jobs)
                assert (err.value.case_index, err.value.step_index) == (case, step)
                assert f"at step {step} in case {case}" in str(err.value)

    def test_lane_group_names_its_lowest_failing_case(self, monkeypatch):
        cfg = diverging_config()
        dataset = experiment.build_dataset(cfg)
        case, step = self.first_scalar_failure(cfg, dataset)
        reservoir = experiment._effective_reservoir(cfg, dataset.value_max)
        for crossover in (1, pipeline.LANE_CROSSOVER):
            monkeypatch.setattr(pipeline, "LANE_CROSSOVER", crossover)
            for size in (1, 5, dataset.n_cases):
                start = case // size * size
                with pytest.raises(IntegrationError) as err:
                    run_cases(dataset.inputs[start:start + size], reservoir, cfg.circuit)
                assert (err.value.case_index, err.value.step_index) == (case - start, step)

    def test_multi_input_group_names_the_case_not_the_lane(self, monkeypatch):
        base = diverging_config()
        cfg = replace(base, task=replace(base.task, kind="circles"))
        dataset = experiment.build_dataset(cfg)
        reservoir = experiment._effective_reservoir(cfg, dataset.value_max)
        inputs = dataset.inputs[1:]
        failures = []
        for case, raw in enumerate(inputs):
            for coord, value in enumerate(raw):
                try:
                    reference_state([value], reservoir, cfg.circuit)
                except IntegrationError as exc:
                    failures.append((case, coord, exc.step_index))
        case, coord, step = failures[0]
        assert coord == 1  # the failing lane, 2 * case + 1, is not the case index
        for crossover in (1, pipeline.LANE_CROSSOVER):
            monkeypatch.setattr(pipeline, "LANE_CROSSOVER", crossover)
            with pytest.raises(IntegrationError) as err:
                run_cases(inputs, reservoir, cfg.circuit, per_coordinate=True)
            assert (err.value.case_index, err.value.step_index) == (case, step)

    def test_failure_manifest_carries_the_message(self, tmp_path, monkeypatch):
        import json

        monkeypatch.setattr(pipeline, "LANE_CROSSOVER", 1)
        cfg = replace(diverging_config(), out_dir=str(tmp_path))
        with pytest.raises(IntegrationError) as err:
            experiment.run_experiment(cfg, jobs=1)
        manifest = json.loads((tmp_path / "failure_manifest.json").read_text())
        assert manifest["error"] == str(err.value)
        assert "in case" in manifest["error"]

    def test_error_survives_pickling(self):
        exc = pickle.loads(pickle.dumps(IntegrationError(17, case_index=4)))
        assert (exc.step_index, exc.case_index) == (17, 4)
        assert str(exc) == "non-finite state at step 17 in case 4"
        # every error class crosses a process pool with its type, message and fields
        errors = [ChuaRcError("base"), ConfigurationError("circuit.c1", "must be strictly positive"),
                  IntegrationError(3), GenerationError(0.25, "attempt budget exhausted")]
        classes, todo = set(), [ChuaRcError]
        while todo:
            cls = todo.pop()
            classes.add(cls)
            todo += cls.__subclasses__()
        assert {type(e) for e in errors} == classes
        for exc in errors:
            copy = pickle.loads(pickle.dumps(exc))
            assert type(copy) is type(exc)
            assert (str(copy), copy.__dict__) == (str(exc), exc.__dict__)
