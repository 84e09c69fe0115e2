"""Lockstep lane kernel and the one encoding path: bit-for-bit agreement with
the scalar kernel and with the per-case pipeline chain, for either backend, any
lane grouping and worker count, and failures that name the case."""

import pickle
import tracemalloc
from dataclasses import astuple, replace

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
    return np.repeat(np.array(astuple(init))[:, None], n_lanes, axis=1)


def every_step(p, start, levels, carrier, dt):
    """integrate_lanes keeping every step (lo 0, n_keep = hold): the end
    state and the taps as (n_steps, 2, n_lanes)."""
    n_levels, n_lanes = levels.shape
    taps = np.empty((n_levels, carrier.size // n_levels, 2, n_lanes))
    end = integrate_lanes(p, start, levels, carrier, dt, 0, taps)
    return end, taps.reshape(carrier.size, 2, n_lanes)


def lane_trace(p, init, levels, carrier, dt):
    """Both taps of every lane at every step, as (2, n_steps, n_lanes), and
    which lanes' end states are finite."""
    end, taps = every_step(p, lane_start(init, levels.shape[1]), levels, carrier, dt)
    return taps.transpose(1, 0, 2), np.isfinite(end).all(axis=0)


def carrier_of(kind, n_steps, dt):
    """A 6 kHz square, sine or dc unit carrier of n_steps samples."""
    wave = np.sin(2.0 * np.pi * 6000.0 * np.arange(n_steps) * dt)
    return {"square": np.where(wave >= 0.0, 1.0, -1.0), "sine": wave, "dc": np.ones(n_steps)}[kind]


class TestIntegrateLanes:
    @pytest.mark.parametrize("carrier_kind", ["square", "sine", "dc"])
    def test_every_tap_matches_scalar_integrate(self, carrier_kind):
        p, dt, hold = kennedy_circuit(1800.0), 1e-6, 3
        rng = np.random.default_rng(4)
        levels = rng.uniform(0.4, 1.0, size=(40, 5))
        carrier = carrier_of(carrier_kind, levels.shape[0] * hold, dt)
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

    def test_lanes_in_different_diode_segments_match_in_one_call(self):
        # one call whose lanes start on either side of zero, in every segment
        # and on both breakpoints, so the segment select differs lane by lane
        p, dt, hold = kennedy_circuit(1800.0), 1e-6, 10
        d = p.diode
        v_c1 = [s * v for v in (0.0, 0.5, d.bp_inner, 3.0, d.bp_outer, 9.0) for s in (1.0, -1.0)]
        start = np.array([[0.0] * len(v_c1), [0.0] * len(v_c1), v_c1])
        levels = np.random.default_rng(6).uniform(0.4, 1.0, size=(20, len(v_c1)))
        carrier = np.where(np.sin(np.arange(levels.shape[0] * hold) * 0.05) >= 0.0, 1.0, -1.0)
        end, taps = every_step(p, start, levels, carrier, dt)
        for lane, v in enumerate(v_c1):
            init = CircuitState(v_c1=v)
            drive = np.repeat(levels[:, lane], hold) * carrier
            # the end state, continued by the scalar kernel, must carry on the
            # scalar run of twice the horizon
            whole = integrate(p, init, np.concatenate([drive, drive]), 2 * carrier.size * dt, dt)
            rest = integrate(p, CircuitState(*end[:, lane]), drive, carrier.size * dt, dt)
            assert np.array_equal(bits(taps[:, :, lane].T), bits(whole.channels[:, :carrier.size]))
            assert np.array_equal(bits(rest.channels), bits(whole.channels[:, carrier.size:]))

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
            state, part_taps = every_step(p, state, levels[2 * part:2 * part + 2],
                                          carrier[steps], dt)
            taps[:, steps] = part_taps.transpose(1, 0, 2)
        assert np.array_equal(bits(taps), bits(whole))

    @pytest.mark.parametrize("shape", [(3, 1), (2, 4), (4, 4), (3,)])
    def test_a_start_of_another_shape_is_rejected(self, shape):
        # a (3, 1) start would broadcast to every lane
        levels, carrier = np.full((1, 4), 0.5), np.ones(10)
        with pytest.raises(ConfigurationError) as err:
            every_step(kennedy_circuit(), np.zeros(shape), levels, carrier, 1e-6)
        assert err.value.field == "start"

    @pytest.mark.parametrize("carrier_kind", ["square", "sine", "dc"])
    def test_kept_rows_fill_a_strided_store(self, carrier_kind):
        # the (lane, kept step, tap, level) store of the prefix walk, filled
        # through its transpose: every kept row is written, and holds the
        # scalar taps of step j * hold + lo + r
        p, dt, hold, lo, n_keep = kennedy_circuit(1800.0), 1e-6, 7, 2, 4
        levels = np.random.default_rng(7).uniform(0.4, 1.0, size=(30, 5))
        carrier = carrier_of(carrier_kind, levels.shape[0] * hold, dt)
        store = np.full((levels.shape[1], n_keep, 2, levels.shape[0]), np.nan)
        end = integrate_lanes(p, lane_start(DEFAULT_INITIAL_STATE, levels.shape[1]), levels,
                              carrier, dt, lo, store.transpose(3, 1, 2, 0))
        assert not np.isnan(store).any()
        steps = (np.arange(levels.shape[0])[:, None] * hold + lo + np.arange(n_keep)).reshape(-1)
        for lane in range(levels.shape[1]):
            drive = np.repeat(levels[:, lane], hold) * carrier
            trace = integrate(p, DEFAULT_INITIAL_STATE, drive, carrier.size * dt, dt)
            kept = store[lane].transpose(1, 2, 0).reshape(2, -1)  # (tap, level-major step)
            assert np.array_equal(bits(kept), bits(trace.channels[:, steps]))
        assert np.isfinite(end).all()

    @pytest.mark.parametrize("shape, lo", [
        ((3, 2, 2, 4), 0), ((2, 2, 3, 4), 0), ((2, 2, 2, 5), 0), ((2, 2, 2), 0),
        ((2, 2, 2, 4), -1), ((2, 2, 2, 4), 4), ((2, 6, 2, 4), 0),
    ], ids=["levels", "taps", "lanes", "ndim", "negative-lo", "past-the-slot", "longer-than-the-slot"])
    def test_a_store_of_another_shape_or_window_is_rejected(self, shape, lo):
        # 2 levels of 5 steps over 4 lanes; a row the kernel skipped would
        # keep np.empty garbage, so it raises before any step
        levels, carrier = np.full((2, 4), 0.5), np.ones(10)
        taps = np.full(shape, np.nan)
        with pytest.raises(ConfigurationError) as err:
            integrate_lanes(kennedy_circuit(), lane_start(DEFAULT_INITIAL_STATE, 4), levels,
                            carrier, 1e-6, lo, taps)
        assert err.value.field == "taps"
        assert np.isnan(taps).all()

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
        states.append(StateMatrix([b for p in parts for b in p.blocks], 1))
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

    def test_cases_of_a_worker_group_share_their_prefix_blocks(self, monkeypatch):
        # a worker's group comes back in one pickle call, which memoises each
        # stored block by identity, so the cases that share it still do
        cfg = CONFIGS["duplicates"]
        dataset = experiment.build_dataset(cfg)
        monkeypatch.setattr(pipeline, "LANE_CROSSOVER", 1)
        want = experiment.simulate_cases(cfg, dataset, jobs=1)
        got = experiment.simulate_cases(cfg, dataset, jobs=2)
        assert_same_states(got, want, 2)
        half = dataset.n_cases // 2
        shared = 0
        for group in (range(half), range(half, dataset.n_cases)):
            for i in group:
                for j in group:
                    for k in range(len(dataset.inputs[i])):
                        same = dataset.inputs[i][:k + 1] == dataset.inputs[j][:k + 1]
                        assert (got[i].blocks[k] is got[j].blocks[k]) == same, (i, j, k)
                        shared += same and i != j
        assert shared > 0


def count_lane_steps(monkeypatch):
    """Patch pipeline.integrate_lanes to list the lane-steps of each call."""
    counted = []

    def counting(p, start, levels, carrier, *args):
        counted.append(levels.shape[1] * carrier.size)
        return integrate_lanes(p, start, levels, carrier, *args)

    monkeypatch.setattr(pipeline, "integrate_lanes", counting)
    return counted


class TestSharedPrefixes:
    def lane_steps(self, cfg, monkeypatch):
        """(lane-steps of each kernel call, distinct prefixes per value, steps
        per value) of one lockstep group of the config's dataset."""
        dataset = experiment.build_dataset(cfg)
        reservoir = experiment._effective_reservoir(cfg, dataset.value_max)
        counted = count_lane_steps(monkeypatch)
        monkeypatch.setattr(pipeline, "LANE_CROSSOVER", 1)
        run_cases(dataset.inputs, reservoir, cfg.circuit)
        n_values = len(dataset.inputs[0])
        spp = reservoir.theta * samples_per_envelope_point(
            (n_values + 1) * reservoir.n_mask * reservoir.theta, reservoir)
        distinct = [len({tuple(raw[:k + 1]) for raw in dataset.inputs}) for k in range(n_values)]
        return counted, distinct, reservoir.n_mask * spp

    def test_each_distinct_prefix_is_integrated_once(self, monkeypatch):
        # the desk-lwe benchmark's dataset (seed 0)
        cfg = replace(default_config(profile="desk", task_kind="lwe-encrypt"), n_cases=520,
                      master_seed=0)
        counted, distinct, steps = self.lane_steps(cfg, monkeypatch)
        assert distinct == [7, 47, 164, 236, 257, 257, 258, 258, 258, 258, 516]
        # one kernel call per value, over that value's distinct prefixes
        assert counted == [n * steps for n in distinct]
        assert sum(counted) == 503_200
        assert 520 * len(distinct) * steps == 1_144_000

    def test_each_distinct_prefix_is_stored_once(self):
        # the desk-lwe benchmark's dataset (seed 0), as run_cases groups it
        cfg = replace(default_config(profile="desk", task_kind="lwe-encrypt"), n_cases=520,
                      master_seed=0)
        dataset = experiment.build_dataset(cfg)
        reservoir = experiment._effective_reservoir(cfg, dataset.value_max)
        states = run_cases(dataset.inputs, reservoir, cfg.circuit)
        n_values = len(dataset.inputs[0])
        distinct = [len({tuple(raw[:k + 1]) for raw in dataset.inputs}) for k in range(n_values)]
        stored = [len({id(sm.blocks[k]) for sm in states}) for k in range(n_values)]
        assert stored == distinct == [7, 47, 164, 236, 257, 257, 258, 258, 258, 258, 516]

    def test_duplicate_cases_store_no_more_states(self):
        # the second copy of a case shares every block of the first, so it adds
        # at most bookkeeping to the peak, never a case's states
        cfg = CONFIGS["duplicates"]
        dataset = experiment.build_dataset(cfg)
        n = dataset.n_cases
        doubled = replace(dataset, inputs=dataset.inputs * 2,
                          teachers=np.vstack([dataset.teachers] * 2),
                          train_idx=np.concatenate([dataset.train_idx, dataset.train_idx + n]),
                          val_idx=np.concatenate([dataset.val_idx, dataset.val_idx + n]))
        peaks = []
        for data in (dataset, doubled):
            tracemalloc.start()
            try:
                states = experiment.simulate_cases(cfg, data, jobs=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(states) == 2 * n >= pipeline.LANE_CROSSOVER
        case_bytes = 8 * states[0].n_rows * states[0].n_channels
        assert peaks[1] - peaks[0] < n * case_bytes

    def test_lanes_without_shared_prefixes_are_each_integrated(self, monkeypatch):
        cfg = replace(default_config(profile="desk", task_kind="polynomial"), n_cases=40)
        counted, distinct, steps = self.lane_steps(cfg, monkeypatch)
        assert distinct == [40]
        assert counted == [40 * steps]

    @pytest.mark.parametrize("name", ["lwe-encrypt", "circles"])
    def test_one_call_per_value_gives_the_same_bits(self, name, monkeypatch):
        # shared prefixes, and one lane per coordinate
        cfg = CONFIGS[name]
        dataset = experiment.build_dataset(cfg)
        reservoir = experiment._effective_reservoir(cfg, dataset.value_max)
        monkeypatch.setattr(pipeline, "LANE_CROSSOVER", 1)
        got = run_cases(dataset.inputs, reservoir, cfg.circuit,
                        per_coordinate=dataset.multi_input)
        assert_same_states(got, per_case_states(cfg, dataset), name)

    def test_the_kernel_fills_the_store_without_a_copy(self):
        # 64 desk polynomial cases: one lockstep group of 64 prefixes, whose
        # store is all the group retains; a store-sized temporary of kept taps
        # would peak at least one store above that
        cfg = replace(default_config(profile="desk", task_kind="polynomial"), n_cases=64)
        dataset = experiment.build_dataset(cfg)
        reservoir = experiment._effective_reservoir(cfg, dataset.value_max)
        assert dataset.n_cases >= pipeline.LANE_CROSSOVER
        tracemalloc.start()
        try:
            states = run_cases(dataset.inputs, reservoir, cfg.circuit)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len({id(sm.blocks[0]) for sm in states}) == 64
        store_bytes = 64 * states[0].blocks[0].nbytes
        assert peak - retained < store_bytes / 2, (peak - retained, store_bytes)

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
