"""Pipeline tests: normalisation, multiplexing algebra, carrier waves,
demultiplexing oracle, readout training, and error metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chuarc import pipeline
from chuarc.circuit import kennedy_circuit
from chuarc.errors import ConfigurationError
from chuarc.pipeline import (
    Mask,
    ReservoirConfig,
    StateMatrix,
    _passthrough_kernel,
    carrier_wave,
    demultiplex,
    make_mask,
    multiplex,
    nmse,
    normalize,
    nrmse,
    predict,
    run_case,
    sample_hold,
    samples_per_envelope_point,
    train_readout,
)


def small_cfg(**overrides):
    base = dict(
        v_min=0.1, v_max=0.5, value_max=6.0, n_mask=4, mask_deviation=0.01,
        theta=2, carrier="square", f_carrier=5802.5, n_periods=5,
        sample_rate=1e6, middle_fraction=0.8, seed=9,
    )
    base.update(overrides)
    return ReservoirConfig(**base)


class TestNormalize:
    def test_reference_mapping_to_three_decimals(self):
        cfg = small_cfg()
        got = normalize([0, 1, 2, 3, 4, 5, 6], cfg)
        want = [0.100, 0.167, 0.233, 0.300, 0.367, 0.433, 0.500]
        assert np.allclose(np.round(got, 3), want)

    def test_zero_maps_to_v_min(self):
        for lo, hi in ((0.1, 0.5), (0.4, 1.0), (0.2, 0.8)):
            cfg = small_cfg(v_min=lo, v_max=hi)
            assert normalize([0.0], cfg)[0] == lo

    def test_out_of_range_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ConfigurationError, match="^values: "):
            normalize([7.0], cfg)
        with pytest.raises(ConfigurationError, match="^values: "):
            normalize([-0.1], cfg)
        with pytest.raises(ConfigurationError, match="^values: "):
            normalize([float("nan"), 1.0], cfg)


class TestMask:
    def test_zero_deviation_gives_exact_ones(self):
        mask = make_mask(small_cfg(mask_deviation=0.0))
        assert np.all(mask.factors == 1.0)

    def test_factors_within_bound(self):
        mask = make_mask(small_cfg(n_mask=500))
        assert np.all(mask.factors >= 0.99) and np.all(mask.factors <= 1.01)

    def test_same_seed_same_mask(self):
        a = make_mask(small_cfg())
        b = make_mask(small_cfg())
        assert np.array_equal(a.factors, b.factors)

    def test_different_seed_differs(self):
        a = make_mask(small_cfg(seed=1))
        b = make_mask(small_cfg(seed=2))
        assert not np.array_equal(a.factors, b.factors)


class TestMultiplexAndHold:
    def test_length_11_times_4(self):
        mask = make_mask(small_cfg(n_mask=4))
        out = multiplex(np.arange(11, dtype=float), mask)
        assert out.size == 44

    def test_unity_mask_repeats_each_value(self):
        mask = Mask(np.ones(4))
        out = multiplex([3.0, 5.0], mask)
        assert np.array_equal(out, [3.0, 3.0, 3.0, 3.0, 5.0, 5.0, 5.0, 5.0])

    def test_value_major_block_structure(self):
        # every message value occupies exactly n_mask consecutive slots
        mask = make_mask(small_cfg(n_mask=4))
        msg = [1.0, 2.0, 3.0]
        out = multiplex(msg, mask)
        for i, v in enumerate(msg):
            block = out[i * 4:(i + 1) * 4]
            assert np.array_equal(block, v * mask.factors)

    def test_hold_identity_and_pairs(self):
        assert np.array_equal(sample_hold([1.0, 2.0], 1), [1.0, 2.0])
        assert np.array_equal(sample_hold([1.0, 2.0], 2), [1.0, 1.0, 2.0, 2.0])

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_length_law(self, n_msg, n_mask, theta):
        cfg = small_cfg(n_mask=n_mask, theta=theta)
        mask = make_mask(cfg)
        msg = np.linspace(0.0, 6.0, n_msg)
        env = sample_hold(multiplex(msg, mask), theta)
        assert env.size == n_msg * n_mask * theta

    def test_buffer_sizing_example(self):
        # a 12-value buffer multiplexed with 25 masks and held 10x spans 3000 points
        mask = make_mask(small_cfg(n_mask=25))
        env = sample_hold(multiplex(np.zeros(12), mask), 10)
        assert env.size == 3000


class TestCarrierWave:
    def test_dc_carrier_is_constant(self):
        assert np.array_equal(carrier_wave(40, small_cfg(carrier="dc")), np.ones(40))

    def test_square_carrier_has_unit_magnitude(self):
        wave = carrier_wave(400, small_cfg(carrier="square"))
        assert np.array_equal(np.abs(wave), np.ones(400))
        assert wave[0] == 1.0 and np.any(wave == -1.0)

    def test_sine_carrier_is_bounded_by_one(self):
        wave = carrier_wave(400, small_cfg(carrier="sine", n_periods=20))
        assert wave[0] == 0.0 and np.all(np.abs(wave) <= 1.0)

    def test_nyquist_guard(self):
        with pytest.raises(ConfigurationError):
            carrier_wave(4, small_cfg(sample_rate=8e3))


def labeled_trace(n_values, n_mask, spp, tap_offset=100.0):
    """Synthetic (tap, sample) channels whose sample value encodes its slot's
    mask index."""
    per_tap = np.repeat(np.tile(np.arange(n_mask, dtype=float), n_values), spp)
    return np.vstack([per_tap, per_tap + tap_offset])


class TestDemultiplex:
    def test_labeled_trace_recovers_pure_channels(self):
        tr = labeled_trace(n_values=3, n_mask=4, spp=10)
        sm = demultiplex(tr, n_values=3, n_mask=4, middle_fraction=0.8)
        assert sm.n_channels == 8
        for j in range(4):
            assert np.all(sm.values[:, j] == j)  # diode tap block
            assert np.all(sm.values[:, 4 + j] == j + 100.0)  # inductor tap block

    def test_channel_count_example(self):
        tr = labeled_trace(n_values=2, n_mask=4, spp=6)
        sm = demultiplex(tr, 2, 4)
        assert sm.values.shape == (2 * 5, 8)  # keep 5 of 6 samples per slot

    def test_full_fraction_single_mask_is_raw_sequence(self):
        samples = np.arange(12, dtype=float)
        sm = demultiplex(np.vstack([samples, samples]), n_values=3, n_mask=1, middle_fraction=1.0)
        assert np.array_equal(sm.values[:, 0], samples)

    def test_layout_mismatch_rejected(self):
        tr = labeled_trace(n_values=3, n_mask=4, spp=10)  # 120 samples
        with pytest.raises(ConfigurationError, match="^trace: "):
            demultiplex(tr, n_values=7, n_mask=4)

    def test_a_one_dimensional_array_is_rejected(self):
        with pytest.raises(ConfigurationError, match="^trace: "):
            demultiplex(np.zeros(120), n_values=3, n_mask=4)

    def test_row_count(self):
        tr = labeled_trace(n_values=3, n_mask=4, spp=10)
        sm = demultiplex(tr, 3, 4, middle_fraction=0.8)
        assert sm.n_rows == 3 * 8  # keep 8 of 10 samples per slot

    def test_kept_window_is_centred(self):
        # a ramp inside the single slot exposes the exact window position
        ramp = np.arange(10, dtype=float)
        sm = demultiplex(np.vstack([ramp, ramp]), n_values=1, n_mask=1, middle_fraction=0.4)
        assert np.array_equal(sm.values[:, 0], [3.0, 4.0, 5.0, 6.0])


def make_state(values):
    values = np.asarray(values, dtype=float)
    return StateMatrix(values=values)


class TestTraining:
    def test_single_case_interpolation_is_exact(self):
        rng = np.random.default_rng(2)
        sm = make_state(rng.normal(size=(12, 4)))
        teacher = np.array([6.0, 2.0])
        w = train_readout([(sm, teacher)])
        est = predict(w, [sm])[0]
        assert np.all(np.abs(est - teacher) / teacher < 1e-6)

    def test_matches_dense_least_squares_oracle(self):
        rng = np.random.default_rng(3)
        cases = [(make_state(rng.normal(size=(3, 2))), rng.normal(size=2)) for _ in range(2)]
        w = train_readout(cases)
        # independent dense solve on the stacked row system
        rows = np.vstack([np.hstack([np.ones((sm.n_rows, 1)), sm.values]) for sm, _ in cases])
        targets = np.vstack([np.tile(y, (sm.n_rows, 1)) for sm, y in cases])
        direct, *_ = np.linalg.lstsq(rows, targets, rcond=None)
        assert np.all(np.abs(w.matrix - direct.T) < 1e-9)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        a = make_state(rng.normal(size=(3, 4)))
        b = make_state(rng.normal(size=(3, 6)))
        with pytest.raises(ConfigurationError):
            train_readout([(a, [1.0]), (b, [1.0])])
        with pytest.raises(ConfigurationError):
            train_readout([])
        # every state of one call has one shape: two row counts are rejected
        c = make_state(rng.normal(size=(5, 4)))
        with pytest.raises(ConfigurationError) as err:
            train_readout([(a, [1.0]), (c, [1.0])])
        assert err.value.field == "cases"
        w = train_readout([(a, [1.0])])
        with pytest.raises(ConfigurationError) as err:
            predict(w, [a, c])
        assert err.value.field == "predict"

    def test_accumulation_order_is_deterministic(self):
        rng = np.random.default_rng(6)
        cases = [(make_state(rng.normal(size=(4, 4))), rng.normal(size=1)) for _ in range(6)]
        w1 = train_readout(cases)
        w2 = train_readout(cases)
        assert np.array_equal(w1.matrix, w2.matrix)

    def test_rank_deficient_solve_is_minimum_norm(self):
        # duplicated channels make the Gram matrix singular; the solution
        # must match the pseudoinverse (minimum-norm least squares)
        rng = np.random.default_rng(10)
        base = rng.normal(size=(6, 2))
        sm = make_state(np.hstack([base, base]))
        teacher = np.array([1.5])
        w = train_readout([(sm, teacher)])
        rows = np.hstack([np.ones((6, 1)), sm.values])
        xx = rows.T @ rows
        yy = (teacher[:, None] * rows.sum(axis=0)[None, :])
        want = (np.linalg.pinv(xx) @ yy.T).T
        assert np.allclose(w.matrix, want, atol=1e-9)


class TestPredict:
    def test_bias_only_weight_is_constant(self):
        w = train_readout([(make_state(np.zeros((3, 4))), np.array([2.5]))])
        sm = make_state(np.random.default_rng(1).normal(size=(7, 4)))
        matrix = np.zeros((1, 5))
        matrix[0, 0] = 3.25
        from chuarc.pipeline import ReadoutWeight

        w = ReadoutWeight(matrix=matrix, seed=0, config_digest="")
        assert predict(w, [sm])[0][0] == pytest.approx(3.25)

    def test_linearity_in_weights(self):
        from chuarc.pipeline import ReadoutWeight

        rng = np.random.default_rng(7)
        sm = make_state(rng.normal(size=(5, 4)))
        matrix = np.hstack([np.zeros((1, 1)), rng.normal(size=(1, 4))])
        w1 = ReadoutWeight(matrix=matrix, seed=0, config_digest="")
        w2 = ReadoutWeight(matrix=2 * matrix, seed=0, config_digest="")
        assert predict(w2, [sm])[0][0] == pytest.approx(2 * predict(w1, [sm])[0][0])

    def test_single_row_equals_affine_product(self):
        from chuarc.pipeline import ReadoutWeight

        sm = make_state(np.array([[0.3, -0.2, 0.5, 0.1]]))
        matrix = np.array([[1.0, 2.0, -1.0, 0.5, 4.0]])
        w = ReadoutWeight(matrix=matrix, seed=0, config_digest="")
        want = 1.0 + 2.0 * 0.3 - 1.0 * -0.2 + 0.5 * 0.5 + 4.0 * 0.1
        assert predict(w, [sm])[0][0] == pytest.approx(want, rel=1e-12)


class TestRunCase:
    def test_channel_count_at_bench_settings(self):
        cfg = small_cfg(n_mask=50, theta=2, v_min=0.4, v_max=1.0)
        sm = run_case([3.0, 5.0], cfg, kennedy_circuit(1800.0))
        assert sm.n_channels == 100

    def test_identity_pipeline_passthrough(self):
        cfg = small_cfg(n_mask=1, mask_deviation=0.0, theta=1, carrier="dc",
                        middle_fraction=1.0)
        raw = [1.0, 4.0, 6.0]
        sm = run_case(raw, cfg, kennedy_circuit(), kernel=_passthrough_kernel)
        expected_msg = normalize(raw, cfg)
        spe = samples_per_envelope_point(len(raw) + 1, cfg)
        want = np.repeat(expected_msg, spe)
        assert np.array_equal(sm.values[:, 0], want)
        assert np.array_equal(sm.values[:, 1], want)

    def test_same_seed_bit_identical(self):
        cfg = small_cfg(n_mask=6, theta=2)
        a = run_case([2.0, 5.0], cfg, kennedy_circuit(1800.0))
        b = run_case([2.0, 5.0], cfg, kennedy_circuit(1800.0))
        assert np.array_equal(a.values, b.values)

    def test_dummy_slots_dropped(self):
        cfg = small_cfg(n_mask=2, theta=1, carrier="dc", middle_fraction=1.0)
        raw = [6.0, 6.0]
        sm = run_case(raw, cfg, kennedy_circuit(), kernel=_passthrough_kernel)
        # dummy normalises to v_min; with passthrough no kept sample shows it
        assert np.all(sm.values > cfg.v_min + 1e-9)

    @pytest.mark.parametrize("kernel", [
        lambda drive, circuit, dt: drive,
        lambda drive, circuit, dt: np.vstack([drive, drive])[:, :-1],
    ], ids=["one-dimensional", "too-few-samples"])
    def test_kernel_must_return_two_taps_of_the_whole_drive(self, kernel):
        with pytest.raises(ConfigurationError, match="^trace: "):
            run_case([1.0, 4.0], small_cfg(), kennedy_circuit(), kernel=kernel)


class TestNmse:
    def test_exact_match_scores_zero(self):
        report = nmse([1.5], [1.5])
        assert report.scores[0] == 0.0 and report.mean == 0.0

    def test_reference_anchor_is_exactly_one(self):
        report = nmse([0.02], [0.01])
        assert report.scores[0] == 1.0

    def test_cap_applies(self):
        report = nmse([2.0], [1.0])
        assert report.scores[0] == 1.0

    def test_zero_target_flagged(self):
        report = nmse([0.5, 1.0], [0.0, 1.0])
        assert report.scores[0] == 1.0

    def test_vector_case_summed_form(self):
        est = np.array([6.5, 2.5])
        tgt = np.array([6.0, 2.0])
        report = nmse([est], [tgt])
        want = ((0.5**2 + 0.5**2) / (2 * (36.0 + 4.0)))
        assert report.scores[0] == pytest.approx(want, rel=1e-12)

    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_scores_always_within_cap(self, pairs):
        est = [e for e, _ in pairs]
        tgt = [t for _, t in pairs]
        report = nmse(est, tgt)
        assert np.all(report.scores >= 0.0) and np.all(report.scores <= 1.0)

    @pytest.mark.parametrize("estimates, targets", [
        ([1.0, 2.0], [1.0]),
        ([[1.0, 2.0]], [[1.0]]),  # one output against two: no broadcast
        ([[1.0, 2.0], [3.0, 4.0]], [1.0, 3.0]),
    ])
    def test_shape_mismatch_raises(self, estimates, targets):
        with pytest.raises(ConfigurationError, match="^estimates: "):
            nmse(estimates, targets)


def bits(x):
    """Exact bit patterns, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def per_case_rows(sm):
    return np.hstack([np.ones((sm.n_rows, 1)), sm.values])


def per_case_train(cases):
    """The readout weight accumulated and solved one case at a time."""
    d = 1 + cases[0][0].n_channels
    n_out = np.atleast_1d(cases[0][1]).size
    xx, yy = np.zeros((d, d)), np.zeros((n_out, d))
    for sm, teacher in cases:
        p = per_case_rows(sm)
        xx += p.T @ p
        yy += np.atleast_1d(np.asarray(teacher, dtype=float))[:, None] * p.sum(axis=0)[None, :]
    solution, *_ = np.linalg.lstsq(xx, yy.T, rcond=None)
    return solution.T


def per_case_nmse(estimate, target):
    ev = np.atleast_1d(np.asarray(estimate, dtype=float))
    tv = np.atleast_1d(np.asarray(target, dtype=float))
    denom = tv.size * float(np.sum(tv**2))
    return 1.0 if denom == 0.0 else min(1.0, float(np.sum((ev - tv) ** 2)) / denom)


class TestBlockReadout:
    """Readout blocks of cases against a per-case reference, bit for bit."""

    N_CASES = 10  # no multiple of the 3-case blocks below

    def cases(self, n_out, seed=21):
        rng = np.random.default_rng(seed)
        return [(make_state(rng.normal(size=(9, 6)) * 0.4),
                 rng.normal(size=n_out)) for _ in range(self.N_CASES)]

    def block_budgets(self, gram):
        d = 1 + 6
        case_bytes = 8 * 9 * d + (8 * d * d if gram else 0)
        return (1, 3 * case_bytes, pipeline.BUFFER_BYTES)

    @pytest.mark.parametrize("n_out", [1, 2])
    def test_train_matches_case_by_case(self, monkeypatch, n_out):
        cases = self.cases(n_out)
        want = per_case_train(cases)
        for budget in self.block_budgets(gram=True):
            monkeypatch.setattr(pipeline, "BUFFER_BYTES", budget)
            w = train_readout(cases)
            assert np.array_equal(bits(w.matrix), bits(want)), budget

    @pytest.mark.parametrize("n_out", [1, 2])
    def test_predict_matches_case_by_case(self, monkeypatch, n_out):
        from chuarc.pipeline import ReadoutWeight

        states = [sm for sm, _ in self.cases(n_out)]
        rng = np.random.default_rng(22)
        w = ReadoutWeight(matrix=rng.normal(size=(n_out, 1 + 6)) * 1e3,
                          seed=0, config_digest="")
        want = np.array([(w.matrix @ per_case_rows(sm).T).mean(axis=1) for sm in states])
        for budget in self.block_budgets(gram=False):
            monkeypatch.setattr(pipeline, "BUFFER_BYTES", budget)
            got = predict(w, states)
            assert got.shape == (self.N_CASES, n_out)
            assert np.array_equal(bits(got), bits(want)), budget
            assert np.array_equal(bits(predict(w, [states[4]])[0]), bits(want[4]))
            assert predict(w, []).shape == (0, n_out)

    @pytest.mark.parametrize("n_out", [1, 2, 9])
    def test_nmse_matches_case_by_case(self, n_out):
        rng = np.random.default_rng(23)
        targets = rng.normal(size=(12, n_out)) * 10.0 ** rng.integers(-3, 3, size=(12, 1))
        estimates = targets + rng.normal(size=(12, n_out)) * 0.3
        targets[2] = 0.0  # zero target with an error
        estimates[3] = targets[3] = 0.0  # zero target scored exactly
        estimates[5] *= 50.0  # far past the cap
        estimates[7] = np.nan
        targets[9], estimates[9] = 1e-154, 2.0  # the ratio overflows
        want = [per_case_nmse(e, t) for e, t in zip(estimates, targets)]
        for est, tgt in ((estimates, targets), (list(estimates), list(targets))):
            report = nmse(est, tgt)
            assert np.array_equal(bits(report.scores), bits(want))
        assert report.scores[5] == report.scores[7] == report.scores[9] == 1.0
        for n in (12, 11, 1):  # even and odd counts for the median
            report = nmse(estimates[:n], targets[:n])
            assert bits(report.mean) == bits(np.mean(want[:n]))
            assert bits(report.median) == bits(np.median(want[:n]))

    def test_nmse_of_scalar_cases_matches_case_by_case(self):
        estimates, targets = [0.5, 2.0, -1e-3, 7.0], [0.0, 1.0, 2e-3, 7.25]
        want = [per_case_nmse(e, t) for e, t in zip(estimates, targets)]
        assert np.array_equal(bits(nmse(estimates, targets).scores), bits(want))


class TestNrmse:
    def test_zero_for_exact_match(self):
        t = np.array([1.0, 2.0, 3.0])
        assert nrmse(t, t) == 0.0

    def test_one_sigma_shift_scores_one(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        sigma = t.std()
        assert nrmse(t + sigma, t) == pytest.approx(1.0, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        t = rng.normal(size=50)
        e = t + rng.normal(scale=0.3, size=50)
        assert nrmse(e + 5.0, t + 5.0) == pytest.approx(nrmse(e, t), rel=1e-9)

    def test_zero_spread_rejected(self):
        with pytest.raises(ConfigurationError, match="^targets: "):
            nrmse(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
