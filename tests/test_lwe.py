"""LWE cryptosystem tests: worked encryption/decryption records, error
distributions, dataset generation with the round-trip filter, and the
error-sum enumeration oracle."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chuarc import lwe
from chuarc.errors import ConfigurationError, GenerationError
from chuarc.lwe import (
    GaussianErrors,
    LweParams,
    LweTestCase,
    PublicKey,
    UniformErrors,
    decrypt_bit,
    encrypt_sums,
    gaussian_sigma,
    generate_testcases,
    keygen,
    save_dataset,
)
from chuarc.tasks import TaskSpec, build_dataset


class TestErrorDistribution:
    def test_sigma_for_unit_alpha(self):
        assert round(gaussian_sigma(1.0), 6) == 0.398942

    def test_uniform_support_and_frequencies(self):
        rng = np.random.default_rng(21)
        draws = [UniformErrors(0, 3).draw(rng) for _ in range(10_000)]
        values, counts = np.unique(draws, return_counts=True)
        assert set(values) == {0, 1, 2, 3}
        assert np.all(np.abs(counts / 10_000 - 0.25) < 0.03)

    def test_gaussian_mode_rounds_to_integers(self):
        rng = np.random.default_rng(22)
        draws = [GaussianErrors(alpha=2.0).draw(rng) for _ in range(1000)]
        assert all(isinstance(d, int) for d in draws)
        assert np.std(draws) == pytest.approx(gaussian_sigma(2.0), abs=0.2)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            GaussianErrors(alpha=0.0)


class TestKeygen:
    def test_key_equation_with_degenerate_errors(self):
        # pin every error to 2 so b_i = (a_i*s + 2) mod q is fully checkable
        params = LweParams(q=5, m=12, error_mode=UniformErrors(2, 2), n_samples=3, s=3)
        pk = keygen(params, np.random.default_rng(1))
        for a, b in zip(pk.a, pk.b):
            assert b == (a * 3 + 2) % 5

    def test_zero_secret_zero_error_gives_zero_b(self):
        params = LweParams(q=7, m=10, error_mode=UniformErrors(0, 0), n_samples=2, s=0)
        pk = keygen(params, np.random.default_rng(2))
        assert all(b == 0 for b in pk.b)

    def test_entries_within_modulus(self):
        params = LweParams(q=29, m=50, error_mode=GaussianErrors(3.0), n_samples=5, s=11)
        pk = keygen(params, np.random.default_rng(3))
        assert all(0 <= a <= 28 for a in pk.a)
        assert all(0 <= b <= 28 for b in pk.b)

    def test_key_length_is_bounded(self):
        # checked at construction, before keygen could allocate the key
        assert LweParams(m=lwe.MAX_M).m == lwe.MAX_M
        with pytest.raises(ConfigurationError) as err:
            LweParams(m=lwe.MAX_M + 1)
        assert err.value.field == "lwe.m"


class TestEncrypt:
    def test_worked_record_q29_bit1(self):
        u, v = encrypt_sums([0, 4, 20, 21, 11], [1, 15, 17, 0, 5], phi=1, q=29)
        assert (u, v) == (27, 23)

    def test_worked_record_q29_bit0(self):
        u, v = encrypt_sums([26, 22, 12, 17, 21], [26, 10, 17, 14, 0], phi=0, q=29)
        assert (u, v) == (11, 9)

    def test_worked_records_q7(self):
        assert encrypt_sums([4, 2, 6, 0, 6], [2, 5, 5, 0, 6], phi=0, q=7) == (4, 4)
        assert encrypt_sums([4, 2, 6, 0, 6], [2, 5, 5, 0, 6], phi=1, q=7) == (4, 0)

    def test_all_zero_samples(self):
        assert encrypt_sums([0] * 5, [0] * 5, phi=0, q=7) == (0, 0)

    def test_worked_interpolation_case(self):
        # the buffer [6,3,1,3,0,5,6,2,6,1,1] encrypts to (6, 2)
        assert encrypt_sums([6, 3, 1, 3, 0], [5, 6, 2, 6, 1], phi=1, q=7) == (6, 2)

    def test_u_depends_only_on_a_samples(self):
        a, b = [4, 2, 6, 0, 6], [2, 5, 5, 0, 6]
        u0, _ = encrypt_sums(a, b, 0, 7)
        u1, _ = encrypt_sums(a, b, 1, 7)
        assert u0 == u1 == sum(a) % 7


class TestDecrypt:
    def test_worked_record_q29(self):
        raw, bit = decrypt_bit((27, 23), s=11, q=29)
        assert (raw, bit) == (16, 1)
        raw, bit = decrypt_bit((11, 9), s=11, q=29)
        assert bit == 0

    def test_worked_records_q7(self):
        assert decrypt_bit((4, 4), s=2, q=7) == (3, 0)
        assert decrypt_bit((4, 0), s=2, q=7) == (6, 1)

    def test_zero_u_small_v_is_zero_bit(self):
        for v in range(4):  # v < 7/2
            raw, bit = decrypt_bit((0, v), s=2, q=7)
            assert bit == 0 and raw == v


def encrypt_inputs(n_cases, seed, params):
    return build_dataset(TaskSpec(kind="lwe-encrypt"), n_cases=n_cases, seed=seed,
                         val_fraction=0.5, lwe_params=params)


class TestInputBuffer:
    """lwe-encrypt inputs are [a_samples, b_samples, phi]; the pipeline appends
    the trailing dummy 0 itself."""

    def test_worked_case_layout(self, monkeypatch):
        cases = _table_candidate_cases()
        monkeypatch.setattr(lwe, "generate_testcases", lambda params, n, rng, pk: cases)
        ds = encrypt_inputs(2, 0, LweParams())
        assert ds.inputs == [[4, 2, 6, 0, 6, 2, 5, 5, 0, 6, 0], [4, 2, 6, 0, 6, 2, 5, 5, 0, 6, 1]]
        assert ds.teachers.tolist() == [[float(c.u), float(c.v)] for c in cases]

    def test_length_with_five_samples(self):
        params = LweParams()
        ds = encrypt_inputs(40, 34, params)
        for raw, teacher in zip(ds.inputs, ds.teachers):
            assert len(raw) == 11
            a, b, phi = raw[:5], raw[5:10], raw[10]
            assert list(encrypt_sums(a, b, phi, params.q)) == teacher.tolist()

    def test_sizing_formula(self):
        for n_samples in (1, 3, 5):
            ds = encrypt_inputs(10, 35, LweParams(n_samples=n_samples))
            assert all(len(raw) == 2 * n_samples + 1 for raw in ds.inputs)


def _table_candidate_cases():
    """The two q=7 reference records rebuilt through the encrypt/decrypt API."""
    from chuarc.lwe import LweTestCase

    a = (4, 2, 6, 0, 6)
    b = (2, 5, 5, 0, 6)
    out = []
    for phi in (0, 1):
        u, v = encrypt_sums(a, b, phi, 7)
        raw, bit = decrypt_bit((u, v), 2, 7)
        assert bit == phi
        out.append(LweTestCase(phi=phi, decrypt_value=raw, u=u, v=v, a_samples=a, b_samples=b))
    return out


class TestRoundTripFilter:
    def test_reference_candidate_is_retained_with_values_3_and_6(self):
        cases = _table_candidate_cases()
        assert cases[0].decrypt_value == 3 and cases[0].phi == 0
        assert cases[1].decrypt_value == 6 and cases[1].phi == 1

    def test_generated_cases_all_round_trip(self):
        params = LweParams()
        rng = np.random.default_rng(31)
        cases = generate_testcases(params, 200, rng, keygen(params, rng))
        assert len(cases) == 200
        for c in cases:
            raw, bit = decrypt_bit((c.u, c.v), params.s, params.q)
            assert bit == c.phi and raw == c.decrypt_value

    def test_candidates_pair_bits_on_shared_samples(self):
        params, rng = LweParams(), np.random.default_rng(32)
        cases = generate_testcases(params, 100, rng, keygen(params, rng))
        for c0, c1 in zip(cases[0::2], cases[1::2]):
            assert c0.phi == 0 and c1.phi == 1
            assert c0.a_samples == c1.a_samples and c0.b_samples == c1.b_samples

    def test_error_sum_enumeration_oracle(self):
        # with q=7, s fixed, errors in [0,3]: the bit-1 branch is correct iff
        # floor((sum_e + 3.5) mod 7) > 3.5, independent of the sampled a values;
        # checked over all 4**5 error tuples
        from itertools import product

        rng = np.random.default_rng(33)
        q, s = 7, 2
        retained = 0
        for errors in product(range(4), repeat=5):
            a = [int(x) for x in rng.integers(0, q, 5)]
            b = [(ai * s + ei) % q for ai, ei in zip(a, errors)]
            u, v1 = encrypt_sums(a, b, 1, q)
            _, bit1 = decrypt_bit((u, v1), s, q)
            predicted = math.floor((sum(errors) + 3.5) % 7) > 3.5
            assert bit1 == (1 if predicted else 0)
            _, bit0 = decrypt_bit(encrypt_sums(a, b, 0, q), s, q)
            retained += bit0 == 0 and bit1 == 1
        assert retained == 447  # 43.7% of candidates survive the filter

    def test_budget_exhaustion_reports_retention(self):
        # q=2 with zero errors: the bit-1 branch floors (sum_b + 1) mod 2 to
        # an even residue and never decrypts to 1, so nothing is retained
        params = LweParams(q=2, m=8, error_mode=UniformErrors(0, 0), n_samples=3, s=1)
        rng = np.random.default_rng(34)
        pk = keygen(params, rng)
        with pytest.raises(GenerationError) as err:
            generate_testcases(params, 10, rng, pk)
        assert err.value.retention_rate == 0.0

    def test_subset_count_matches_combinatorics(self):
        assert math.comb(20, 5) == 15504

    def test_regeneration_is_bit_identical(self):
        params = LweParams()
        a, b = (generate_testcases(params, 50, rng, keygen(params, rng))
                for rng in (np.random.default_rng(35), np.random.default_rng(35)))
        assert a == b


#: a modulus past which a_i * s, for a secret near q, overflows int64
WIDE_Q = 4294967311


def float_encrypt_sums(a_samples, b_samples, phi, q):
    """encrypt_sums in floats, v = floor((sum(b) + q/2*phi) mod q): exact while
    sum(b) + q/2 stays below 2**52, where a float still holds the half."""
    return int(sum(a_samples) % q), int(math.floor((sum(b_samples) + (q / 2.0) * phi) % q))


def float_decrypt_bit(ciphertext, s, q):
    """decrypt_bit with the bit set when raw exceeds the float q/2."""
    u, v = ciphertext
    raw = int((v - u * s) % q)
    return raw, 1 if raw > q / 2.0 else 0


@st.composite
def _encryptions(draw):
    """(a_samples, b_samples, phi, q, s) with q < 2**50 and at most three
    samples, so that 3 * q + q/2 < 2**52 keeps the float forms exact."""
    q = draw(st.integers(2, 2**50 - 1))
    residues = st.lists(st.integers(0, q - 1), min_size=1, max_size=3)
    return draw(residues), draw(residues), draw(st.integers(0, 1)), q, draw(st.integers(0, q - 1))


class TestExactIntegers:
    """The scheme runs in Python ints: a modulus whose key products pass
    int64 still gives the key equation and round-trip-correct records."""

    def test_key_equation_past_int64(self):
        params = LweParams(q=WIDE_Q, s=WIDE_Q - 5)
        pk = keygen(params, np.random.default_rng(0))
        for a, b in zip(pk.a, pk.b):
            assert any(b == (a * params.s + e) % params.q for e in range(4))

    @pytest.mark.parametrize("q", [WIDE_Q, 2**63])
    def test_cases_round_trip_past_int64(self, q):
        params = LweParams(q=q, s=q - 5)
        rng = np.random.default_rng(0)
        cases = generate_testcases(params, 40, rng, keygen(params, rng))
        assert len(cases) == 40
        for c in cases:
            assert (c.u, c.v) == encrypt_sums(c.a_samples, c.b_samples, c.phi, q)
            assert decrypt_bit((c.u, c.v), params.s, q) == (c.decrypt_value, c.phi)

    @settings(max_examples=300, deadline=None)
    @given(_encryptions())
    @example(([2**50 - 3] * 3, [2**50 - 3] * 3, 1, 2**50 - 2, 7))
    @example(([2**49 + 2] * 3, [2**49 + 2] * 3, 1, 2**49 + 3, 2**49))
    @example(([5, 6], [6, 6], 1, 7, 2))
    def test_integer_forms_equal_the_float_ones(self, encryption):
        a, b, phi, q, s = encryption
        ciphertext = encrypt_sums(a, b, phi, q)
        assert ciphertext == float_encrypt_sums(a, b, phi, q)
        assert decrypt_bit(ciphertext, s, q) == float_decrypt_bit(ciphertext, s, q)


class TestPersistence:
    def test_a_record_holds_only_its_own_fields(self):
        # q, s, m and n_samples belong to the run's LweParams, not to each record
        assert [f.name for f in fields(LweTestCase)] == [
            "phi", "decrypt_value", "u", "v", "a_samples", "b_samples"]

    def test_dataset_json_round_trip(self, tmp_path):
        params = LweParams()
        rng = np.random.default_rng(51)
        pk = keygen(params, rng)
        cases = generate_testcases(params, 12, rng, pk=pk)
        path = tmp_path / "cases.json"
        save_dataset(cases, params, pk, seed=51, path=path)
        rows = json.loads(path.read_text())
        assert len(rows) == len(cases)
        for row, case in zip(rows, cases):
            assert [row.pop(k) for k in ("q", "s", "m", "n_samples")] == [
                params.q, params.s, params.m, params.n_samples]
            assert (row.pop("public_a"), row.pop("public_b"), row.pop("seed")) == (
                list(pk.a), list(pk.b), 51)
            row["a_samples"], row["b_samples"] = tuple(row["a_samples"]), tuple(row["b_samples"])
            assert LweTestCase(**row) == case

    def test_keypair_separates_secret(self, tmp_path):
        from chuarc.lwe import save_keypair

        params = LweParams()
        pk = keygen(params, np.random.default_rng(52))
        key_path = tmp_path / "key.json"
        secret_path = tmp_path / "secret.json"
        save_keypair(params, pk, key_path, secret_path)
        public = json.loads(key_path.read_text())
        assert "s" not in public["params"]
        assert json.loads(secret_path.read_text())["s"] == params.s


class TestParams:
    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            LweParams(q=1)
        with pytest.raises(ConfigurationError):
            LweParams(n_samples=25, m=20)
        with pytest.raises(ConfigurationError):
            LweParams(s=9, q=7)
        with pytest.raises(ConfigurationError):
            LweParams(n=2)

    def test_uniform_errors_draw_at_the_int64_bounds(self):
        draw = UniformErrors(-2**63, 2**63 - 1).draw(np.random.default_rng(0))
        assert isinstance(draw, int) and -2**63 <= draw <= 2**63 - 1

    def test_public_key_lengths_must_match(self):
        with pytest.raises(ConfigurationError):
            PublicKey(a=(1, 2, 3), b=(1, 2))
