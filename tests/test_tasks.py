"""Task generator tests: teacher functions, circle dataset, splits,
classification scoring."""

import math

import numpy as np
import pytest

from chuarc.errors import ConfigurationError, InputDomainError
from chuarc.lwe import LweParams
from chuarc.tasks import (
    TaskSpec,
    build_dataset,
    classify,
    concentric_circles,
    confusion_matrix,
    modulo_teacher,
    pair_teachers,
    poly_mod_teacher,
    polynomial_teacher,
    split_indices,
)

POLY_ROOTS = (-10.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0)


class TestPolynomial:
    def test_all_nine_roots(self):
        for r in POLY_ROOTS:
            assert polynomial_teacher(r) == 0.0

    def test_reference_value_at_half(self):
        assert polynomial_teacher(0.5) == 452.197265625

    def test_sign_alternates_between_roots(self):
        mids = [(a + b) / 2 for a, b in zip(POLY_ROOTS, POLY_ROOTS[1:])]
        signs = [math.copysign(1.0, polynomial_teacher(m)) for m in mids]
        for s1, s2 in zip(signs, signs[1:]):
            assert s1 == -s2


class TestModulo:
    def test_exact_multiple_wraps_to_zero(self):
        assert modulo_teacher(1.3, 1.3) == 0.0

    def test_simple_remainder(self):
        assert modulo_teacher(2.0, 1.3) == pytest.approx(0.7, abs=1e-12)

    def test_poly_mod_reference_value(self):
        assert poly_mod_teacher(0.5) == pytest.approx(2.197265625, abs=1e-9)

    def test_always_in_range(self):
        for x in np.linspace(-20.0, 20.0, 401):
            y = modulo_teacher(float(x), 1.3)
            assert 0.0 <= y < 1.3

    def test_positive_base_required(self):
        with pytest.raises(ConfigurationError):
            modulo_teacher(1.0, 0.0)


class TestPairs:
    def test_origin(self):
        assert pair_teachers(0.0, 0.0) == (0.0, 0.0, 0.0)

    def test_simple_arithmetic(self):
        s, p, m = pair_teachers(3.0, 5.0)
        assert (s, p, m) == (8.0, 15.0, 1.0)

    def test_full_grid_size(self):
        side = 41
        assert side * side == 1681
        ds = build_dataset(TaskSpec(kind="pair-sum"), n_cases=1681, seed=3)
        assert ds.n_cases == 1681
        assert len({tuple(i) for i in ds.inputs}) == 1681

    def test_domain_enforced(self):
        with pytest.raises(InputDomainError):
            pair_teachers(-1.0, 5.0)


class TestCircles:
    def test_classes_are_radially_separated(self):
        points, labels = concentric_circles(400, seed=5)
        radii = np.linalg.norm(points, axis=1)
        assert radii[labels == 1].max() < radii[labels == 0].min()

    def test_teacher_encoding(self):
        ds = build_dataset(TaskSpec(kind="circles"), n_cases=50, seed=6)
        for label, teacher in zip(ds.labels, ds.teachers):
            assert teacher[0] == label + 1.0

    def test_same_seed_identical(self):
        a = concentric_circles(64, seed=7)
        b = concentric_circles(64, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_inputs_shifted_into_raw_range(self):
        ds = build_dataset(TaskSpec(kind="circles"), n_cases=100, seed=8)
        flat = np.array(ds.inputs)
        assert flat.min() >= 0.0 and flat.max() <= ds.value_max


class TestClassify:
    def test_nearest_rule(self):
        assert classify(1.9) == 1
        assert classify(1.4) == 0
        assert classify(-1.0) == 0  # far below both anchors resolves to class 0

    def test_confusion_matrix_row_sums(self):
        true = [0, 0, 1, 1, 1]
        pred = [0, 1, 1, 1, 0]
        cm = confusion_matrix(true, pred)
        assert cm.sum(axis=1).tolist() == [2, 3]
        assert cm[0, 0] == 1 and cm[1, 1] == 2


class TestSplit:
    def test_2900_at_twenty_percent(self):
        train, val = split_indices(2900, 0.2, seed=9)
        assert val.size == 580 and train.size == 2320

    def test_2000_at_ten_percent(self):
        train, val = split_indices(2000, 0.1, seed=10)
        assert val.size == 200

    def test_disjoint_and_covering(self):
        train, val = split_indices(137, 0.25, seed=11)
        assert set(train) | set(val) == set(range(137))
        assert not set(train) & set(val)

    def test_single_case_interpolation_mode(self):
        train, val = split_indices(1, 0.2, seed=12)
        assert list(train) == [0] and list(val) == [0]

    def test_degenerate_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            split_indices(100, 0.0001, seed=13)


class TestBuildDataset:
    def test_polynomial_grid_and_teachers(self):
        ds = build_dataset(TaskSpec(kind="polynomial"), n_cases=29, seed=15)
        xs = [i[0] for i in ds.inputs]
        assert xs[0] == 0.1 and xs[-1] == 3.0
        assert ds.teachers[0][0] == pytest.approx(polynomial_teacher(0.1))

    def test_reproducible_from_seed(self):
        a = build_dataset(TaskSpec(kind="pair-modlin"), n_cases=60, seed=16)
        b = build_dataset(TaskSpec(kind="pair-modlin"), n_cases=60, seed=16)
        assert a.inputs == b.inputs and a.teachers.tolist() == b.teachers.tolist()

    def test_lwe_encrypt_buffers(self):
        ds = build_dataset(TaskSpec(kind="lwe-encrypt"), n_cases=20, seed=17,
                           lwe_params=LweParams())
        assert all(len(i) == 11 for i in ds.inputs)
        assert all(len(t) == 2 for t in ds.teachers)
        assert ds.value_max == 6.0

    def test_lwe_decrypt_pairs(self):
        ds = build_dataset(TaskSpec(kind="lwe-decrypt"), n_cases=20, seed=18,
                           lwe_params=LweParams())
        assert all(len(i) == 2 for i in ds.inputs)
        assert set(ds.labels) <= {0, 1}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskSpec(kind="narma")


class TestDatasetCsv:
    def test_circles_header(self, tmp_path):
        from chuarc.tasks import dataset_to_csv

        ds = build_dataset(TaskSpec(kind="circles"), n_cases=10, seed=20)
        path = tmp_path / "c.csv"
        dataset_to_csv(ds, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,class"
        assert len(lines) == 11

    def test_pair_header(self, tmp_path):
        from chuarc.tasks import dataset_to_csv

        ds = build_dataset(TaskSpec(kind="pair-product"), n_cases=10, seed=21)
        path = tmp_path / "p.csv"
        dataset_to_csv(ds, path)
        assert path.read_text().splitlines()[0] == "x1,x2,sum,product,modlin"

    def test_lwe_kind_has_no_csv_schema(self, tmp_path):
        from chuarc.tasks import dataset_to_csv

        ds = build_dataset(TaskSpec(kind="lwe-encrypt"), n_cases=4, seed=22)
        with pytest.raises(ConfigurationError):
            dataset_to_csv(ds, tmp_path / "x.csv")

    @pytest.mark.parametrize("kind", ["pair-sum", "pair-product", "pair-modlin"])
    def test_pair_columns_use_the_dataset_bound(self, tmp_path, kind):
        # inputs reach 60 here, beyond pair_teachers' default bound of 40
        from chuarc.tasks import dataset_to_csv

        ds = build_dataset(TaskSpec(kind=kind, pair_max=60), n_cases=50, seed=1)
        assert max(max(inp) for inp in ds.inputs) > 40
        path = tmp_path / "p.csv"
        dataset_to_csv(ds, path, "f00d")
        rows = [f"{a!r},{b!r}," + ",".join(repr(v) for v in pair_teachers(a, b, 60))
                for a, b in ds.inputs]
        assert path.read_text() == "# config_digest=f00d\nx1,x2,sum,product,modlin\n" + "".join(
            row + "\n" for row in rows)
