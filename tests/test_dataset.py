"""Synthetic generation, CSV round-trips, and class partition checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailens.dataset import (
    LongTailDataset,
    TailSplit,
    generate_synthetic,
    load_csv,
    region_partition,
    save_csv,
    train_class_counts,
)
from tailens.errors import InputError, ParseError


class TestCounts:
    def test_profile_k10(self):
        counts = train_class_counts(10, 1000, 100.0)
        assert counts[0] == 1000 and counts[-1] == 10

    def test_balanced_when_if_is_one(self):
        assert np.all(train_class_counts(7, 50, 1.0) == 50)

    def test_profile_k100(self):
        counts = train_class_counts(100, 500, 100.0)
        assert counts[0] == 500 and counts[-1] == round(500 / 100)

    def test_non_increasing(self):
        counts = train_class_counts(23, 400, 37.5)
        assert np.all(np.diff(counts) <= 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            train_class_counts(10, 1000, 0.5)
        with pytest.raises(InputError):
            train_class_counts(10, 5, 100.0)
        with pytest.raises(InputError):
            train_class_counts(1, 10, 2.0)

    def test_rejects_an_empty_class(self):
        # round(100 / 300) = 0: the last class would have no samples
        with pytest.raises(InputError, match=r"n_max=100 and imbalance=300.0 leave classes \[9\]"):
            train_class_counts(10, 100, 300.0)
        with pytest.raises(InputError, match="imbalance"):
            generate_synthetic(10, 4, 100, 300.0, 2.0, seed=0)
        # 100 / 200 = 0.5 rounds to even (0); 100 / 199 rounds up to 1
        with pytest.raises(InputError):
            train_class_counts(10, 100, 200.0)
        assert train_class_counts(10, 100, 199.0)[-1] == 1


class TestGenerate:
    def test_same_seed_bit_identical(self):
        a_train, a_test = generate_synthetic(5, 4, 60, 10.0, 2.0, seed=3)
        b_train, b_test = generate_synthetic(5, 4, 60, 10.0, 2.0, seed=3)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_test.features, b_test.features)

    def test_different_seeds_differ(self):
        a, _ = generate_synthetic(5, 4, 60, 10.0, 2.0, seed=3)
        b, _ = generate_synthetic(5, 4, 60, 10.0, 2.0, seed=4)
        assert not np.array_equal(a.features, b.features)

    def test_counts_and_uniform_test(self):
        train, test = generate_synthetic(6, 3, 100, 20.0, 1.5, seed=0, test_per_class=17)
        assert np.array_equal(train.class_counts, train_class_counts(6, 100, 20.0))
        assert np.all(np.diff(train.class_counts) <= 0)
        assert np.all(test.class_counts == 17)
        assert len(train) == train.class_counts.sum()
        assert train.split_tag == "train" and test.split_tag == "test"

    def test_class_mean_norm_equals_separation(self):
        # with many samples the empirical class mean approaches the true one
        train, _ = generate_synthetic(2, 8, 4000, 1.0, 3.0, seed=9)
        mean0 = train.features[train.labels == 0].mean(axis=0)
        assert abs(np.linalg.norm(mean0) - 3.0) < 0.2

    def test_argument_validation(self):
        with pytest.raises(InputError):
            generate_synthetic(5, 0, 60, 10.0, 2.0, seed=0)
        with pytest.raises(InputError):
            generate_synthetic(5, 4, 60, 10.0, -1.0, seed=0)
        with pytest.raises(InputError):
            generate_synthetic(5, 4, 60, 10.0, 2.0, seed=-1)
        with pytest.raises(InputError):
            generate_synthetic(5, 4, 60, 10.0, 2.0, seed=0, test_per_class=0)


class TestDatasetType:
    def test_counts_must_match_labels(self):
        with pytest.raises(InputError):
            LongTailDataset(np.zeros((3, 2)), np.array([0, 0, 1]), np.array([1, 2]))

    def test_labels_in_range(self):
        with pytest.raises(InputError):
            LongTailDataset(np.zeros((2, 2)), np.array([0, 5]), np.array([1, 1]))

    def test_len_and_dims(self):
        data = LongTailDataset(np.zeros((3, 2)), np.array([0, 0, 1]), np.array([2, 1]))
        assert len(data) == 3 and data.num_classes == 2 and data.dim == 2


class TestRegions:
    def test_k100(self):
        part = region_partition(100)
        assert (len(part.head), len(part.med), len(part.tail)) == (33, 33, 34)

    def test_k10(self):
        part = region_partition(10)
        assert (len(part.head), len(part.med), len(part.tail)) == (3, 3, 4)
        assert part.head == (0, 1, 2) and part.tail == (6, 7, 8, 9)

    def test_k3(self):
        part = region_partition(3)
        assert part.head == (0,) and part.med == (1,) and part.tail == (2,)

    def test_needs_three_classes(self):
        with pytest.raises(InputError):
            region_partition(2)

    @given(st.integers(min_value=3, max_value=200))
    def test_partition_disjoint_exhaustive(self, k):
        part = region_partition(k)
        ids = sorted(part.head + part.med + part.tail)
        assert ids == list(range(k))


class TestTailSplit:
    def test_ratio_quarter(self):
        assert TailSplit(10, 0.25).tail == (7, 8, 9)

    def test_ratio_half(self):
        assert TailSplit(10, 0.5).tail == (5, 6, 7, 8, 9)

    def test_ratio_three_quarters(self):
        assert TailSplit(10, 0.75).tail == (2, 3, 4, 5, 6, 7, 8, 9)

    def test_mask_matches_ids(self):
        split = TailSplit(7, 0.4)
        mask = split.tail_mask()
        assert tuple(np.flatnonzero(mask)) == split.tail

    @given(
        st.integers(min_value=1, max_value=100),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_tail_and_head_partition(self, k, ratio):
        split = TailSplit(k, ratio)
        mask = split.tail_mask()
        assert 1 <= mask.sum() <= k
        assert split.tail == tuple(range(k - mask.sum(), k))

    def test_ratio_bounds(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(InputError):
                TailSplit(5, bad)


class TestCsv:
    def test_counts_from_rows(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("f0,f1,label\n0.5,1.0,0\n0.1,0.2,0\n9,9,1\n")
        data = load_csv(path)
        assert np.array_equal(data.class_counts, [2, 1])
        assert data.dim == 2

    def test_round_trip_bit_exact(self, tmp_path):
        train, _ = generate_synthetic(4, 5, 50, 8.0, 2.0, seed=11)
        path = tmp_path / "train.csv"
        save_csv(train, path)
        back = load_csv(path, split_tag="train")
        assert np.array_equal(back.features, train.features)
        assert np.array_equal(back.labels, train.labels)
        assert np.array_equal(back.class_counts, train.class_counts)

    def test_num_classes_from_caller(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("f0,label\n0.5,0\n0.1,1\n")
        assert np.array_equal(load_csv(path, num_classes=4).class_counts, [1, 1, 0, 0])
        with pytest.raises(ParseError, match="toy.csv: line 3: label 1 is not below K=1"):
            load_csv(path, num_classes=1)

    def test_negative_label_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n2.0,-1\n")
        with pytest.raises(ParseError, match="bad.csv: line 3"):
            load_csv(path)

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\nouch,0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,zero\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_header_must_end_with_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("f0,label\n")
        with pytest.raises(ParseError):
            load_csv(path)
