"""Synthetic generation, CSV round-trips, and class partition checks."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailens.dataset import (
    LongTailDataset,
    generate_synthetic,
    load_csv,
    region_partition,
    save_csv,
    tail_mask,
    train_class_counts,
)
from tailens.errors import InputError, ParseError, names_file


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
    def test_labels_in_range(self):
        with pytest.raises(InputError):
            LongTailDataset(np.zeros((2, 2)), np.array([0, 5]), 2)

    def test_len_and_dims(self):
        data = LongTailDataset(np.zeros((3, 2)), np.array([0, 0, 1]), 2)
        assert len(data) == 3 and data.num_classes == 2 and data.dim == 2

    def test_empty_last_class_keeps_k(self):
        data = LongTailDataset(np.zeros((3, 2)), np.array([0, 0, 1]), 3)
        assert data.num_classes == 3
        assert np.array_equal(data.class_counts, [2, 1, 0])


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
        assert tuple(np.flatnonzero(tail_mask(10, 0.25))) == (7, 8, 9)

    def test_ratio_half(self):
        assert tuple(np.flatnonzero(tail_mask(10, 0.5))) == (5, 6, 7, 8, 9)

    def test_ratio_three_quarters(self):
        assert tuple(np.flatnonzero(tail_mask(10, 0.75))) == (2, 3, 4, 5, 6, 7, 8, 9)

    def test_mask_matches_ids(self):
        mask = tail_mask(7, 0.4)
        assert mask.dtype == bool and mask.shape == (7,)
        assert tuple(np.flatnonzero(mask)) == (4, 5, 6)

    @given(
        st.integers(min_value=1, max_value=100),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_tail_and_head_partition(self, k, ratio):
        mask = tail_mask(k, ratio)
        assert 1 <= mask.sum() <= k
        assert tuple(np.flatnonzero(mask)) == tuple(range(k - mask.sum(), k))

    def test_ratio_bounds(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(InputError):
                tail_mask(5, bad)


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
        back = load_csv(path)
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

    def test_arrays_are_c_contiguous_float64_and_int64(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("f0,f1,f2,label\n1,2,3,0\n4,5,6,1\n")
        data = load_csv(path)
        assert data.features.dtype == np.float64 and data.features.flags.c_contiguous
        assert data.features.shape == (2, 3)
        assert data.labels.dtype == np.int64
        assert np.array_equal(data.features, [[1, 2, 3], [4, 5, 6]])

    def test_header_only_warns_nothing(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("f0,label\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="bare.csv: line 2: no data rows"):
                load_csv(path)

    def test_hash_line_is_a_row_not_a_comment(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n# a note\n")
        with pytest.raises(ParseError, match="bad.csv: line 3: expected 3 columns, got 1"):
            load_csv(path)

    def test_blank_lines_count_toward_the_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\r\n\r\n1.0,0\r\n\r\n\r\n2.0,-1\r\n")
        with pytest.raises(ParseError, match="bad.csv: line 6: label -1 is negative"):
            load_csv(path)

    def test_first_bad_row_wins_over_a_later_one(self, tmp_path):
        # a label out of range on line 3 comes before the unparsable line 4,
        # and any row error before a non-finite feature on line 2
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\nnan,0\n1.0,7\nabc,0\n")
        with pytest.raises(ParseError, match="line 3: label 7 is not below K=3"):
            load_csv(path, num_classes=3)

    def test_digit_separators_are_rejected(self, tmp_path):
        # Python's float() and int() read 1_0 as 10; the CSV format has no
        # digit separators, so the feature and the label are malformed
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1_0,0\n")
        assert row_parser(path).features[0, 0] == 10.0
        with pytest.raises(ParseError, match="line 2: non-numeric feature"):
            load_csv(path)
        path.write_text("f0,label\n1.0,0\n2.0,1_0\n")
        with pytest.raises(ParseError, match="line 3: label '1_0' is not an integer"):
            load_csv(path)


@names_file
def row_parser(path, num_classes=None) -> LongTailDataset:
    """load_csv as it parsed row by row in Python before the one-pass parse.
    Frozen as the reference of load_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if len(header) < 2 or header[-1].strip() != "label":
            raise ParseError("header must end with a 'label' column", line=1)
        dim = len(header) - 1

        feats, labels, linenos = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 1:
                raise ParseError(
                    f"expected {dim + 1} columns, got {len(row)}", line=lineno
                )
            try:
                feats.append([float(v) for v in row[:-1]])
            except ValueError:
                raise ParseError(f"non-numeric feature in {row[:-1]}", line=lineno) from None
            try:
                label = int(row[-1].strip())
            except ValueError:
                raise ParseError(f"label {row[-1]!r} is not an integer", line=lineno) from None
            if label < 0:
                raise ParseError(f"label {label} is negative", line=lineno)
            if num_classes is not None and label >= num_classes:
                raise ParseError(f"label {label} is not below K={num_classes}", line=lineno)
            labels.append(label)
            linenos.append(lineno)

    if not labels:
        raise ParseError("no data rows", line=2)
    feats = np.asarray(feats, dtype=np.float64)
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ParseError(f"non-finite feature in {feats[bad].tolist()}", line=linenos[bad])
    labels = np.asarray(labels, dtype=np.int64)
    k = int(labels.max()) + 1 if num_classes is None else num_classes
    return LongTailDataset(features=feats, labels=labels, num_classes=k)


K_MAX = 6


@st.composite
def feature_token(draw):
    """A finite float64 written as repr, in exponent or %g form, maybe signed."""
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    text = format(x, draw(st.sampled_from(["", ".17e", ".3E", ".17g", ".0f"])))
    if not np.isfinite(float(text)):  # .3E rounds 1.7977e308 up past the largest float
        text = repr(x)
    if text.startswith("0."):
        text = draw(st.sampled_from([text, text[1:]]))
    if not text.startswith("-"):
        text = draw(st.sampled_from([text, "+" + text]))
    return text


def decorate(draw, token):
    return draw(st.sampled_from(["{}", " {}", "{} ", " {} ", '"{}"', '" {} "'])).format(token)


@st.composite
def csv_rows(draw):
    """(dim, rows of field strings) with labels in [0, K_MAX)."""
    dim = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        feats = [decorate(draw, draw(feature_token())) for _ in range(dim)]
        label = str(draw(st.integers(0, K_MAX - 1)))
        rows.append(feats + [decorate(draw, draw(st.sampled_from([label, "+" + label])))])
    return dim, rows


def write_csv(draw, path, dim, rows, malformed_at=None):
    """Header, then the rows with random blank lines between them."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join([f"f{i}" for i in range(dim)] + ["label"])]
    for i, row in enumerate(rows):
        blanks = draw(st.integers(1 if i == malformed_at else 0, 2))
        lines += [""] * blanks + [",".join(row)]
    path.write_bytes((end.join(lines) + end).encode())


def parse_both(path, num_classes):
    results = []
    for parse in (row_parser, load_csv):
        try:
            results.append(parse(path, num_classes))
        except ParseError as err:
            results.append(err)
    return results


BAD_FEATURES = ("abc", "", "1.2.3", "--1", "0x10")
BAD_LABELS = ("1.5", "3.0", "x", "", "1e0")
NON_FINITE = ("nan", "-inf", "Infinity", "1e999")

# kind of malformed row -> how it is made from a valid one
MALFORMED_ROWS = {
    "columns": lambda draw, row: row + ["1"] if draw(st.booleans()) else row[:-1],
    "feature": lambda draw, row: [draw(st.sampled_from(BAD_FEATURES))] + row[1:],
    "label": lambda draw, row: row[:-1] + [draw(st.sampled_from(BAD_LABELS))],
    "negative": lambda draw, row: row[:-1] + [str(draw(st.integers(-9, -1)))],
    "too-large": lambda draw, row: row[:-1] + [str(draw(st.integers(K_MAX, K_MAX + 3)))],
    "non-finite": lambda draw, row: [draw(st.sampled_from(NON_FINITE))] + row[1:],
}


class TestCsvMatchesRowParser:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), given_k=st.booleans())
    def test_valid_files_parse_the_same(self, tmp_path_factory, data, given_k):
        dim, rows = data.draw(csv_rows())
        path = tmp_path_factory.mktemp("valid") / "data.csv"
        write_csv(data.draw, path, dim, rows)
        want, got = parse_both(path, K_MAX if given_k else None)
        assert isinstance(want, LongTailDataset), want
        assert isinstance(got, LongTailDataset), got
        assert np.array_equal(got.features.view(np.uint64), want.features.view(np.uint64))
        assert np.array_equal(got.labels, want.labels)
        assert got.num_classes == want.num_classes

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(MALFORMED_ROWS)))
    def test_malformed_files_name_the_same_line(self, tmp_path_factory, data, kind):
        dim, rows = data.draw(csv_rows())
        at = data.draw(st.integers(0, len(rows) - 1))
        rows[at] = MALFORMED_ROWS[kind](data.draw, rows[at])
        path = tmp_path_factory.mktemp("malformed") / "data.csv"
        write_csv(data.draw, path, dim, rows, malformed_at=at)
        want, got = parse_both(path, K_MAX)
        assert isinstance(want, ParseError), kind
        assert isinstance(got, ParseError), kind
        assert got.line == want.line
        assert str(got) == str(want)
