"""Synthetic generation, CSV round-trips, and class partition checks."""

import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import csv_writer_save, per_class_synthetic, row_parser
from tailens.dataset import (
    CsvRows,
    LongTailDataset,
    generate_synthetic,
    load_csv,
    save_csv,
    tail_mask,
    train_class_counts,
)
from tailens.errors import InputError, ParseError
from tailens.metrics import region_accuracy
from tailens.numcore import row_blocks


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

    @pytest.mark.parametrize("k, dim, n_max, imbalance, separation, seed, test_per_class", [
        (2, 1, 10, 1.0, 0.0, 0, 1),
        (3, 16, 200, 5.0, 2.0, 7, 100),
        (5, 2, 40, 2.5, 1.5, 11, 17),
        (10, 4, 60, 10.0, 4.0, 3, 3),
    ])
    def test_matches_the_per_class_draws(self, k, dim, n_max, imbalance, separation, seed,
                                         test_per_class):
        args = (k, dim, n_max, imbalance, separation, seed)
        got = generate_synthetic(*args, test_per_class=test_per_class)
        for a, b in zip(got, per_class_synthetic(*args, test_per_class), strict=True):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.labels.dtype == b.labels.dtype and np.array_equal(a.labels, b.labels)

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

    def test_an_overflowing_separation_is_an_input_error(self):
        # separation * v overflows before the division by |v|; the suite turns a
        # RuntimeWarning into an error, so passing also shows that none is printed
        with pytest.raises(InputError, match=r"^separation 1e\+308 overflows the class means$"):
            generate_synthetic(10, 16, 60, 10.0, 1e308, seed=0)
        train, _ = generate_synthetic(10, 16, 60, 10.0, 1e300, seed=0)
        assert np.isfinite(train.features).all()

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


def regions(k):
    """(head, med, tail) class ids, read back from region_accuracy: with only
    class c decided right, only c's region scores above 0."""
    labels = np.arange(k)
    found = ([], [], [])
    for c in range(k):
        acc = region_accuracy(labels, np.where(labels == c, c, -1), k)
        scored = [r for r, v in enumerate((acc.acc_head, acc.acc_med, acc.acc_tail)) if v]
        assert len(scored) == 1
        found[scored[0]].append(c)
    return tuple(map(tuple, found))


class TestRegions:
    def test_k100(self):
        head, med, tail = regions(100)
        assert (len(head), len(med), len(tail)) == (33, 33, 34)

    def test_k10(self):
        head, med, tail = regions(10)
        assert (len(head), len(med), len(tail)) == (3, 3, 4)
        assert head == (0, 1, 2) and tail == (6, 7, 8, 9)

    def test_k3(self):
        assert regions(3) == ((0,), (1,), (2,))

    def test_needs_three_classes(self):
        with pytest.raises(InputError):
            region_accuracy(np.array([0, 1]), np.array([0, 1]), 2)

    @given(st.integers(min_value=3, max_value=200))
    def test_partition_disjoint_exhaustive(self, k):
        head, med, tail = regions(k)
        ids = sorted(head + med + tail)
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

    def test_two_digit_ratio_counts_as_its_decimal(self):
        # 0.07 * 100 is 7.000000000000001 in float64: the tail is still 7 classes
        for k in range(1, 101):
            for hundredths in range(1, 100):
                count = -(-hundredths * k // 100)
                assert tail_mask(k, hundredths / 100).sum() == count, (k, hundredths)

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

    def test_first_bad_line_wins_over_a_later_byte_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"f0,label\n1.0,0\nabc,1\n2.0,1\n\xff3.0,1\n")
        with pytest.raises(ParseError, match=r"bad.csv: line 3: non-numeric feature in \['abc'\]"):
            load_csv(path)

    def test_a_header_over_two_lines_keeps_the_data_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('"f\n0",label\n1.5,0\nabc,1\n')
        with pytest.raises(ParseError, match=r"bad.csv: line 4: non-numeric feature in \['abc'\]"):
            load_csv(path)
        path.write_text('"f\n0",label\n1.5,0\n\n2,-1\n')
        with pytest.raises(ParseError, match="bad.csv: line 5: label -1 is negative"):
            load_csv(path)

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path):
        # as Excel's "CSV UTF-8" writes it; a quoted header field may then start the file
        path = tmp_path / "bom.csv"
        path.write_bytes(b'\xef\xbb\xbf"f\n0",label\n1.5,0\n')
        assert load_csv(path).features.tolist() == [[1.5]]
        path.write_bytes(b'\xef\xbb\xbf"f\n0",label\n1.5,0\nabc,1\n')
        with pytest.raises(ParseError, match=r"bom.csv: line 4: non-numeric feature in \['abc'\]"):
            load_csv(path)

    def test_a_byte_that_is_not_utf8_in_the_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b'"f\n\xff0",label\n1.5,0\nabc,1\n')
        with pytest.raises(ParseError, match="bad.csv: line 2: not UTF-8 text"):
            load_csv(path)

    def test_a_quoted_field_does_not_span_lines(self, tmp_path):
        # one line is one row, so a line count gives N before any row is parsed
        path = tmp_path / "bad.csv"
        path.write_text('f0,label\n"1.0\n",0\n2.0,1\n')
        with pytest.raises(ParseError, match="bad.csv: line 2: expected 2 columns, got 1"):
            load_csv(path)

    @pytest.mark.parametrize("end", [b"\r", b"\r\n"])
    def test_line_ends_at_the_64_kib_reads(self, tmp_path, end):
        # the reader takes 64 KiB at a time: end a row's line end at the last byte
        # of each read (half a CRLF), then put a bad label a few lines further on
        row = b"1.25,-0.5,1"
        body, n = bytearray(b"f0,f1,label" + end), 0
        for boundary in (65536, 2 * 65536):
            while boundary - 1 - len(body) >= 2 * len(row) + len(end):
                body += row + end
                n += 1
            zeros = boundary - 1 - len(body) - len(row)
            body += b"1.25" + b"0" * zeros + b",-0.5,1" + end
            n += 1
            assert body[boundary - 1 : boundary - 1 + len(end)] == end
        path = tmp_path / "long.csv"
        path.write_bytes(bytes(body))
        data = load_csv(path)
        assert len(data) == n and np.array_equal(data.class_counts, [0, n])
        path.write_bytes(bytes(body) + end * 2 + b"1.0,2.0,-3" + end)
        with pytest.raises(ParseError, match=f"line {n + 4}: label -3 is negative"):
            load_csv(path)


class TestCsvRows:
    """The block reader: N from a line count, blocks of numcore.row_blocks(N)."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([b"a", b"1,", b" ", b"\r", b"\n", b"\r\n", b"\xff"])))
    def test_lines_split_where_text_mode_splits_them(self, tmp_path_factory, pieces):
        body = b"".join(pieces)
        text = io.TextIOWrapper(io.BytesIO(body), encoding="latin-1", newline="").readlines()
        n = sum(1 for line in text if line.strip("\r\n"))
        path = tmp_path_factory.mktemp("lines") / "rows.csv"
        path.write_bytes(b"f0,label\n" + body)
        if n:
            assert len(CsvRows(path)) == n
        else:
            with pytest.raises(ParseError, match="rows.csv: line 2: no data rows"):
                CsvRows(path)

    def write(self, path, features, labels, blank_every=0):
        lines = ["f0,f1,label"]
        for i, (row, label) in enumerate(zip(features.tolist(), labels.tolist())):
            if blank_every and i % blank_every == 0:
                lines.append("")
            lines.append(",".join(map(repr, row)) + f",{label}")
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("n", [1, 1023, 1024, 2047, 2049, 5000])
    def test_blocks_tile_the_rows(self, tmp_path, rng, n):
        features, labels = rng.normal(size=(n, 2)), rng.integers(0, 5, n)
        path = tmp_path / "rows.csv"
        self.write(path, features, labels, blank_every=97)
        rows = CsvRows(path, 5)
        assert len(rows) == n and rows.dim == 2
        blocks = list(rows)
        assert [len(b) for b in blocks] == [stop - start for start, stop in row_blocks(n)]
        assert all(b.flags.c_contiguous and b.dtype == np.float64 for b in blocks)
        assert np.concatenate(blocks).tobytes() == features.tobytes()
        assert rows.labels.dtype == np.uint8 and np.array_equal(rows.labels, labels)

    def test_labels_take_the_class_id_dtype_of_k(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("f0,label\n1.0,0\n2.0,299\n")
        rows = CsvRows(path)
        list(rows)
        assert rows.labels.dtype == np.int64 and rows.labels.tolist() == [0, 299]
        rows = CsvRows(path, 300)
        list(rows)
        assert rows.labels.dtype == np.uint16 and rows.labels.tolist() == [0, 299]
        # checked as int64, before a uint8 cast could wrap 299 to 43
        with pytest.raises(ParseError, match="line 3: label 299 is not below K=256"):
            list(CsvRows(path, 256))

    def test_labels_are_none_until_iterating_fills_them(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("f0,label\n1.0,3\n2.0,1\n")
        rows = CsvRows(path, 10)
        assert len(rows) == 2 and rows.labels is None
        blocks = iter(rows)
        assert rows.labels is None  # a generator: nothing runs before the first block
        next(blocks)
        assert rows.labels.dtype == np.uint8 and rows.labels.tolist() == [3, 1]

    def test_block_lines_name_the_file_line_of_each_row(self, tmp_path, rng):
        features, labels = rng.normal(size=(300, 2)), rng.integers(0, 5, 300)
        path = tmp_path / "rows.csv"
        self.write(path, features, labels, blank_every=97)
        rows = CsvRows(path, 5)
        assert rows.block_lines == ()  # like labels, empty until iterating starts
        [block] = rows  # 300 rows are one block
        assert len(rows.block_lines) == len(block)
        # the header is line 1, and blank lines stand before rows 0, 97, 194 and 291
        assert [rows.block_lines[r] for r in (0, 96, 97, 299)] == [3, 99, 101, 305]

    def test_header_and_count_come_before_any_row_is_parsed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,f2,label\n\nabc\n1,2\n")
        rows = CsvRows(path)
        assert (rows.dim, len(rows)) == (3, 2)
        with pytest.raises(ParseError, match="bad.csv: line 3: expected 4 columns, got 1"):
            list(rows)

    def test_a_non_finite_feature_stops_the_blocks_and_a_later_row_error_wins(
        self, tmp_path, rng
    ):
        features, labels = rng.normal(size=(5000, 2)), rng.integers(0, 5, 5000)
        features[1500, 1] = np.inf  # block 2
        path = tmp_path / "rows.csv"
        self.write(path, features, labels)
        rows = iter(CsvRows(path, 5))
        assert len(next(rows)) == 1024
        with pytest.raises(ParseError, match="rows.csv: line 1502: non-finite feature"):
            next(rows)
        labels[4500] = 5  # block 4, after the non-finite row
        self.write(path, features, labels)
        with pytest.raises(ParseError, match="rows.csv: line 4502: label 5 is not below K=5"):
            list(CsvRows(path, 5))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: empty file"),
            ("f0,f1\n", "line 1: header must end with a 'label' column"),
            ("f0,label\n\r\n\n", "line 2: no data rows"),
        ],
    )
    def test_file_errors_on_opening(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"bad.csv: {message}"):
            CsvRows(path)


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


def write_csv(draw, path, dim, rows, malformed_at=None, ends=("\n", "\r\n", "\r")):
    """Header, then the rows with random blank lines between them; a lone
    surrogate in a field is written as the byte that is not UTF-8."""
    end = draw(st.sampled_from(ends))
    lines = [",".join([f"f{i}" for i in range(dim)] + ["label"])]
    for i, row in enumerate(rows):
        blanks = draw(st.integers(1 if i == malformed_at else 0, 2))
        lines += [""] * blanks + [",".join(row)]
    path.write_bytes((end.join(lines) + end).encode("utf-8", "surrogateescape"))


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
NOT_UTF8 = ("\udcff", "\udcfe", "\udc80")

# kind of malformed row -> how it is made from a valid one
MALFORMED_ROWS = {
    "columns": lambda draw, row: row + ["1"] if draw(st.booleans()) else row[:-1],
    "feature": lambda draw, row: [draw(st.sampled_from(BAD_FEATURES))] + row[1:],
    "label": lambda draw, row: row[:-1] + [draw(st.sampled_from(BAD_LABELS))],
    "negative": lambda draw, row: row[:-1] + [str(draw(st.integers(-9, -1)))],
    "too-large": lambda draw, row: row[:-1] + [str(draw(st.integers(K_MAX, K_MAX + 3)))],
    "non-finite": lambda draw, row: [draw(st.sampled_from(NON_FINITE))] + row[1:],
    # a byte that is not UTF-8 (0xff, 0xfe or a lone continuation byte) in a field
    "not-utf8": lambda draw, row: [draw(st.sampled_from(NOT_UTF8)) + row[0]] + row[1:],
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
        # the oracle names a line that is not UTF-8 by LF ends only
        ends = ("\n", "\r\n") if kind == "not-utf8" else ("\n", "\r\n", "\r")
        write_csv(data.draw, path, dim, rows, malformed_at=at, ends=ends)
        want, got = parse_both(path, K_MAX)
        assert isinstance(want, ParseError), kind
        assert isinstance(got, ParseError), kind
        assert got.line == want.line
        assert str(got) == str(want)


# float64 corners of repr: signed zero, subnormals, the switches between fixed
# and exponent form at 1e-4 and 1e16, and integral values
REPR_CORNERS = (-0.0, 5e-324, 1e-320, 1e-05, 1e-04, 9999999999999998.0, 1e16, 1e300, 3.0)


@st.composite
def datasets(draw):
    """A finite dataset: D in 1..20, N in 0..50, labels up to 2**62."""
    dim, n = draw(st.integers(1, 20)), draw(st.integers(0, 50))
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(REPR_CORNERS + tuple(-v for v in REPR_CORNERS)),
    )
    features = draw(arrays(np.float64, (n, dim), elements=value))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 2**62)))
    return LongTailDataset(features, labels, int(labels.max(initial=0)) + 1)


class TestSaveCsv:
    @settings(max_examples=200, deadline=None)
    @given(data=datasets())
    def test_bytes_match_the_csv_writer_oracle(self, tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("save")
        save_csv(data, tmp / "new.csv")
        csv_writer_save(data, tmp / "oracle.csv")
        written = (tmp / "new.csv").read_bytes()
        assert written == (tmp / "oracle.csv").read_bytes()
        if len(data):
            back = load_csv(tmp / "new.csv", data.num_classes)
            assert np.array_equal(back.features.view(np.uint64), data.features.view(np.uint64))
            assert np.array_equal(back.labels, data.labels)

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2047, 2048, 2049, 5000])
    def test_bytes_match_the_oracle_across_row_blocks(self, tmp_path, rng, n):
        # the Hypothesis datasets above hold at most 50 rows: one block
        data = LongTailDataset(rng.normal(size=(n, 3)), rng.integers(0, 5, n), 5)
        save_csv(data, tmp_path / "new.csv")
        csv_writer_save(data, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_corners_and_line_ends(self, tmp_path):
        features = np.array([REPR_CORNERS, [-v for v in REPR_CORNERS]])
        data = LongTailDataset(features, np.array([0, 2**62]), 2**62 + 1)
        save_csv(data, tmp_path / "corners.csv")
        written = (tmp_path / "corners.csv").read_bytes()
        assert written == (
            b"f0,f1,f2,f3,f4,f5,f6,f7,f8,label\r\n"
            b"-0.0,5e-324,1e-320,1e-05,0.0001,9999999999999998.0,1e+16,1e+300,3.0,0\r\n"
            b"0.0,-5e-324,-1e-320,-1e-05,-0.0001,-9999999999999998.0,-1e+16,-1e+300,-3.0,"
            b"4611686018427387904\r\n"
        )

    def test_bytes_ignore_numpy_print_options(self, tmp_path):
        # numpy's legacy print mode writes a scalar's str with 12 digits; the
        # file must hold the float's own repr whatever numpy's options are
        train, _ = generate_synthetic(3, 4, 30, 4.0, 2.0, seed=5)
        csv_writer_save(train, tmp_path / "oracle.csv")
        with np.printoptions(legacy="1.13"):
            save_csv(train, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_memory_does_not_grow_with_rows(self, tmp_path, rng):
        # the writer holds one block of rows as Python objects: a whole-matrix
        # tolist() of these 50,000 x 16 features peaks near 28 MiB
        data = LongTailDataset(
            rng.normal(size=(50_000, 16)), rng.integers(0, 10, 50_000), 10
        )
        tracemalloc.start()
        try:
            save_csv(data, tmp_path / "big.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected_before_the_file_exists(self, tmp_path, bad):
        # load_csv rejects a non-finite feature, so save_csv must not write one;
        # row 3000 lies beyond the first block of rows
        features = np.ones((3200, 16))
        features[3000, 7] = bad
        features[3100, 0] = np.nan
        data = LongTailDataset(features, np.zeros(3200, dtype=np.int64), 2)
        path = tmp_path / "bad.csv"
        with pytest.raises(InputError, match="row 3000: non-finite feature") as caught:
            save_csv(data, path)
        assert caught.value.row == 3000
        assert not path.exists()
