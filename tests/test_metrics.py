"""Metric definitions pinned against brute-force re-implementations."""

import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracles import unique_ranks, where_entropy
from tailens.dataset import tail_mask
from tailens.errors import InputError
from tailens.metrics import (
    MetricsReport,
    _average_ranks,
    auc_misclassification,
    expected_calibration_error,
    false_head_rate,
    predictive_entropy,
    region_accuracy,
    report_to_json,
    write_summary_csv,
)


class TestRegionAccuracy:
    def test_hand_case(self):
        acc = region_accuracy(np.array([0, 0, 1, 2]), np.array([0, 1, 1, 2]), 3)
        assert acc.acc_overall == 0.75
        assert acc.acc_head == 0.5
        assert acc.acc_med == 1.0
        assert acc.acc_tail == 1.0

    def test_empty_region_is_none(self):
        acc = region_accuracy(np.array([0, 0, 2]), np.array([0, 2, 2]), 3)
        assert acc.acc_med is None
        assert acc.acc_head == 0.5 and acc.acc_tail == 1.0

    def test_regions_decompose_overall(self, rng):
        labels = rng.integers(0, 9, size=400)
        decisions = rng.integers(0, 9, size=400)
        acc = region_accuracy(labels, decisions, 9)
        thirds = (
            (range(0, 3), acc.acc_head), (range(3, 6), acc.acc_med), (range(6, 9), acc.acc_tail)
        )
        weighted = sum(np.isin(labels, ids).sum() * value for ids, value in thirds)
        assert acc.acc_overall == pytest.approx(weighted / 400, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InputError):
            region_accuracy(np.array([0, 1]), np.array([0]), 3)
        with pytest.raises(InputError):
            region_accuracy(np.array([]), np.array([]), 3)

    @pytest.mark.parametrize("labels", [[0, 4, 9, 12], [0, 4, -1, 8]])
    def test_labels_outside_the_classes_rejected(self, labels):
        # a label outside [0, K) belongs to no region: rejected, not dropped
        with pytest.raises(InputError, match=r"labels must lie in \[0, 9\)"):
            region_accuracy(np.array(labels), np.zeros(4, dtype=np.int64), 9)


class TestFalseHeadRate:
    def test_hand_case(self):
        # tail classes {2, 3}; three tail-labeled samples, two decided head
        fhr = false_head_rate(
            np.array([2, 3, 2, 0]), np.array([0, 3, 1, 0]), tail_mask(4, 0.5)
        )
        assert fhr == pytest.approx(2 / 3, rel=1e-12)

    def test_no_tail_labels_warns_zero(self):
        with pytest.warns(UserWarning):
            fhr = false_head_rate(np.array([0, 1]), np.array([2, 3]), tail_mask(4, 0.5))
        assert fhr == 0.0

    def test_extremes(self):
        tail = tail_mask(4, 0.5)
        labels = np.array([2, 3, 3])
        assert false_head_rate(labels, np.array([0, 1, 0]), tail) == 1.0
        assert false_head_rate(labels, np.array([3, 2, 3]), tail) == 0.0

    @pytest.mark.parametrize("name", ["labels", "decisions"])
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_ids_outside_the_mask_rejected(self, name, bad):
        # -1 used to wrap to the last class and 4 to raise a bare IndexError
        ids = {"labels": np.array([2, 3]), "decisions": np.array([0, 3])}
        ids[name] = np.array([2, bad])
        with pytest.raises(InputError, match=rf"{name} must lie in \[0, 4\)"):
            false_head_rate(ids["labels"], ids["decisions"], tail_mask(4, 0.5))

    def test_matches_brute_force(self, rng):
        tail = tail_mask(6, 0.4)
        tail_ids = set(np.flatnonzero(tail).tolist())
        for _ in range(20):
            labels = rng.integers(0, 6, size=50)
            decisions = rng.integers(0, 6, size=50)
            if not any(int(l) in tail_ids for l in labels):
                continue
            hits = [
                int(d) not in tail_ids
                for l, d in zip(labels, decisions)
                if int(l) in tail_ids
            ]
            assert false_head_rate(labels, decisions, tail) == pytest.approx(
                np.mean(hits), rel=1e-12
            )


class TestPredictiveEntropy:
    def test_uniform_is_log_k(self):
        for k in (2, 5, 17):
            assert predictive_entropy(np.full(k, 1.0 / k)) == pytest.approx(
                np.log(k), rel=1e-12
            )

    def test_point_mass_is_zero(self):
        assert predictive_entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_hand_case(self):
        value = predictive_entropy(np.array([0.25, 0.25, 0.5]))
        assert value == pytest.approx(1.5 * np.log(2.0), rel=1e-12)

    def test_batch_shape(self, rng):
        probs = rng.dirichlet(np.ones(4), size=12)
        out = predictive_entropy(probs)
        assert out.shape == (12,)
        assert np.allclose(
            out, [predictive_entropy(row) for row in probs], rtol=1e-12
        )

    CORNERS = [0.0, -0.0, 5e-324, 1e-320, 1.0, 0.5, -1.0, np.nan, np.inf, -np.inf]

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=2, max_side=12),
            elements=st.one_of(
                # above ~1e306 a sum of p log p overflows, with a warning either way
                st.sampled_from(CORNERS), st.floats(0.0, 1.0), st.floats(max_value=1e300)
            ),
        )
    )
    def test_bits_match_the_where_oracle(self, probs):
        got = predictive_entropy(probs)
        with np.errstate(invalid="ignore"):  # the oracle forms 0 * -inf, then masks it
            want = where_entropy(probs)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_bits_match_the_where_oracle_on_dirichlet_rows(self, rng):
        probs = rng.dirichlet(np.full(10, 0.3), size=5000)
        probs[::7, 3] = 0.0
        assert predictive_entropy(probs).tobytes() == where_entropy(probs).tobytes()
        assert type(predictive_entropy(probs[0])) is np.float64


class TestAuc:
    def test_perfect_separation(self):
        unc = np.array([0.1, 0.2, 0.8, 0.9])
        correct = np.array([True, True, False, False])
        assert auc_misclassification(unc, correct) == 1.0
        assert auc_misclassification(-unc, correct) == 0.0

    def test_constant_uncertainty_is_half(self):
        assert auc_misclassification(
            np.full(6, 0.3), np.array([True, False] * 3)
        ) == pytest.approx(0.5, rel=1e-12)

    def test_degenerate_is_none(self):
        assert auc_misclassification(np.array([0.1, 0.2]), np.array([True, True])) is None
        assert auc_misclassification(np.array([0.1, 0.2]), np.array([False, False])) is None

    def test_matches_pairwise_brute_force(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 40))
            unc = rng.integers(0, 6, size=n).astype(float)  # coarse grid forces ties
            correct = rng.random(n) < 0.6
            if correct.all() or not correct.any():
                continue
            wrong = unc[~correct]
            right = unc[correct]
            wins = sum(
                1.0 if w > r else 0.5 if w == r else 0.0 for w in wrong for r in right
            )
            expected = wins / (len(wrong) * len(right))
            assert auc_misclassification(unc, correct) == pytest.approx(
                expected, rel=1e-12
            )
            # mean rank of a tie group: values below it, plus the group's middle
            below = (unc[None, :] < unc[:, None]).sum(axis=1)
            tied = (unc[None, :] == unc[:, None]).sum(axis=1)
            assert np.array_equal(_average_ranks(unc), below + (tied + 1) / 2)

    # ties, signed zeros, infinities and NaNs, which np.unique puts in one group
    RANK_CORNERS = [0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan, 5e-324]

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(1, 40),
            elements=st.one_of(st.sampled_from(RANK_CORNERS), st.floats(-3.0, 3.0)),
        )
    )
    def test_ranks_match_the_unique_oracle(self, values):
        assert _average_ranks(values).tobytes() == unique_ranks(values).tobytes()

    def test_ranks_of_large_vectors_match_the_unique_oracle(self, rng):
        values = rng.normal(size=50_000)
        values[::3] = np.round(values[::3], 1)  # many ties among distinct values
        values[::97] = np.nan
        assert _average_ranks(values).tobytes() == unique_ranks(values).tobytes()

    def test_monotone_transform_invariance(self, rng):
        unc = rng.random(60)
        correct = rng.random(60) < 0.7
        base = auc_misclassification(unc, correct)
        assert auc_misclassification(np.exp(unc), correct) == pytest.approx(
            base, rel=1e-12
        )
        assert auc_misclassification(3.0 * unc + 1.0, correct) == pytest.approx(
            base, rel=1e-12
        )

    def test_permutation_invariance(self, rng):
        unc = rng.random(40)
        correct = rng.random(40) < 0.5
        correct[0], correct[1] = True, False
        perm = rng.permutation(40)
        assert auc_misclassification(unc[perm], correct[perm]) == pytest.approx(
            auc_misclassification(unc, correct), rel=1e-12
        )


class TestEce:
    def test_perfectly_calibrated_bin(self):
        conf = np.full(10, 0.7)
        correct = np.array([True] * 7 + [False] * 3)
        assert expected_calibration_error(conf, correct, bins=15) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_confidently_wrong(self):
        assert expected_calibration_error(
            np.ones(4), np.zeros(4, dtype=bool), bins=15
        ) == pytest.approx(1.0, rel=1e-12)

    def test_bins_are_right_closed(self):
        # with 5 bins, 0.2 belongs to (0, 0.2] and 0.3 to (0.2, 0.4]
        value = expected_calibration_error(
            np.array([0.2, 0.3]), np.array([True, False]), bins=5
        )
        assert value == pytest.approx(0.5 * 0.8 + 0.5 * 0.3, rel=1e-12)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 60))
            conf = rng.random(n)
            conf[0] = 0.0
            if n > 1:
                conf[1] = 1.0
            correct = rng.random(n) < conf
            bins = int(rng.integers(1, 20))
            expected = 0.0
            for b in range(bins):
                lo, hi = b / bins, (b + 1) / bins
                mask = (conf > lo) & (conf <= hi)
                if b == 0:
                    mask |= conf == 0.0
                if not mask.any():
                    continue
                gap = abs(correct[mask].mean() - conf[mask].mean())
                expected += mask.sum() / n * gap
            assert expected_calibration_error(conf, correct, bins) == pytest.approx(
                expected, rel=1e-12, abs=1e-15
            )

    def test_validation(self):
        with pytest.raises(InputError):
            expected_calibration_error(np.array([0.5]), np.array([True]), bins=0)
        # the range is what must hold, so NaN fails it too
        for bad in (1.2, -1e-12, np.nan):
            with pytest.raises(InputError, match=r"confidences must lie in \[0, 1\]"):
                expected_calibration_error(np.array([0.5, bad]), np.array([True, False]))
        with pytest.raises(InputError):
            expected_calibration_error(np.array([]), np.array([]), bins=5)


class TestReportSerialization:
    def report(self):
        return MetricsReport(
            acc_overall=0.71,
            acc_head=0.93,
            acc_med=0.7,
            acc_tail=0.5,
            fhr={0.25: 0.1, 0.5: 0.2, 0.75: 0.3},
            fhr_avg=0.2,
            auc=0.83,
            ece=0.04,
            n_test=1000,
            param_distance=1.5,
            disagreement=0.06,
        )

    def test_json_shape(self):
        # exactly the report's 11 fields, each with the report's value
        report = self.report()
        raw = json.loads(report_to_json(report))
        names = [f.name for f in dataclasses.fields(MetricsReport)]
        assert len(names) == 11 and set(raw) == set(names)
        for name in names:
            if name != "fhr":
                assert raw[name] == getattr(report, name), name
        assert raw["fhr"] == {"0.25": 0.1, "0.5": 0.2, "0.75": 0.3}
        assert raw["n_test"] == 1000
        assert report_to_json(report).endswith("\n")

    def test_none_fields_survive(self):
        report = self.report()
        report.auc = None
        report.acc_med = None
        report.param_distance = None
        report.disagreement = None
        text = report_to_json(report)
        assert '"auc": null' in text
        raw = json.loads(text)
        for name in ("auc", "acc_med", "param_distance", "disagreement"):
            assert raw[name] is None
        assert json.loads(report_to_json(report))["auc"] is None

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_are_rejected(self, bad):
        report = self.report()
        report.param_distance = bad
        with pytest.raises(ValueError, match="JSON compliant"):
            report_to_json(report)


class TestSummaryCsv:
    def test_round_trip_with_none(self, tmp_path):
        rows = [
            {"seed": 0, "acc": 0.7, "auc": 0.8},
            {"seed": 1, "acc": 0.6, "auc": None},
        ]
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path)
        with open(path, newline="") as fh:
            back = list(csv.reader(fh))
        assert back[0] == ["seed", "acc", "auc"]
        assert back[1] == ["0", "0.7", "0.8"]
        assert back[2] == ["1", "0.6", ""]

    def test_layout_mismatch(self, tmp_path):
        rows = [{"a": 1}, {"b": 2}]
        with pytest.raises(InputError):
            write_summary_csv(rows, tmp_path / "bad.csv")

    def test_empty(self, tmp_path):
        with pytest.raises(InputError):
            write_summary_csv([], tmp_path / "empty.csv")
