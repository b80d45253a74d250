"""Discrepancy-ratio forms, weight normalization, and growth diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailens.errors import InputError
from tailens.rebalance import (
    FORMS,
    ClassWeights,
    DiscrepancySpec,
    class_weights,
    f_value,
    growth_rate,
    normalize_raw,
    without_samples,
)

# Frozen oracle: (1 - 0.9999^500) / (1 - 0.9999) at 60-digit precision.
EFFECTIVE_F_500 = 487.72953728424517


class TestFValue:
    def test_linear_table_values(self):
        assert f_value(DiscrepancySpec("linear"), 500) == 500.0
        assert 1.0 / f_value(DiscrepancySpec("linear"), 500) == 0.002
        assert round(1.0 / f_value(DiscrepancySpec("linear"), 6), 4) == 0.1667

    def test_plain_is_constant_one(self):
        spec = DiscrepancySpec("plain")
        assert all(f_value(spec, n) == 1.0 for n in (1, 6, 500, 10**6))

    def test_sqrt_and_log(self):
        assert f_value(DiscrepancySpec("sqrt"), 4) == 2.0
        assert f_value(DiscrepancySpec("log"), 99) == pytest.approx(np.log(100), abs=1e-15)

    def test_effective_beta_to_zero_limit(self):
        spec = DiscrepancySpec("effective", beta=1e-12)
        for n in (1, 2, 50):
            assert f_value(spec, n) == pytest.approx(1.0, abs=1e-9)

    def test_effective_matches_extended_precision(self):
        f = f_value(DiscrepancySpec("effective", beta=0.9999), 500)
        assert f == pytest.approx(EFFECTIVE_F_500, rel=1e-12)

    def test_power_gamma(self):
        assert f_value(DiscrepancySpec("power", gamma=2.0), 5) == 25.0


class TestSpecValidation:
    def test_unknown_form(self):
        with pytest.raises(InputError):
            DiscrepancySpec("cubic")

    def test_effective_beta_range(self):
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(InputError):
                DiscrepancySpec("effective", beta=bad)

    def test_power_negative_gamma(self):
        with pytest.raises(InputError):
            DiscrepancySpec("power", gamma=-1.0)

    @pytest.mark.parametrize("form", ["linear", "sqrt", "plain"])
    def test_ranges_hold_for_every_form(self, form):
        for bad in ({"gamma": -1.0}, {"gamma": float("nan")}, {"beta": 1.0}, {"beta": 0.0}):
            with pytest.raises(InputError):
                DiscrepancySpec(form, **bad)


class TestClassWeights:
    def test_balanced_counts_normalize_to_one(self):
        for form in FORMS:
            weights = class_weights(DiscrepancySpec(form), [40, 40, 40])
            assert np.allclose(weights.normalized, 1.0, atol=1e-15)

    def test_table_raw_values(self):
        weights = class_weights(DiscrepancySpec("linear"), [500, 6])
        assert weights.raw[0] == 0.002
        assert weights.raw[1] == pytest.approx(1 / 6, rel=1e-15)
        # the per-sample weights of the batch expectation
        assert np.allclose(weights.normalized, [253 / 500, 506 / 12], rtol=1e-12)
        plain = class_weights(DiscrepancySpec("plain"), [500, 6])
        assert np.array_equal(plain.normalized, [1.0, 1.0])

    def test_sqrt_hand_case(self):
        weights = class_weights(DiscrepancySpec("sqrt"), [4, 1])
        assert np.allclose(weights.raw, [0.5, 1.0], atol=1e-15)
        counts = np.array([4, 1])
        assert np.dot(counts, weights.normalized) == pytest.approx(counts.sum(), abs=1e-9)

    @given(
        st.sampled_from(FORMS),
        st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_mean_one_normalization(self, form, counts):
        weights = class_weights(DiscrepancySpec(form), counts)
        counts = np.asarray(counts, dtype=np.float64)
        assert np.dot(counts, weights.normalized) == pytest.approx(
            counts.sum(), rel=1e-9
        )

    @given(st.lists(st.integers(min_value=1, max_value=5000), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_raw_non_decreasing_for_sorted_counts(self, counts):
        counts = sorted(counts, reverse=True)
        for form in FORMS:
            raw = class_weights(DiscrepancySpec(form), counts).raw
            assert np.all(np.diff(raw) >= -1e-15)

    def test_linear_equals_power_gamma_one(self):
        counts = [321, 57, 9, 2]
        linear = class_weights(DiscrepancySpec("linear"), counts)
        power = class_weights(DiscrepancySpec("power", gamma=1.0), counts)
        assert np.array_equal(linear.raw, power.raw)
        assert np.array_equal(linear.normalized, power.normalized)

    def test_normalized_invariant_to_rescaling_f(self, rng):
        # scaling every raw weight by c > 0 cancels in the normalizer
        counts = np.array([100, 30, 7])
        raw = class_weights(DiscrepancySpec("log"), counts).raw
        for c in (0.25, 3.0, 1e6):
            assert np.allclose(
                normalize_raw(c * raw, counts), normalize_raw(raw, counts), rtol=1e-12
            )

    def test_zero_count_rejected(self):
        with pytest.raises(InputError):
            class_weights(DiscrepancySpec("linear"), [10, 0])

    def test_empty_counts_rejected(self):
        with pytest.raises(InputError):
            class_weights(DiscrepancySpec("linear"), [])

    def test_many_empty_classes_name_ten(self):
        counts = np.zeros(3_000_002, dtype=np.int64)
        counts[:2] = 5
        with pytest.raises(InputError) as err:
            class_weights(DiscrepancySpec("linear"), counts)
        ids = list(range(2, 12))
        assert str(err.value) == f"classes without training samples: {ids} and 2999990 more"

    @settings(max_examples=200)
    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_without_samples_names_the_first_ten(self, has):
        # brute-force oracle: every missing id, then the first 10 of them and a count
        ids = [k for k, there in enumerate(has) if not there]
        more = f" and {len(ids) - 10} more" if len(ids) > 10 else ""
        expected = f"classes without training samples: {ids[:10]}{more}" if ids else None
        assert without_samples(np.flatnonzero(has), len(has)) == expected


class TestGrowthRate:
    def test_plain_zero(self):
        assert growth_rate(class_weights(DiscrepancySpec("plain"), [500, 6])) == 0.0

    def test_doubling_is_hundred_percent(self):
        weights = ClassWeights(raw=np.array([0.5, 1.0]), normalized=np.array([1.0, 1.0]))
        assert growth_rate(weights) == 100.0

    def test_linear_500_6(self):
        weights = class_weights(DiscrepancySpec("linear"), [500, 6])
        assert growth_rate(weights) == pytest.approx((500 / 6 - 1) * 100, rel=1e-12)
