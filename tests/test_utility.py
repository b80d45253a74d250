"""Utility matrix construction, validation, and CSV loading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailens.errors import InputError, ParseError
from tailens.utility import UtilityMatrix, load_matrix, one_hot, tail_sensitive


class TestOneHot:
    def test_k3_identity(self):
        assert np.array_equal(one_hot(3).values, np.eye(3))

    def test_symmetric_with_trace_k(self):
        values = one_hot(7).values
        assert np.array_equal(values, values.T)
        assert np.trace(values) == 7

    def test_needs_a_class(self):
        with pytest.raises(InputError):
            one_hot(0)


class TestTailSensitive:
    def test_zero_penalty_reduces_to_one_hot(self):
        assert np.array_equal(tail_sensitive(6, 0.5, 0.0).values, one_hot(6).values)

    def test_k4_structure(self):
        # tail holds classes {2, 3}; deciding head on a tail truth costs rho
        values = tail_sensitive(4, 0.5, 1.0).values
        assert values[3][0] == -1.0
        assert values[3][3] == 1.0
        assert values[0][3] == 0.0
        assert values[2][1] == -1.0
        assert values[1][1] == 1.0

    @given(
        st.integers(min_value=2, max_value=12),
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_diagonal_is_row_max_for_any_penalty(self, k, ratio, rho):
        values = tail_sensitive(k, ratio, rho).values
        diag = np.diag(values)
        assert np.all(values <= diag[:, None])

    def test_asymmetric_when_penalized(self):
        values = tail_sensitive(4, 0.5, 2.0).values
        assert not np.array_equal(values, values.T)

    def test_negative_penalty_rejected(self):
        with pytest.raises(InputError):
            tail_sensitive(4, 0.5, -0.5)


class TestMatrixValidation:
    def test_diagonal_row_max_enforced(self):
        bad = np.eye(3)
        bad[1, 2] = 4.0
        with pytest.raises(InputError, match="row 1"):
            UtilityMatrix(3, bad)

    def test_non_finite_rejected(self):
        bad = np.eye(2)
        bad[0, 1] = np.nan
        with pytest.raises(InputError):
            UtilityMatrix(2, bad)

    def test_shape_must_be_square_k(self):
        with pytest.raises(InputError):
            UtilityMatrix(3, np.eye(2))

    def test_argmax_of_each_row_includes_diagonal(self):
        values = tail_sensitive(5, 0.4, 3.0).values
        for i in range(5):
            assert values[i].max() == values[i, i]


class TestLoadMatrix:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "util.csv"
        path.write_text("1.0,0.0\n-2.5,1.0\n")
        matrix = load_matrix(path)
        assert matrix.num_classes == 2
        assert np.array_equal(matrix.values, [[1.0, 0.0], [-2.5, 1.0]])

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "util.csv"
        path.write_text("1.0,0.0\n0.0,1.0\n0.0,0.0\n")
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "util.csv"
        path.write_text("1.0,0.0\nx,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_matrix(path)

    @pytest.mark.parametrize("field", ["1_0", "1_000.5", "1e1_0"])
    def test_digit_separators_are_non_numeric(self, tmp_path, field):
        # float() reads 1_0 as 10; a utility CSV, like a data CSV, has no separators
        path = tmp_path / "util.csv"
        path.write_text(f"1,0\n0,{field}\n")
        with pytest.raises(ParseError, match=r"util.csv: line 2: non-numeric utility in \["):
            load_matrix(path)

    def test_a_record_over_two_lines_keeps_the_later_line_numbers(self, tmp_path):
        path = tmp_path / "util.csv"
        path.write_text('"1\n",0,0\n0,1,0\n0,0,x\n')
        with pytest.raises(ParseError, match="util.csv: line 4: non-numeric utility"):
            load_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "util.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_dominated_diagonal_names_row(self, tmp_path):
        # the matrix's InputError on row 0 becomes a ParseError on its line
        path = tmp_path / "util.csv"
        path.write_text("1.0,2.0\n0.0,1.0\n")
        with pytest.raises(ParseError, match="util.csv: line 1: diagonal"):
            load_matrix(path)
        path.write_text("1.0,0.0\n\n2.0,1.0\n")  # blank lines are skipped, not counted
        with pytest.raises(ParseError, match="util.csv: line 3: diagonal"):
            load_matrix(path)
        path.write_text("1.0,0.0\n0.0,nan\n")
        with pytest.raises(ParseError, match="util.csv: line 2: utility values must be finite"):
            load_matrix(path)
