"""Forward, backward, and layout checks for the flat-vector networks."""

import numpy as np
import pytest

from tailens.errors import InputError
from tailens.numcore import (
    NetShape,
    backward_batch,
    forward_logprobs_batch,
    init_params,
    param_count,
    unpack,
)

# Frozen oracle: forward pass of the seed-0 network below re-evaluated with
# 60-digit arithmetic (mpmath), rounded back to float64.
ORACLE_SHAPE = NetShape(4, (5,), 3)
ORACLE_X = np.array([0.25, -1.5, 3.0, 0.5])
ORACLE_LOGPROBS = (
    -1.2594723822919953,
    -1.5837682851368284,
    -0.6713937372743544,
)


def seed0_params(shape):
    return init_params(shape, np.random.default_rng(np.random.SeedSequence(0)))


class TestShape:
    def test_param_count_2_8_3(self):
        # 2*8+8 weights+biases into hidden, 8*3+3 into output
        assert param_count(NetShape(2, (8,), 3)) == 51

    def test_param_count_no_hidden(self):
        assert param_count(NetShape(4, (), 3)) == 4 * 3 + 3

    def test_dims(self):
        assert NetShape(2, (8, 4), 3).dims == (2, 8, 4, 3)

    def test_rejects_one_class(self):
        with pytest.raises(InputError):
            NetShape(2, (8,), 1)

    def test_rejects_nonpositive_layer(self):
        with pytest.raises(InputError):
            NetShape(0, (8,), 3)
        with pytest.raises(InputError):
            NetShape(2, (0,), 3)


class TestUnpack:
    def test_layout_weights_then_biases_row_major(self):
        shape = NetShape(2, (3,), 2)
        flat = np.arange(param_count(shape), dtype=np.float64)
        (w1, b1), (w2, b2) = unpack(shape, flat)
        assert w1.shape == (3, 2) and np.array_equal(w1.ravel(), flat[:6])
        assert np.array_equal(b1, flat[6:9])
        assert w2.shape == (2, 3) and np.array_equal(w2.ravel(), flat[9:15])
        assert np.array_equal(b2, flat[15:17])

    def test_views_alias_the_flat_vector(self):
        shape = NetShape(2, (3,), 2)
        flat = np.zeros(param_count(shape))
        (w1, _), _ = unpack(shape, flat)
        w1[0, 0] = 7.0
        assert flat[0] == 7.0

    def test_wrong_length_rejected(self):
        with pytest.raises(InputError):
            unpack(NetShape(2, (3,), 2), np.zeros(5))


class TestInit:
    def test_within_fan_in_bounds(self):
        shape = NetShape(9, (4,), 3)
        params = seed0_params(shape)
        (w1, b1), (w2, b2) = unpack(shape, params)
        assert np.abs(w1).max() <= 1 / 3 and np.abs(b1).max() <= 1 / 3
        assert np.abs(w2).max() <= 1 / 2 and np.abs(b2).max() <= 1 / 2

    def test_deterministic_per_seed(self):
        shape = NetShape(3, (4,), 2)
        a = seed0_params(shape)
        b = seed0_params(shape)
        assert np.array_equal(a, b)


class TestForward:
    def test_zero_params_uniform(self):
        shape = NetShape(3, (4,), 5)
        lp = forward_logprobs_batch(shape, np.zeros(param_count(shape)), np.ones((1, 3)))
        assert np.allclose(lp, np.log(1 / 5), atol=1e-15)

    def test_two_class_zero_logits(self):
        shape = NetShape(2, (), 2)
        lp = forward_logprobs_batch(
            shape, np.zeros(param_count(shape)), np.array([[0.3, -0.7]])
        )
        assert np.allclose(lp, np.log(0.5), atol=1e-15)

    def test_exp_sums_to_one(self, rng):
        for _ in range(50):
            shape = NetShape(
                int(rng.integers(1, 6)),
                tuple(int(d) for d in rng.integers(1, 7, size=rng.integers(0, 3))),
                int(rng.integers(2, 6)),
            )
            params = rng.normal(scale=3.0, size=param_count(shape))
            x = rng.normal(size=(4, shape.input_dim))
            lp = forward_logprobs_batch(shape, params, x)
            assert np.all(np.abs(np.exp(lp).sum(axis=1) - 1.0) < 1e-12)

    def test_deterministic_bitwise(self, rng):
        shape = NetShape(4, (6,), 3)
        params = rng.normal(size=param_count(shape))
        x = rng.normal(size=(8, 4))
        lp = forward_logprobs_batch(shape, params, x)
        assert np.array_equal(lp, forward_logprobs_batch(shape, params, x))
        # the backward pass hands back the log-probs of its own forward
        logprobs, _ = backward_batch(shape, params, x, rng.normal(size=(8, 3)))
        assert np.array_equal(logprobs, lp)

    def test_matches_extended_precision_oracle(self):
        lp = forward_logprobs_batch(
            ORACLE_SHAPE, seed0_params(ORACLE_SHAPE), ORACLE_X[None, :]
        )
        assert np.allclose(lp[0], ORACLE_LOGPROBS, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        shape = NetShape(3, (4,), 2)
        params = np.zeros(param_count(shape))
        with pytest.raises(InputError):
            forward_logprobs_batch(shape, params, np.zeros(3))
        with pytest.raises(InputError):
            forward_logprobs_batch(shape, params, np.zeros((2, 4)))


def fd_gradient(shape, params, x, cotangent, step=1e-5):
    """Central finite differences of cotangent . forward_logprobs_batch."""
    grad = np.zeros_like(params)
    for i in range(params.shape[0]):
        up = params.copy()
        up[i] += step
        down = params.copy()
        down[i] -= step
        f_up = float(np.sum(cotangent * forward_logprobs_batch(shape, up, x)))
        f_dn = float(np.sum(cotangent * forward_logprobs_batch(shape, down, x)))
        grad[i] = (f_up - f_dn) / (2 * step)
    return grad


class TestBackward:
    def test_zero_cotangent(self, rng):
        shape = NetShape(2, (8,), 3)
        params = rng.normal(size=param_count(shape))
        _, grad = backward_batch(shape, params, rng.normal(size=(1, 2)), np.zeros((1, 3)))
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_linearity_in_cotangent(self, rng):
        shape = NetShape(3, (5,), 4)
        params = rng.normal(size=param_count(shape))
        x = rng.normal(size=(1, 3))
        c = rng.normal(size=(1, 4))
        _, g1 = backward_batch(shape, params, x, c)
        _, g3 = backward_batch(shape, params, x, 3.0 * c)
        assert np.allclose(g3, 3.0 * g1, rtol=1e-13, atol=0)

    def test_matches_finite_differences(self, rng):
        shape = NetShape(2, (8,), 3)
        for _ in range(5):
            params = rng.normal(size=param_count(shape))
            x = rng.normal(size=(3, 2))
            cot = rng.normal(size=(3, 3))
            _, grad = backward_batch(shape, params, x, cot)
            fd = fd_gradient(shape, params, x, cot)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(grad - fd) / denom) < 1e-4

    def test_batch_is_sum_of_singles(self, rng):
        shape = NetShape(2, (4,), 3)
        params = rng.normal(size=param_count(shape))
        x = rng.normal(size=(4, 2))
        cot = rng.normal(size=(4, 3))
        _, whole = backward_batch(shape, params, x, cot)
        parts = sum(
            backward_batch(shape, params, x[i : i + 1], cot[i : i + 1])[1] for i in range(4)
        )
        assert np.allclose(whole, parts, rtol=1e-12, atol=1e-14)

    def test_shape_validation(self, rng):
        shape = NetShape(2, (4,), 3)
        params = np.zeros(param_count(shape))
        with pytest.raises(InputError):
            backward_batch(shape, params, np.zeros(2), np.zeros((1, 3)))
        with pytest.raises(InputError):
            backward_batch(shape, params, np.zeros((1, 2)), np.zeros((1, 4)))
        with pytest.raises(InputError):
            backward_batch(shape, params, np.zeros((2, 2)), np.zeros((3, 3)))

