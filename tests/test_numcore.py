"""Forward, backward, and layout checks for the stacked-particle networks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_same_decisions, random_ensemble
from oracles import out_of_place_backward, whole_array_decide
from tailens import numcore
from tailens.decision import decide_batch
from tailens.errors import InputError
from tailens.numcore import (
    NetShape,
    backward_batch,
    forward_logprobs_batch,
    init_params,
    param_count,
    row_blocks,
    unpack,
)
from tailens.utility import tail_sensitive

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
        p = param_count(shape)
        flat = np.arange(2 * p, dtype=np.float64).reshape(2, p)
        (w1, b1), (w2, b2) = unpack(shape, flat)
        assert w1.shape == (2, 3, 2) and b1.shape == (2, 3)
        assert w2.shape == (2, 2, 3) and b2.shape == (2, 2)
        for m in range(2):
            assert np.array_equal(w1[m].ravel(), flat[m, :6])
            assert np.array_equal(b1[m], flat[m, 6:9])
            assert np.array_equal(w2[m].ravel(), flat[m, 9:15])
            assert np.array_equal(b2[m], flat[m, 15:17])

    def test_views_alias_the_flat_vector(self):
        shape = NetShape(2, (3,), 2)
        flat = np.zeros((2, param_count(shape)))
        (w1, _), (_, b2) = unpack(shape, flat)
        w1[1, 0, 0] = 7.0
        b2[0, 1] = 5.0
        assert flat[1, 0] == 7.0 and flat[0, 16] == 5.0
        assert np.count_nonzero(flat) == 2

    def test_wrong_length_rejected(self):
        with pytest.raises(InputError):
            unpack(NetShape(2, (3,), 2), np.zeros((1, 5)))

    def test_flat_vector_rejected(self):
        shape = NetShape(2, (3,), 2)
        params = np.zeros(param_count(shape))
        with pytest.raises(InputError, match="particle matrix"):
            unpack(shape, params)
        with pytest.raises(InputError):
            forward_logprobs_batch(shape, params, np.zeros((1, 2)))
        with pytest.raises(InputError):
            backward_batch(shape, params, np.zeros((1, 2)), np.zeros((1, 2)))


class TestInit:
    def test_within_fan_in_bounds(self):
        shape = NetShape(9, (4,), 3)
        params = seed0_params(shape)
        (w1, b1), (w2, b2) = unpack(shape, params[None, :])
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
        lp = forward_logprobs_batch(shape, np.zeros((2, param_count(shape))), np.ones((1, 3)))
        assert lp.shape == (2, 1, 5)
        assert np.allclose(lp, np.log(1 / 5), atol=1e-15)

    def test_two_class_zero_logits(self):
        shape = NetShape(2, (), 2)
        lp = forward_logprobs_batch(
            shape, np.zeros((1, param_count(shape))), np.array([[0.3, -0.7]])
        )
        assert np.allclose(lp, np.log(0.5), atol=1e-15)

    def test_exp_sums_to_one(self, rng):
        for _ in range(50):
            shape = NetShape(
                int(rng.integers(1, 6)),
                tuple(int(d) for d in rng.integers(1, 7, size=rng.integers(0, 3))),
                int(rng.integers(2, 6)),
            )
            particles = rng.normal(scale=3.0, size=(int(rng.integers(1, 4)), param_count(shape)))
            x = rng.normal(size=(4, shape.input_dim))
            lp = forward_logprobs_batch(shape, particles, x)
            assert lp.shape == (particles.shape[0], 4, shape.num_classes)
            assert np.all(np.abs(np.exp(lp).sum(axis=2) - 1.0) < 1e-12)

    def test_deterministic_bitwise(self, rng):
        shape = NetShape(4, (6,), 3)
        particles = rng.normal(size=(3, param_count(shape)))
        x = rng.normal(size=(8, 4))
        lp = forward_logprobs_batch(shape, particles, x)
        assert np.array_equal(lp, forward_logprobs_batch(shape, particles, x))
        # the backward pass hands back the log-probs of its own forward
        logprobs, _ = backward_batch(shape, particles, x, rng.normal(size=(8, 3)))
        assert np.array_equal(logprobs, lp)

    def test_matches_extended_precision_oracle(self):
        lp = forward_logprobs_batch(
            ORACLE_SHAPE, seed0_params(ORACLE_SHAPE)[None, :], ORACLE_X[None, :]
        )
        assert np.allclose(lp[0, 0], ORACLE_LOGPROBS, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        shape = NetShape(3, (4,), 2)
        particles = np.zeros((1, param_count(shape)))
        with pytest.raises(InputError):
            forward_logprobs_batch(shape, particles, np.zeros(3))
        with pytest.raises(InputError):
            forward_logprobs_batch(shape, particles, np.zeros((2, 4)))

    @pytest.mark.parametrize("n", [2100, 3100])
    @pytest.mark.parametrize("k", [10, 2])
    def test_row_blocks_match_one_unblocked_forward(self, rng, n, k):
        # several blocks, the remainder short of a full block
        assert n > 2 * numcore.BLOCK_ROWS and n % numcore.BLOCK_ROWS < 100
        ens = random_ensemble(NetShape(16, (32,), k), 3, seed=4)
        x = rng.normal(size=(n, 16))
        whole = forward_logprobs_batch(ens.shape, ens.particles, x)
        blocked = np.concatenate(
            [forward_logprobs_batch(ens.shape, ens.particles, x[a:b]) for a, b in row_blocks(n)],
            axis=1,
        )
        assert np.array_equal(blocked, whole)
        # the backward's forward is the same one product over all rows
        logprobs, _ = backward_batch(ens.shape, ens.particles, x, np.zeros((n, k)))
        assert np.array_equal(whole, logprobs)

    ENSEMBLE = random_ensemble(NetShape(16, (32,), 10), 3, seed=4)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    @example(0)
    @example(1023)
    @example(1024)
    @example(2047)
    @example(2048)
    @example(10_000)
    def test_row_blocks_tile_the_rows_and_keep_the_bits(self, n):
        blocks, rows = row_blocks(n), numcore.BLOCK_ROWS
        assert [start for start, _ in blocks] == [0, *(stop for _, stop in blocks[:-1])]
        assert blocks[-1][1] == n
        if n < rows:
            assert len(blocks) == 1
        else:
            assert all(rows <= stop - start < 2 * rows for start, stop in blocks)
        ens, utility = self.ENSEMBLE, tail_sensitive(10, 0.5, penalty=1.0)
        x = np.random.default_rng(n).normal(size=(n, 16))
        blocked = decide_batch(ens, utility, x)
        assert_same_decisions(blocked, whole_array_decide(ens, utility, x), 10)


def fd_gradient(shape, particles, x, cotangent, step=1e-5):
    """Central finite differences of sum_m cotangent . forward_logprobs_batch[m];
    particle m's parameters reach only its own log-probs."""
    grad = np.zeros_like(particles)
    for idx in np.ndindex(particles.shape):
        up = particles.copy()
        up[idx] += step
        down = particles.copy()
        down[idx] -= step
        f_up = float(np.sum(cotangent * forward_logprobs_batch(shape, up, x)))
        f_dn = float(np.sum(cotangent * forward_logprobs_batch(shape, down, x)))
        grad[idx] = (f_up - f_dn) / (2 * step)
    return grad


class TestBackward:
    def test_zero_cotangent(self, rng):
        shape = NetShape(2, (8,), 3)
        particles = rng.normal(size=(2, param_count(shape)))
        _, grad = backward_batch(shape, particles, rng.normal(size=(1, 2)), np.zeros((1, 3)))
        assert grad.shape == particles.shape
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_linearity_in_cotangent(self, rng):
        shape = NetShape(3, (5,), 4)
        particles = rng.normal(size=(2, param_count(shape)))
        x = rng.normal(size=(1, 3))
        c = rng.normal(size=(1, 4))
        _, g1 = backward_batch(shape, particles, x, c)
        _, g3 = backward_batch(shape, particles, x, 3.0 * c)
        assert np.allclose(g3, 3.0 * g1, rtol=1e-13, atol=0)

    def test_matches_finite_differences(self, rng):
        shape = NetShape(2, (8,), 3)
        for _ in range(5):
            particles = rng.normal(size=(2, param_count(shape)))
            x = rng.normal(size=(3, 2))
            cot = rng.normal(size=(3, 3))
            _, grad = backward_batch(shape, particles, x, cot)
            fd = fd_gradient(shape, particles, x, cot)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(grad - fd) / denom) < 1e-4

    def test_batch_is_sum_of_singles(self, rng):
        shape = NetShape(2, (4,), 3)
        particles = rng.normal(size=(3, param_count(shape)))
        x = rng.normal(size=(4, 2))
        cot = rng.normal(size=(4, 3))
        _, whole = backward_batch(shape, particles, x, cot)
        parts = sum(
            backward_batch(shape, particles, x[i : i + 1], cot[i : i + 1])[1] for i in range(4)
        )
        assert np.allclose(whole, parts, rtol=1e-12, atol=1e-14)


def reference_logprobs(shape, theta, x):
    """One particle's forward in plain 2-D matmuls: the per-particle loop body
    that the stacked kernel replaced."""
    layers = unpack(shape, theta[None, :])
    h = x
    for w, b in layers[:-1]:
        h = np.tanh(h @ w[0].T + b[0])
    w, b = layers[-1]
    z = h @ w[0].T + b[0]
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


class TestStackedParticles:
    """Each slice of a stacked call is bitwise the call on that particle alone."""

    SHAPE = NetShape(5, (7, 6), 4)

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_forward_matches_the_per_particle_reference(self, rng, m):
        particles = rng.normal(size=(m, param_count(self.SHAPE)))
        x = rng.normal(size=(33, 5))
        stacked = forward_logprobs_batch(self.SHAPE, particles, x)
        for j in range(m):
            assert np.array_equal(stacked[j], reference_logprobs(self.SHAPE, particles[j], x))

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_forward_slices_match_single_particle_calls(self, rng, m):
        particles = rng.normal(size=(m, param_count(self.SHAPE)))
        x = rng.normal(size=(33, 5))
        stacked = forward_logprobs_batch(self.SHAPE, particles, x)
        for j in range(m):
            alone = forward_logprobs_batch(self.SHAPE, particles[j : j + 1], x)
            assert np.array_equal(stacked[j : j + 1], alone)

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_backward_slices_match_single_particle_calls(self, rng, m):
        particles = rng.normal(size=(m, param_count(self.SHAPE)))
        x = rng.normal(size=(33, 5))
        cot = rng.normal(size=(33, 4))
        logprobs, grad = backward_batch(self.SHAPE, particles, x, cot)
        assert logprobs.shape == (m, 33, 4) and grad.shape == particles.shape
        for j in range(m):
            lp_alone, grad_alone = backward_batch(self.SHAPE, particles[j : j + 1], x, cot)
            assert np.array_equal(logprobs[j : j + 1], lp_alone)
            assert np.array_equal(grad[j : j + 1], grad_alone)


class TestInPlaceKernel:
    @pytest.mark.parametrize("m", [1, 3, 8])
    @pytest.mark.parametrize("shape", [NetShape(16, (32,), 10), NetShape(5, (7, 6), 4)])
    def test_backward_matches_the_out_of_place_oracle(self, rng, m, shape):
        particles = rng.normal(scale=0.5, size=(m, param_count(shape)))
        for n in (128, 48, 1):
            x = rng.normal(size=(n, shape.input_dim))
            cot = rng.normal(size=(n, shape.num_classes))
            logprobs, grad = backward_batch(shape, particles, x, cot)
            want_logprobs, want_grad = out_of_place_backward(shape, particles, x, cot)
            assert np.array_equal(logprobs, want_logprobs)
            assert np.array_equal(grad, want_grad)

    def test_inputs_are_left_alone(self, rng):
        shape = NetShape(5, (7, 6), 4)
        particles = rng.normal(size=(3, param_count(shape)))
        x, cot = rng.normal(size=(9, 5)), rng.normal(size=(9, 4))
        kept = particles.copy(), x.copy(), cot.copy()
        logprobs, grad = backward_batch(shape, particles, x, cot)
        forward = forward_logprobs_batch(shape, particles, x)
        for before, after in zip(kept, (particles, x, cot)):
            assert np.array_equal(before, after)
        for out in (logprobs, grad, forward):
            assert not any(np.shares_memory(out, a) for a in (particles, x, cot))

    def test_layout_is_computed_once_per_shape(self):
        shape = NetShape(2, (3,), 2)
        assert shape.layout is shape.layout
        assert shape.layout == ((0, 6, 9, 3, 2), (9, 15, 17, 2, 3))
        assert shape == NetShape(2, (3,), 2) and hash(shape) == hash(NetShape(2, (3,), 2))
