"""Batch loss breakdown: reductions, a frozen oracle, and gradient checks."""

import numpy as np
import pytest

from conftest import one_batch_loss, random_ensemble, random_utility
from oracles import central_differences, mean_cross_entropy, per_batch_formula
from tailens.ensemble import ParticleEnsemble
from tailens.errors import InputError, NumericError
from tailens.numcore import NetShape, init_params, param_count
from tailens.objective import TrainingStep, batch_loss
from tailens.rebalance import DiscrepancySpec, class_weights
from tailens.utility import UtilityMatrix, one_hot, tail_sensitive

ORACLE_X = np.array(
    [
        [0.5, -1.0, 0.25],
        [1.5, 0.75, -0.5],
        [-2.0, 0.3, 1.1],
        [0.0, 2.0, -1.5],
    ]
)
ORACLE_Y = np.array([0, 1, 2, 3])
ORACLE_COUNTS = np.array([40, 20, 8, 4])

# Recomputed with 60-digit arithmetic (mpmath) for the exact setup built by
# oracle_setup below, then frozen.
ORACLE_NLL = 3.5731457508166264
ORACLE_UTILITY = -0.6432846059130848
ORACLE_L2 = 3.5804305694779774
ORACLE_ENTROPY = -69.27206278874847
ORACLE_TOTAL = 37.60169684497256


def oracle_setup():
    shape = NetShape(3, (4,), 4)
    particles = np.stack(
        [
            init_params(shape, np.random.default_rng(np.random.SeedSequence(j)))
            for j in range(2)
        ]
    )
    ens = ParticleEnsemble(shape=shape, particles=particles)
    weights = class_weights(DiscrepancySpec(form="linear"), ORACLE_COUNTS)
    utility = tail_sensitive(4, 0.5, 1.0)
    return ens, weights, utility


def plain_weights(k):
    return class_weights(DiscrepancySpec(form="plain"), np.full(k, 10))


class TestReductions:
    def test_zero_utility_matrix_gives_cross_entropy(self, rng):
        ens = random_ensemble(NetShape(3, (5,), 4), 2, seed=3)
        x = rng.normal(size=(8, 3))
        y = rng.integers(0, 4, size=8)
        zero_u = UtilityMatrix(4, np.zeros((4, 4)))
        loss, _ = one_batch_loss(
            ens, x, y, plain_weights(4), zero_u,
            utility_scale=1.0, weight_decay=0.0, anneal=0.0,
        )
        assert loss.utility == 0.0
        assert loss.total == pytest.approx(mean_cross_entropy(ens, x, y), rel=1e-12)

    def test_one_hot_unit_scale_doubles_cross_entropy(self, rng):
        # the one-hot utility row re-selects the true class, so the data term
        # counts the true log-likelihood twice
        ens = random_ensemble(NetShape(3, (5,), 4), 2, seed=4)
        x = rng.normal(size=(8, 3))
        y = rng.integers(0, 4, size=8)
        w = plain_weights(4)
        zero_u = UtilityMatrix(4, np.zeros((4, 4)))
        base, base_grads = one_batch_loss(
            ens, x, y, w, zero_u, utility_scale=1.0, weight_decay=0.0, anneal=0.0
        )
        loss, grads = one_batch_loss(
            ens, x, y, w, one_hot(4), utility_scale=1.0, weight_decay=0.0, anneal=0.0
        )
        assert loss.total == pytest.approx(2 * base.total, rel=1e-12)
        assert np.allclose(grads, 2 * base_grads, rtol=1e-12, atol=1e-15)


class TestOracle:
    def test_matches_extended_precision_values(self):
        ens, weights, utility = oracle_setup()
        loss, _ = one_batch_loss(
            ens, ORACLE_X, ORACLE_Y, weights, utility,
            utility_scale=2.0, weight_decay=0.01, anneal=0.5,
        )
        assert loss.nll == pytest.approx(ORACLE_NLL, rel=0, abs=1e-12)
        assert loss.utility == pytest.approx(ORACLE_UTILITY, rel=0, abs=1e-12)
        assert loss.reg_l2 == pytest.approx(ORACLE_L2, rel=0, abs=1e-12)
        assert loss.reg_entropy == pytest.approx(ORACLE_ENTROPY, rel=0, abs=1e-10)
        assert loss.total == pytest.approx(ORACLE_TOTAL, rel=0, abs=1e-10)

    def test_total_combines_the_terms(self):
        ens, weights, utility = oracle_setup()
        loss, _ = one_batch_loss(
            ens, ORACLE_X, ORACLE_Y, weights, utility,
            utility_scale=2.0, weight_decay=0.01, anneal=0.5,
        )
        expected = (
            loss.nll
            + loss.utility
            + 0.01 * loss.reg_l2
            - 0.5 * loss.reg_entropy
        )
        assert loss.total == pytest.approx(expected, rel=1e-14)


class TestGradients:
    def test_matches_finite_differences(self, rng):
        shape = NetShape(2, (3,), 3)
        particles = rng.normal(scale=0.5, size=(2, param_count(shape)))
        x = rng.normal(size=(5, 2))
        y = rng.integers(0, 3, size=5)
        weights = class_weights(DiscrepancySpec(form="sqrt"), np.array([30, 9, 3]))
        utility = random_utility(3, rng)
        kwargs = dict(utility_scale=1.7, weight_decay=0.05, anneal=0.4)

        def total_at(theta):
            ens = ParticleEnsemble(shape, theta)
            return one_batch_loss(ens, x, y, weights, utility, **kwargs)[0].total

        _, grads = one_batch_loss(
            ParticleEnsemble(shape, particles.copy()), x, y, weights, utility, **kwargs
        )
        every_third = np.s_[:, ::3]
        fd = central_differences(total_at, particles, every_third)
        assert grads[every_third] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestInvariances:
    def test_joint_utility_and_scale_rescale(self, rng):
        # utility enters only through values / utility_scale
        ens = random_ensemble(NetShape(3, (4,), 3), 2, seed=6)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 3, size=6)
        weights = class_weights(DiscrepancySpec(form="linear"), np.array([50, 10, 5]))
        utility = random_utility(3, rng)
        base, base_grads = one_batch_loss(
            ens, x, y, weights, utility,
            utility_scale=1.0, weight_decay=0.02, anneal=0.3,
        )
        for c in (0.25, 3.0, 40.0):
            scaled = UtilityMatrix(3, c * utility.values)
            loss, grads = one_batch_loss(
                ens, x, y, weights, scaled,
                utility_scale=c, weight_decay=0.02, anneal=0.3,
            )
            assert loss.total == pytest.approx(base.total, rel=1e-12)
            assert np.allclose(grads, base_grads, rtol=1e-10, atol=1e-13)

    def test_particle_order_irrelevant(self, rng):
        shape = NetShape(3, (4,), 3)
        particles = rng.normal(scale=0.4, size=(3, param_count(shape)))
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 3, size=6)
        weights = plain_weights(3)
        utility = one_hot(3)
        kwargs = dict(utility_scale=1.0, weight_decay=0.1, anneal=0.2)
        loss, grads = one_batch_loss(
            ParticleEnsemble(shape, particles.copy()), x, y, weights, utility, **kwargs
        )
        perm = [2, 0, 1]
        loss_p, grads_p = one_batch_loss(
            ParticleEnsemble(shape, particles[perm].copy()), x, y, weights, utility,
            **kwargs,
        )
        assert loss_p.total == pytest.approx(loss.total, rel=1e-12)
        assert np.allclose(grads_p, grads[perm], rtol=1e-12, atol=1e-15)

    def test_batch_mean_decomposition(self, rng):
        # with the regularizers off, the batch loss is the mean of the
        # single-sample losses
        ens = random_ensemble(NetShape(2, (4,), 3), 2, seed=8)
        x = rng.normal(size=(5, 2))
        y = rng.integers(0, 3, size=5)
        weights = class_weights(DiscrepancySpec(form="linear"), np.array([20, 10, 2]))
        utility = random_utility(3, rng)
        kwargs = dict(utility_scale=1.3, weight_decay=0.0, anneal=0.0)
        whole, whole_grads = one_batch_loss(ens, x, y, weights, utility, **kwargs)
        singles = [
            one_batch_loss(ens, x[i : i + 1], y[i : i + 1], weights, utility, **kwargs)
            for i in range(5)
        ]
        assert whole.total == pytest.approx(
            np.mean([s[0].total for s in singles]), rel=1e-12
        )
        assert np.allclose(
            whole_grads, np.mean([s[1] for s in singles], axis=0), rtol=1e-12,
            atol=1e-16,
        )


class TestValidation:
    def test_utility_class_mismatch(self, rng):
        ens = random_ensemble(NetShape(2, (3,), 2), 1, seed=9)
        with pytest.raises(InputError):
            one_batch_loss(
                ens, rng.normal(size=(2, 2)), np.array([0, 1]),
                plain_weights(2), one_hot(3),
                utility_scale=1.0, weight_decay=0.0, anneal=0.0,
            )

    def test_non_finite_log_probs_name_the_batch_position(self, rng):
        ens = random_ensemble(NetShape(2, (3,), 2), 2, seed=9)
        x = rng.normal(size=(3, 2))
        x[1, 0] = np.nan
        with pytest.raises(NumericError, match="at sample index 1$") as info:
            one_batch_loss(
                ens, x, np.array([0, 1, 0]),
                plain_weights(2), one_hot(2),
                utility_scale=1.0, weight_decay=0.0, anneal=0.0,
            )
        assert info.value.sample == 1

    def test_non_finite_parameters_raise(self, rng):
        shape = NetShape(2, (3,), 2)
        ens = ParticleEnsemble(shape, rng.normal(size=(1, param_count(shape))))
        ens.particles[0, 0] = np.nan  # as a diverging step would leave it
        with pytest.raises(NumericError):
            one_batch_loss(
                ens, rng.normal(size=(2, 2)), np.array([0, 1]),
                plain_weights(2), one_hot(2),
                utility_scale=1.0, weight_decay=0.0, anneal=0.0,
            )


class TestPreparedStep:
    SHAPE = NetShape(16, (32,), 10)

    def setup(self, m, utility_kind, seed=0):
        rng = np.random.default_rng(seed)
        ens = ParticleEnsemble(
            self.SHAPE, rng.normal(scale=0.3, size=(m, param_count(self.SHAPE)))
        )
        counts = np.round(100 * 0.6 ** np.arange(10)).astype(int) + 1
        weights = class_weights(DiscrepancySpec(form="linear"), counts)
        k = self.SHAPE.num_classes
        utility = one_hot(k) if utility_kind == "one-hot" else tail_sensitive(k, 0.5, 2.0)
        return rng, ens, weights, utility

    @pytest.mark.parametrize("m", [1, 3, 8])
    @pytest.mark.parametrize("utility_kind", ["one-hot", "tail-sensitive"])
    @pytest.mark.parametrize("utility_scale, anneal", [(1.0, 1.0), (0.4, 0.37), (2.5, 0.0)])
    def test_matches_the_per_batch_formula(self, m, utility_kind, utility_scale, anneal):
        rng, ens, weights, utility = self.setup(m, utility_kind)
        kwargs = dict(utility_scale=utility_scale, weight_decay=1e-2, var_floor=1e-8)
        step = TrainingStep(ens, weights, utility, **kwargs)
        # full batches and the remainder, interleaved, on one step; the
        # particles move between calls as the trainer moves them
        for batch in (128, 48, 128, 48):
            x = rng.normal(size=(batch, 16))
            y = rng.integers(0, 10, size=batch)
            loss, grads = batch_loss(step, x, y, anneal)
            want_loss, want_grads = per_batch_formula(ens, x, y, weights, utility,
                                                      anneal=anneal, **kwargs)
            assert loss == want_loss
            assert np.array_equal(grads, want_grads)
            ens.particles -= 0.05 * grads

    def test_a_second_call_leaves_the_first_result_alone(self):
        rng, ens, weights, utility = self.setup(3, "tail-sensitive")
        step = TrainingStep(ens, weights, utility, utility_scale=1.0, weight_decay=1e-2)
        x, y = rng.normal(size=(128, 16)), rng.integers(0, 10, size=128)
        _, first = batch_loss(step, x, y, 0.5)
        kept = first.copy()
        _, second = batch_loss(step, x[:48], y[:48], 0.5)
        _, third = batch_loss(step, x, y, 0.5)
        assert np.array_equal(first, kept)
        assert np.array_equal(third, kept)
        for a, b in ((first, second), (first, third), (first, ens.particles)):
            assert not np.shares_memory(a, b)
        _, again = one_batch_loss(ens, x, y, weights, utility, utility_scale=1.0,
                                  weight_decay=1e-2, anneal=0.5)
        assert np.array_equal(again, kept) and not np.shares_memory(again, first)

    def test_checks_happen_at_construction(self):
        _, ens, weights, utility = self.setup(2, "one-hot")
        kwargs = dict(utility_scale=1.0, weight_decay=0.0, var_floor=1e-8)
        for bad, match in (
            (dict(utility=one_hot(3)), "utility matrix"),
            (dict(weights=plain_weights(3)), "class weights"),
        ):
            args = {"weights": weights, "utility": utility, **kwargs, **bad}
            with pytest.raises(InputError, match=match):
                TrainingStep(ens, args.pop("weights"), args.pop("utility"), **args)
