"""Mixture predictions, the repulsive regularizer, and checkpoint round-trips."""

import numpy as np
import pytest

from conftest import probs_ensemble, random_ensemble
from oracles import central_differences, separate_passes
from tailens.ensemble import (
    CHECKPOINT_MAGIC,
    ParticleEnsemble,
    diversity_diagnostics,
    load_checkpoint,
    predictive_logprobs_batch,
    regularizer,
    save_checkpoint,
)
from tailens.errors import InputError, ParseError
from tailens.numcore import NetShape, param_count

# Frozen oracle: mixture of the 3-particle seed-(0,1,2) ensemble below on a
# fixed input, re-evaluated with 60-digit arithmetic (mpmath).
ORACLE_X = np.array([0.8, -0.3, 1.7])
ORACLE_MIXTURE = (0.3701321153040434, 0.3153965816433812, 0.31447130305257537)


def oracle_ensemble():
    from tailens.numcore import init_params

    shape = NetShape(3, (4,), 3)
    particles = np.stack(
        [
            init_params(shape, np.random.default_rng(np.random.SeedSequence(j)))
            for j in range(3)
        ]
    )
    return ParticleEnsemble(shape=shape, particles=particles)


class TestEnsembleType:
    def test_default_uniform_weights(self):
        ens = random_ensemble(NetShape(2, (3,), 2), 4, seed=0)
        assert np.array_equal(ens.mixture_weights, np.full(4, 0.25))

    def test_param_length_checked(self):
        with pytest.raises(InputError):
            ParticleEnsemble(NetShape(2, (3,), 2), np.zeros((2, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        shape = NetShape(2, (3,), 2)
        particles = np.zeros((2, param_count(shape)))
        particles[1, 4] = bad
        with pytest.raises(InputError, match="finite"):
            ParticleEnsemble(shape, particles)


class TestMixture:
    def test_single_particle_is_exp_of_logprobs(self, rng):
        ens = random_ensemble(NetShape(3, (5,), 4), 1, seed=2)
        x = rng.normal(size=(1, 3))
        per_particle, mixture = predictive_logprobs_batch(ens, x)
        assert np.array_equal(mixture, np.exp(per_particle[0]))

    def test_two_opposed_particles_average_to_half(self):
        ens = probs_ensemble([[1 - 1e-22, 1e-22], [1e-22, 1 - 1e-22]])
        _, mixture = predictive_logprobs_batch(ens, np.array([[0.0]]))
        assert np.allclose(mixture[0], [0.5, 0.5], atol=1e-15)

    def test_matches_extended_precision_oracle(self):
        _, mixture = predictive_logprobs_batch(oracle_ensemble(), ORACLE_X[None, :])
        assert np.allclose(mixture[0], ORACLE_MIXTURE, rtol=0, atol=1e-12)

    def test_mixture_sums_to_one(self, rng):
        ens = random_ensemble(NetShape(4, (6,), 5), 3, seed=7)
        x = rng.normal(size=(40, 4))
        _, mixture = predictive_logprobs_batch(ens, x)
        assert np.all(np.abs(mixture.sum(axis=1) - 1.0) < 1e-10)

    def test_convex_combination_bounds(self, rng):
        # mixture probability lies between the particle extremes, coordinate-wise
        ens = random_ensemble(NetShape(4, (6,), 5), 4, seed=8)
        x = rng.normal(size=(60, 4))
        per_particle, mixture = predictive_logprobs_batch(ens, x)
        probs = np.exp(per_particle)
        assert np.all(mixture >= probs.min(axis=0) - 1e-12)
        assert np.all(mixture <= probs.max(axis=0) + 1e-12)


class TestL2:
    def test_zero_particles(self):
        shape = NetShape(1, (), 2)
        ens = ParticleEnsemble(shape, np.zeros((3, param_count(shape))))
        assert regularizer(ens).l2_term == 0.0

    def test_hand_case(self):
        # particle norms 25 and 0 average to 12.5
        shape = NetShape(1, (), 2)
        particles = np.array([[3.0, 4.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        assert regularizer(ParticleEnsemble(shape, particles)).l2_term == 12.5


class TestEntropy:
    def test_identical_particles_hit_the_floor(self):
        shape = NetShape(2, (3,), 2)
        p = param_count(shape)
        ens = ParticleEnsemble(shape, np.ones((3, p)))
        assert regularizer(ens, 1e-8).entropy_term == pytest.approx(
            0.5 * p * np.log(1e-8), rel=1e-12
        )

    def test_two_particle_hand_case(self):
        # one coordinate spread 0-vs-2: mean 1, mean square 2, variance 1
        shape = NetShape(1, (), 2)
        particles = np.zeros((2, 4))
        particles[1, 0] = 2.0
        expected = 0.5 * (np.log(1.0 + 1e-8) + 3 * np.log(1e-8))
        assert regularizer(ParticleEnsemble(shape, particles)).entropy_term == pytest.approx(
            expected, rel=1e-12
        )

    def test_single_particle_returns_zero(self):
        shape = NetShape(1, (), 2)
        ens = ParticleEnsemble(shape, np.ones((1, 4)))
        assert regularizer(ens).entropy_term == 0.0
        assert np.array_equal(-regularizer(ens, anneal=1.0).grad, np.zeros((1, 4)))

    def test_strictly_increases_with_variance(self, rng):
        shape = NetShape(1, (), 2)
        particles = rng.normal(size=(4, 4))
        base = regularizer(ParticleEnsemble(shape, particles.copy())).entropy_term
        spread = particles.copy()
        spread[:, 2] = particles[:, 2].mean() + 1.5 * (
            particles[:, 2] - particles[:, 2].mean()
        )
        assert regularizer(ParticleEnsemble(shape, spread)).entropy_term > base

    def test_grad_translation_equivariant(self, rng):
        # shifting one coordinate of every particle leaves the gradient alone
        shape = NetShape(2, (3,), 2)
        particles = rng.normal(size=(3, param_count(shape)))
        g1 = -regularizer(ParticleEnsemble(shape, particles.copy()), anneal=1.0).grad
        shifted = particles.copy()
        shifted[:, 5] += 11.0
        g2 = -regularizer(ParticleEnsemble(shape, shifted), anneal=1.0).grad
        assert np.allclose(g1, g2, rtol=1e-6, atol=1e-9)

    def test_grad_matches_finite_differences(self, rng):
        shape = NetShape(1, (), 2)
        particles = rng.normal(size=(2, 4))
        ens = ParticleEnsemble(shape, particles.copy())
        grad = -regularizer(ens, 1e-8, anneal=1.0).grad
        fd = central_differences(
            lambda theta: regularizer(ParticleEnsemble(shape, theta), 1e-8).entropy_term,
            particles,
        )
        assert grad == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestRegularizer:
    def test_zero_anneal_is_pure_weight_decay(self, rng):
        ens = random_ensemble(NetShape(2, (4,), 3), 3, seed=5)
        value = regularizer(ens)
        assert value.l2_term == pytest.approx(
            np.mean(np.sum(ens.particles**2, axis=1)), rel=1e-12
        )
        grad = regularizer(ens, weight_decay=0.3, anneal=0.0).grad
        assert np.allclose(grad, (2 * 0.3 / 3) * ens.particles, rtol=1e-12)

    def test_repulsion_pushes_particles_apart(self):
        # pure spread bonus: the higher particle gets a more negative gradient,
        # so a descent step moves it further up and the lower one further down
        shape = NetShape(1, (), 2)
        particles = np.zeros((2, 4))
        particles[0, 1] = 0.1
        particles[1, 1] = -0.1
        grad = regularizer(ParticleEnsemble(shape, particles), anneal=1.0).grad
        assert grad[0, 1] < 0 < grad[1, 1]

    def test_combined_grad_matches_finite_differences(self, rng):
        shape = NetShape(1, (), 2)
        particles = rng.normal(size=(2, 4))
        lam, anneal = 0.2, 0.7
        ens = ParticleEnsemble(shape, particles)
        grad = regularizer(ens, weight_decay=lam, anneal=anneal).grad

        def combined(params):
            value = regularizer(ParticleEnsemble(shape, params))
            return lam * value.l2_term - anneal * value.entropy_term

        fd = central_differences(combined, particles)
        assert grad == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestOneSpreadPass:
    """Every regularizer entry point is bitwise the separate passes it replaced."""

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "weight_decay, anneal, var_floor", [(0.0, 0.0, 1e-8), (1e-2, 1.0, 1e-8), (0.3, 0.25, 1e-3)]
    )
    def test_matches_the_separate_passes(self, rng, m, weight_decay, anneal, var_floor):
        shape = NetShape(16, (32,), 10)
        particles = rng.normal(scale=0.3, size=(m, param_count(shape)))
        particles[:, :5] = particles[0, :5]  # coordinates at the variance floor
        ens = ParticleEnsemble(shape, particles)
        l2, entropy, spread_grad, combined = separate_passes(
            particles, weight_decay, anneal, var_floor
        )
        value = regularizer(ens, var_floor, weight_decay=weight_decay, anneal=anneal)
        assert (value.l2_term, value.entropy_term) == (l2, entropy)
        assert np.array_equal(value.grad, combined)
        assert regularizer(ens).l2_term == l2
        assert regularizer(ens, var_floor).entropy_term == entropy
        if spread_grad is None:
            spread_grad = np.zeros_like(particles)
        assert np.array_equal(-regularizer(ens, var_floor, anneal=1.0).grad, spread_grad)
        assert np.array_equal(ens.particles, particles)  # read, never written

    def test_results_do_not_alias_the_particles(self, rng):
        ens = random_ensemble(NetShape(2, (3,), 2), 3, seed=2)
        value = regularizer(ens, weight_decay=0.1, anneal=0.5)
        spread = regularizer(ens, anneal=1.0).grad
        for out in (value.grad, spread, regularizer(ens).grad):
            assert not np.shares_memory(out, ens.particles)


def particle_preds(ens, x):
    return predictive_logprobs_batch(ens, x)[0].argmax(axis=2)


class TestDiversity:
    def test_single_particle_is_zero(self, rng):
        ens = random_ensemble(NetShape(3, (4,), 3), 1, seed=3)
        diag = diversity_diagnostics(ens, particle_preds(ens, rng.normal(size=(10, 3))))
        assert diag.param_distance == 0.0 and diag.disagreement == 0.0

    def test_identical_particles_agree(self, rng):
        shape = NetShape(3, (4,), 3)
        base = random_ensemble(shape, 1, seed=4).particles[0]
        ens = ParticleEnsemble(shape, np.stack([base, base.copy()]))
        diag = diversity_diagnostics(ens, particle_preds(ens, rng.normal(size=(10, 3))))
        assert diag.param_distance == 0.0 and diag.disagreement == 0.0

    def test_opposed_particles_fully_disagree(self):
        ens = probs_ensemble([[0.9, 0.1], [0.1, 0.9]])
        diag = diversity_diagnostics(ens, particle_preds(ens, np.zeros((5, 1))))
        assert diag.disagreement == 1.0
        assert diag.param_distance > 0.0


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        ens = random_ensemble(NetShape(4, (6, 3), 5), 3, seed=9)
        path = tmp_path / "ens.ckpt"
        save_checkpoint(ens, path)
        back = load_checkpoint(path)
        assert back.shape == ens.shape
        assert np.array_equal(back.particles, ens.particles)
        assert np.array_equal(back.mixture_weights, ens.mixture_weights)

    def test_resave_is_byte_identical(self, tmp_path):
        ens = random_ensemble(NetShape(2, (3,), 2), 2, seed=10)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ens, a)
        save_checkpoint(load_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOT-A-CHECKPOINT\n{}\n")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        ens = random_ensemble(NetShape(2, (3,), 2), 2, seed=11)
        path = tmp_path / "cut.ckpt"
        save_checkpoint(ens, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    # true and 1.0 equal the version 1 in Python, but are not the integer 1
    @pytest.mark.parametrize("version", [b"99", b"true", b"1.0"])
    def test_unsupported_version(self, tmp_path, version):
        path = tmp_path / "vers.ckpt"
        header = (
            b'{"hidden": [3], "input_dim": 2, "n_particles": 1,'
            b' "num_classes": 2, "param_count": 17, "version": %s}' % version
        )
        weights = np.array([1.0], dtype="<f8").tobytes()
        path.write_bytes(CHECKPOINT_MAGIC + b"\n" + header + b"\n" + weights + b"\x00" * 8 * 17)
        with pytest.raises(ParseError, match="line 2: unsupported checkpoint version"):
            load_checkpoint(path)

    def test_non_finite_payload_names_the_file(self, tmp_path):
        ens = random_ensemble(NetShape(2, (3,), 2), 1, seed=12)
        path = tmp_path / "nan.ckpt"
        save_checkpoint(ens, path)
        blob = bytearray(path.read_bytes())
        blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="nan.ckpt: checkpoint payload: particles must be finite"):
            load_checkpoint(path)
