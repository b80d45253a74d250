"""Training loop: determinism, reductions, particle independence, schedules."""

import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest

from tailens import trainer
from tailens.dataset import CsvRows, LongTailDataset, generate_synthetic, load_csv, save_csv
from tailens.decision import BatchDecisions
from tailens.errors import InputError, NumericError
from tailens.numcore import NetShape, backward_batch, init_params
from tailens.rebalance import DiscrepancySpec
from tailens.trainer import (
    TrainConfig,
    anneal_weight,
    default_particle_seeds,
    evaluate,
    repeat_runs,
    train,
    write_train_log,
)
from tailens.utility import UtilityMatrix, one_hot


def small_task(seed=5):
    return generate_synthetic(
        num_classes=3, dim=4, n_max=60, imbalance=4.0, separation=2.0, seed=seed,
        test_per_class=30,
    )


def quick_config(**overrides):
    base = dict(
        epochs=3,
        batch_size=32,
        learning_rate=0.05,
        hidden=(8,),
        particles=2,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def use_particle_seeds(monkeypatch, *seeds):
    """Train each particle m from seeds[m] in place of the seeds --seed derives."""
    monkeypatch.setattr(trainer, "default_particle_seeds", lambda seed, m: seeds[:m])


class TestAnnealWeight:
    def test_starts_at_one(self):
        assert anneal_weight(0, 40.0) == 1.0

    def test_stride_gives_inverse_e(self):
        assert anneal_weight(40, 40.0) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_strictly_decreasing(self):
        values = [anneal_weight(e, 40.0) for e in range(100)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": -0.01},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"weight_decay": -1e-3},
            {"anneal_stride": 0.0},
            {"utility_scale": 0.0},
            {"particles": 0},
            {"var_floor": 0.0},
            {"seed": -1},
            {"checkpoint_every": -1},
            {"lr_decay_epochs": (0,)},
            {"lr_decay_factor": 0.0},
            {"lr_decay_factor": 1.5},
            {"hidden": (8, 0)},
            {"hidden": ()},
            {"learning_rate": float("nan")},
            {"var_floor": float("nan")},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(InputError):
            TrainConfig(**overrides)

    def test_zero_learning_rate_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    def test_default_seeds_deterministic(self):
        a = default_particle_seeds(0, 3)
        assert a == default_particle_seeds(0, 3)
        assert len(set(a)) == 3
        assert a != default_particle_seeds(1, 3)


class TestDeterminism:
    def test_bit_identical_rerun(self):
        train_data, _ = small_task()
        config = quick_config()
        ens_a, recs_a, _ = train(config, train_data, one_hot(3))
        ens_b, recs_b, _ = train(config, train_data, one_hot(3))
        assert np.array_equal(ens_a.particles, ens_b.particles)
        assert [r.loss.total for r in recs_a] == [r.loss.total for r in recs_b]

    def test_zero_learning_rate_is_identity(self, monkeypatch):
        train_data, _ = small_task()
        use_particle_seeds(monkeypatch, 7, 8)
        config = quick_config(learning_rate=0.0)
        ens, _, _ = train(config, train_data, one_hot(3))
        shape = NetShape(4, (8,), 3)
        expected = np.stack(
            [
                init_params(shape, np.random.default_rng(np.random.SeedSequence((s, 11))))
                for s in (7, 8)
            ]
        )
        assert np.array_equal(ens.particles, expected)


class TestReductionToCrossEntropySgd:
    def test_matches_manual_sgd_loop(self, monkeypatch):
        # zero utility, plain weighting, one particle, no regularizers: the
        # trainer must walk the exact same path as plain mini-batch SGD with
        # momentum on the cross-entropy
        train_data, _ = small_task()
        use_particle_seeds(monkeypatch, 4242)
        config = quick_config(
            particles=1,
            ratio=DiscrepancySpec(form="plain"),
            repulsion=False,
            weight_decay=0.0,
            momentum=0.9,
            learning_rate=0.05,
            epochs=3,
        )
        zero_u = UtilityMatrix(3, np.zeros((3, 3)))
        ens, _, _ = train(config, train_data, zero_u)

        shape = NetShape(4, (8,), 3)
        theta = init_params(
            shape, np.random.default_rng(np.random.SeedSequence((4242, 11)))
        )[None, :]  # the (1, P) particle matrix
        velocity = np.zeros_like(theta)
        x, y = train_data.features, train_data.labels
        n = len(train_data)
        for epoch in range(3):
            perm = np.random.default_rng(
                np.random.SeedSequence((0, 7, epoch))
            ).permutation(n)
            for start in range(0, n, 32):
                idx = perm[start : start + 32]
                cotangent = -np.eye(3)[y[idx]] / len(idx)
                _, grad = backward_batch(shape, theta, x[idx], cotangent)
                velocity = 0.9 * velocity + grad
                theta = theta - 0.05 * velocity

        assert np.array_equal(ens.particles, theta)


class TestParticleIndependence:
    def solo(self, monkeypatch, train_data, particle_seed, **overrides):
        use_particle_seeds(monkeypatch, particle_seed)
        config = quick_config(
            particles=1,
            repulsion=False,
            weight_decay=0.0,
            **overrides,
        )
        ens, _, _ = train(config, train_data, one_hot(3))
        return ens.particles[0]

    def test_uncoupled_pair_matches_solo_runs_exactly(self, monkeypatch):
        # without the spread bonus nothing ties particles together, and for
        # two particles the ensemble averaging rescales by exact powers of
        # two, so the trajectories agree bit for bit
        train_data, _ = small_task()
        use_particle_seeds(monkeypatch, 101, 202)
        config = quick_config(
            particles=2,
            repulsion=False,
            weight_decay=0.0,
        )
        ens, _, _ = train(config, train_data, one_hot(3))
        assert np.array_equal(ens.particles[0], self.solo(monkeypatch, train_data, 101))
        assert np.array_equal(ens.particles[1], self.solo(monkeypatch, train_data, 202))

    def test_uncoupled_triple_matches_solo_runs(self, monkeypatch):
        train_data, _ = small_task()
        use_particle_seeds(monkeypatch, 101, 202, 303)
        config = quick_config(
            particles=3,
            repulsion=False,
            weight_decay=0.0,
        )
        ens, _, _ = train(config, train_data, one_hot(3))
        for row, seed in enumerate((101, 202, 303)):
            assert np.allclose(
                ens.particles[row], self.solo(monkeypatch, train_data, seed),
                rtol=1e-9, atol=1e-12,
            )

    def test_repulsion_couples_particles(self, monkeypatch):
        train_data, _ = small_task()
        use_particle_seeds(monkeypatch, 101, 202)
        config = quick_config(
            particles=2,
            repulsion=True,
            weight_decay=0.0,
        )
        ens, _, _ = train(config, train_data, one_hot(3))
        solo = self.solo(monkeypatch, train_data, 101)
        assert not np.allclose(ens.particles[0], solo, rtol=1e-5)


class TestSchedules:
    def test_lr_decay_freezes_training(self):
        # a factor small enough to underflow the step leaves the parameters
        # exactly where the last full-rate epoch put them, which pins the
        # decay to the start of the named epoch
        train_data, _ = small_task()
        one_epoch, _, _ = train(quick_config(epochs=1), train_data, one_hot(3))
        frozen, _, _ = train(
            quick_config(epochs=4, lr_decay_epochs=(1,), lr_decay_factor=1e-300),
            train_data,
            one_hot(3),
        )
        assert np.array_equal(one_epoch.particles, frozen.particles)

    def test_unit_decay_factor_is_inert(self):
        train_data, _ = small_task()
        base, _, _ = train(quick_config(), train_data, one_hot(3))
        decayed, _, _ = train(
            quick_config(lr_decay_epochs=(1, 2), lr_decay_factor=1.0),
            train_data,
            one_hot(3),
        )
        assert np.array_equal(base.particles, decayed.particles)

    def test_records_follow_anneal_schedule(self):
        train_data, _ = small_task()
        _, records, _ = train(
            quick_config(anneal_stride=10.0), train_data, one_hot(3)
        )
        assert [r.anneal for r in records] == [
            anneal_weight(e, 10.0) for e in range(3)
        ]
        _, off_records, _ = train(
            quick_config(repulsion=False), train_data, one_hot(3)
        )
        assert all(r.anneal == 0.0 for r in off_records)


class TestArtifacts:
    def test_checkpoints_written_on_stride(self):
        train_data, _ = small_task()
        config = quick_config(epochs=4, checkpoint_every=2)
        ens, _, checkpoints = train(config, train_data, one_hot(3))
        assert [epoch for epoch, _ in checkpoints] == [1, 3]
        (_, first), (_, last) = checkpoints
        assert np.array_equal(last.particles, ens.particles)
        # a snapshot is a copy: the steps after it leave it where it was
        assert not np.shares_memory(first.particles, ens.particles)
        assert not np.array_equal(first.particles, ens.particles)

    def test_training_writes_no_file(self, tmp_path, monkeypatch):
        # the CLI writes the snapshots; train leaves the working directory as it was
        monkeypatch.chdir(tmp_path)
        train_data, _ = small_task()
        assert len(train(quick_config(checkpoint_every=1), train_data, one_hot(3))[2]) == 3
        assert list(tmp_path.iterdir()) == []

    def test_train_log_round_trip(self, tmp_path):
        train_data, _ = small_task()
        _, records, _ = train(quick_config(), train_data, one_hot(3))
        path = tmp_path / "trainlog.jsonl"
        write_train_log(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        keys = {"epoch", "nll", "utility", "reg_l2", "reg_entropy", "total", "anneal",
                "param_distance", "disagreement"}
        for rec, line in zip(records, lines):
            row = json.loads(line)
            assert set(row) == keys
            assert row["epoch"] == rec.epoch
            assert row["nll"] == rec.loss.nll
            assert row["utility"] == rec.loss.utility
            assert row["reg_l2"] == rec.loss.reg_l2
            assert row["reg_entropy"] == rec.loss.reg_entropy
            assert row["total"] == rec.loss.total
            assert row["anneal"] == rec.anneal
            assert row["param_distance"] == rec.param_distance
            assert row["disagreement"] == rec.disagreement


class TestTrainValidation:
    """train checks nothing itself: the types it builds reject bad inputs before
    the first epoch."""

    def rejects_before_training(self, data, utility, message):
        with pytest.raises(InputError, match=message):
            train(quick_config(), data, utility)

    def test_utility_class_mismatch(self):
        train_data, _ = small_task()
        self.rejects_before_training(
            train_data, one_hot(4), "utility matrix has 4 classes, model has 3"
        )

    def test_rejects_empty_classes(self, rng):
        features = rng.normal(size=(3, 2))
        labels = np.array([0, 0, 1])
        data = LongTailDataset(features, labels, 3)
        self.rejects_before_training(
            data, one_hot(3), r"classes without training samples: \[2\]"
        )

    def test_rejects_one_class(self, rng):
        data = LongTailDataset(rng.normal(size=(3, 2)), np.zeros(3, dtype=np.int64), 1)
        self.rejects_before_training(data, one_hot(1), "need at least 2 classes")

    def test_numeric_error_names_the_dataset_row(self):
        train_data, _ = small_task()
        features = train_data.features.copy()
        features[5] = np.nan
        data = LongTailDataset(features, train_data.labels, train_data.num_classes)
        with pytest.raises(NumericError) as info:
            train(quick_config(batch_size=16), data, one_hot(3))
        # the shuffled batch holds row 5 at another position
        assert info.value.__cause__.sample != 5
        assert str(info.value).endswith("non-finite log-probabilities at dataset row 5")
        assert str(info.value).startswith("epoch 0, batch ")

    def test_non_finite_parameters_after_the_last_step_raise(self):
        # one step, so no later batch reads what the overflowing update left
        train_data, _ = small_task()
        config = quick_config(
            epochs=1, batch_size=len(train_data), particles=1, learning_rate=1.79e308,
            weight_decay=1.0,
        )
        with pytest.raises(NumericError, match="^epoch 0: the steps left non-finite"):
            train(config, train_data, one_hot(3))

    def test_non_finite_parameters_are_named_not_the_next_row(self):
        # the first step overflows the particles; the second batch's forward then
        # fails on parameters, not on any row of that batch
        train_data, _ = small_task()
        config = quick_config(
            epochs=1, batch_size=len(train_data) // 2, particles=1,
            learning_rate=1.79e308, weight_decay=1.0,
        )
        with pytest.raises(NumericError) as info:
            train(config, train_data, one_hot(3))
        assert str(info.value) == "epoch 0, batch 1: the steps left non-finite parameters"

    def test_a_batch_without_one_finite_row_names_the_parameters(self):
        # the first step leaves finite parameters near 1e308; the second batch's
        # log-probs are then non-finite at all 16 rows, so no row is to blame
        train_data, _ = small_task()
        config = quick_config(
            epochs=1, batch_size=16, hidden=(32,), particles=1, learning_rate=1e308,
            weight_decay=1.0,
        )
        with pytest.raises(NumericError) as info:
            train(config, train_data, one_hot(3))
        assert info.value.__cause__.sample is None  # told by the step, with no second forward
        assert str(info.value) == (
            "epoch 0, batch 1: non-finite log-probabilities at every row of the batch;"
            " largest |parameter| 1.04e+308"
        )


class TestEvaluate:
    def test_report_fields(self):
        train_data, test_data = small_task()
        ens, _, _ = train(quick_config(), train_data, one_hot(3))
        report, batch = evaluate(ens, test_data, one_hot(3), tail_ratios=(0.5,), ece_bins=10)
        assert len(batch) == len(test_data)
        assert report.acc_overall == np.mean(batch.decisions == test_data.labels)
        assert set(report.fhr) == {0.5}
        assert report.fhr_avg == report.fhr[0.5]
        assert report.n_test == len(test_data)
        assert report.param_distance > 0.0
        assert 0.0 <= report.ece <= 1.0

    def test_csv_rows_match_the_loaded_dataset(self, tmp_path):
        # 2,100 test rows: two row blocks
        train_data, test_data = generate_synthetic(3, 4, 60, 4.0, 2.0, seed=5, test_per_class=700)
        ens, _, _ = train(quick_config(), train_data, one_hot(3))
        save_csv(test_data, tmp_path / "test.csv")
        streamed, streamed_batch = evaluate(ens, CsvRows(tmp_path / "test.csv", 3), one_hot(3))
        loaded, loaded_batch = evaluate(ens, load_csv(tmp_path / "test.csv", 3), one_hot(3))
        assert streamed == loaded
        for field in dataclasses.fields(BatchDecisions):
            want = getattr(loaded_batch, field.name)
            assert np.array_equal(getattr(streamed_batch, field.name), want), field.name

    def test_test_classes_must_be_the_models(self, tmp_path):
        train_data, test_data = small_task()
        ens, _, _ = train(quick_config(), train_data, one_hot(3))
        save_csv(test_data, tmp_path / "test.csv")
        wider = LongTailDataset(test_data.features, test_data.labels, 4)
        for test in (wider, CsvRows(tmp_path / "test.csv", 4), CsvRows(tmp_path / "test.csv")):
            with pytest.raises(InputError, match="classes"):
                evaluate(ens, test, one_hot(3))

    def test_needs_a_tail_ratio(self):
        train_data, test_data = small_task()
        ens, _, _ = train(quick_config(), train_data, one_hot(3))
        with pytest.raises(InputError):
            evaluate(ens, test_data, one_hot(3), tail_ratios=())


class TestRepeatRuns:
    def test_aggregates_over_seeds(self):
        config = quick_config(epochs=2)
        reports = repeat_runs(config, [small_task(0), small_task(1)], one_hot(3))
        assert len(reports) == 2
        assert reports[0] != reports[1]
        # run r is a plain train + evaluate at seed config.seed + r
        for seed, report in enumerate(reports):
            train_data, test_data = small_task(seed)
            ens, _, _ = train(replace(config, seed=seed), train_data, one_hot(3))
            assert report == evaluate(ens, test_data, one_hot(3))[0]

    def test_requires_a_run(self):
        with pytest.raises(InputError):
            repeat_runs(quick_config(), [], one_hot(3))

    def test_leaves_a_shared_pair_unchanged(self):
        # CSV sweeps hand every run the same pair, so no run may write to it
        pair = small_task()
        before = [(d.features.copy(), d.labels.copy(), d.class_counts.copy()) for d in pair]
        for data in pair:
            for array in (data.features, data.labels):
                array.flags.writeable = False
        repeat_runs(quick_config(epochs=2), [pair, pair], one_hot(3))
        for data, arrays in zip(pair, before):
            after = (data.features, data.labels, data.class_counts)
            assert all(np.array_equal(a, b) for a, b in zip(after, arrays))
