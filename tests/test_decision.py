"""Expected-utility decisions over the log-averaged predictive."""

import csv

import numpy as np
import pytest

from conftest import probs_ensemble, random_ensemble
from tailens.decision import BatchDecisions, decide_batch, write_predictions_csv
from tailens.ensemble import predictive_logprobs_batch
from tailens.errors import InputError
from tailens.metrics import predictive_entropy
from tailens.numcore import NetShape
from tailens.utility import UtilityMatrix, one_hot, tail_sensitive


def csv_writer_predictions(batch, path):
    """The predictions writer as it stood on csv.writer, frozen as a byte oracle."""
    entropy = predictive_entropy(batch.mixture)
    maxprob = batch.mixture.max(axis=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "decision", "argmax_pred", "entropy", "maxprob"])
        writer.writerows(
            zip(
                range(len(batch)),
                batch.decisions.tolist(),
                batch.argmax_preds.tolist(),
                map(repr, entropy.tolist()),
                map(repr, maxprob.tolist()),
            )
        )


class TestOneHot:
    def test_highest_probability_wins(self):
        ens = probs_ensemble([[0.7, 0.2, 0.1]])
        out = decide_batch(ens, one_hot(3), np.zeros((1, 1)))
        assert out.decisions[0] == 0
        assert out.argmax_preds[0] == 0

    def test_matches_mean_logprob_argmax(self, rng):
        ens = random_ensemble(NetShape(4, (6,), 5), 3, seed=12)
        x = rng.normal(size=(200, 4))
        batch = decide_batch(ens, one_hot(5), x)
        per_particle, _ = predictive_logprobs_batch(ens, x)
        mean_logp = np.einsum("m,mnk->nk", ens.mixture_weights, per_particle)
        assert np.array_equal(batch.decisions, mean_logp.argmax(axis=1))
        assert np.array_equal(batch.particle_preds, per_particle.argmax(axis=2))

    def test_uniform_tie_breaks_to_lowest_class(self):
        ens = probs_ensemble([[0.5, 0.5]])
        out = decide_batch(ens, one_hot(2), np.zeros((1, 1)))
        assert out.decisions[0] == 0
        assert out.argmax_preds[0] == 0


class TestTailSensitive:
    def test_zero_penalty_reduces_to_one_hot(self, rng):
        ens = random_ensemble(NetShape(3, (5,), 6), 3, seed=13)
        x = rng.normal(size=(150, 3))
        neutral = tail_sensitive(6, 0.5, penalty=0.0)
        assert np.array_equal(
            decide_batch(ens, neutral, x).decisions,
            decide_batch(ens, one_hot(6), x).decisions,
        )

    def test_two_class_gains(self):
        # predictive (0.55, 0.45); penalizing head decisions on tail truth
        # makes the tail class the better bet
        ens = probs_ensemble([[0.55, 0.45]])
        utility = tail_sensitive(2, 0.5, penalty=1.0)
        out = decide_batch(ens, utility, np.zeros((1, 1)))
        assert out.expected_gains[0] == pytest.approx([0.10, 0.45], rel=1e-10)
        assert out.decisions[0] == 1
        assert out.argmax_preds[0] == 0

    @pytest.mark.parametrize(
        "penalty,expected",
        [(0.0, 0), (0.1, 0), (0.3, 1), (1.0, 1)],
    )
    def test_flip_threshold(self, penalty, expected):
        # decision flips once penalty exceeds p0/p1 - 1 = 2/9
        ens = probs_ensemble([[0.55, 0.45]])
        utility = tail_sensitive(2, 0.5, penalty=penalty)
        assert decide_batch(ens, utility, np.zeros((1, 1))).decisions[0] == expected


class TestGainStructure:
    def test_constant_shift_is_inert(self, rng):
        ens = random_ensemble(NetShape(3, (4,), 4), 2, seed=14)
        x = rng.normal(size=(80, 3))
        base = decide_batch(ens, one_hot(4), x)
        shifted = decide_batch(ens, UtilityMatrix(4, one_hot(4).values + 2.5), x)
        assert np.array_equal(base.decisions, shifted.decisions)
        assert np.allclose(
            shifted.expected_gains, base.expected_gains + 2.5, rtol=0, atol=1e-12
        )

    def test_decision_follows_log_average_not_mixture(self):
        # the particles disagree on classes 0 and 1 but both give class 2
        # steady mass, so the log-average favors 2 while the mixture keeps 0
        ens = probs_ensemble([[0.70, 0.02, 0.28], [0.02, 0.68, 0.30]])
        batch = decide_batch(ens, one_hot(3), np.zeros((1, 1)))
        assert batch.decisions[0] == 2
        assert batch.argmax_preds[0] == 0


class TestInterface:
    def test_single_matches_batch_row(self, rng):
        ens = random_ensemble(NetShape(3, (4,), 4), 2, seed=15)
        x = rng.normal(size=(6, 3))
        batch = decide_batch(ens, one_hot(4), x)
        out = decide_batch(ens, one_hot(4), x[2][None])
        assert out.decisions[0] == batch.decisions[2]
        assert out.argmax_preds[0] == batch.argmax_preds[2]
        assert np.array_equal(out.expected_gains[0], batch.expected_gains[2])
        assert np.array_equal(out.mixture[0], batch.mixture[2])
        assert np.array_equal(out.particle_preds[:, 0], batch.particle_preds[:, 2])

    def test_single_sample_needs_a_row(self, rng):
        # one sample is a batch of one: (1, D), not a bare (D,) vector
        ens = random_ensemble(NetShape(3, (4,), 4), 2, seed=15)
        with pytest.raises(InputError):
            decide_batch(ens, one_hot(4), rng.normal(size=3))

    def test_class_count_mismatch(self, rng):
        ens = random_ensemble(NetShape(3, (4,), 4), 2, seed=15)
        with pytest.raises(InputError):
            decide_batch(ens, one_hot(5), rng.normal(size=(2, 3)))

    def test_len(self, rng):
        ens = random_ensemble(NetShape(3, (4,), 4), 2, seed=15)
        assert len(decide_batch(ens, one_hot(4), rng.normal(size=(7, 3)))) == 7


class TestPredictionsCsv:
    def test_round_trip(self, rng, tmp_path):
        ens = random_ensemble(NetShape(3, (4,), 4), 2, seed=16)
        x = rng.normal(size=(9, 3))
        batch = decide_batch(ens, one_hot(4), x)
        path = tmp_path / "preds.csv"
        write_predictions_csv(batch, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "decision", "argmax_pred", "entropy", "maxprob"]
        assert len(rows) == 10
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            assert int(row[1]) == batch.decisions[i]
            assert int(row[2]) == batch.argmax_preds[i]
            assert float(row[3]) == predictive_entropy(batch.mixture[i])
            assert float(row[4]) == batch.mixture[i].max()

    def test_entropy_is_cached_bitwise(self, rng):
        ens = random_ensemble(NetShape(3, (4,), 4), 2, seed=16)
        batch = decide_batch(ens, one_hot(4), rng.normal(size=(9, 3)))
        first = batch.entropy
        assert first.tobytes() == predictive_entropy(batch.mixture).tobytes()
        assert batch.entropy is first

    def test_bytes_match_the_csv_writer_oracle(self, rng, tmp_path):
        # a one-hot row (entropy -0.0), a subnormal probability and exponent
        # reprs, then the rows of a real ensemble
        corners = np.array(
            [[1.0, 0.0, 0.0], [1e-320, 1.0, 0.0], [1e-10, 1.0 - 1e-10, 0.0], [0.25, 0.25, 0.5]]
        )
        ens = random_ensemble(NetShape(3, (4,), 3), 2, seed=17)
        real = decide_batch(ens, one_hot(3), rng.normal(size=(50, 3)))
        mixture = np.vstack([corners, real.mixture])
        batch = BatchDecisions(
            decisions=mixture.argmin(axis=1),
            argmax_preds=mixture.argmax(axis=1),
            expected_gains=mixture,
            mixture=mixture,
            particle_preds=np.zeros((2, len(mixture)), dtype=np.int64),
        )
        write_predictions_csv(batch, tmp_path / "new.csv")
        csv_writer_predictions(batch, tmp_path / "oracle.csv")
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "oracle.csv").read_bytes()
        assert b"\r\n0,1,0,-0.0,1.0\r\n" in written and b"e-318," in written
        assert len(written.splitlines()) == 55
