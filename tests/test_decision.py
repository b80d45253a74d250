"""Expected-utility decisions over the log-averaged predictive."""

import csv
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from conftest import assert_same_decisions, probs_ensemble, random_ensemble
from oracles import csv_writer_predictions, whole_array_decide, whole_array_gains
from tailens.decision import BatchDecisions, decide_batch, write_predictions_csv
from tailens.ensemble import predictive_logprobs_batch
from tailens.errors import InputError, NumericError
from tailens.metrics import predictive_entropy
from tailens.numcore import NetShape, unpack
from tailens.utility import UtilityMatrix, one_hot, tail_sensitive


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
        gains = whole_array_gains(ens, utility, np.zeros((1, 1)))[2]
        assert gains[0] == pytest.approx([0.10, 0.45], rel=1e-10)
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
        plus = UtilityMatrix(4, one_hot(4).values + 2.5)
        base, shifted = decide_batch(ens, one_hot(4), x), decide_batch(ens, plus, x)
        assert np.array_equal(base.decisions, shifted.decisions)
        gains, shifted_gains = (whole_array_gains(ens, u, x)[2] for u in (one_hot(4), plus))
        assert np.allclose(shifted_gains, gains + 2.5, rtol=0, atol=1e-12)

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
        for field in fields(BatchDecisions):
            got, want = getattr(out, field.name), getattr(batch, field.name)
            assert np.array_equal(got[..., 0], want[..., 2]), field.name

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


class TestNonFiniteLogProbs:
    def test_the_first_non_finite_row_is_named_across_blocks(self, rng):
        ens = random_ensemble(NetShape(3, (4,), 4), 2, seed=21)
        x = rng.normal(size=(2100, 3))
        x[[1500, 2000], 1] = np.nan  # the second block starts at row 1024
        with pytest.raises(NumericError, match=r"^non-finite log-probabilities at test row 1500$"):
            decide_batch(ens, one_hot(4), x)

    def test_overflowing_logits_raise_no_warning(self):
        # every hidden unit near tanh(30) = 1, so the logits are 4e308 = inf, and
        # inf - inf makes NaN log-probs; the suite turns any warning into an error
        ens = random_ensemble(NetShape(3, (4,), 4), 1, seed=21)
        (w_in, b_in), (w_out, b_out) = unpack(ens.shape, ens.particles)
        w_in[:], b_in[:], w_out[:], b_out[:] = 1.0, 0.0, 1e308, 0.0
        with pytest.raises(NumericError, match="at test row 0$"):
            decide_batch(ens, one_hot(4), np.full((5, 3), 10.0))


class TestRowBlocks:
    SHAPE = NetShape(16, (32,), 10)

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2047, 2048, 2049, 5000])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("utility", [one_hot(10), tail_sensitive(10, 0.5, penalty=1.0)])
    def test_every_field_matches_the_whole_array_oracle(self, rng, n, m, utility):
        # around one and two blocks, and a remainder short of a full block
        ens = random_ensemble(self.SHAPE, m, seed=18)
        x = rng.normal(size=(n, 16))
        blocked = decide_batch(ens, utility, x)
        assert_same_decisions(blocked, whole_array_decide(ens, utility, x), 10)

    @pytest.mark.parametrize("k, ids", [(256, np.uint8), (257, np.uint16)])
    def test_class_ids_take_the_smallest_dtype_that_holds_k(self, rng, k, ids):
        ens = random_ensemble(NetShape(4, (8,), k), 2, seed=20)
        # a bias per class that makes the top class ids win some rows
        ens.particles[:, -k:] = np.linspace(0.0, 3.0, k)
        x = rng.normal(size=(2100, 4))
        blocked = decide_batch(ens, one_hot(k), x)
        assert blocked.decisions.dtype == ids and blocked.decisions.max() >= 250
        assert_same_decisions(blocked, whole_array_decide(ens, one_hot(k), x), k)

    def test_memory_holds_one_block_beyond_the_outputs(self, rng):
        # the whole (M, N, K) log-probs and their exp would be 12 MB each here
        ens = random_ensemble(self.SHAPE, 3, seed=19)
        x = rng.normal(size=(50_000, 16))
        tracemalloc.start()
        try:
            batch = decide_batch(ens, tail_sensitive(10, 0.5), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(getattr(batch, f.name).nbytes for f in fields(BatchDecisions))
        # three float64 columns and one byte per class id: K <= 256, M = 3
        assert outputs == (24 + 2 + 3) * 50_000
        assert peak < outputs + 4 * 2**20, (peak, outputs)


class TestPredictionsCsv:
    def test_round_trip(self, rng, tmp_path):
        ens = random_ensemble(NetShape(3, (4,), 4), 2, seed=16)
        x = rng.normal(size=(9, 3))
        batch = decide_batch(ens, one_hot(4), x)
        mixture = whole_array_gains(ens, one_hot(4), x)[1]
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
            assert float(row[3]) == predictive_entropy(mixture[i])
            assert float(row[4]) == mixture[i].max()

    def test_bytes_match_the_csv_writer_oracle(self, rng, tmp_path):
        # a one-hot row (entropy -0.0), a subnormal probability and exponent
        # reprs, then the rows of a real ensemble
        corners = np.array(
            [[1.0, 0.0, 0.0], [1e-320, 1.0, 0.0], [1e-10, 1.0 - 1e-10, 0.0], [0.25, 0.25, 0.5]]
        )
        ens = random_ensemble(NetShape(3, (4,), 3), 2, seed=17)
        real = whole_array_gains(ens, one_hot(3), rng.normal(size=(50, 3)))[1]
        mixture = np.vstack([corners, real])
        batch = BatchDecisions(
            decisions=mixture.argmin(axis=1),
            argmax_preds=mixture.argmax(axis=1),
            entropy=predictive_entropy(mixture),
            maxprob=mixture.max(axis=1),
            confidence=mixture.min(axis=1),
            particle_preds=np.zeros((2, len(mixture)), dtype=np.int64),
        )
        write_predictions_csv(batch, tmp_path / "new.csv")
        csv_writer_predictions(batch, mixture, tmp_path / "oracle.csv")
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "oracle.csv").read_bytes()
        assert b"\r\n0,1,0,-0.0,1.0\r\n" in written and b"e-318," in written
        assert len(written.splitlines()) == 55
