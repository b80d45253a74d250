"""What each command imports, seen from a fresh interpreter: numpy.random (with
the hashlib and secrets it pulls in) loads only in the commands that draw."""

from conftest import flags, probe


def test_numpy_random_loads_only_where_a_command_draws(tmp_path, import_probe):
    assert import_probe[:2] == (0, False)
    assert probe(tmp_path, "generate-data", *flags("data"))[:2] == (0, True)
    train = ["train", *flags("run", train_csv="data/train.csv")]
    assert probe(tmp_path, *train)[:2] == (0, True)
    assert (tmp_path / "run" / "ensemble.ckpt").exists()
    evaluate = ["evaluate", "--checkpoint", "run/ensemble.ckpt", "--test-csv", "data/test.csv"]
    assert probe(tmp_path, *evaluate, "--out", "eval")[:2] == (0, False)
    assert (tmp_path / "eval" / "predictions.csv").exists()
