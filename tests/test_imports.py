"""What each command imports, seen from a fresh interpreter: numpy.random (with
the hashlib and secrets it pulls in) loads only in the commands that draw."""

from conftest import python

# runs argv through the CLI (none: only the import), then prints the exit code
# and whether numpy.random is loaded
PROBE = """
import sys
from tailens.cli import main
argv = sys.argv[1:]
code = main(argv) if argv else 0
print(code, "numpy.random" in sys.modules)
"""

SMALL = ["--classes", "4", "--dim", "3", "--n-max", "30", "--imbalance", "4.0",
         "--test-per-class", "10", "--hidden", "4", "--epochs", "2", "--batch-size", "16",
         "--particles", "2"]


def probe(cwd, *argv) -> tuple[int, bool]:
    result = python("-c", PROBE, *argv, cwd=cwd)
    assert result.returncode == 0, result.stderr
    code, loaded = result.stdout.split()[-2:]
    return int(code), loaded == "True"


def test_numpy_random_loads_only_where_a_command_draws(tmp_path):
    assert probe(tmp_path) == (0, False)
    assert probe(tmp_path, "generate-data", *SMALL, "--out", "data") == (0, True)
    train = ["train", *SMALL, "--train-csv", "data/train.csv", "--out", "run"]
    assert probe(tmp_path, *train) == (0, True)
    assert (tmp_path / "run" / "ensemble.ckpt").exists()
    evaluate = ["evaluate", "--checkpoint", "run/ensemble.ckpt", "--test-csv", "data/test.csv"]
    assert probe(tmp_path, *evaluate, "--out", "eval") == (0, False)
    assert (tmp_path / "eval" / "predictions.csv").exists()
