"""Seeded byte mutations of every kind of input file, run through the CLI.

Each mutation of a small good file must end the command with exit 0, or with
exit 1 and an `error:` message; a bad file is named in it. A checkpoint whose
particles lie too far apart to measure ends it with exit 2, a `numeric error:`
and no output. No exception may escape `cli.main`.
"""

import contextlib
import io
import json
import random
import warnings

import pytest

from conftest import random_ensemble
from tailens.cli import SCHEMA, main
from tailens.ensemble import save_checkpoint
from tailens.numcore import NetShape


def data_csv(labels):
    """A 2-feature CSV, one row per label, with a blank line and CRLF ends."""
    rows = [f"{0.25 * i - 1.0!r},{1.5 - 0.125 * i!r},{y}" for i, y in enumerate(labels)]
    return ("f0,f1,label\r\n" + "\r\n".join(rows[:3] + [""] + rows[3:]) + "\r\n").encode()


def checkpoint_bytes(tmp_path):
    path = tmp_path / "seed.ckpt"
    save_checkpoint(random_ensemble(NetShape(2, (3,), 3), 2, seed=5), path)
    return path.read_bytes()


TEST_CSV = data_csv([0, 1, 2] * 4)
# the last is a quoted field over the csv module's 128 KiB field limit
INSERTS = (
    b",", b'"', b"\r\n", b"\n", b"nan", b"1e999", b"-", b"\xef\xbb\xbf", b"\0", b"\xff",
    b'"' + b"a" * 200_000 + b'"',
)


def mutate(blob: bytes, rng: random.Random) -> bytes:
    """One to four edits: a flipped bit, a dropped byte, a cut, or an insert."""
    data = bytearray(blob)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(data) + 1)
        edit = rng.randrange(4)
        if edit == 0 and at < len(data):
            data[at] ^= 1 << rng.randrange(8)
        elif edit == 1 and at < len(data):
            del data[at]
        elif edit == 2:
            del data[at:]
        else:
            data[at:at] = rng.choice(INSERTS)
    return bytes(data)


EVALUATE = ["evaluate", "--checkpoint", "model.ckpt", "--test-csv", "test.csv"]

# kind -> (file name, the flag that names it, the rest of the command)
KINDS = {
    "train-csv": (
        "train.csv", ["--train-csv"],
        ["train", "--epochs", "1", "--hidden", "3", "--particles", "2", "--batch-size", "8"],
    ),
    "test-csv": ("test.csv", ["--test-csv"], EVALUATE[:3]),
    "utility": ("u.csv", ["--utility"], EVALUATE),
    "config": ("cfg.json", ["--config"], EVALUATE),
    "checkpoint": ("model.ckpt", ["--checkpoint"], [EVALUATE[0], *EVALUATE[3:]]),
}

MUTATIONS = 120


@pytest.fixture
def seeds(tmp_path):
    """The good file of each kind; the other files of a command stay good."""
    blobs = {
        "train-csv": data_csv([0, 1, 2, 3] * 3),
        "test-csv": TEST_CSV,
        "utility": b"1,0,0\r\n0,1,0.5\r\n0,-0.5,1\r\n",
        "config": json.dumps(
            {"rho": 0.5, "ece_bins": 10, "tail_ratios": "0.25,0.5", "utility_tail_ratio": 0.4}
        ).encode(),
        "checkpoint": checkpoint_bytes(tmp_path),
    }
    (tmp_path / "test.csv").write_bytes(TEST_CSV)
    (tmp_path / "model.ckpt").write_bytes(blobs["checkpoint"])
    return blobs


def run(argv):
    """(exit status, stderr, warning texts) of one in-process command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = main(argv)
    return status, err.getvalue(), [str(w.message) for w in caught]


# a flipped exponent bit can make a checkpoint weight near 1e155, and the
# parameter distance then overflows on its squares
FAR_APART = "numeric error: param_distance overflows float64"


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_mutated_inputs_exit_0_or_1_naming_the_file(tmp_path, monkeypatch, seeds, kind):
    monkeypatch.chdir(tmp_path)
    name, flag, command = KINDS[kind]
    (tmp_path / name).write_bytes(seeds[kind])
    assert run([*command, *flag, name, "--out", "out"]) == (0, "", []), "the good file passes"
    keys = tuple(f"error: {key}: " for key in SCHEMA)
    rng = random.Random(f"fuzz-{kind}")
    for i in range(MUTATIONS):
        path = tmp_path / f"m{i}" / name
        path.parent.mkdir()
        path.write_bytes(mutate(seeds[kind], rng))
        status, err, warned = run([*command, *flag, str(path), "--out", str(path.parent / "out")])
        assert warned == [], (i, warned)
        if status == 2 and kind == "checkpoint" and err.startswith(FAR_APART):
            assert err.count("\n") == 1 and not (path.parent / "out").exists(), (i, err)
            continue
        assert status in (0, 1), (i, status, err)
        if status == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (i, err)
            # a config value names its key; every other file error names the file
            assert str(path) in err or (kind == "config" and err.startswith(keys)), (i, err)
