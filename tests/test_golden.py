"""The golden runs of golden.json: every file a run writes, byte for byte, and the
recorder that rewrites them."""

import itertools
import re
import shutil

import pytest

import golden

GOLDENS = golden.load()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_run(tmp_path, name):
    want = GOLDENS[name]["files"]
    got = golden.run(GOLDENS[name]["argv"], tmp_path)
    digests = {path: entry["sha256"] for path, entry in got.items()}
    assert digests == {path: entry["sha256"] for path, entry in want.items()}, (
        golden.moved(want, got)
    )


def test_the_csv_run_writes_the_default_runs_bytes():
    # generate-data's CSVs round-trip the data bit for bit, so training and
    # evaluating on them is the in-memory run; evaluate rewrites train's metrics
    csv_run, default = GOLDENS["csv"]["files"], GOLDENS["default"]["files"]
    twins = {"train/ensemble.ckpt": "train/ensemble.ckpt",
             "train/metrics.json": "train/metrics.json",
             "eval/predictions.csv": "eval/predictions.csv",
             "eval/metrics.json": "train/metrics.json"}
    for path, twin in twins.items():
        assert csv_run[path]["sha256"] == default[twin]["sha256"], path


def test_every_golden_is_complete():
    for name, entry in GOLDENS.items():
        assert entry["argv"] and all(entry["argv"]), name
        assert entry["files"], name
        for path, pinned in entry["files"].items():
            assert re.fullmatch("[0-9a-f]{64}", pinned["sha256"]), (name, path)
            assert isinstance(pinned["shadow"], dict), (name, path)


def test_the_recorder_writes_only_what_two_runs_agree_on(tmp_path):
    path = tmp_path / "golden.json"
    shutil.copy(golden.GOLDEN, path)
    before = path.read_bytes()
    count = itertools.count()

    def drifting(argv, where):
        return {"out/a": {"sha256": f"{next(count):064x}", "shadow": {"bytes": 1}}}

    with pytest.raises(SystemExit, match="two runs differ"):
        golden.record(path, drifting)
    assert path.read_bytes() == before

    def steady(argv, where):
        return {"out/a": {"sha256": "0" * 64, "shadow": {"bytes": 1}}}

    golden.record(path, steady)
    recorded = golden.load(path)
    assert recorded.keys() == GOLDENS.keys()
    assert all(entry["files"] == steady(None, None) for entry in recorded.values())
