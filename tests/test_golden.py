"""The golden runs of golden.json: every file a run writes, byte for byte, and the
recorder that rewrites them."""

import itertools
import re
import shutil

import pytest

import golden

GOLDENS = golden.load()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_run(golden_run, name):
    want = GOLDENS[name]["files"]
    got = golden_run(name)
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


def test_the_recorder_writes_only_what_two_runs_agree_on(tmp_path, capsys):
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

    assert capsys.readouterr().out == ""
    golden.record(path, steady)
    recorded = golden.load(path)
    assert recorded.keys() == GOLDENS.keys()
    assert all(entry["files"] == steady(None, None) for entry in recorded.values())
    # what moved, by golden: each pinned file is gone and out/a is new
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == sum(len(entry["files"]) + 1 for entry in GOLDENS.values())
    assert "default: out/a: new file, {'bytes': 1}" in lines
    assert any(line.startswith("default: train/ensemble.ckpt: not written, was {") for line in lines)
    golden.record(path, steady)  # nothing moves a second time
    assert capsys.readouterr().out == ""

    def grown(argv, where):
        return {"out/a": {"sha256": "1" * 64, "shadow": {"bytes": 2}}}

    golden.record(path, grown)
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: out/a: bytes 1 -> 2" for name in GOLDENS
    ]
