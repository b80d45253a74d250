"""The golden runs: CLI calls whose every output file is pinned byte for byte.

golden.json maps each run's name to its `argv`, the CLI calls made in order in
one fresh directory with relative paths (so no config.json holds a machine
path), and to the `files` they write: each relative path's sha256 and its
shadow, a few numbers decoded from the file that say what moved when a hash
does. The hashes were recorded with numpy 2.4 on x86-64 OpenBLAS.

- `default`: `train --epochs 30`, then `evaluate` on its checkpoint;
- `csv`: the same on `generate-data`'s CSVs, which round-trip the data bit for
  bit, so it writes the default run's bytes;
- `features`: what the default leaves out: a utility that is not one-hot, lr
  decay, periodic checkpoints, two hidden layers and the effective form;
- `ratios` and `power`: the sqrt, log and power forms;
- `sweep-particles`: both ends of the particle stack, M=1 and M=8;
- `sweep-runs`: two runs per cell, so the means and deviations aggregate.

Re-record every run from this checkout's sources, refusing if two runs differ, with

    python tests/golden.py --record
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # the recorder records this checkout's sources
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tailens.cli import main  # noqa: E402
from tailens.ensemble import load_checkpoint  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")


def load(path=GOLDEN) -> dict:
    return json.loads(Path(path).read_text())


def shadow(path: Path) -> dict:
    """A few numbers decoded from an output file, by its kind; else its size."""
    name = path.name
    if name == "metrics.json":
        report = json.loads(path.read_text())
        return {key: report[key] for key in ("acc_overall", "acc_tail", "fhr_avg", "ece")}
    if name == "trainlog.jsonl":
        last = json.loads(path.read_text().splitlines()[-1])
        return {"disagreement": last["disagreement"], "total": last["total"]}
    if name.endswith(".ckpt"):
        particles = load_checkpoint(path).particles
        return {"max_abs": float(np.abs(particles).max()), "particles": list(particles.shape)}
    if name == "predictions.csv":
        with open(path, newline="") as fh:
            decisions = [int(row["decision"]) for row in csv.DictReader(fh)]
        return {"decisions": np.bincount(decisions).tolist()}
    if name.startswith("sweep_") and name.endswith(".csv"):
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            axis = reader.fieldnames[0]
            return {f"acc_mean[{row[axis]}]": float(row["acc_mean"]) for row in reader}
    return {"bytes": path.stat().st_size}


def run(argv: list, where) -> dict:
    """Make the CLI calls argv in order in the directory where; relative path ->
    {sha256, shadow} of every file in it afterwards."""
    home = os.getcwd()
    os.chdir(where)
    try:
        for call in argv:
            code = main(call)
            if code != 0:
                raise RuntimeError(f"tailens {' '.join(call)} exited {code}")
    finally:
        os.chdir(home)
    return {
        path.relative_to(where).as_posix(): {
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(), "shadow": shadow(path)
        }
        for path in sorted(Path(where).rglob("*")) if path.is_file()
    }


def moved(want: dict, got: dict) -> str:
    """One line per file whose sha256 moved, came or went, with its shadow before -> after."""
    lines = []
    for path in sorted(want.keys() | got.keys()):
        if path not in got:
            lines.append(f"{path}: not written, was {want[path]['shadow']}")
        elif path not in want:
            lines.append(f"{path}: new file, {got[path]['shadow']}")
        elif want[path]["sha256"] != got[path]["sha256"]:
            old, new = want[path]["shadow"], got[path]["shadow"]
            changes = [f"{key} {old.get(key)} -> {new.get(key)}"
                       for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
            lines.append(f"{path}: {', '.join(changes) or 'shadow unchanged'}")
    return "\n".join(lines)


def record(path=GOLDEN, run=run) -> None:
    """Run every golden twice, each time in a fresh directory, and rewrite path
    only if both runs of every golden wrote the same files."""
    table = load(path)
    for name, golden in table.items():
        runs = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as where:
                runs.append(run(golden["argv"], where))
        if runs[0] != runs[1]:
            raise SystemExit(f"error: {name}: two runs differ\n{moved(*runs)}")
        golden["files"] = runs[0]
    Path(path).write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help=f"rewrite {GOLDEN.name}")
    if not parser.parse_args().record:
        parser.error("nothing to do without --record")
    record()
