"""Self-tests of the benchmark's own code: python3 -m pytest -q bench"""

import json
import re
import sys
import types
from pathlib import Path

import run
import spans

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_on_nested_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3]; b holds b1 [6, 8]
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a1", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b1", 6.0, 8.0, 3, 0],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 2.0, 2.0]
    assert sum(spans.self_times(tree)) == 10.0


def test_recorder_links_parents_and_sums_per_op():
    rec = spans.SpanRecorder()
    rec.op = 7
    outer = rec.begin("outer")
    for _ in range(2):
        rec.end(rec.begin("inner"))
    rec.end(outer)
    assert [s[3] for s in rec.spans] == [-1, 0, 0]
    totals = spans.per_op_totals(rec)
    assert totals[7]["inner"][0] == 2 and totals[7]["outer"][0] == 1
    covered = sum(own for _, own in totals[7].values())
    assert abs(covered - (rec.spans[0][2] - rec.spans[0][1])) < 1e-12


def test_instrument_wraps_every_import_site_and_restores():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def double(x):
        return 2 * x

    core.double = double
    user.double = double  # as `from .core import double` would bind it
    user.run = lambda x: user.double(x) + 1
    sys.modules.update({"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user})
    try:
        rec = spans.SpanRecorder()
        measures = {"core.double": ("items", lambda args, result: args[0])}
        restore = spans.instrument("fakepkg", ["core.double"], measures, rec)
        assert user.run(5) == 11 and core.double(1) == 2
        assert [s[0] for s in rec.spans] == ["core.double", "core.double"]
        assert rec.counters[(-1, "core.double.items")] == 6
        restore()
        assert core.double is double and user.double is double
    finally:
        for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
            del sys.modules[name]


def test_golden_check_fires_on_flipped_byte(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_bytes(b'{"acc_tail": 0.5}\n')
    expected = {"metrics.json": run.sha256(path)}
    assert run.check_outputs(tmp_path, expected) == []
    data = bytearray(path.read_bytes())
    data[3] ^= 0x01
    path.write_bytes(bytes(data))
    assert run.check_outputs(tmp_path, expected) == ["metrics.json: sha256 differs from the golden hash"]
    path.unlink()
    assert run.check_outputs(tmp_path, expected) == ["metrics.json: missing"]
    assert run.check_outputs(tmp_path, {}) == ["no golden hashes for these inputs"]


def test_golden_table_covers_every_workload_and_input():
    golden = json.loads((Path(run.ROOT) / run.GOLDEN).read_text())
    for name, workload in run.WORKLOADS.items():
        assert sorted(golden[name]) == [str(s) for s in range(run.POOL)]
        for hashes in golden[name].values():
            assert sorted(hashes) == sorted(workload.outputs)


def test_metric_names_are_valid_and_match_benchmark_json():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.layer_metric_units()
    assert set(bench["workloads"][i]["name"] for i in range(len(bench["workloads"]))) == set(
        run.WORKLOADS
    )
    for name in [*end_to_end, *per_layer, *run.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile([float(i) for i in range(1, 21)]) == (50.0, 10.0)
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (90.0, 90.0)


def test_closed_loop_runs_the_minimum_then_stops_on_time():
    calls = []
    assert run.closed_loop(lambda i: calls.append(i) or i, seconds=0.0, minimum=3) == [0, 1, 2]
