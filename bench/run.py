"""Benchmark of the tailens command line: the train, sweep and evaluate workloads.

Run from any directory; paths are taken relative to the repository root:

    python3 bench/run.py --workload train --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --record-golden

One client sends one op at a time and waits for it (a closed loop). An op is
one in-process call of tailens.cli.main; after each op its output files are
hashed and compared with bench/golden.json, and a mismatch, a nonzero exit
status or an exception makes the op a failed one. With --trace 0 the run
reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates
plain and traced ops and reports the per-layer metrics. Results go to
bench/results/, and the last line of standard output is the result as one JSON
object. --record-golden rewrites bench/golden.json from the current code.
"""

import argparse
import contextlib
import csv
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = "bench/work"
RESULTS = "bench/results"
GOLDEN = "bench/golden.json"

# Every run goes through the whole pool of input sets, in an order that starts
# at the workload seed, so its tail metrics do not depend on which seed it got
# and every op can be checked against a recorded golden hash.
POOL = 3
# set-up is repeated at least 3 times and for at least this long, and the
# median is reported: a single import takes about 0.25 s and is noisy
SETUP_SECONDS = 3.0
EPOCHS = "60"


def _train_op(seed, out):
    return ["train", "--epochs", EPOCHS, "--seed", str(seed), "--out", out]


def _sweep_op(seed, out):
    return [
        "sweep", "--axis", "particles", "--grid", "1,2,4,8", "--jobs", "1",
        "--epochs", EPOCHS, "--runs", "1", "--seed", str(seed), "--out", out,
    ]


EVALUATE_DATA = f"{WORK}/evaluate/data"


def _evaluate_model(seed):
    return f"{WORK}/evaluate/model{seed}"


def _evaluate_setup():
    # one 50k-row test CSV; the pool seeds differ in the checkpoint trained on
    # its companion train CSV
    data = ["generate-data", "--test-per-class", "5000", "--seed", "0", "--out", EVALUATE_DATA]
    models = [
        ["train", "--epochs", EPOCHS, "--train-csv", f"{EVALUATE_DATA}/train.csv",
         "--seed", str(seed), "--out", _evaluate_model(seed)]
        for seed in range(POOL)
    ]
    return [data, *models]


def _evaluate_op(seed, out):
    return [
        "evaluate", "--checkpoint", f"{_evaluate_model(seed)}/ensemble.ckpt",
        "--test-csv", f"{EVALUATE_DATA}/test.csv", "--utility", "tail-sensitive", "--out", out,
    ]


def _read_json(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _train_size(config):
    from tailens.dataset import train_class_counts

    return int(train_class_counts(config["classes"], config["n_max"], config["imbalance"]).sum())


def _summarize_train(out):
    config, report = _read_json(out, "config.json"), _read_json(out, "metrics.json")
    return _train_size(config) * config["epochs"], report["acc_tail"], report["fhr_avg"]


def _summarize_sweep(out):
    config = _read_json(out, "config.json")
    with open(os.path.join(out, "sweep_particles.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    samples = _train_size(config) * config["epochs"] * config["runs"] * len(rows)
    return (
        samples,
        statistics.fmean(float(r["acc_tail_mean"]) for r in rows),
        statistics.fmean(float(r["fhr_avg_mean"]) for r in rows),
    )


def _summarize_evaluate(out):
    report = _read_json(out, "metrics.json")
    return report["n_test"], report["acc_tail"], report["fhr_avg"]


@dataclass(frozen=True)
class Workload:
    op: object  # (input seed, output dir) -> tailens argv
    outputs: tuple  # files of an op compared with the golden hashes
    summarize: object  # output dir -> (samples, acc_tail, fhr_avg)
    setup: object = lambda: []  # -> tailens argvs that make the inputs of every op


WORKLOADS = {
    "train": Workload(
        _train_op, ("ensemble.ckpt", "trainlog.jsonl", "metrics.json"), _summarize_train
    ),
    "sweep": Workload(_sweep_op, ("sweep_particles.csv",), _summarize_sweep),
    "evaluate": Workload(
        _evaluate_op, ("metrics.json", "predictions.csv"), _summarize_evaluate, _evaluate_setup
    ),
}

END_TO_END = {
    "op_s": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "acc_tail": "ratio",
    "fhr_avg": "ratio",
}

# Functions wrapped in the traced run, named by the module that defines them.
TARGETS = (
    "numcore.forward_logprobs_batch",
    "numcore.backward_batch",
    "objective.batch_loss",
    "ensemble.predictive_logprobs_batch",
    "ensemble.regularizer",
    "ensemble.regularizer_grad",
    "ensemble.diversity_diagnostics",
    "ensemble.save_checkpoint",
    "ensemble.load_checkpoint",
    "trainer.train",
    "trainer.evaluate",
    "trainer.write_train_log",
    "trainer.repeat_runs",
    "decision.decide_batch",
    "decision.write_predictions_csv",
    "metrics.auc_misclassification",
    "metrics.expected_calibration_error",
    "metrics.report_to_json",
    "metrics.write_summary_csv",
    "dataset.load_csv",
    "dataset.generate_synthetic",
    "cli.main",
    "cli.cmd_train",
    "cli.cmd_evaluate",
    "cli.cmd_sweep",
)

# Work counted at some wrapped calls: target -> (counter, unit, amount(args, result)).
COUNTED = {
    "objective.batch_loss": ("particle_steps", "count", lambda args, result: args[0].n_particles),
    "ensemble.save_checkpoint": ("bytes", "bytes", lambda args, result: os.path.getsize(args[1])),
    "ensemble.load_checkpoint": ("bytes", "bytes", lambda args, result: os.path.getsize(args[0])),
    "dataset.load_csv": ("rows", "count", lambda args, result: len(result)),
}


def layer_metric_units() -> dict:
    units = {}
    for target in TARGETS:
        units[f"{target}.calls"] = "count"
        units[f"{target}.self_s"] = "s"
    for target, (counter, unit, _) in COUNTED.items():
        units[f"{target}.{counter}"] = unit
    units["numcore.forward_passes_per_step"] = "ratio"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_outputs(out_dir, expected: dict) -> list[str]:
    """Problems found comparing the files in out_dir with their golden hashes."""
    if not expected:
        return ["no golden hashes for these inputs"]
    problems = []
    for name, digest in sorted(expected.items()):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name}: missing")
        elif sha256(path) != digest:
            problems.append(f"{name}: sha256 differs from the golden hash")
    return problems


def tail_percentile(samples):
    """(p, value) for the highest of p50/p90/p99/p99.9 with >= 10 samples above it."""
    best = None
    ordered = sorted(samples)
    n = len(ordered)
    for per_mille in (500, 900, 990, 999):
        rank = -(-n * per_mille // 1000)  # nearest rank, in integers
        if n - rank >= 10:
            best = (per_mille / 10, ordered[rank - 1])
    return best


def closed_loop(run_one, seconds: float, minimum: int) -> list:
    """Call run_one(0), run_one(1), ... one at a time.

    Stops once `minimum` calls are done and the next one, at the median length
    so far, would end after `seconds`.
    """
    results, lengths = [], []
    start = time.perf_counter()
    while len(results) < minimum or (
        time.perf_counter() - start + statistics.median(lengths) <= seconds
    ):
        t0 = time.perf_counter()
        results.append(run_one(len(results)))
        lengths.append(time.perf_counter() - t0)
    return results


def _call(cli, argv):
    """(exit status or traceback, seconds) of one in-process tailens call."""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
    except Exception:  # an op that raises is a failed op; the loop goes on
        status = traceback.format_exc()
    return status, time.perf_counter() - t0


def run_op(cli, name, seed, golden) -> dict:
    workload = WORKLOADS[name]
    out = f"{WORK}/{name}/out"
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()  # start every op from the same heap state
    status, seconds = _call(cli, workload.op(seed, out))
    op = {"input_seed": seed, "seconds": seconds}
    if status != 0:
        op["problems"] = [f"exit status {status}"]
        return op
    op["problems"] = check_outputs(out, golden.get(str(seed), {}))
    try:
        op["samples"], op["acc_tail"], op["fhr_avg"] = workload.summarize(out)
    except (OSError, KeyError, ValueError) as err:
        op["problems"].append(f"unreadable outputs: {err!r}")
    return op


_SETUP_CHILD = """\
import json, sys
sys.path.insert(0, "src")
from tailens.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"set-up command failed: {argv}")
"""


def set_up(name) -> float:
    """Make the workload's inputs in a fresh interpreter; returns its wall time.

    The child imports tailens from source, so set-up time includes the import
    a command-line user pays on every call.
    """
    shutil.rmtree(f"{WORK}/{name}", ignore_errors=True)
    os.makedirs(f"{WORK}/{name}")
    argvs = WORKLOADS[name].setup()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, json.dumps(argvs)],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def blas_threads(np):
    """Thread count of the OpenBLAS bundled with numpy, or None when not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "blas_threads": blas_threads(np),
        "git_sha": git_sha(),
        "workload_seed": seed,
    }


def _input_seed(seed, i):
    return (seed + i) % POOL


def measure_end_to_end(cli, name, seed, seconds, golden):
    setup = closed_loop(lambda i: set_up(name), SETUP_SECONDS, 3)
    ops = closed_loop(
        lambda i: run_op(cli, name, _input_seed(seed, i), golden), seconds, POOL
    )
    # a golden mismatch fails the run but still leaves outputs to measure
    good = [op for op in ops if "samples" in op]
    if not good:
        raise RuntimeError(f"no {name} op finished: {ops[0]['problems']}")
    first = {}  # outputs are deterministic per input seed; take each seed once
    for op in good:
        first.setdefault(op["input_seed"], op)
    times = [op["seconds"] for op in ops]
    metrics = {
        "op_s": statistics.median(times),
        "samples_per_s": statistics.median(op["samples"] / op["seconds"] for op in good),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_tail": statistics.fmean(op["acc_tail"] for op in first.values()),
        "fhr_avg": statistics.fmean(op["fhr_avg"] for op in first.values()),
    }
    extra = {"setup_s_samples": setup, "op_s_samples": len(times)}
    tail = tail_percentile(times)
    if tail is not None:
        extra[f"op_s_p{tail[0]:g}"] = tail[1]
    return metrics, END_TO_END, extra, ops


def measure_layers(cli, name, seed, seconds, golden, spans_path):
    set_up(name)
    recorder = spans.SpanRecorder()
    measures = {target: (c, amount) for target, (c, _, amount) in COUNTED.items()}

    def pair(i):
        input_seed = _input_seed(seed, i)
        plain = run_op(cli, name, input_seed, golden)
        recorder.op = i
        restore = spans.instrument("tailens", TARGETS, measures, recorder)
        try:
            traced = run_op(cli, name, input_seed, golden)
        finally:
            restore()
        return plain, traced

    pairs = closed_loop(pair, seconds, 1)
    recorder.write_csv(spans_path)
    n = len(pairs)
    totals = spans.per_op_totals(recorder)
    metrics = {}
    for target in TARGETS:
        metrics[f"{target}.calls"] = sum(totals[i][target][0] for i in range(n)) / n
        metrics[f"{target}.self_s"] = sum(totals[i][target][1] for i in range(n)) / n
    for target, (counter, _, _) in COUNTED.items():
        key = f"{target}.{counter}"
        metrics[key] = sum(recorder.counters[(i, key)] for i in range(n)) / n
    steps = metrics["objective.batch_loss.particle_steps"]
    passes = (
        metrics["numcore.forward_logprobs_batch.calls"]
        + metrics["numcore.backward_batch.calls"]
    )
    metrics["numcore.forward_passes_per_step"] = passes / steps if steps else 0.0
    traced = [t["seconds"] for _, t in pairs]
    covered = sum(own for per_op in totals.values() for _, own in per_op.values())
    metrics["trace.coverage"] = covered / sum(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(
        p["seconds"] for p, _ in pairs
    )
    extra = {"traced_ops": n, "spans": len(recorder.spans)}
    return metrics, layer_metric_units(), extra, [op for p in pairs for op in p]


def record_golden(cli):
    """Run every workload on every input seed twice and store the output hashes."""
    table = {}
    for name, workload in WORKLOADS.items():
        set_up(name)
        out = f"{WORK}/{name}/out"
        table[name] = {}
        for seed in range(POOL):
            hashes = []
            for _ in range(2):
                shutil.rmtree(out, ignore_errors=True)
                status, seconds = _call(cli, workload.op(seed, out))
                if status != 0:
                    raise RuntimeError(f"{name} seed {seed} failed: {status}")
                hashes.append({f: sha256(os.path.join(out, f)) for f in workload.outputs})
            if hashes[0] != hashes[1]:
                raise RuntimeError(f"{name} seed {seed}: two runs differ")
            table[name][str(seed)] = hashes[0]
            print(f"{name} seed {seed}: {seconds:.2f} s", file=sys.stderr)
    with open(GOLDEN, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _import_tailens():
    """tailens.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "tailens" / "__init__.py").is_file():
        raise SystemExit(f"error: no tailens sources under {src}")
    sys.path.insert(0, str(src))
    sys.dont_write_bytecode = True
    import tailens.cli

    if Path(tailens.cli.__file__).resolve().parent != src / "tailens":
        raise SystemExit(f"error: imported tailens from {tailens.cli.__file__}, not {src}")
    return tailens.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    os.chdir(ROOT)
    cli = _import_tailens()
    if args.record_golden:
        record_golden(cli)
        return 0
    with open(GOLDEN) as fh:
        golden = json.load(fh)[args.workload]

    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{RESULTS}/{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, units, extra, ops = measure_layers(
            cli, args.workload, args.seed, args.seconds, golden, f"{stem}-spans.csv"
        )
    else:
        metrics, units, extra, ops = measure_end_to_end(
            cli, args.workload, args.seed, args.seconds, golden
        )
    failed = sum(1 for op in ops if op["problems"])
    extra["failed_ops"] = failed / len(ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open("BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "benchmark": benchmark,
        "result": result,
        "extra": extra,
        "ops": ops,
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    for name, value in metrics.items():
        print(f"{name}: {value!r} {units[name]}")
    for name, value in extra.items():
        print(f"{name}: {value!r}")
    for op in ops:
        for problem in op["problems"]:
            print(f"failed op (input seed {op['input_seed']}): {problem}")
    print(f"environment: {json.dumps(record['environment'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
