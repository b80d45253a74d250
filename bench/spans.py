"""In-memory span recorder and the wrappers that feed it from outside tailens.

A span is one call into a wrapped function: its name, start and end
(perf_counter seconds), the index of the span that was open when it began
(-1 at the top) and the id of the benchmark op it belongs to. Spans stay in
memory while the benchmark runs and are written out once at the end.
"""

import csv
import functools
import sys
import time
from collections import defaultdict


class SpanRecorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counters = defaultdict(float)  # (op, counter name) -> amount
        self.op = -1
        self._stack = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[(self.op, name)] += amount

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "op"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent, op])


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and never
    overlap each other: their summed durations are the part of the parent's
    interval they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def per_op_totals(recorder: SpanRecorder) -> dict:
    """{op: {name: [calls, self seconds]}} summed over each op's spans."""
    totals = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for span, own in zip(recorder.spans, self_times(recorder.spans)):
        entry = totals[span[4]][span[0]]
        entry[0] += 1
        entry[1] += own
    return totals


def _wrap(name, fn, recorder, measure):
    counter, amount = measure if measure is not None else (None, None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(idx)
        if counter is not None:
            recorder.count(f"{name}.{counter}", amount(args, result))
        return result

    return wrapper


def instrument(package: str, targets, measures: dict, recorder: SpanRecorder):
    """Wrap every target at each of its import sites inside the package.

    Targets are "module.function" names, the module relative to the package.
    `measures` maps some of them to (counter, amount(args, result)), a count
    of work added up after each call. Every module attribute in the package
    that refers to the original function is replaced, so calls through
    `from .x import f` bindings are recorded too. Returns a function that
    restores the originals.
    """
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    patches = []
    for target in targets:
        module_name, func_name = target.rsplit(".", 1)
        original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
        wrapped = _wrap(target, original, recorder, measures.get(target))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def restore():
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)

    return restore
