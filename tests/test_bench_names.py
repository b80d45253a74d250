"""The tailens functions the benchmark traces exist, read without importing it."""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).parents[1] / "bench" / "run.py"


def traced_names() -> list[str]:
    """The TARGETS and COUNTED entries of bench/run.py, plus the counts it reads."""
    names = ["dataset.train_class_counts"]  # the bench's _train_size calls it
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("TARGETS", "COUNTED"):
                value = node.value
                items = value.keys if isinstance(value, ast.Dict) else value.elts
                names += [ast.literal_eval(item) for item in items]
    return names


def test_both_lists_are_found():
    names = traced_names()
    assert "trainer.repeat_runs" in names and "dataset.load_csv" in names


@pytest.mark.parametrize("name", sorted(set(traced_names())))
def test_traced_name_is_a_tailens_function(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"tailens.{module}"), attr, None)), name
