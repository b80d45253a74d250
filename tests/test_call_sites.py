"""Functions that take their inputs unchecked have the callers they were written
for, read from the source: a new caller has to decide about checks in the open."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "tailens"


def callers(name: str) -> list[str]:
    """module.function of every call of `name` in the package, in source order."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{module}.{node.name}"
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.append(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text()), f"{module}.<module>")
    return found


@pytest.mark.parametrize(
    "name,expected",
    [
        # the rows and cotangents are the training step's own
        ("backward_batch", ["objective.batch_loss"]),
        # preds hold one row per particle: the trainer's forward, evaluate's decisions
        ("diversity_diagnostics", ["trainer.train", "trainer.evaluate"]),
        # a command computes all it writes, periodic checkpoints too, before one
        # step makes --out and writes
        ("makedirs", ["cli._publish"]),
        # a training run's one forward is its diagnostics: a failed step's log-probs
        # tell whether any row is finite, with no second forward
        ("forward_logprobs_batch", ["ensemble.predictive_logprobs_batch", "trainer.train"]),
    ],
)
def test_unchecked_function_has_only_its_callers(name, expected):
    assert callers(name) == expected
