"""The tailens functions the benchmark traces exist, read without importing it,
and the training loop reaches the loss step through the name it traces."""

import ast
import importlib
from pathlib import Path

import pytest

from tailens import objective, trainer
from tailens.dataset import generate_synthetic
from tailens.utility import one_hot

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


def test_training_calls_batch_loss_once_per_batch(monkeypatch):
    # the bench wraps objective.batch_loss at every module binding of it and
    # counts args[0].n_particles per call as particle steps
    assert trainer.batch_loss is objective.batch_loss
    sizes = []

    def counted(step, x, y, anneal):
        assert step.n_particles == config.particles
        sizes.append(len(y))
        return objective.batch_loss(step, x, y, anneal)

    monkeypatch.setattr(trainer, "batch_loss", counted)
    data, _ = generate_synthetic(3, 2, 20, 2.0, 2.0, seed=0, test_per_class=1)
    config = trainer.TrainConfig(epochs=3, batch_size=8, hidden=(4,), particles=2)
    trainer.train(config, data, one_hot(3))
    batches = -(-len(data) // config.batch_size)
    assert len(sizes) == config.epochs * batches
    assert sum(sizes) == config.epochs * len(data)
