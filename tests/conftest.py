"""Shared builders and checks for the test suite."""

import functools
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import golden
import tailens
from tailens.decision import BatchDecisions
from tailens.ensemble import ParticleEnsemble
from tailens.numcore import NetShape, class_id_dtype, init_params
from tailens.objective import TrainingStep, batch_loss
from tailens.utility import UtilityMatrix


def random_ensemble(shape: NetShape, n_particles: int, seed: int) -> ParticleEnsemble:
    """Ensemble with independently initialized particles, seeded per particle."""
    particles = np.stack(
        [
            init_params(shape, np.random.default_rng(np.random.SeedSequence((seed, j))))
            for j in range(n_particles)
        ]
    )
    return ParticleEnsemble(shape=shape, particles=particles)


def probs_ensemble(probs_rows) -> ParticleEnsemble:
    """Linear bias-only ensemble whose particle j predicts probs_rows[j].

    Uses a no-hidden-layer network on a 1-dim input with zero weights, so the
    log-probabilities are the log-softmax of the bias alone and independent
    of x. Each row must be a probability vector.
    """
    probs_rows = np.asarray(probs_rows, dtype=np.float64)
    k = probs_rows.shape[1]
    shape = NetShape(1, (), k)
    particles = []
    for row in probs_rows:
        assert abs(row.sum() - 1.0) < 1e-9
        particles.append(np.concatenate([np.zeros(k), np.log(row)]))
    return ParticleEnsemble(shape=shape, particles=np.stack(particles))


def one_batch_loss(ens, x, y, weights, utility, *, anneal, **settings):
    """batch_loss of one batch on a TrainingStep built for it; settings are the
    step's keywords (utility_scale, weight_decay, var_floor)."""
    return batch_loss(TrainingStep(ens, weights, utility, **settings), x, y, anneal)


def random_utility(k: int, rng: np.random.Generator) -> UtilityMatrix:
    """Random matrix nudged so every diagonal entry is its row maximum."""
    values = rng.normal(size=(k, k))
    values[np.arange(k), np.arange(k)] = values.max(axis=1) + rng.uniform(0.1, 1.0, k)
    return UtilityMatrix(k, values)


CLASS_ID_FIELDS = ("decisions", "argmax_preds", "particle_preds")


def assert_same_decisions(got: BatchDecisions, want: BatchDecisions, num_classes: int):
    """Every field of got equals want's: the class ids by value and stored in
    class_id_dtype(num_classes), the floats by dtype and bytes."""
    for field in fields(BatchDecisions):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.shape == b.shape, field.name
        if field.name in CLASS_ID_FIELDS:
            assert a.dtype == class_id_dtype(num_classes), field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name


def python(*args, cwd=None):
    """A fresh interpreter that imports this checkout's tailens."""
    env = dict(os.environ, PYTHONPATH=str(Path(tailens.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd
    )


# the CLI flags of a small, fast task: 4 classes, 3 features, 2 epochs of 2 particles
FAST = {
    "classes": "4",
    "dim": "3",
    "n-max": "30",
    "imbalance": "4.0",
    "test-per-class": "10",
    "hidden": "4",
    "epochs": "2",
    "batch-size": "16",
    "particles": "2",
}


def flags(out, **overrides):
    """The FAST flags, each override (a key in _ or - form) added or replacing its
    flag, then --out out."""
    merged = dict(FAST)
    merged.update({k.replace("_", "-"): v for k, v in overrides.items()})
    merged["out"] = str(out)
    result = []
    for key, value in merged.items():
        result += [f"--{key}", value]
    return result


# runs argv through the CLI (none: only the import), then prints the exit code and
# whether numpy.random and the process pool are loaded
PROBE = """
import sys
from tailens.cli import main
argv = sys.argv[1:]
code = main(argv) if argv else 0
print(code, "numpy.random" in sys.modules, "concurrent.futures.process" in sys.modules)
"""


def probe(cwd, *argv) -> tuple[int, bool, bool]:
    """(exit code, numpy.random loaded, process pool loaded) of one CLI run in a
    fresh interpreter, in cwd."""
    result = python("-c", PROBE, *argv, cwd=cwd)
    assert result.returncode == 0, result.stderr
    code, draws, pool = result.stdout.split()[-3:]
    return int(code), draws == "True", pool == "True"


@pytest.fixture(scope="session")
def import_probe(tmp_path_factory):
    """The probe of the import alone, run once a session."""
    return probe(tmp_path_factory.mktemp("import"))


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.SeedSequence(1234))


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """name -> the files that golden.json's run of that name writes (golden.run), made
    once a session in a fresh directory and read by every test of that run."""
    return functools.cache(
        lambda name: golden.run(golden.load()[name]["argv"], tmp_path_factory.mktemp(name))
    )
