"""Acceptance gate: ten criteria, one printed verdict line each.

The heavyweight synthetic-task runs (5 seeds per arm) are trained once per
session, on up to two worker processes, and shared across criteria through a
module-scoped cache. Run with plain pytest; the verdict lines print straight to
the terminal.
"""

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import one_batch_loss, random_ensemble, random_utility
from oracles import (
    binned_ece,
    brute_false_head_rate,
    central_differences,
    mean_cross_entropy,
    pairwise_auc,
)
from tailens.dataset import generate_synthetic, tail_mask
from tailens.decision import decide_batch
from tailens.ensemble import (
    ParticleEnsemble,
    predictive_logprobs_batch,
    regularizer,
    save_checkpoint,
)
from tailens.metrics import (
    auc_misclassification,
    expected_calibration_error,
    false_head_rate,
    report_to_json,
)
from tailens.numcore import NetShape, param_count
from tailens.rebalance import FORMS, DiscrepancySpec, class_weights
from tailens.trainer import TrainConfig, anneal_weight, evaluate, train
from tailens.utility import UtilityMatrix, one_hot, tail_sensitive

SEEDS = (0, 1, 2, 3, 4)


def _verdict(capsys, label, ok, detail):
    line = f"{label}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


ARMS = ("linear", "sqrt", "plain", "tail", "off", "m1")


class _RunCache:
    """Default-task training runs, five seeds per arm. The first use runs every
    (arm, seed) pair on up to two worker processes; `seconds` sums, per arm, the
    wall time of its runs as measured inside the workers."""

    def __init__(self):
        self.reports = {}
        self.records = {}
        self.seconds = {}

    def arm(self, name):
        if not self.reports:
            jobs = [(seed, arm) for arm in ARMS for seed in SEEDS]
            workers = min(2, len(os.sched_getaffinity(0)))
            spawn = multiprocessing.get_context("spawn")  # fork is unsafe under BLAS threads
            with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
                done = list(pool.map(self._run, *zip(*jobs)))
            for arm in ARMS:
                runs = [run for (_, a), run in zip(jobs, done) if a == arm]
                self.reports[arm] = [report for report, _, _ in runs]
                self.records[arm] = [recs for _, recs, _ in runs]
                self.seconds[arm] = sum(seconds for _, _, seconds in runs)
        return self.reports[name]

    @staticmethod
    def _run(seed, arm):
        start = time.perf_counter()
        train_data, test_data = generate_synthetic(
            num_classes=10, dim=16, n_max=1000, imbalance=100.0, separation=2.4,
            seed=seed,
        )
        overrides = {"seed": seed}
        utility = one_hot(10)
        if arm == "sqrt":
            overrides["ratio"] = DiscrepancySpec(form="sqrt")
        elif arm == "plain":
            overrides["ratio"] = DiscrepancySpec(form="plain")
        elif arm == "tail":
            utility = tail_sensitive(10, 0.5, penalty=1.0)
            overrides["utility_scale"] = 32.0
        elif arm == "off":
            overrides["repulsion"] = False
        elif arm == "m1":
            overrides["particles"] = 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ens, recs, _ = train(TrainConfig(**overrides), train_data, utility)
            report, _ = evaluate(ens, test_data, utility)
        return report, recs, time.perf_counter() - start


@pytest.fixture(scope="module")
def runs():
    return _RunCache()


def test_criterion_01_gradients_match_finite_differences(capsys):
    rng = np.random.default_rng(np.random.SeedSequence(2024))
    shape = NetShape(2, (8,), 3)
    p = param_count(shape)
    n_configs = 100
    worst_rel = 0.0
    worst_abs = 0.0
    start = time.perf_counter()
    for i in range(n_configs):
        particles = rng.normal(scale=0.8, size=(2, p))
        # Keep the pair separated in every coordinate: the spread term's
        # log-variance barrier is too stiff for a 1e-5 central difference
        # where two particles nearly coincide.
        sep = particles[0] - particles[1]
        close = np.abs(sep) < 5e-3
        particles[1, close] = particles[0, close] - np.copysign(5e-3, sep[close])
        batch = int(rng.integers(2, 9))
        x = rng.normal(size=(batch, 2))
        y = rng.integers(0, 3, size=batch)
        counts = rng.integers(1, 120, size=3)
        form = FORMS[i % len(FORMS)]
        weights = class_weights(
            DiscrepancySpec(form=form, gamma=float(rng.uniform(0.5, 2.0)), beta=0.999),
            counts,
        )
        utility = (one_hot(3), tail_sensitive(3, 0.4, 1.0),
                   random_utility(3, rng))[i % 3]
        kwargs = dict(
            utility_scale=float(rng.uniform(0.5, 8.0)),
            weight_decay=float(rng.uniform(0.0, 0.2)),
            anneal=float(rng.uniform(0.0, 1.0)),
        )
        _, grads = one_batch_loss(
            ParticleEnsemble(shape, particles.copy()), x, y, weights, utility, **kwargs
        )

        def total_at(theta):
            loss, _ = one_batch_loss(
                ParticleEnsemble(shape, theta), x, y, weights, utility, **kwargs
            )
            return loss.total

        fd = central_differences(total_at, particles)
        err = np.abs(grads - fd)
        denom = np.maximum(np.abs(grads), np.abs(fd))
        rel = denom > 1e-6
        worst_rel = max(worst_rel, float(np.max(err[rel] / denom[rel], initial=0.0)))
        worst_abs = max(worst_abs, float(np.max(err[~rel], initial=0.0)))
    elapsed = time.perf_counter() - start
    ok = worst_rel < 1e-4 and worst_abs < 1e-8 and elapsed < 60.0
    _verdict(
        capsys,
        "criterion 1",
        ok,
        f"batch_loss vs central differences, {n_configs} configs x {2 * p} coords:"
        f" worst rel {worst_rel:.2e}, worst abs {worst_abs:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_analytic_reductions(capsys):
    rng = np.random.default_rng(np.random.SeedSequence(2025))
    plain = class_weights(DiscrepancySpec(form="plain"), np.array([50, 20, 10, 5]))
    zero_u = UtilityMatrix(4, np.zeros((4, 4)))
    worst_ce = 0.0
    worst_double = 0.0
    for trial in range(50):
        ens = random_ensemble(NetShape(3, (6,), 4), 2, seed=trial)
        batch = int(rng.integers(2, 12))
        x = rng.normal(size=(batch, 3))
        y = rng.integers(0, 4, size=batch)
        ce = mean_cross_entropy(ens, x, y)
        loss_zero, _ = one_batch_loss(
            ens, x, y, plain, zero_u, utility_scale=1.0, weight_decay=0.0, anneal=0.0
        )
        loss_hot, _ = one_batch_loss(
            ens, x, y, plain, one_hot(4), utility_scale=1.0, weight_decay=0.0,
            anneal=0.0,
        )
        worst_ce = max(worst_ce, abs(loss_zero.total - ce))
        worst_double = max(worst_double, abs(loss_hot.total - 2.0 * ce))
    ok = worst_ce <= 1e-12 and worst_double <= 1e-12
    _verdict(
        capsys,
        "criterion 2",
        ok,
        f"zero-utility vs cross-entropy max |diff| {worst_ce:.2e},"
        f" one-hot vs 2x cross-entropy max |diff| {worst_double:.2e} (50 draws)",
    )


def test_criterion_03_metric_brute_force_oracles(capsys):
    rng = np.random.default_rng(np.random.SeedSequence(2026))
    n_instances = 1000

    fhr_exact = 0
    for _ in range(n_instances):
        k = int(rng.integers(3, 9))
        ratio = float(rng.choice([0.25, 0.4, 0.5, 0.75]))
        n = int(rng.integers(1, 51))
        labels = rng.integers(0, k, size=n)
        labels[0] = k - 1  # guarantee a tail-labeled sample
        decisions = rng.integers(0, k, size=n)
        tail = tail_mask(k, ratio)
        expected = brute_false_head_rate(labels, decisions, tail)
        if false_head_rate(labels, decisions, tail) == expected:
            fhr_exact += 1

    auc_worst = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(4, 51))
        unc = rng.integers(0, 7, size=n).astype(np.float64)
        correct = rng.random(n) < 0.6
        correct[0], correct[1] = True, False
        expected = pairwise_auc(unc, correct)
        auc_worst = max(auc_worst, abs(auc_misclassification(unc, correct) - expected))

    ece_worst = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(2, 51))
        conf = rng.random(n)
        conf[0] = float(rng.choice([0.0, 1.0]))
        correct = rng.random(n) < conf
        bins = int(rng.integers(1, 21))
        expected = binned_ece(conf, correct, bins)
        ece_worst = max(
            ece_worst, abs(expected_calibration_error(conf, correct, bins) - expected)
        )

    ok = fhr_exact == n_instances and auc_worst <= 1e-12 and ece_worst <= 1e-12
    _verdict(
        capsys,
        "criterion 3",
        ok,
        f"{n_instances} instances each: FHR exact {fhr_exact}/{n_instances},"
        f" AUC max |diff| {auc_worst:.2e}, ECE max |diff| {ece_worst:.2e}",
    )


def test_criterion_04_decision_rule_identities(capsys):
    rng = np.random.default_rng(np.random.SeedSequence(2027))
    k = 7
    ens = random_ensemble(NetShape(6, (10,), k), 3, seed=31)
    x = rng.normal(size=(10000, 6))

    hot = decide_batch(ens, one_hot(k), x)
    per_particle, _ = predictive_logprobs_batch(ens, x)
    mean_logp = np.einsum("m,mnk->nk", ens.mixture_weights, per_particle)
    argmax_match = int((hot.decisions == mean_logp.argmax(axis=1)).sum())

    neutral = decide_batch(ens, tail_sensitive(k, 0.5, 0.0), x)
    rho_zero_match = int((neutral.decisions == hot.decisions).sum())

    shift_stable = True
    base = decide_batch(ens, tail_sensitive(k, 0.5, 1.0), x)
    for c in (-3.0, 0.7, 42.0):
        shifted = UtilityMatrix(
            k, tail_sensitive(k, 0.5, 1.0).values + c
        )
        moved = decide_batch(ens, shifted, x)
        shift_stable = shift_stable and bool(
            np.array_equal(moved.decisions, base.decisions)
        )

    ok = argmax_match == 10000 and rho_zero_match == 10000 and shift_stable
    _verdict(
        capsys,
        "criterion 4",
        ok,
        f"one-hot = argmax mean log-prob {argmax_match}/10000, rho=0 = one-hot"
        f" {rho_zero_match}/10000, constant shifts inert: {shift_stable}",
    )


def test_criterion_05_ratio_ordering(capsys, runs):
    linear = runs.arm("linear")
    sqrt = runs.arm("sqrt")
    plain = runs.arm("plain")
    mean = lambda reports: float(np.mean([r.acc_overall for r in reports]))
    mean_chain = mean(linear) >= mean(sqrt) >= mean(plain)
    ls = sum(a.acc_overall >= b.acc_overall for a, b in zip(linear, sqrt))
    sp = sum(a.acc_overall >= b.acc_overall for a, b in zip(sqrt, plain))
    tail_lp = sum(a.acc_tail > b.acc_tail for a, b in zip(linear, plain))
    elapsed = sum(runs.seconds[a] for a in ("linear", "sqrt", "plain"))
    ok = (
        mean_chain and ls >= 4 and sp >= 4 and tail_lp >= 4 and elapsed < 600.0
    )
    _verdict(
        capsys,
        "criterion 5",
        ok,
        f"mean acc linear {mean(linear):.4f} >= sqrt {mean(sqrt):.4f} >= plain"
        f" {mean(plain):.4f}; seedwise linear>=sqrt {ls}/5, sqrt>=plain {sp}/5,"
        f" tail linear>plain {tail_lp}/5; {elapsed:.0f}s of 600s budget",
    )


def test_criterion_06_utility_tradeoff(capsys, runs):
    hot = runs.arm("linear")
    tail = runs.arm("tail")
    lower = sum(t.fhr[0.5] < h.fhr[0.5] for t, h in zip(tail, hot))
    mean_hot = float(np.mean([r.acc_overall for r in hot]))
    mean_tail = float(np.mean([r.acc_overall for r in tail]))
    drop = mean_hot - mean_tail
    ok = lower >= 4 and drop <= 0.02
    _verdict(
        capsys,
        "criterion 6",
        ok,
        f"FHR@50% lower in {lower}/5 seeds"
        f" ({float(np.mean([r.fhr[0.5] for r in hot])):.4f} ->"
        f" {float(np.mean([r.fhr[0.5] for r in tail])):.4f}),"
        f" mean accuracy drop {drop * 100:.2f}pp (limit 2pp)",
    )


def test_criterion_07_repulsion_effect(capsys, runs):
    on = runs.arm("linear")
    off = runs.arm("off")
    increased = sum(a.disagreement > b.disagreement for a, b in zip(on, off))
    ece_on = float(np.mean([r.ece for r in on]))
    ece_off = float(np.mean([r.ece for r in off]))
    ok = increased >= 4 and ece_on <= ece_off + 0.005
    _verdict(
        capsys,
        "criterion 7",
        ok,
        f"disagreement up in {increased}/5 seeds"
        f" ({float(np.mean([r.disagreement for r in off])):.4f} ->"
        f" {float(np.mean([r.disagreement for r in on])):.4f});"
        f" mean ECE on {ece_on:.4f} vs off {ece_off:.4f} (allowed +0.005)",
    )


def test_criterion_08_particle_count_trend(capsys, runs):
    m3 = runs.arm("linear")
    m1 = runs.arm("m1")
    wins = sum(a.acc_overall > b.acc_overall for a, b in zip(m3, m1))
    ok = wins >= 4
    _verdict(
        capsys,
        "criterion 8",
        ok,
        f"M=3 beats M=1 in {wins}/5 seeds (means"
        f" {float(np.mean([r.acc_overall for r in m3])):.4f} vs"
        f" {float(np.mean([r.acc_overall for r in m1])):.4f})",
    )


def test_criterion_09_byte_identical_reruns(capsys, tmp_path):
    train_data, test_data = generate_synthetic(
        num_classes=10, dim=16, n_max=1000, imbalance=100.0, separation=2.4, seed=0
    )
    config = TrainConfig(epochs=30, checkpoint_every=15, seed=0)
    utility = one_hot(10)
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        out.mkdir()
        ens, _, checkpoints = train(config, train_data, utility)
        for epoch, snapshot in checkpoints:
            save_checkpoint(snapshot, out / f"checkpoint_epoch{epoch:04d}.ckpt")
        report, _ = evaluate(ens, test_data, utility)
        (out / "metrics.json").write_text(report_to_json(report))
        blobs.append(
            {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        )
    same_names = set(blobs[0]) == set(blobs[1])
    files_equal = same_names and all(
        blobs[0][name] == blobs[1][name] for name in blobs[0]
    )
    ok = files_equal and len(blobs[0]) == 3  # two checkpoints + metrics
    _verdict(
        capsys,
        "criterion 9",
        ok,
        f"two identical runs: {len(blobs[0])} artifacts byte-identical: {files_equal}",
    )


def test_criterion_10_invariance_suite(capsys):
    rng = np.random.default_rng(np.random.SeedSequence(2028))

    anneal_ok = all(
        anneal_weight(e + 1, stride) < anneal_weight(e, stride)
        for stride in (5.0, 40.0, 100.0)
        for e in range(200)
    )

    translation_ok = True
    for trial in range(20):
        shape = NetShape(2, (4,), 3)
        particles = rng.normal(size=(3, param_count(shape)))
        shift = rng.normal(size=param_count(shape))
        a = ParticleEnsemble(shape, particles.copy())
        b = ParticleEnsemble(shape, particles + shift)
        translation_ok = translation_ok and bool(
            abs(regularizer(a).entropy_term - regularizer(b).entropy_term) < 1e-9
            and np.allclose(
                -regularizer(a, anneal=1.0).grad, -regularizer(b, anneal=1.0).grad, atol=1e-9
            )
        )

    convexity_ok = True
    for trial in range(20):
        ens = random_ensemble(NetShape(4, (5,), 4), 4, seed=100 + trial)
        x = rng.normal(size=(50, 4))
        per_particle, mixture = predictive_logprobs_batch(ens, x)
        probs = np.exp(per_particle)
        convexity_ok = convexity_ok and bool(
            np.all(mixture >= probs.min(axis=0) - 1e-12)
            and np.all(mixture <= probs.max(axis=0) + 1e-12)
        )

    normalization_ok = True
    for trial in range(40):
        k = int(rng.integers(2, 12))
        counts = rng.integers(1, 2000, size=k)
        form = FORMS[trial % len(FORMS)]
        weights = class_weights(DiscrepancySpec(form=form), counts)
        total = float(np.dot(counts, weights.normalized))
        normalization_ok = normalization_ok and abs(
            total - float(counts.sum())
        ) <= 1e-9 * counts.sum()

    auc_ok = True
    for trial in range(20):
        unc = rng.random(50)
        correct = rng.random(50) < 0.6
        correct[0], correct[1] = True, False
        base = auc_misclassification(unc, correct)
        auc_ok = auc_ok and bool(
            abs(auc_misclassification(np.exp(unc), correct) - base) <= 1e-12
            and abs(auc_misclassification(5.0 * unc - 2.0, correct) - base) <= 1e-12
        )

    checks = {
        "anneal monotone": anneal_ok,
        "entropy translation-equivariant": translation_ok,
        "mixture convexity bounds": convexity_ok,
        "class-weight normalization": normalization_ok,
        "AUC rank-transform invariant": auc_ok,
    }
    ok = all(checks.values())
    detail = ", ".join(f"{name}: {'yes' if value else 'NO'}" for name, value in checks.items())
    _verdict(capsys, "criterion 10", ok, detail)


def test_trainer_smoke_example(capsys, runs):
    runs.arm("linear")
    records = runs.records["linear"]
    decreased = sum(recs[1].loss.total < recs[0].loss.total for recs in records)
    ok = decreased >= 4
    _verdict(
        capsys,
        "trainer smoke",
        ok,
        f"epoch-1 loss below epoch-0 in {decreased}/5 seeds at default settings",
    )
