"""Acceptance gate: one test per criterion, one printed verdict line each.

Criteria 8 and 9 share a module-scoped benchmark (leave-one-domain-out over
all four methods, seeds 0-2, 500 iterations on the shipped generator
defaults); expect a few minutes of CPU for the full module.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from dglab import autodiff as ad
from dglab.autodiff import Tensor, backward, no_grad
from dglab.data import (
    TrainView,
    class_balanced_batches,
    generate_spurious_gaussian,
    leave_one_domain_out,
)
from dglab.losses import SoftLabelBatch, alignment_loss, cross_entropy, objective_parts
from dglab.masking import mask_below_percentile, sample_threshold
from dglab.models import build_mlp, forward
from dglab.saliency import SmoothGradConfig, smoothgrad, vanilla_saliency
from dglab.trainer import TrainConfig, lr_schedule, train
from dglab.evaluation import lodo_experiment


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- criterion 1: gradient correctness ---------------------------------------


def _max_fd_error(loss_fn, tensors, eps=1e-5):
    grads = backward(loss_fn())
    worst = 0.0
    for t in tensors:
        analytic = grads.get(t)
        if analytic is None:
            analytic = np.zeros_like(t.values)
        flat = t.values.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            with no_grad():
                f_plus = float(loss_fn().values)
            flat[i] = original - eps
            with no_grad():
                f_minus = float(loss_fn().values)
            flat[i] = original
            central = (f_plus - f_minus) / (2.0 * eps)
            err = abs(float(analytic.ravel()[i]) - central) / max(1e-8, abs(central))
            worst = max(worst, err)
    return worst


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        depth = int(rng.integers(1, 4))  # 1..3 affine layers
        dims = [int(rng.integers(2, 6)) for _ in range(depth + 1)]
        batch = int(rng.integers(2, 6))
        num_classes = dims[-1] = max(2, dims[-1])
        layers = []
        for i in range(depth):
            layers.append(
                (
                    Tensor(rng.uniform(-1, 1, (dims[i], dims[i + 1]))),
                    Tensor(rng.uniform(-1, 1, dims[i + 1])),
                )
            )
        x = Tensor(rng.uniform(-1, 1, (batch, dims[0])))
        labels = rng.integers(0, num_classes, batch)

        def logits():
            h = x
            for j, (w, b) in enumerate(layers):
                h = ad.affine(h, w, b)
                if j < depth - 1:
                    h = ad.relu(h)
            return h

        tensors = [x] + [t for pair in layers for t in pair]
        losses = {
            "ce": lambda: cross_entropy(logits(), labels),
            "align": lambda: alignment_loss(SoftLabelBatch(ad.softmax_rows(logits()), labels)),
            "total": lambda: objective_parts(logits(), labels, 0.1)[0],
        }
        for fn in losses.values():
            worst = max(worst, _max_fd_error(fn, tensors))
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        worst < 1e-4 and elapsed < 60.0,
        f"max rel error {worst:.3g} (<1e-4) over 100 configs in {elapsed:.1f}s (<60s)",
    )


# -- criterion 2: alignment-loss analytics ------------------------------------


def test_criterion_2_alignment_analytics():
    one_each = SoftLabelBatch(
        Tensor([[0.9, 0.1], [0.3, 0.7]]), np.array([0, 1])
    )
    identical = SoftLabelBatch(
        Tensor([[0.6, 0.4], [0.6, 0.4], [0.6, 0.4]]), np.array([1, 1, 1])
    )
    hand = SoftLabelBatch(Tensor([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0]))
    z1 = float(alignment_loss(one_each).values)
    z2 = float(alignment_loss(identical).values)
    h = float(alignment_loss(hand).values)
    ok = z1 == 0.0 and z2 == 0.0 and abs(h - 0.5) <= 1e-12
    _verdict(2, ok, f"one-per-class {z1}, identical {z2} (both exactly 0), hand case {h} (0.5 +/- 1e-12)")


# -- criterion 3: saliency linear-model identity -------------------------------


def test_criterion_3_linear_saliency_identity():
    model = build_mlp([6], 4, seed=11)
    w = model.params["head_w"].values
    x = np.random.default_rng(12).standard_normal(6)
    ok = True
    for c in range(4):
        vanilla = vanilla_saliency(model, x, c)
        ok = ok and np.array_equal(vanilla, w[:, c] ** 2)
        for n, sigma, seed in [(1, 0.0, 0), (5, 0.15, 3), (25, 0.15, 7), (13, 1.5, 9)]:
            smooth = smoothgrad(model, x, c, SmoothGradConfig(n=n, sigma=sigma, seed=seed))
            ok = ok and np.array_equal(smooth, vanilla)
    _verdict(3, ok, "vanilla == (W_c)^2 elementwise and smoothgrad == vanilla exactly for all (n, sigma, seed)")


# -- criterion 4: masking invariants -------------------------------------------


def test_criterion_4_masking_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    trials = 100_000
    ok = True
    for trial in range(trials):
        dim = 8 + (trial % 17)
        x = rng.standard_normal(dim)
        scores = rng.uniform(0.0, 1.0, dim)
        q1, q2 = np.sort(rng.uniform(0.0, 100.0, 2))
        t1 = np.percentile(scores, q1, method="linear")
        t2 = np.percentile(scores, q2, method="linear")
        m1 = scores < t1
        m2 = scores < t2
        if np.any(m1 & ~m2):  # monotonicity of eligibility
            ok = False
            break
        out = x.copy()
        masked = np.flatnonzero(m2)
        if masked.size > 1:
            out[masked] = out[masked][rng.permutation(masked.size)]
        if not np.array_equal(np.sort(out), np.sort(x)):  # multiset preserved
            ok = False
            break
        if not np.array_equal(out[~m2], x[~m2]):  # >= threshold untouched
            ok = False
            break
    # identity families: q = 0 and constant score maps
    for trial in range(5_000):
        x = rng.standard_normal(10)
        if not np.array_equal(mask_below_percentile(x, rng.uniform(0, 1, 10), 0.0, rng), x):
            ok = False
            break
        if not np.array_equal(
            mask_below_percentile(x, np.full(10, 0.25), float(rng.uniform(0, 100)), rng), x
        ):
            ok = False
            break
    elapsed = time.perf_counter() - started
    _verdict(4, ok and elapsed < 60.0, f"{trials} randomized trials + 2x5000 identity trials in {elapsed:.1f}s (<60s)")


# -- criterion 5: sampler contract ----------------------------------------------


def test_criterion_5_sampler_contract():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((1000, 4))
    y = np.concatenate([np.zeros(990, dtype=np.int64), np.ones(10, dtype=np.int64)])
    stream = class_balanced_batches(TrainView(X=X, y=y), 128, 0.5, np.random.default_rng(8))
    ok = True
    for _ in range(1000):
        _, yb = next(stream)
        counts = np.bincount(yb, minlength=2)
        if counts.sum() != 128 or counts.min() < math.ceil(0.5 * counts.max()):
            ok = False
            break
    _verdict(5, ok, "1000 batches from a 99:1 pool: size exactly 128, minority >= ceil(0.5 x majority)")


# -- criterion 6: schedule exactness ---------------------------------------------


def test_criterion_6_schedule_exactness():
    lrs = [lr_schedule(0.001, i, 2000, 0.1, 0.8) for i in range(2000)]
    ok = all(lr == 0.001 for lr in lrs[:1600]) and all(lr == 0.0001 for lr in lrs[1600:])
    _verdict(6, ok, "lr bitwise 0.001 for iters 0-1599 and 0.0001 for 1600-1999")


# -- criterion 7: domain-free structural check ------------------------------------


def test_criterion_7_domain_free_training_path():
    ds = generate_spurious_gaussian(num_domains=3, classes=3, n_per_domain_class=30, seed=5)
    view, _test = leave_one_domain_out(ds, "d1")
    no_domain_field = set(TrainView.__dataclass_fields__) == {"X", "y"} and not hasattr(
        view, "domain"
    )
    model, history = train(view, TrainConfig(iterations=3, batch_size=12, sg_n=1, hidden=(8,)))
    ok = no_domain_field and model is not None and len(history) == 3
    _verdict(7, ok, "TrainView exposes only {X, y}; training runs on the domain-free LODO view")


# -- criteria 8 & 9: synthetic generalization benchmark ---------------------------


@pytest.fixture(scope="module")
def benchmark_report():
    ds = generate_spurious_gaussian()  # shipped defaults, pre-validated
    cfg = TrainConfig(iterations=500)
    started = time.perf_counter()
    report = lodo_experiment(
        ds,
        cfg,
        methods=["ce_only", "align_only", "mask_only", "alternate"],
        seeds=[0, 1, 2],
        holdout_fraction=0.1,
    )
    report.elapsed = time.perf_counter() - started
    return report


def test_criterion_8_generalization_benchmark(benchmark_report):
    report = benchmark_report
    ce_rows = [r for r in report.rows if r.method == "ce_only"]
    held_in = float(np.mean([v for r in ce_rows for v in r.source_val]))
    ce_target = report.footer["ce_only"]
    dfdg_target = report.footer["alternate"]
    gain = dfdg_target - ce_target
    ok = held_in >= 0.95 and ce_target <= 0.70 and gain >= 0.05 and report.elapsed < 600.0
    _verdict(
        8,
        ok,
        f"ce_only held-in {held_in:.3f} (>=0.95), target {ce_target:.3f} (<=0.70); "
        f"alternate gain {gain * 100:+.2f}pts (>=+5); runtime {report.elapsed:.0f}s (<600s)",
    )


def test_criterion_9_ablation_monotonicity(benchmark_report):
    report = benchmark_report
    ce = report.footer["ce_only"]
    align_delta = report.footer["align_only"] - ce
    mask_delta = report.footer["mask_only"] - ce
    ok = align_delta >= 0.0 and mask_delta >= 0.0
    _verdict(
        9,
        ok,
        f"vs ce_only {ce:.3f}: align_only {align_delta * 100:+.2f}pts, "
        f"mask_only {mask_delta * 100:+.2f}pts (each >= 0)",
    )


# -- criterion 10: CLI determinism --------------------------------------------------


def _run_cli(*args):
    result = subprocess.run(
        [sys.executable, "-m", "dglab.cli", *args], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return result


def test_criterion_10_cli_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"iterations": 6, "batch_size": 12, "sg_n": 2, "hidden": [8]}))
    pairs = []
    for tag in ("a", "b"):
        data_dir = tmp_path / tag / "data"
        run_dir = tmp_path / tag / "run"
        report = tmp_path / tag / "report.json"
        _run_cli(
            "generate", "--kind", "spurious-gaussian", "--out", str(data_dir),
            "--seed", "4", "--num-domains", "3", "--n-per-domain-class", "30",
        )
        _run_cli("train", "--data", str(data_dir), "--config", str(cfg_path), "--out", str(run_dir))
        _run_cli(
            "lodo", "--data", str(data_dir), "--config", str(cfg_path),
            "--methods", "ce_only,alternate", "--seeds", "0,1", "--out", str(report),
        )
        pairs.append(
            (
                (data_dir / "data.csv").read_bytes(),
                (run_dir / "checkpoint.json").read_bytes(),
                report.read_bytes(),
            )
        )
    ok = pairs[0] == pairs[1]
    _verdict(10, ok, "generate/train/lodo byte-identical across repeated runs (data, checkpoint, report)")
