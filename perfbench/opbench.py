"""Forward and VJP timings of single autodiff operations.

Each operation is first checked with ``dglab.autodiff.grad_check`` on a
small instance, then timed at the training batch size (128 rows) and the
saliency batch size (64 samples x 25 replicates = 1600 rows), using the
layer shapes of the workload's model. The VJP is timed by calling the
closure the operation recorded on its output, so no other node runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

ROWS = (128, 1600)
GRAD_CHECK_TOLERANCE = 1e-4
OPS = (
    "affine",
    "relu",
    "softmax_rows",
    "log_sum_exp_rows",
    "take_per_row",
    "select_rows",
    "mean_rows",
    "conv1d",
    "global_avg_pool",
)


@dataclass(frozen=True)
class OpShapes:
    """Per-sample layer shapes the operations are measured at.

    ``affine`` is the model's first affine layer, ``relu`` acts on the
    output of the largest hidden layer, and the convolution is the model's
    widest conv layer (the cnn1d defaults when the model has none).
    """

    affine_in: int
    affine_out: int
    relu: tuple
    classes: int
    conv_in: int
    conv_out: int
    kernel: int
    length: int


def shapes_for(arch: str, input_shape, num_classes: int, hidden, channels, kernel: int) -> OpShapes:
    if arch == "mlp":
        width = int(np.prod(input_shape))
        return OpShapes(width, int(hidden[0]), (int(max(hidden)),), num_classes,
                        8, 16, 5, 64)
    chans = [int(input_shape[0]), *(int(c) for c in channels)]
    length = int(input_shape[1])
    return OpShapes(chans[-1], num_classes, (chans[-1], length), num_classes,
                    chans[-2], chans[-1], int(kernel), length)


def _cases(ad, s: OpShapes, rows: int, rng):
    """op name -> (function of the first input, [inputs]); first input varies."""
    x_aff = rng.uniform(-1, 1, (rows, s.affine_in))
    w_aff = rng.uniform(-0.5, 0.5, (s.affine_in, s.affine_out))
    b_aff = rng.uniform(-0.5, 0.5, s.affine_out)
    logits = rng.normal(0, 2, (rows, s.classes))
    labels = rng.integers(0, s.classes, rows)
    # keep relu inputs away from the kink so central differences are exact
    relu_in = rng.uniform(0.1, 1.0, (rows, *s.relu)) * rng.choice([-1.0, 1.0], (rows, *s.relu))
    x_conv = rng.uniform(-1, 1, (rows, s.conv_in, s.length))
    w_conv = rng.uniform(-0.5, 0.5, (s.conv_out, s.conv_in, s.kernel))
    b_conv = rng.uniform(-0.5, 0.5, s.conv_out)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    picked = np.flatnonzero(labels == labels[0])
    return {
        "affine": (lambda x: ad.affine(x, w_aff, b_aff), x_aff),
        "relu": (ad.relu, relu_in),
        "softmax_rows": (ad.softmax_rows, logits),
        "log_sum_exp_rows": (ad.log_sum_exp_rows, logits),
        "take_per_row": (lambda x: ad.take_per_row(x, labels), logits),
        "select_rows": (lambda x: ad.select_rows(x, picked), probs),
        "mean_rows": (ad.mean_rows, probs),
        "conv1d": (lambda x: ad.conv1d(x, w_conv, b_conv), x_conv),
        "global_avg_pool": (ad.global_avg_pool, rng.uniform(-1, 1, (rows, s.conv_out, s.length))),
    }


def _median_seconds(fn, budget_s: float = 0.02, max_reps: int = 200) -> float:
    fn()  # warm
    started = time.perf_counter()
    fn()
    probe = time.perf_counter() - started
    reps = max(5, min(max_reps, int(budget_s / max(probe, 1e-7))))
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def grad_check_op(ad, op: str, s: OpShapes, seed: int) -> float:
    """Worst relative error of reverse mode against central differences.

    The op's output is contracted with fixed random weights so every output
    element carries its own gradient. Affine and conv1d are also checked
    with respect to their weights.
    """
    small = OpShapes(3, 4, (2, 3) if len(s.relu) == 2 else (4,), s.classes, 2, 3, 3, 7)
    rng = np.random.default_rng(seed)
    rows = 4

    def check(f, x) -> float:
        weights = ad.Tensor(rng.uniform(0.5, 1.5, np.shape(f(x).values)))
        return ad.grad_check(lambda t: ad.sum_all(ad.mul(f(t), weights)), x, eps=1e-5)

    fn, x = _cases(ad, small, rows, rng)[op]
    worst = check(fn, x)
    if op == "affine":
        xa = rng.uniform(-1, 1, (rows, small.affine_in))
        b = rng.uniform(-1, 1, small.affine_out)
        w = rng.uniform(-1, 1, (small.affine_in, small.affine_out))
        worst = max(worst, check(lambda t: ad.affine(xa, t, b), w))
    elif op == "conv1d":
        xc = rng.uniform(-1, 1, (rows, small.conv_in, small.length))
        b = rng.uniform(-1, 1, small.conv_out)
        w = rng.uniform(-1, 1, (small.conv_out, small.conv_in, small.kernel))
        worst = max(worst, check(lambda t: ad.conv1d(xc, t, b), w))
    return worst


def run_op_benchmarks(ad, s: OpShapes, seed: int):
    """Return (metrics, failed op names). A failed grad check skips that op's timing."""
    metrics: dict[str, float] = {}
    failed: list[str] = []
    for op in OPS:
        if not grad_check_op(ad, op, s, seed) < GRAD_CHECK_TOLERANCE:
            failed.append(op)
            continue
        for rows in ROWS:
            fn, x = _cases(ad, s, rows, np.random.default_rng(seed))[op]
            leaf = ad.Tensor(x)
            out = fn(leaf)
            g = np.random.default_rng(seed + 1).uniform(-1, 1, out.values.shape)
            metrics[f"autodiff.{op}.fwd_us.{rows}"] = _median_seconds(lambda: fn(leaf)) * 1e6
            # the closure the op recorded on its output: its VJP and nothing else
            metrics[f"autodiff.{op}.vjp_us.{rows}"] = _median_seconds(lambda: out._vjp(g)) * 1e6
    rows = ROWS[-1]
    flops = {
        "affine": 2.0 * rows * s.affine_in * s.affine_out,
        "conv1d": 2.0 * rows * s.conv_out * s.length * s.conv_in * s.kernel,
    }
    for op, count in flops.items():
        key = f"autodiff.{op}.fwd_us.{rows}"
        if key in metrics:
            metrics[f"autodiff.{op}.gflops.{rows}"] = count / (metrics[key] * 1e-6) / 1e9
    return metrics, failed
