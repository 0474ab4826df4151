"""Span tracing and step timing for dglab, attached from outside the package.

dglab binds most cross-module names with ``from .x import y``, so a
function is looked up in the *caller's* module namespace. A wrapper only
sees calls if it replaces the name there; ``WRAP_POINTS`` lists every
(call-site module, attribute) pair together with the span name it records.
Operations reached as ``ad.<name>`` are looked up on ``dglab.autodiff``
itself, so patching that module covers them.

Spans stay in memory (name, start, end, parent index and run id, each in
its own flat list, so the garbage collector has no per-span object to
walk) and are written out once the benchmark ends. ``instrument`` swaps
wrappers in and always restores the original objects on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass

import numpy as np

# (call-site module, attribute, span name). One layer function may appear
# under several call sites; all of them record the same span name.
WRAP_POINTS = (
    ("dglab.cli", "main", "cli.main"),
    ("dglab.autodiff", "backward", "autodiff.backward"),
    ("dglab.trainer", "forward", "models.forward"),
    ("dglab.evaluation", "forward", "models.forward"),
    ("dglab.models", "forward", "models.forward"),
    ("dglab.saliency", "class_logit_input_gradients", "models.class_logit_input_gradients"),
    ("dglab.models", "class_logit_input_gradients", "models.class_logit_input_gradients"),
    ("dglab.trainer", "cross_entropy", "losses.cross_entropy"),
    ("dglab.losses", "cross_entropy", "losses.cross_entropy"),
    ("dglab.trainer", "objective_parts", "losses.objective_parts"),
    ("dglab.masking", "smoothgrad", "saliency.smoothgrad"),
    ("dglab.cli", "smoothgrad", "saliency.smoothgrad"),
    ("dglab.cli", "vanilla_saliency", "saliency.vanilla_saliency"),
    ("dglab.trainer", "augment_batch", "masking.augment_batch"),
    ("dglab.masking", "mask_below_percentile", "masking.mask_below_percentile"),
    ("dglab.trainer", "class_balanced_batches", "data.batch_wait"),
    ("dglab.evaluation", "leave_one_domain_out", "data.leave_one_domain_out"),
    ("dglab.cli", "load_dataset", "data.load_dataset"),
    ("dglab.cli", "save_dataset", "data.save_dataset"),
    ("dglab.evaluation", "train", "trainer.train"),
    ("dglab.cli", "train", "trainer.train"),
    ("dglab.trainer", "train_step", "trainer.train_step"),
    ("dglab.cli", "lodo_experiment", "evaluation.lodo_experiment"),
    ("dglab.evaluation", "evaluate", "evaluation.evaluate"),
    ("dglab.cli", "export_features", "evaluation.export_features"),
)

# Thin timers for the untraced runs: train_step latency per strategy, and
# the two per-sample saliency calls of ``saliency-export``.
STEP_POINTS = (
    ("dglab.trainer", "train_step"),
    ("dglab.cli", "vanilla_saliency"),
    ("dglab.cli", "smoothgrad"),
)


@contextlib.contextmanager
def instrument(make_wrapper, points):
    """Replace each (module, attribute) with ``make_wrapper(original, point)``.

    The originals are put back on exit, also when the body raises.
    """
    saved = []
    try:
        for point in points:
            module = importlib.import_module(point[0])
            original = getattr(module, point[1])
            saved.append((module, point[1], original))
            setattr(module, point[1], functools.wraps(original)(make_wrapper(original, point)))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class StepTimer:
    """Per-call durations in seconds, keyed by step kind."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}

    def wrapper(self, original, point):
        attr = point[1]
        clock = time.perf_counter

        if attr == "train_step":
            def timed(model, batch, strategy, *args, **kwargs):
                started = clock()
                try:
                    return original(model, batch, strategy, *args, **kwargs)
                finally:
                    self.samples.setdefault(strategy, []).append(clock() - started)
        else:
            def timed(*args, **kwargs):
                started = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.samples.setdefault(attr, []).append(clock() - started)
        return timed


def percentile_metrics(prefix: str, seconds: list[float]) -> dict[str, float]:
    """p50 (and p90 once at least 100 samples exist) in milliseconds.

    The p90 of fewer than 100 samples rests on fewer than ten samples
    beyond it, so it is left out rather than reported from noise.
    """
    if not seconds:
        return {}
    ms = np.asarray(seconds) * 1e3
    out = {f"{prefix}_p50": float(np.percentile(ms, 50))}
    if ms.size >= 100:
        out[f"{prefix}_p90"] = float(np.percentile(ms, 90))
    return out


@dataclass
class LayerStats:
    calls: int
    total_s: float
    self_s: float


def aggregate(spans) -> dict[str, LayerStats]:
    """Calls, inclusive and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children (children never outlive their parent).
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, LayerStats] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        s = stats.get(name)
        if s is None:
            s = stats[name] = LayerStats(0, 0.0, 0.0)
        s.calls += 1
        s.total_s += end - start
        s.self_s += end - start - child_time[i]
    return stats


class Tracer:
    """Records spans around wrapped layer functions, plus a few counters.

    Counters are measured where the work happens: graph size and the
    gradient entries callers read (backward), rows per call (forward and
    input gradients), and the (scores, q) of each masking call, from which
    the shuffled share is recomputed after the run.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[str] = []
        self.run_id = ""
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.mask_scores: list[np.ndarray] = []
        self.mask_qs: list[float] = []

    @property
    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents, self.runs))

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def call(self, name: str, fn, *args, **kwargs):
        stack, starts, ends = self._stack, self.starts, self.ends
        index = len(starts)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.runs.append(self.run_id)
        ends.append(0.0)
        stack.append(index)
        starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[index] = time.perf_counter()
            stack.pop()

    def wrapper(self, original, point):
        name = point[2]
        call = self.call
        if name == "autodiff.backward":
            counting = _counting_grad_map_class(self)

            def traced(*args, **kwargs):
                grads = call(name, original, *args, **kwargs)
                self.count("autodiff.backward.entries", len(grads))
                grads.__class__ = counting
                grads._read_ids = set()
                return grads
        elif name in ("models.forward", "models.class_logit_input_gradients"):
            def traced(model, x, *args, **kwargs):
                self.count(name + ".rows", int(np.shape(getattr(x, "values", x))[0]))
                return call(name, original, model, x, *args, **kwargs)
        elif name == "trainer.train_step":
            def traced(model, batch, strategy, *args, **kwargs):
                return call(f"{name}.{strategy}", original, model, batch, strategy, *args, **kwargs)
        elif name == "masking.mask_below_percentile":
            def traced(x, sal, q, rng):
                self.mask_scores.append(getattr(sal, "scores", sal))
                self.mask_qs.append(q)
                return call(name, original, x, sal, q, rng)
        elif name == "data.batch_wait":
            def traced(*args, **kwargs):
                return _timed_stream(call, name, original(*args, **kwargs))
        else:
            def traced(*args, **kwargs):
                return call(name, original, *args, **kwargs)
        return traced

    def shuffled_share(self) -> float:
        """Coordinates strictly below their sampled percentile over all coordinates."""
        from dglab.masking import PERCENTILE_METHOD

        below = total = 0
        for scores, q in zip(self.mask_scores, self.mask_qs):
            flat = np.asarray(scores, dtype=np.float64).ravel()
            threshold = np.percentile(flat, q, method=PERCENTILE_METHOD)
            below += int(np.count_nonzero(flat < threshold))
            total += flat.size
        return below / total if total else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,run\n")
            for name, start, end, parent, run in zip(
                self.names, self.starts, self.ends, self.parents, self.runs
            ):
                fh.write(f"{name},{start!r},{end!r},{parent},{run}\n")
        with open(str(path) + ".counters.json", "w", encoding="utf-8") as fh:
            json.dump(self.counters, fh, sort_keys=True, indent=1)


def _timed_stream(call, name, stream):
    """Re-yield an endless batch stream, one span per wait on the next batch."""
    while True:
        yield call(name, next, stream)


def _counting_grad_map_class(tracer: Tracer):
    """A GradMap subclass counting the distinct entries a caller reads."""
    from dglab.autodiff import GradMap

    class CountingGradMap(GradMap):
        def _note(self, tensor):
            key = id(tensor)
            if key in self._entries and key not in self._read_ids:
                self._read_ids.add(key)
                tracer.count("autodiff.backward.entries_read", 1)

        def __getitem__(self, tensor):
            self._note(tensor)
            return super().__getitem__(tensor)

        def get(self, tensor, default=None):
            self._note(tensor)
            return super().get(tensor, default)

        def items(self):
            for tensor, _ in self._entries.values():
                self._note(tensor)
            return super().items()

    return CountingGradMap
