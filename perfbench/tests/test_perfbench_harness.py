"""Tests of the benchmark harness's own logic (not of dglab).

Run with: PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    spans = [
        ("root", 0.0, 10.0, -1, "r"),
        ("a", 1.0, 4.0, 0, "r"),
        ("b", 5.0, 9.0, 0, "r"),
        ("c", 6.0, 8.0, 2, "r"),
        ("a", 11.0, 12.0, -1, "r"),
    ]
    stats = tracing.aggregate(spans)
    assert stats["root"].self_s == pytest.approx(10.0 - 3.0 - 4.0)
    assert stats["b"].self_s == pytest.approx(2.0)
    assert stats["c"].self_s == pytest.approx(2.0)
    assert (stats["a"].calls, stats["a"].total_s, stats["a"].self_s) == (2, 4.0, 4.0)


def test_tracer_records_parent_and_run_id():
    tracer = tracing.Tracer()
    tracer.run_id = "pass0"
    tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    names, parents = tracer.names, tracer.parents
    assert names == ["outer", "inner"] and parents == [-1, 0]
    assert tracer.runs == ["pass0", "pass0"]
    assert all(end >= start for _, start, end, _, _ in tracer.spans)


def test_p90_needs_at_least_100_samples():
    assert set(tracing.percentile_metrics("step_ms", [0.001] * 99)) == {"step_ms_p50"}
    full = tracing.percentile_metrics("step_ms", [i / 1000 for i in range(100)])
    assert set(full) == {"step_ms_p50", "step_ms_p90"}
    assert full["step_ms_p90"] == pytest.approx(89.1)
    assert tracing.percentile_metrics("step_ms", []) == {}


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.END_TO_END
    assert layer == bench.PER_LAYER
    names = [*e2e, *layer, *(w["name"] for w in spec["workloads"])]
    names += [f"step_ms_p90.{k}" for k in ("ce", "align", "mask", "sample")]
    names += [f"target_acc.{m}" for m in workloads.LODO_METHODS.split(",")]
    names += list(bench.DETAIL_UNITS)
    assert all(METRIC_NAME.fullmatch(n) for n in names)
    assert not METRIC_NAME.fullmatch("step ms")
    assert not METRIC_NAME.fullmatch(".hidden")
    kept = set(workloads.WORKLOADS) - set(workloads.KNOWN_FAILING)
    assert {w["name"] for w in spec["workloads"]} == kept


def _tiny_lodo(tmp_path: Path, seed: int = 3) -> list[str]:
    from dglab import cli

    data, cfg = tmp_path / "data", tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iterations": 3, "batch_size": 16, "sg_n": 3}), encoding="utf-8")
    argv = ["generate", "--kind", "spurious-gaussian", "--out", str(data), "--seed", str(seed),
            "--n-per-domain-class", "12", "--num-domains", "2"]
    assert cli.main(argv) == 0
    return ["lodo", "--data", str(data), "--config", str(cfg), "--methods", "ce_only,alternate",
            "--seeds", "0", "--holdout", "0.2", "--out", str(tmp_path / "report.json")]


def test_wrappers_restored_and_report_unchanged_by_tracing(tmp_path, capsys):
    import importlib

    from dglab import cli

    argv = _tiny_lodo(tmp_path)
    originals = {p[:2]: getattr(importlib.import_module(p[0]), p[1]) for p in tracing.WRAP_POINTS}
    assert cli.main(argv) == 0
    plain = (tmp_path / "report.json").read_bytes()

    tracer = tracing.Tracer()
    with tracing.instrument(tracer.wrapper, tracing.WRAP_POINTS):
        assert cli.main(argv) == 0
    assert (tmp_path / "report.json").read_bytes() == plain
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original
    stats = tracing.aggregate(tracer.spans)
    assert stats["cli.main"].calls == 1
    assert stats["evaluation.lodo_experiment"].calls == 1
    assert stats["saliency.smoothgrad"].calls > 0
    assert 0.0 < tracer.counters["autodiff.backward.entries_read"] < tracer.counters["autodiff.backward.entries"]


def test_wrappers_restored_when_the_body_raises():
    import dglab.trainer

    original = dglab.trainer.train_step
    timer = tracing.StepTimer()
    with pytest.raises(RuntimeError):
        with tracing.instrument(timer.wrapper, tracing.STEP_POINTS):
            assert dglab.trainer.train_step is not original
            raise RuntimeError("boom")
    assert dglab.trainer.train_step is original


def test_step_timer_keys_by_strategy(tmp_path):
    from dglab import cli

    argv = _tiny_lodo(tmp_path)
    timer = tracing.StepTimer()
    with tracing.instrument(timer.wrapper, tracing.STEP_POINTS):
        assert cli.main(argv) == 0
    # 2 targets x 3 iterations of ce_only; alternate splits its 6 steps by coin
    assert len(timer.samples["ce"]) == 6
    assert len(timer.samples.get("align", [])) + len(timer.samples.get("mask", [])) == 6


def test_speed_probe_samples_and_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    speed = probe.SpeedProbe()

    def busy():
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        return "done"

    with speed:
        result, spent, scale = speed.measure(busy)
    assert result == "done"
    assert len(speed.samples) >= 3
    assert spent == pytest.approx(sum(speed.samples))
    assert scale == probe.REFERENCE_S / statistics.median(speed.samples)
    assert signal.getsignal(signal.SIGALRM) is before


def test_speed_probe_drops_a_tick_that_arrives_inside_a_tick():
    speed = probe.SpeedProbe()
    speed._busy = True
    speed._tick(None, None)
    assert speed.samples == [] and speed.spent == 0.0
    speed._busy = False
    speed._tick(None, None)
    assert len(speed.samples) == 1
