#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics between a base revision and this tree.

For ``--pairs`` pairs (default 10) the script runs

    perfbench/run.py --workload W --seed 1 --seconds 30 --trace 0

(the run length is ``BENCHMARK.json``'s ``run_seconds``) on every workload
``BENCHMARK.json`` lists, once in a copy of the base
revision (unpacked from ``git archive``) and once in the tree this script
sits in (the change, uncommitted edits included), alternating which side
runs first from pair to pair. Every run is a fresh process, so warm-up is
the harness's own and each side's caches start cold alike.

It writes one JSON file. Per workload and per end-to-end metric of
``BENCHMARK.json``: each side's median, quartiles (numpy's linear
percentiles) and runs, how many pairs the change wins (ties count for
neither side), the change's median against the base's, and whether a gain
is resolved: the change wins at least nine tenths of the pairs and the
medians differ by more than the base's interquartile range. Beside them:
the raw (not probe-scaled) ``raw.wall_s`` and ``raw.step_ms_p50``, the
per-strategy ``step_ms_p50.<kind>`` and ``step_ms_p90.<kind>`` detail
lines, the failed share of runs, the order the runs ran in, and machine
information. Nothing under ``perfbench/`` is changed.

    python3 scripts/bench_pairs.py --base HEAD~1 --out BENCH.json
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 1  # the workload seed of every run

# detail lines kept besides the gated metrics, by name or by the part before the first dot
DETAIL = ("raw.wall_s", "raw.step_ms_p50", "run_fail_share", "step_ms_p50.", "step_ms_p90.")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def unpack(rev: str, into: Path) -> None:
    """The files of revision ``rev`` under ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: the metrics it printed, its exit code and its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    values, result = {}, {}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            result = json.loads(line)
        elif not line.startswith("env "):
            name, value, _unit = line.split(" ", 2)
            values[name] = None if value == "None" else float(value)
    return {"exit": proc.returncode, "values": values, "correct": result.get("correct", False),
            "stderr": proc.stderr.strip()[-2000:]}


def spread(runs: list) -> dict:
    measured = [r for r in runs if r is not None]
    if not measured:
        return {"median": None, "q1": None, "q3": None, "iqr": None, "runs": runs}
    q1, median, q3 = np.percentile(measured, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1), "runs": runs}


def compare(base: list, change: list, better: str, bound: float | None) -> dict:
    """Each side's spread, pair wins and the gain rule, for one metric of one
    workload; a run that did not report the metric holds None and its pair
    counts for neither side."""
    sign = 1.0 if better == "lower" else -1.0  # a positive gain is an improvement
    gains = [sign * (b - c) for b, c in zip(base, change) if b is not None and c is not None]
    if len(gains) < len(base):
        return {"base": spread(base), "change": spread(change), "unresolved": "a run did not report the metric"}
    out = {"base": spread(base), "change": spread(change)}
    b_med, c_med = out["base"]["median"], out["change"]["median"]
    out["change_wins"] = sum(g > 0 for g in gains)
    out["base_wins"] = sum(g < 0 for g in gains)
    out["change_vs_base"] = c_med / b_med - 1.0 if b_med else None
    out["gain_resolved"] = (out["change_wins"] >= math.ceil(0.9 * len(gains))
                            and sign * (b_med - c_med) > out["base"]["iqr"])
    if bound is not None:
        out["within_bound"] = sign * (c_med - b_med) <= bound * abs(b_med)
    return out


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"machine": platform.machine(), "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs: dict[str, dict[str, list[dict]]] = {n: {"base": [], "change": []} for n in names}
    order = []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_dir = Path(tmp)
        unpack(args.base, base_dir)
        checkouts = {"base": base_dir, "change": ROOT}
        for pair in range(args.pairs):
            for name in names:
                for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                    started = time.perf_counter()
                    run = run_once(checkouts[side], name, SEED, seconds)
                    runs[name][side].append(run)
                    order.append([pair, name, side])
                    print(f"pair {pair} {name} {side}: exit {run['exit']}, wall_s "
                          f"{run['values'].get('wall_s')}, {time.perf_counter() - started:.0f} s", flush=True)

    workloads = {}
    for name in names:
        sides = runs[name]
        metrics = {
            m["name"]: compare([r["values"].get(m["name"]) for r in sides["base"]],
                               [r["values"].get(m["name"]) for r in sides["change"]],
                               m["better"], m.get("bound"))
            for m in spec["end_to_end"]
        }
        detail_names = sorted({k for r in sides["base"] + sides["change"] for k in r["values"]
                               if any(k == d or (d.endswith(".") and k.startswith(d)) for d in DETAIL)})
        detail = {
            k: {side: float(np.median([r["values"][k] for r in sides[side] if r["values"].get(k) is not None]))
                for side in ("base", "change") if any(r["values"].get(k) is not None for r in sides[side])}
            for k in detail_names
        }
        workloads[name] = {
            "metrics": metrics,
            "detail_medians": detail,
            "failed_runs": {side: sum(not r["correct"] or r["exit"] != 0 for r in sides[side]) for side in sides},
            "stderr_of_failed_runs": [r["stderr"] for side in sides for r in sides[side] if r["exit"] != 0],
        }

    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {seconds} --trace 0",
        "pairs": args.pairs,
        "rule": "change_wins counts pairs the change is better in; gain_resolved needs wins in at least "
                "nine tenths of the pairs and a median difference above the base's interquartile range",
        "base": {"rev": args.base, "commit": git("rev-parse", args.base)},
        "change": {"commit": git("rev-parse", "HEAD"), "uncommitted_edits": dirty},
        "machine": machine(),
        "blas_threads": "pinned to 1 by perfbench/run.py",
        "run_order": order,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all(not w["stderr_of_failed_runs"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
