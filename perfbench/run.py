"""dglab benchmark: end-to-end timings, or a traced per-layer split, of one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lodo-gauss-mlp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every command of a workload runs in this process through
``dglab.cli.main``, with the BLAS thread count pinned before numpy loads.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics (end-to-end ones with
``--trace 0``, per-layer ones with ``--trace 1``). Lines above it name
every metric with its unit, including the per-strategy step latencies and
accuracies that not every workload has. The exit code is 0 only when every
command succeeded and every output check passed.
"""

from __future__ import annotations

import os
import sys
import time

IMPORT_STARTED = time.perf_counter()
BLAS_THREADS = 1  # no higher than nproc; one thread keeps timings steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import opbench  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3

# name -> unit, for the JSON line of an untraced run (BENCHMARK.json "end_to_end")
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "setup_s": "s",
}

# name -> unit, for the JSON line of a traced run (BENCHMARK.json "per_layer")
PER_LAYER = {
    "autodiff.backward.calls": "count",
    "autodiff.backward.ms": "ms",
    "autodiff.backward.nodes_per_call": "count",
    "autodiff.backward.useful_grad_share": "ratio",
    **{
        f"autodiff.{op}.{kind}.{rows}": "us"
        for op in opbench.OPS
        for rows in opbench.ROWS
        for kind in ("fwd_us", "vjp_us")
    },
    "autodiff.affine.gflops.1600": "GFLOP/s",
    "autodiff.conv1d.gflops.1600": "GFLOP/s",
    "models.forward.calls": "count",
    "models.forward.ms": "ms",
    "models.forward.rows_per_call": "rows",
    "models.class_logit_input_gradients.calls": "count",
    "models.class_logit_input_gradients.ms": "ms",
    "models.class_logit_input_gradients.rows_per_call": "rows",
    "losses.cross_entropy.ms": "ms",
    "losses.objective_parts.ms": "ms",
    "saliency.smoothgrad.calls": "count",
    "saliency.smoothgrad.ms": "ms",
    "saliency.smoothgrad.mask_step_share": "ratio",
    "masking.augment_batch.ms": "ms",
    "masking.mask_below_percentile.calls": "count",
    "masking.mask_below_percentile.self_ms": "ms",
    "masking.mask_below_percentile.mask_step_share": "ratio",
    "masking.shuffled_share": "ratio",
    "data.batch_wait_ms": "ms",
    "data.leave_one_domain_out.ms": "ms",
    "data.load_dataset.ms": "ms",
    "trainer.train.ms": "ms",
    "trainer.train_step.calls": "count",
    "trainer.train_step.self_ms": "ms",
    "evaluation.lodo_experiment.self_ms": "ms",
    "evaluation.evaluate.ms": "ms",
    "cli.main.self_ms": "ms",
    "setup.data.save_dataset.ms": "ms",
    "setup.data.load_dataset.ms": "ms",
    "setup.trainer.train.ms": "ms",
    "trace.overhead_share": "ratio",
}

# reported by name above the JSON line wherever a workload has them; keyed
# by full name or by the part before the first dot
DETAIL_UNITS = {"step_ms_p50": "ms", "step_ms_p90": "ms", "target_acc": "share",
                "heldin_acc": "share", "run_fail_share": "share", "import_s": "s",
                "passes": "count", "saliency.vanilla_saliency.ms": "ms",
                "evaluation.export_features.ms": "ms", "raw.wall_s": "s",
                "raw.step_ms_p50": "ms", "raw.step_ms_p90": "ms", "raw.setup_s": "s",
                "probe.kernel_us": "us"}


class BenchError(Exception):
    """The benchmark cannot run here (no dglab source, unknown workload)."""


def import_dglab():
    """Import dglab from ``<checkout>/src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "dglab" / "__init__.py").is_file():
        raise BenchError(f"no dglab source under {src}")
    sys.path.insert(0, str(src))
    import dglab.autodiff
    import dglab.cli

    if Path(dglab.__file__).resolve().parent != (src / "dglab").resolve():
        raise BenchError(f"imported dglab from {dglab.__file__}, not from {src}")
    return dglab


class Session:
    """One benchmark process: runs commands and counts attempts and failures."""

    def __init__(self, dglab, workload: workloads.Workload, work: Path, seed: int):
        self.cli = dglab.cli
        self.ad = dglab.autodiff
        self.w = workload
        self.paths = workloads.Paths(work)
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.pass_wall_s: dict[str, list[float]] = {"untraced": [], "traced": []}

    def record(self, problems: list[str]) -> None:
        """One attempted command or check; any problem makes it one failure."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    def run(self, argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        self.record([f"dglab {argv[0]} exited {code}: {err.getvalue().strip()}"] if code else [])

    def setup(self) -> float:
        started = time.perf_counter()
        for argv in workloads.setup_commands(self.w, self.paths, self.seed):
            self.run(argv)
        return time.perf_counter() - started

    def timed_pass(self, kind: str = "untraced") -> tuple[float, float]:
        wall, cpu = time.perf_counter(), time.process_time()
        for argv in workloads.pass_commands(self.w, self.paths):
            self.run(argv)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        self.pass_wall_s[kind].append(wall)
        return wall, cpu


class PassChecker:
    """First pass: full output validation. Later passes: byte-identical outputs."""

    def __init__(self, session: Session):
        self.session = session
        self.digest: str | None = None
        self.accuracy: dict = {}

    def check(self) -> None:
        s = self.session
        if s.problems:
            return
        digest = workloads.output_digest(s.w, s.paths)
        if self.digest is None:
            self.digest = digest
            self.accuracy, problems = workloads.check_outputs(s.w, s.paths)
            s.record(problems)
        else:
            s.record([] if digest == self.digest else ["outputs differ between passes"])


def measure_untraced(s: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed (see probe.py); raw ones as detail."""
    import_s = time.perf_counter() - IMPORT_STARTED
    checker = PassChecker(s)
    timer = tracing.StepTimer()
    speed = probe.SpeedProbe()
    setups, walls, cpus, raw_walls = [], [], [], []
    scaled: dict[str, list[float]] = {}
    with speed:
        for _ in range(SETUP_REPEATS):
            raw, spent, scale = speed.measure(s.setup)
            setups.append(((raw - spent) * scale, raw - spent, scale))
        started = time.perf_counter()
        with tracing.instrument(timer.wrapper, tracing.STEP_POINTS):
            while not s.problems:
                before = {kind: len(v) for kind, v in timer.samples.items()}
                (wall, cpu), spent, scale = speed.measure(s.timed_pass)
                checker.check()
                raw_walls.append(wall - spent)
                walls.append((wall - spent) * scale)
                cpus.append((cpu - spent) * scale)
                for kind, v in timer.samples.items():
                    scaled.setdefault(kind, []).extend(x * scale for x in v[before.get(kind, 0):])
                elapsed = time.perf_counter() - started
                if elapsed + statistics.median(raw_walls) > seconds and len(
                    _step_seconds(scaled).get(s.w.headline, [])
                ) >= 100:
                    break
                if elapsed > 6 * seconds:  # too slow a host for 100 headline steps
                    break
    steps = _step_metrics(_step_seconds(scaled))
    raw_steps = _step_metrics(_step_seconds(timer.samples))
    setup_scale = statistics.median(scale for _, _, scale in setups)
    gated = {
        "wall_s": _median(walls),
        "cpu_s": _median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "step_ms_p50": steps.get(f"step_ms_p50.{s.w.headline}"),
        "step_ms_p90": steps.get(f"step_ms_p90.{s.w.headline}"),
        "setup_s": import_s * setup_scale + statistics.median(norm for norm, _, _ in setups),
    }
    detail = {
        **steps,
        **checker.accuracy,
        "raw.wall_s": _median(raw_walls),
        "raw.step_ms_p50": raw_steps.get(f"step_ms_p50.{s.w.headline}"),
        "raw.step_ms_p90": raw_steps.get(f"step_ms_p90.{s.w.headline}"),
        "raw.setup_s": import_s + statistics.median(raw for _, raw, _ in setups),
        "probe.kernel_us": 1e6 * statistics.median(speed.samples),
        "import_s": import_s,
        "passes": len(walls),
    }
    return gated, detail


def _median(values):
    return statistics.median(values) if values else None


def _step_seconds(samples: dict[str, list[float]]) -> dict[str, list[float]]:
    samples = dict(samples)
    vanilla = samples.pop("vanilla_saliency", [])
    smooth = samples.pop("smoothgrad", [])
    if vanilla:
        # saliency-export computes both maps per sample, vanilla first
        samples["sample"] = [a + b for a, b in zip(vanilla, smooth)]
    return samples


def _step_metrics(samples: dict[str, list[float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for kind, seconds in sorted(samples.items()):
        for name, value in tracing.percentile_metrics("step_ms", seconds).items():
            out[f"{name}.{kind}"] = value
    return out


def measure_traced(s: Session, seconds: float) -> tuple[dict, dict, tracing.Tracer]:
    originals = {p[:2]: getattr(sys.modules[p[0]], p[1]) for p in tracing.WRAP_POINTS}
    setup_tracer = tracing.Tracer()
    setup_tracer.run_id = "setup"
    with tracing.instrument(setup_tracer.wrapper, tracing.WRAP_POINTS):
        s.setup()

    shapes = _op_shapes(s)
    op_metrics, failed_ops = opbench.run_op_benchmarks(s.ad, shapes, s.seed)
    for op in opbench.OPS:
        s.record([f"grad_check failed for autodiff.{op}"] if op in failed_ops else [])

    checker = PassChecker(s)
    timer, tracer = tracing.StepTimer(), tracing.Tracer()
    plain, traced = [], []
    started = time.perf_counter()
    while not s.problems:
        # untraced passes carry the same thin step timer as a --trace 0 run,
        # so the traced/untraced difference is the tracing alone
        with tracing.instrument(timer.wrapper, tracing.STEP_POINTS):
            plain.append(s.timed_pass()[0])
        checker.check()
        tracer.run_id = f"pass{len(traced)}"
        with tracing.instrument(tracer.wrapper, tracing.WRAP_POINTS):
            traced.append(s.timed_pass("traced")[0])
        checker.check()
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    s.record([f"{module}.{attr} was not restored after tracing"
              for (module, attr), original in originals.items()
              if getattr(sys.modules[module], attr) is not original])

    metrics = layer_metrics(tracer, setup_tracer, max(len(traced), 1))
    metrics.update(op_metrics)
    if plain and traced:
        metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    detail = {"passes": len(traced)}
    return metrics, detail, tracer


def _op_shapes(s: Session) -> opbench.OpShapes:
    meta = json.loads((s.paths.data / "meta.json").read_text(encoding="utf-8"))
    cfg = s.cli.TrainConfig.from_json_dict(s.w.config)
    return opbench.shapes_for(cfg.arch, meta["input_shape"], meta["num_classes"],
                              cfg.hidden, cfg.channels, cfg.kernel)


def layer_metrics(tracer: tracing.Tracer, setup_tracer: tracing.Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass; layers a workload never calls read 0."""
    stats = tracing.aggregate(tracer.spans)
    setup_stats = tracing.aggregate(setup_tracer.spans)
    counters = tracer.counters

    def pick(name, field, table=stats):
        st = table.get(name)
        return getattr(st, field) if st is not None else 0

    def calls(name):
        return pick(name, "calls") / passes

    def ms(name):
        return pick(name, "total_s") * 1e3 / passes

    def setup_ms(name):
        return pick(name, "total_s", setup_stats) * 1e3

    def self_ms(name):
        return pick(name, "self_s") * 1e3 / passes

    def ratio(a, b):
        return a / b if b else 0.0

    step_names = [n for n in stats if n.startswith("trainer.train_step.")]
    mask_step_ms = ms("trainer.train_step.mask") + ms("trainer.train_step.combined")
    m = {
        "autodiff.backward.calls": calls("autodiff.backward"),
        "autodiff.backward.ms": ms("autodiff.backward"),
        "autodiff.backward.nodes_per_call": ratio(
            counters.get("autodiff.backward.entries", 0), pick("autodiff.backward", "calls")),
        "autodiff.backward.useful_grad_share": ratio(
            counters.get("autodiff.backward.entries_read", 0),
            counters.get("autodiff.backward.entries", 0)),
        "saliency.smoothgrad.mask_step_share": ratio(ms("saliency.smoothgrad"), mask_step_ms),
        "masking.mask_below_percentile.mask_step_share": ratio(
            ms("masking.mask_below_percentile"), mask_step_ms),
        "masking.shuffled_share": tracer.shuffled_share(),
        "data.batch_wait_ms": ms("data.batch_wait"),
        "trainer.train_step.calls": sum(calls(n) for n in step_names),
        "trainer.train_step.self_ms": sum(self_ms(n) for n in step_names),
        "setup.data.save_dataset.ms": setup_ms("data.save_dataset"),
        "setup.data.load_dataset.ms": setup_ms("data.load_dataset"),
        "setup.trainer.train.ms": setup_ms("trainer.train"),
    }
    for layer in ("models.forward", "models.class_logit_input_gradients"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.ms"] = ms(layer)
        m[f"{layer}.rows_per_call"] = ratio(counters.get(layer + ".rows", 0), pick(layer, "calls"))
    for layer in ("losses.cross_entropy", "losses.objective_parts", "saliency.smoothgrad",
                  "saliency.vanilla_saliency", "masking.augment_batch",
                  "data.leave_one_domain_out", "data.load_dataset", "trainer.train",
                  "evaluation.evaluate", "evaluation.export_features"):
        m[f"{layer}.ms"] = ms(layer)
    m["saliency.smoothgrad.calls"] = calls("saliency.smoothgrad")
    m["masking.mask_below_percentile.calls"] = calls("masking.mask_below_percentile")
    for layer in ("masking.mask_below_percentile", "evaluation.lodo_experiment", "cli.main"):
        m[f"{layer}.self_ms"] = self_ms(layer)
    return m


def environment(args, workload: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_one(args, dglab) -> int:
    w = workloads.WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK_ROOT / tag
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    s = Session(dglab, w, work, args.seed)
    try:
        if args.trace:
            metrics, detail, tracer = measure_traced(s, args.seconds)
            tracer.write(results / f"{tag}.spans.csv")
            units = PER_LAYER
        else:
            metrics, detail = measure_untraced(s, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [n for n in units if metrics.get(n) is None]
    s.record([f"metric {n} was not measured" for n in missing])
    failed = s.failed
    detail["run_fail_share"] = failed / s.attempted
    env = environment(args, w.name)

    for problem in s.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, value in sorted({**detail, **metrics}.items()):
        unit = units.get(name) or DETAIL_UNITS.get(name) or DETAIL_UNITS[name.split(".")[0]]
        print(f"{name} {value!r} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": s.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n not in missing},
    }
    (results / f"{tag}.json").write_text(
        json.dumps({**result, "detail": detail, "env": env, "problems": s.problems,
                    "pass_wall_s": s.pass_wall_s},
                   sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in (n for n in workloads.WORKLOADS if n not in workloads.KNOWN_FAILING):
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        dglab = import_dglab()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return run_one(args, dglab)


if __name__ == "__main__":
    sys.exit(main())
