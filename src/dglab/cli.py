"""Command-line entry point.

Subcommands: generate, train, lodo, ablation, saliency-export,
export-features. Exit codes: 0 success, 1 configuration or contract error
(or a size the host cannot allocate), 2 numeric failure (non-finite loss or
logits).
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import warnings

from .data import (
    DATA_FILE,
    DomainDataset,
    TrainView,
    check_every_class,
    check_finite,
    generate_shifted_waveforms,
    generate_spurious_gaussian,
    load_dataset,
    read_json,
    save_dataset,
    setting_kinds,
    write_cells,
)
from .errors import ConfigError, ContractError, DataFormatError, NumericError
from .evaluation import (
    ablation_grid,
    ablation_text,
    export_features,
    grid_label,
    grid_points,
    lodo_experiment,
    method_configs,
    paired_text,
    run_configs,
)
from .models import load_model, model_batch, save_model
from .saliency import SmoothGradConfig, smoothgrad, vanilla_saliency
from .trainer import MODE_STRATEGIES, TrainConfig, train, write_history

# a path that is missing, a directory where a file is expected (or the
# reverse), or a size the host cannot allocate (numpy's "Unable to allocate
# ..." at the first array of that size) is the user's to fix; an IndexError
# or KeyError is a program bug
USER_ERRORS = (
    ConfigError, ContractError, DataFormatError, FileNotFoundError, IsADirectoryError, NotADirectoryError, MemoryError,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; config errors are exit 1 here
    def error(self, message):
        raise ConfigError(message)

    # argparse takes "-1,2" for an option; no option here starts with a digit, so "-<digit>..." is a value
    def _parse_optional(self, arg_string):
        return None if arg_string[:1] == "-" and arg_string[1:2].isdigit() else super()._parse_optional(arg_string)


def _load_config(path: str | None) -> TrainConfig:
    return TrainConfig.load_json(path) if path else TrainConfig()


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _load_training_data(path: str) -> DomainDataset:
    """The dataset at ``path`` for a command that trains on it. load_dataset
    reads nan and +-inf, but no run can train on them, so the first
    data.csv row holding one is an error here."""
    ds = load_dataset(path)
    check_finite(ds.X, os.path.join(path, DATA_FILE), first_row=2)  # row 1 is the header
    return ds


def _check_out_dir(path: str) -> None:
    """Fail before any work when an output file's path names a directory
    (an existing one, or any path ending in a separator), or when the
    directory it goes into is missing or read-only."""
    if os.path.isdir(path) or not os.path.basename(path):
        raise ConfigError(f"--out {path!r} names a directory, not a file")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"--out {path}: directory {directory} does not exist")
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"--out {path}: directory {directory} is not writable")


def _check_run_dir(path: str) -> None:
    """Fail before any work when the directory ``--out`` names cannot be
    made or written: the path is empty, or it or its nearest existing
    ancestor is not a directory (an existing file, say) or is read-only."""
    if not path:
        raise ConfigError("--out '' names no directory")
    existing = os.path.abspath(path)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"--out {path}: {existing} is not a directory")
    if not os.access(existing, os.W_OK):
        raise ConfigError(f"--out {path}: directory {existing} is not writable")


# mallopt parameter numbers from glibc's malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# glibc's own ceiling for its dynamic mmap threshold on 64-bit hosts, and
# twice that for trimming, the ratio glibc keeps between the two
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 2 * MMAP_THRESHOLD_BYTES


def _libc():
    """The C library of this process, or None where ctypes cannot open it."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


def _pin_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for the rest of the process.

    Left floating, they follow allocation history: the megabytes of
    temporaries a saliency pass frees are handed back to the OS after
    every mask step and faulted in again on the next. Values computed are
    unaffected. A C library without ``mallopt`` (macOS, Windows) is left as is.
    """
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


GENERATORS = {
    "spurious-gaussian": generate_spurious_gaussian,
    "waveforms": generate_shifted_waveforms,
}


def cmd_generate(args) -> int:
    _check_run_dir(args.out)
    # only the flags given reach the generator, so its signature holds every default
    generator = GENERATORS[args.kind]
    given = {k: v for k, v in vars(args).items() if k not in ("command", "func", "kind", "out")}
    for name in given:
        if name not in setting_kinds(generator):
            raise ConfigError(f"--{name.replace('_', '-')} does not apply to --kind {args.kind}")
    ds = generator(**given)
    save_dataset(ds, args.out)
    print(f"wrote {ds.n} rows ({len(ds.domain_names)} domains, {ds.num_classes} classes) to {args.out}")
    return 0


def cmd_train(args) -> int:
    _check_run_dir(args.out)
    cfg = _load_config(args.config)
    ds = _load_training_data(args.data)
    # a class the file lacks would shrink the model's head, as in a LODO source split
    check_every_class(ds.y, ds.num_classes, os.path.join(args.data, DATA_FILE))
    view = TrainView(X=ds.X, y=ds.y)  # whole-file training; domains dropped
    model, records = train(view, cfg)
    os.makedirs(args.out, exist_ok=True)
    save_model(model, os.path.join(args.out, "checkpoint.json"))
    write_history(os.path.join(args.out, "history.csv"), records)
    cfg.save_json(os.path.join(args.out, "config.json"))
    print(f"trained {cfg.iterations} iterations; checkpoint and history in {args.out}")
    return 0


def cmd_lodo(args) -> int:
    _check_out_dir(args.out)
    cfg = _load_config(args.config)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    run_configs(method_configs(cfg, methods), args.seeds, args.holdout)  # every flag, before the data loads
    ds = _load_training_data(args.data)
    report = lodo_experiment(ds, cfg, methods, args.seeds, holdout_fraction=args.holdout)
    report.save_json(args.out)
    print(report.to_text())
    if "ce_only" in methods:
        print(paired_text(report), file=sys.stderr)
    return 0


def cmd_ablation(args) -> int:
    _check_out_dir(args.out)
    cfg = _load_config(args.config)
    grid = read_json(args.grid)
    try:
        points = grid_points(cfg, grid)
    except ConfigError as e:
        raise ConfigError(f"{args.grid}: {e}") from None
    run_configs(points, args.seeds)  # before the data loads
    ds = _load_training_data(args.data)
    report = ablation_grid(ds, cfg, grid, args.seeds)
    report.save_json(args.out)
    print(ablation_text(report))
    baseline = grid_label(0, 0, 0)  # the all-zero point trains plain cross-entropy
    if baseline in points:
        print(paired_text(report, baseline=baseline), file=sys.stderr)
    return 0


def cmd_saliency_export(args) -> int:
    if args.samples < 0:
        raise ConfigError(f"--samples must be >= 0, got {args.samples}")
    _check_out_dir(args.out)
    sg_cfg = SmoothGradConfig(n=args.sg_n, sigma=args.sg_sigma, seed=args.sg_seed)
    model = load_model(args.checkpoint)
    ds = load_dataset(args.data)
    count = min(args.samples, ds.n)
    # a label the checkpoint's head lacks would stop the export after the files before it were written
    beyond = next((k for k, c in enumerate(ds.y[:count].tolist()) if c >= model.num_classes), None)
    if beyond is not None:
        raise ConfigError(
            f"{os.path.join(args.data, DATA_FILE)}: row {beyond + 2}: label {ds.y[beyond]} is not a class"
            f" of the checkpoint, which has {model.num_classes} classes"
        )
    stem, ext = os.path.splitext(args.out)
    ext = ext or ".csv"
    samples = model_batch(model, ds.X)
    for k in range(count):
        sample, label = samples[k], int(ds.y[k])
        vanilla = vanilla_saliency(model, sample, label)
        smooth = smoothgrad(model, sample, label, sg_cfg)
        # tolist() gives Python floats, whose repr is the shortest
        # round-tripping decimal (numpy 2 scalars repr as np.float64(...))
        columns = (range(sample.size), *(a.ravel().tolist() for a in (sample, vanilla, smooth)))
        write_cells(f"{stem}_{k:03d}{ext}", ["index", "value", "vanilla", "smoothgrad"], zip(*columns))
    print(f"wrote {count} per-sample saliency files next to {args.out}")
    return 0


def cmd_export_features(args) -> int:
    _check_out_dir(args.out)
    model = load_model(args.checkpoint)
    ds = load_dataset(args.data)
    export_features(model, ds, args.out)
    print(f"wrote {ds.n} feature rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "generate",
        help="write a synthetic multi-domain dataset",
        description="Unset flags take the chosen generator's defaults; a flag it does not take is an error.",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--kind", choices=list(GENERATORS), required=True)
    p.add_argument("--out", required=True, help="output directory")
    # one flag per generator parameter, parsed as its kind's type (a Seed as an int); the generator checks it
    flags = {name: kind for gen in GENERATORS.values() for name, kind in setting_kinds(gen).items()}
    for name, kind in flags.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=getattr(kind, "__supertype__", kind))
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train on every row of a dataset (domains dropped)")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="TrainConfig JSON; defaults when omitted")
    p.add_argument("--out", required=True, help="run directory for checkpoint.json and history.csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("lodo", help="leave-one-domain-out experiment over methods and seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument(
        "--methods",
        default="ce_only,alternate",
        help=f"comma-separated strategy modes, each one of {', '.join(MODE_STRATEGIES)}",
    )
    p.add_argument("--seeds", type=_int_list, default="0,1,2")
    p.add_argument("--holdout", type=float, default=None, help="in-source validation fraction")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_lodo)

    p = sub.add_parser("ablation", help="grid of (alpha, m, q_max) points, one LODO each")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--grid", required=True, help="JSON list of [alpha, m, q_max] triples")
    p.add_argument("--seeds", type=_int_list, default="0,1,2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("saliency-export", help="per-sample saliency CSVs for the first K samples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--out", required=True, help="base CSV path; files get a _NNN suffix")
    p.add_argument("--sg-n", type=int, default=SmoothGradConfig.n)
    p.add_argument("--sg-sigma", type=float, default=SmoothGradConfig.sigma)
    p.add_argument("--sg-seed", type=int, default=SmoothGradConfig.seed)
    p.set_defaults(func=cmd_saliency_export)

    p = sub.add_parser("export-features", help="penultimate-layer features with domain tags")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_features)

    return parser


def _run(argv) -> tuple[int, str | None]:
    """Run one command: its exit status and, on failure, the one line that says why."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args), None
    except USER_ERRORS as e:
        return 1, f"error: {e}"
    except NumericError as e:
        return 2, f"numeric failure: {e}"


def main(argv=None) -> int:
    # the CLI owns its process, so it alone sets the allocator policy;
    # importing dglab as a library leaves the host's allocator alone
    _pin_heap_thresholds()
    # warnings are held until the command ends: a numeric failure drops the
    # RuntimeWarnings (numpy's floating-point ones) that led up to it and
    # reports itself in one line; every other outcome, a traceback too,
    # shows every warning as it came
    status = message = None
    try:
        with warnings.catch_warnings(record=True) as held:
            status, message = _run(argv)
    finally:
        for w in held:
            if status != 2 or not issubclass(w.category, RuntimeWarning):
                warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
        if message is not None:
            print(message, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
