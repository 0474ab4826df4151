"""Leave-one-domain-out experiments, seed averaging, ablation grids, exports.

Every cell of a report is one full training run: pick a target domain,
train on the remaining domains through the domain-free view, evaluate on
the target. Reports carry per-seed accuracies and a fingerprint of the
configuration plus dataset metadata; per-cell means and the per-method
average over targets are computed from the accuracies. Reports are pure
functions of (dataset, config, seeds).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import no_grad
from .data import (
    DomainDataset,
    check_every_class,
    check_finite,
    check_holdout_fraction,
    holdout_rows,
    leave_one_domain_out,
    split_holdout,
    target_rows,
    write_json,
    write_rows,
)
from .errors import ConfigError, ContractError, NumericError
from .models import Model, features, forward, head_weight, model_batch, row_chunks
from .trainer import MODE_STRATEGIES, STRATEGY_ALIGN, STRATEGY_CE, STRATEGY_MASK, TrainConfig, train

REPORT_FORMAT = "dglab-report-v1"


@dataclass
class ReportRow:
    """One (target domain, method) cell with its per-seed accuracies."""

    target: str
    method: str
    accuracies: list[float]
    source_val: list[float] | None = None

    @property
    def mean(self) -> float:
        return math.fsum(self.accuracies) / len(self.accuracies)


@dataclass
class RunReport:
    """Rows per (target, method), per-method averages, and a config fingerprint."""

    rows: list[ReportRow]
    fingerprint: str
    seeds: list[int]
    grid: list | None = None

    def __post_init__(self):
        counts = {len(r.accuracies) for r in self.rows}
        if len(counts) > 1:
            raise ContractError(f"uneven seed counts across cells: {sorted(counts)}")

    @property
    def footer(self) -> dict[str, float]:
        """Each method's cell means averaged over its targets."""
        methods = dict.fromkeys(r.method for r in self.rows)
        cells = {m: [r.mean for r in self.rows if r.method == m] for m in methods}
        return {m: math.fsum(means) / len(means) for m, means in cells.items()}

    def cell(self, target: str, method: str) -> ReportRow:
        for r in self.rows:
            if r.target == target and r.method == method:
                return r
        raise KeyError(f"no report cell for ({target}, {method})")

    def to_json_dict(self) -> dict:
        doc = {
            "format": REPORT_FORMAT,
            "fingerprint": self.fingerprint,
            "seeds": list(self.seeds),
            "rows": [
                {
                    "target": r.target,
                    "method": r.method,
                    "accuracies": r.accuracies,
                    "mean": r.mean,
                    **({"source_val": r.source_val} if r.source_val is not None else {}),
                }
                for r in self.rows
            ],
            "footer": self.footer,
        }
        if self.grid is not None:
            doc["grid"] = self.grid
        return doc

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict(), indent=2)

    def to_text(self) -> str:
        """Aligned accuracy table, targets as rows and methods as columns."""
        methods = list(dict.fromkeys(r.method for r in self.rows))
        targets = list(dict.fromkeys(r.target for r in self.rows))
        width = max(12, max((len(m) for m in methods), default=0) + 2)
        # the cells' own padding parts a name as long as this column from them
        first = max([10, *map(len, targets)])
        lines = ["Target".ljust(first) + "".join(m.rjust(width) for m in methods)]
        for t in targets:
            cells = [f"{self.cell(t, m).mean * 100:.2f}".rjust(width) for m in methods]
            lines.append(t.ljust(first) + "".join(cells))
        footer_cells = [f"{self.footer[m] * 100:.2f}".rjust(width) for m in methods]
        lines.append("Avg".ljust(first) + "".join(footer_cells))
        return "\n".join(lines)


@dataclass
class PairedDifference:
    """One method's target accuracy against a baseline's, paired by seed and
    target, as accuracy fractions."""

    mean: float  # mean over seeds of the seed's target-averaged difference
    stderr: float | None  # that mean's standard error over seeds; None below 2 seeds
    per_target: dict[str, float]  # each target's difference, averaged over seeds
    worst_target: str  # the target with the method's lowest cell mean
    worst_accuracy: float


def paired_summary(report: RunReport, baseline: str = "ce_only") -> dict[str, PairedDifference]:
    """Each method's accuracy difference to ``baseline``, the baseline included.

    A seed fixes every method's initial model and generator seeds, so
    differences are taken seed by seed: seed s contributes the mean over targets of
    acc(method, s) - acc(baseline, s), and the standard error is that of
    the mean of these per-seed values (sample standard deviation over
    sqrt(seeds)). The worst target's accuracy is the lowest cell mean.
    """
    methods = list(dict.fromkeys(r.method for r in report.rows))
    targets = list(dict.fromkeys(r.target for r in report.rows))
    if baseline not in methods:
        raise ContractError(f"paired_summary: the report has no {baseline!r} rows")
    summary = {}
    for method in methods:
        diffs = {
            t: [a - b for a, b in zip(report.cell(t, method).accuracies, report.cell(t, baseline).accuracies)]
            for t in targets
        }
        per_seed = [math.fsum(seed_diffs) / len(targets) for seed_diffs in zip(*diffs.values())]
        mean = math.fsum(per_seed) / len(per_seed)
        stderr = None
        if len(per_seed) > 1:
            variance = math.fsum((d - mean) ** 2 for d in per_seed) / (len(per_seed) - 1)
            stderr = math.sqrt(variance / len(per_seed))
        worst = min(targets, key=lambda t: report.cell(t, method).mean)
        per_target = {t: math.fsum(d) / len(d) for t, d in diffs.items()}
        summary[method] = PairedDifference(mean, stderr, per_target, worst, report.cell(worst, method).mean)
    return summary


def paired_text(report: RunReport, baseline: str = "ce_only") -> str:
    """``paired_summary`` as a table in accuracy points: the mean difference,
    its standard error, each target's difference and the worst target."""
    summary = paired_summary(report, baseline)
    targets = list(next(iter(summary.values())).per_target)
    width = max(12, max(len(m) for m in summary) + 2)
    # a space before each target's name parts it from the column on its left
    cell = max([9, *(len(t) + 1 for t in targets)])
    seeds = len(report.rows[0].accuracies)
    lines = [
        f"paired difference to {baseline} in points over {seeds} seed{'s' if seeds > 1 else ''}"
        " (mean, standard error, per target), and the worst target",
        "Method".ljust(width) + f"{'diff':>8}{'se':>7}" + "".join(f"{t:>{cell}}" for t in targets) + "   worst",
    ]
    for method, d in summary.items():
        se = "-" if d.stderr is None else f"{d.stderr * 100:.2f}"
        cells = "".join(f"{v * 100:+{cell}.2f}" for v in d.per_target.values())
        worst = f"{d.worst_target} {d.worst_accuracy * 100:.2f}"
        lines.append(method.ljust(width) + f"{d.mean * 100:+8.2f}{se:>7}" + cells + f"   {worst}")
    return "\n".join(lines)


def evaluate(model: Model, view) -> float:
    """Fraction of the rows of ``view``, anything with ``X`` and ``y`` (a
    ``TrainView`` or a ``DomainDataset``), whose highest logit matches the label."""
    if len(view.y) == 0:
        raise ContractError("evaluate: empty test set")
    batch = model_batch(model, view.X)
    predictions = np.empty(len(batch), dtype=np.intp)
    with no_grad():
        for rows in row_chunks(model, batch):
            # argmax ties resolve to the lowest class
            predictions[rows] = np.argmax(forward(model, batch[rows]).values, axis=1)
    return float(np.mean(predictions == view.y))


def _dataset_meta(ds: DomainDataset) -> dict:
    digest = hashlib.sha256()
    digest.update(ds.X.tobytes())
    digest.update(ds.y.tobytes())
    digest.update(",".join(map(str, ds.domain.tolist())).encode("utf-8"))
    return {
        "num_classes": int(ds.num_classes),
        "input_shape": [int(d) for d in ds.input_shape],
        "domains": list(ds.domain_names),
        "rows": int(ds.n),
        "content_sha256": digest.hexdigest(),
    }


def _fingerprint(cfg: TrainConfig, ds: DomainDataset, extra: dict) -> str:
    doc = {"config": cfg.to_json_dict(), "dataset": _dataset_meta(ds), **extra}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def run_configs(configs: dict[str, TrainConfig], seeds: list[int], holdout_fraction: float | None = None) -> dict:
    """Each labelled config's run configs, one per seed: every check of an experiment that needs no data."""
    if not seeds:
        raise ConfigError("a leave-one-domain-out experiment needs at least one seed")
    runs = {label: [replace(c, seed=s) for s in seeds] for label, c in configs.items()}
    # a repeated seed would count twice in a mean
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"duplicate seeds in {[int(s) for s in seeds]}")
    if holdout_fraction is not None:
        check_holdout_fraction(holdout_fraction)
    return runs


def _lodo_report(
    ds: DomainDataset, cfg: TrainConfig, configs: dict[str, TrainConfig], seeds: list[int],
    holdout_fraction: float | None = None, grid: list | None = None,
) -> RunReport:
    """Report every (target domain, labelled config, seed) cell, trained target
    by target and listed point by point for an ablation ``grid``. Every run's
    config and each target's source split labels are checked before the first
    run trains."""
    runs = run_configs(configs, seeds, holdout_fraction)
    seeds = [int(s) for s in seeds]

    # a target domain's row is checked too: argmax scores a nan logit row as class 0
    check_finite(ds.X, "dataset")
    if not ds.domain_names:  # no target would run; target_rows rejects a lone domain
        raise ConfigError("leave_one_domain_out needs at least 2 domains")
    after = "" if holdout_fraction is None else " after the holdout split"
    for target in ds.domain_names:
        labels = ds.y[~target_rows(ds, target)]
        if holdout_fraction is not None:
            # every seed's split keeps n_c - max(1, round(f * n_c)) rows of class c, so one seed checks all
            labels = labels[holdout_rows(labels, holdout_fraction, seeds[0])[0]]
        # a class the source split lacks would break batching or shrink the head
        check_every_class(labels, ds.num_classes, f"target={target}: the source split", after)

    rows = [row for target in ds.domain_names for row in _train_target(ds, target, runs, seeds, holdout_fraction)]
    if grid is not None:
        rows.sort(key=lambda r: list(configs).index(r.method))
    extra = {"methods": list(configs)} if grid is None else {"grid": grid}
    return RunReport(rows, _fingerprint(cfg, ds, {**extra, "seeds": seeds}), seeds, grid)


def _train_target(
    ds: DomainDataset, target: str, runs: dict[str, list[TrainConfig]], seeds: list[int],
    holdout_fraction: float | None,
) -> list[ReportRow]:
    """Train and score every run of one target domain, one row per label. Runs go
    seed by seed, and a seed's holdout split is dropped before the next one's is built."""
    train_view, test = leave_one_domain_out(ds, target)
    rows = [ReportRow(target, label, [], None if holdout_fraction is None else []) for label in runs]
    for seed, seed_cfgs in zip(seeds, zip(*runs.values())):
        view, val_view = split_holdout(train_view, holdout_fraction, seed) if holdout_fraction else (train_view, None)
        for row, run_cfg in zip(rows, seed_cfgs):
            try:
                model, _history = train(view, run_cfg)
            except NumericError as e:
                raise NumericError(f"target={target} method={row.method} seed={seed}: {e}") from e
            row.accuracies.append(evaluate(model, test))
            if val_view is not None:
                row.source_val.append(evaluate(model, val_view))
        del view, val_view
    return rows


def method_configs(cfg: TrainConfig, methods: list[str]) -> dict[str, TrainConfig]:
    """Each method's config by name: ``cfg`` with that strategy mode."""
    if not methods:
        raise ConfigError("a leave-one-domain-out experiment needs at least one method")
    # a repeated method would count twice in the footer
    if len(set(methods)) < len(methods):
        raise ConfigError(f"duplicate methods in {list(methods)}")
    return {m: replace(cfg, strategy_mode=m) for m in methods}


def lodo_experiment(
    ds: DomainDataset, cfg: TrainConfig, methods: list[str], seeds: list[int],
    holdout_fraction: float | None = None,
) -> RunReport:
    """Train and evaluate every (target domain, method, seed) cell.

    With ``holdout_fraction`` set, each run also reports accuracy on a
    stratified in-source validation split (trained on the remainder).
    """
    return _lodo_report(ds, cfg, method_configs(cfg, methods), seeds, holdout_fraction)


# the TrainConfig fields a grid point sets, in point order, with their report headers
GRID_FIELDS = {"alpha": "alpha", "m_percent": "m", "q_max": "qMax"}


def _grid_mode(cfg: TrainConfig) -> str:
    """The strategy mode that runs exactly the strategies a grid point weighs:
    align when alpha is non-zero, mask when m is, plain cross-entropy when neither.

    A zeroed strategy is not merely weightless, it is switched off, so the
    all-zero point reproduces plain cross-entropy training exactly.
    """
    weighed = {s for s, w in ((STRATEGY_ALIGN, cfg.alpha), (STRATEGY_MASK, cfg.m_percent)) if w != 0} or {STRATEGY_CE}
    return next(mode for mode, strategies in MODE_STRATEGIES.items() if set(strategies) == weighed)


def _grid_cells(point) -> list[str]:
    """A point's values as reports show them: zero as '-'."""
    return ["-" if v == 0 else f"{v:g}" for v in point]


def grid_label(*point: float) -> str:
    return " ".join(f"{header}={cell}" for header, cell in zip(GRID_FIELDS.values(), _grid_cells(point)))


def grid_points(base_cfg: TrainConfig, grid) -> dict[str, TrainConfig]:
    """Each [alpha, m, q_max] point's run config, by label, in grid order.

    The grid must be a nonempty list of triples. TrainConfig checks each value
    as written, as the field it sets; run configs hold it as a float. No two
    points may share a label (a report keys its rows and footer by label)."""
    if not isinstance(grid, (list, tuple)) or not all(
        isinstance(p, (list, tuple)) and len(p) == len(GRID_FIELDS) for p in grid
    ):
        raise ConfigError("expected a list of [alpha, m, q_max] number triples")
    if not grid:
        raise ConfigError("empty grid")
    points: dict[str, TrainConfig] = {}
    for point in grid:
        checked = replace(base_cfg, **dict(zip(GRID_FIELDS, point)))
        values = {name: float(getattr(checked, name)) for name in GRID_FIELDS}
        label = grid_label(*values.values())
        if label in points:
            raise ConfigError(f"two grid points share the label {label!r}")
        points[label] = replace(checked, **values, strategy_mode=_grid_mode(checked))
    return points


def ablation_grid(ds: DomainDataset, base_cfg: TrainConfig, grid: list, seeds: list[int]) -> RunReport:
    """One LODO cell per (target, (alpha, m, q_max) point, seed), rows listed point by point."""
    points = grid_points(base_cfg, grid)
    grid = [[getattr(c, name) for name in GRID_FIELDS] for c in points.values()]
    return _lodo_report(ds, base_cfg, points, seeds, grid=grid)


def ablation_text(report: RunReport) -> str:
    """Hyperparameter table with zeros shown as '-', one row per grid point."""
    if report.grid is None:
        raise ContractError("ablation_text needs a report produced by ablation_grid")
    lines = [" ".join(f"{header:>8}" for header in GRID_FIELDS.values()) + f" {'avg accuracy (%)':>18}"]
    for point in report.grid:
        accuracy = report.footer[grid_label(*point)] * 100
        lines.append(" ".join(f"{cell:>8}" for cell in _grid_cells(point)) + f" {accuracy:>18.2f}")
    return "\n".join(lines)


def export_features(model: Model, held: DomainDataset, path) -> None:
    """Write penultimate-layer activations with domain and label columns."""
    batch = model_batch(model, held.X)
    feats = np.empty((len(batch), head_weight(model).shape[0]))
    with no_grad():
        for rows in row_chunks(model, batch):
            feats[rows] = features(model, batch[rows]).values
    write_rows(path, "f", held.domain, held.y, feats)
