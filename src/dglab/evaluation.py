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

from .autodiff import Tensor, no_grad
from .data import (
    DomainDataset,
    check_every_class,
    check_finite,
    leave_one_domain_out,
    split_holdout,
    write_json,
    write_rows,
)
from .errors import ConfigError, ContractError, NumericError
from .models import Model, features, forward, model_batch
from .trainer import TrainConfig, train

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
        lines = ["Target".ljust(10) + "".join(m.rjust(width) for m in methods)]
        for t in targets:
            cells = [f"{self.cell(t, m).mean * 100:.2f}".rjust(width) for m in methods]
            lines.append(t.ljust(10) + "".join(cells))
        footer_cells = [f"{self.footer[m] * 100:.2f}".rjust(width) for m in methods]
        lines.append("Avg".ljust(10) + "".join(footer_cells))
        return "\n".join(lines)


def _accuracy(model: Model, X: np.ndarray, y: np.ndarray) -> float:
    with no_grad():
        logits = forward(model, Tensor(model_batch(model, X))).values
    predictions = np.argmax(logits, axis=1)  # argmax ties resolve to the lowest class
    return float(np.mean(predictions == y))


def evaluate(model: Model, test: DomainDataset) -> float:
    """Fraction of test rows whose highest logit matches the label."""
    if test.n == 0:
        raise ContractError("evaluate: empty test set")
    return _accuracy(model, test.X, test.y)


def _dataset_meta(ds: DomainDataset) -> dict:
    digest = hashlib.sha256()
    digest.update(ds.X.tobytes())
    digest.update(ds.y.tobytes())
    digest.update(",".join(str(d) for d in ds.domain).encode("utf-8"))
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


def _lodo_report(
    ds: DomainDataset, cfg: TrainConfig, configs: dict[str, TrainConfig], seeds: list[int],
    holdout_fraction: float | None = None, grid: list | None = None,
) -> RunReport:
    """Report every (target domain, labelled config, seed) cell, trained target
    by target and listed point by point for an ablation ``grid``. Every run's
    config and every source split is built and checked before the first run trains."""
    if not seeds:
        raise ConfigError("a leave-one-domain-out experiment needs at least one seed")
    runs = {label: [replace(c, seed=s) for s in seeds] for label, c in configs.items()}
    # a repeated seed would count twice in a mean
    seeds = [int(s) for s in seeds]
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"duplicate seeds in {seeds}")

    # a target domain's row is checked too: argmax scores a nan logit row as class 0
    check_finite(ds.X, "dataset")
    after = "" if holdout_fraction is None else " after the holdout split"
    splits = []
    for target in ds.domain_names:
        train_view, test = leave_one_domain_out(ds, target)
        views = [
            (train_view, None) if holdout_fraction is None else split_holdout(train_view, holdout_fraction, seed=s)
            for s in seeds
        ]
        for view, _val_view in views:
            # a class the source split lacks would break batching or shrink the head
            check_every_class(view.y, ds.num_classes, f"target={target}: the source split", after)
        splits.append((target, test, views))

    rows: list[ReportRow] = []
    for target, test, views in splits:
        for label, run_cfgs in runs.items():
            accuracies, vals = [], []
            for seed, run_cfg, (view, val_view) in zip(seeds, run_cfgs, views):
                try:
                    model, _history = train(view, run_cfg)
                except NumericError as e:
                    raise NumericError(f"target={target} method={label} seed={seed}: {e}") from e
                accuracies.append(evaluate(model, test))
                if val_view is not None:
                    vals.append(_accuracy(model, val_view.X, val_view.y))
            rows.append(ReportRow(target, label, accuracies, source_val=vals or None))
    if grid is not None:
        rows.sort(key=lambda r: list(configs).index(r.method))
    extra = {"methods": list(configs)} if grid is None else {"grid": grid}
    return RunReport(rows, _fingerprint(cfg, ds, {**extra, "seeds": seeds}), seeds, grid)


def lodo_experiment(
    ds: DomainDataset, cfg: TrainConfig, methods: list[str], seeds: list[int],
    holdout_fraction: float | None = None,
) -> RunReport:
    """Train and evaluate every (target domain, method, seed) cell.

    With ``holdout_fraction`` set, each run also reports accuracy on a
    stratified in-source validation split (trained on the remainder).
    """
    if not methods:
        raise ConfigError("lodo_experiment needs at least one method")
    # a repeated method would count twice in the footer
    if len(set(methods)) < len(methods):
        raise ConfigError(f"duplicate methods in {list(methods)}")
    configs = {m: replace(cfg, strategy_mode=m) for m in methods}
    return _lodo_report(ds, cfg, configs, seeds, holdout_fraction)


# the TrainConfig fields a grid point sets, in point order, with their report headers
GRID_FIELDS = {"alpha": "alpha", "m_percent": "m", "q_max": "qMax"}


def _grid_mode(cfg: TrainConfig) -> str:
    """Map a grid point's config onto the strategy that exercises it.

    A zeroed strategy is not merely weightless, it is switched off, so the
    all-zero point reproduces plain cross-entropy training exactly.
    """
    if cfg.alpha == 0 and cfg.m_percent == 0:
        return "ce_only"
    if cfg.m_percent == 0:
        return "align_only"
    if cfg.alpha == 0:
        return "mask_only"
    return "alternate"


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
    with no_grad():
        feats = features(model, Tensor(model_batch(model, held.X))).values
    write_rows(path, "f", held.domain, held.y, feats)
