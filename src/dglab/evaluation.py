"""Leave-one-domain-out experiments, seed averaging, ablation grids, exports.

Every cell of a report is one full training run: pick a target domain,
train on the remaining domains through the domain-free view, evaluate on
the target. Reports carry per-seed accuracies, per-cell means, a per-method
average over targets, and a fingerprint of the configuration plus dataset
metadata. Reports are pure functions of (dataset, config, seeds).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, no_grad
from .data import DomainDataset, TrainView, leave_one_domain_out, split_holdout
from .errors import ConfigError, ContractError, NumericError
from .models import Model, features, forward, model_batch
from .trainer import STRATEGY_MODES, TrainConfig, train

REPORT_FORMAT = "dglab-report-v1"


@dataclass
class ReportRow:
    """One (target domain, method) cell with its per-seed accuracies."""

    target: str
    method: str
    accuracies: list[float]
    mean: float
    source_val: list[float] | None = None


@dataclass
class RunReport:
    """Rows per (target, method), per-method averages, and a config fingerprint."""

    rows: list[ReportRow]
    footer: dict[str, float]
    fingerprint: str
    seeds: list[int]
    grid: list | None = None

    def __post_init__(self):
        counts = {len(r.accuracies) for r in self.rows}
        if len(counts) > 1:
            raise ContractError(f"uneven seed counts across cells: {sorted(counts)}")
        for r in self.rows:
            recomputed = math.fsum(r.accuracies) / len(r.accuracies)
            if abs(recomputed - r.mean) > 1e-12:
                raise ContractError(
                    f"row ({r.target}, {r.method}): mean {r.mean} != recomputed {recomputed}"
                )

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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

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


def _fingerprint(cfg: TrainConfig, ds: DomainDataset, extra: dict | None = None) -> str:
    doc = {"config": cfg.to_json_dict(), "dataset": _dataset_meta(ds)}
    if extra:
        doc.update(extra)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _check_source_classes(
    view: TrainView, num_classes: int, target: str, holdout_fraction: float | None
) -> None:
    """A class the source split lacks would break batching or shrink the head."""
    missing = np.flatnonzero(np.bincount(view.y, minlength=num_classes) == 0)
    if missing.size:
        where = " after the holdout split" if holdout_fraction is not None else ""
        classes = ", ".join(str(c) for c in missing)
        raise ConfigError(f"target={target}: the source split has no rows of class {classes}{where}")


def lodo_experiment(
    ds: DomainDataset,
    cfg: TrainConfig,
    methods: list[str],
    seeds: list[int],
    holdout_fraction: float | None = None,
) -> RunReport:
    """Train and evaluate every (target domain, method, seed) cell.

    With ``holdout_fraction`` set, each run also reports accuracy on a
    stratified in-source validation split (trained on the remainder).
    """
    if len(ds.domain_names) < 2:
        raise ConfigError("lodo_experiment needs at least 2 domains")
    if not seeds:
        raise ConfigError("lodo_experiment needs at least one seed")
    if not methods:
        raise ConfigError("lodo_experiment needs at least one method")
    unknown = [m for m in methods if m not in STRATEGY_MODES]
    if unknown:
        raise ConfigError(f"unknown methods {unknown}; choose from {STRATEGY_MODES}")

    # every source split is built and checked before the first run trains
    splits = []
    for target in ds.domain_names:
        train_view, test = leave_one_domain_out(ds, target)
        views: dict[int, tuple[TrainView, TrainView | None]] = {}
        for seed in seeds:
            if holdout_fraction is None:
                views[seed] = (train_view, None)
            else:
                views[seed] = split_holdout(train_view, holdout_fraction, seed=int(seed))
            _check_source_classes(views[seed][0], ds.num_classes, target, holdout_fraction)
        splits.append((target, test, views))

    rows: list[ReportRow] = []
    for target, test, views in splits:
        for method in methods:
            accuracies: list[float] = []
            vals: list[float] = []
            for seed in seeds:
                run_cfg = replace(cfg, strategy_mode=method, seed=int(seed))
                view, val_view = views[seed]
                try:
                    model, _history = train(view, run_cfg)
                except NumericError as e:
                    raise NumericError(f"target={target} method={method} seed={seed}: {e}") from e
                accuracies.append(evaluate(model, test))
                if val_view is not None:
                    vals.append(_accuracy(model, val_view.X, val_view.y))
            rows.append(
                ReportRow(
                    target=target,
                    method=method,
                    accuracies=accuracies,
                    mean=math.fsum(accuracies) / len(accuracies),
                    source_val=vals or None,
                )
            )

    footer = {
        m: math.fsum(r.mean for r in rows if r.method == m) / len(ds.domain_names) for m in methods
    }
    return RunReport(
        rows=rows,
        footer=footer,
        fingerprint=_fingerprint(cfg, ds, {"methods": methods, "seeds": [int(s) for s in seeds]}),
        seeds=[int(s) for s in seeds],
    )


def _grid_mode(alpha: float, m_percent: float) -> str:
    """Map a hyperparameter point onto the strategy that exercises it.

    A zeroed strategy is not merely weightless, it is switched off, so the
    all-zero point reproduces plain cross-entropy training exactly.
    """
    if alpha == 0 and m_percent == 0:
        return "ce_only"
    if m_percent == 0:
        return "align_only"
    if alpha == 0:
        return "mask_only"
    return "alternate"


def grid_label(alpha: float, m_percent: float, q_max: float) -> str:
    def fmt(v) -> str:
        return "-" if v == 0 else f"{v:g}"

    return f"alpha={fmt(alpha)} m={fmt(m_percent)} qMax={fmt(q_max)}"


def ablation_grid(
    ds: DomainDataset, base_cfg: TrainConfig, grid: list, seeds: list[int]
) -> RunReport:
    """One LODO experiment per (alpha, m, q_max) point, merged into one report."""
    if not grid:
        raise ConfigError("ablation_grid: empty grid")
    rows: list[ReportRow] = []
    footer: dict[str, float] = {}
    for point in grid:
        alpha, m_percent, q_max = (float(v) for v in point)
        mode = _grid_mode(alpha, m_percent)
        cfg = replace(base_cfg, alpha=alpha, m_percent=m_percent, q_max=q_max, strategy_mode=mode)
        report = lodo_experiment(ds, cfg, [mode], seeds)
        label = grid_label(alpha, m_percent, q_max)
        rows.extend(replace(r, method=label) for r in report.rows)
        footer[label] = report.footer[mode]
    fingerprint = _fingerprint(
        base_cfg, ds, {"grid": [[float(v) for v in p] for p in grid], "seeds": [int(s) for s in seeds]}
    )
    return RunReport(
        rows=rows,
        footer=footer,
        fingerprint=fingerprint,
        seeds=[int(s) for s in seeds],
        grid=[[float(v) for v in p] for p in grid],
    )


def ablation_text(report: RunReport) -> str:
    """Hyperparameter table with zeros shown as '-', one row per grid point."""
    if report.grid is None:
        raise ContractError("ablation_text needs a report produced by ablation_grid")
    lines = [f"{'alpha':>8} {'m':>8} {'qMax':>8} {'avg accuracy (%)':>18}"]
    for point in report.grid:
        label = grid_label(*point)
        cells = [("-" if v == 0 else f"{v:g}") for v in point]
        lines.append(
            f"{cells[0]:>8} {cells[1]:>8} {cells[2]:>8} {report.footer[label] * 100:>18.2f}"
        )
    return "\n".join(lines)


def export_features(model: Model, held: DomainDataset, path) -> None:
    """Write penultimate-layer activations with domain and label columns."""
    with no_grad():
        feats = features(model, Tensor(model_batch(model, held.X))).values
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "label"] + [f"f{i}" for i in range(feats.shape[1])])
        for i in range(held.n):
            writer.writerow(
                [str(held.domain[i]), int(held.y[i])] + ["%.17g" % v for v in feats[i]]
            )
