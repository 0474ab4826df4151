import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dglab.data import DomainDataset, generate_spurious_gaussian
from dglab import evaluation
from dglab.errors import ConfigError, ContractError, DataFormatError
from dglab.evaluation import (
    RunReport,
    ReportRow,
    ablation_grid,
    ablation_text,
    evaluate,
    export_features,
    grid_label,
    grid_points,
    lodo_experiment,
)
from dglab.models import build_mlp
from dglab.trainer import TrainConfig


def tiny_dataset(seed=0):
    return generate_spurious_gaussian(num_domains=3, classes=3, n_per_domain_class=30, seed=seed)


def tiny_cfg(**kwargs):
    defaults = dict(iterations=3, batch_size=12, sg_n=1, hidden=(8,))
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def constant_class_model(num_classes, boosted, dim=4):
    model = build_mlp([dim], num_classes, seed=0)
    model.params["head_w"].values = np.zeros((dim, num_classes))
    bias = np.zeros(num_classes)
    bias[boosted] = 5.0
    model.params["head_b"].values = bias
    return model


def single_class_test_set(label, n=20, num_classes=3, dim=4):
    return DomainDataset(
        X=np.random.default_rng(0).standard_normal((n, dim)),
        y=np.full(n, label, dtype=np.int64),
        domain=np.array(["t"] * n),
        num_classes=num_classes,
        domain_names=["t"],
    )


@pytest.mark.filterwarnings("ignore:classes missing")
def test_evaluate_constant_predictor_on_its_class():
    model = constant_class_model(3, boosted=1)
    assert evaluate(model, single_class_test_set(1)) == 1.0


@pytest.mark.filterwarnings("ignore:classes missing")
def test_evaluate_adversarial_labels_zero():
    model = constant_class_model(3, boosted=1)
    assert evaluate(model, single_class_test_set(2)) == 0.0


def test_evaluate_random_model_near_chance():
    rng = np.random.default_rng(1)
    n = 3000
    test = DomainDataset(
        X=rng.standard_normal((n, 6)),
        y=np.repeat(np.arange(3), n // 3),
        domain=np.array(["t"] * n),
        num_classes=3,
        domain_names=["t"],
    )
    acc = evaluate(build_mlp([6, 8], 3, seed=5), test)
    assert 0.28 <= acc <= 0.39  # binomial bound at 99.9% confidence


def test_evaluate_empty_test_set():
    model = constant_class_model(3, boosted=0)
    empty = DomainDataset(
        X=np.zeros((0, 4)), y=np.zeros(0, dtype=np.int64), domain=np.array([], dtype=str),
        num_classes=3, domain_names=["t"],
    )
    with pytest.raises(ContractError):
        evaluate(model, empty)


@pytest.mark.filterwarnings("ignore:classes missing")
def test_evaluate_argmax_tie_breaks_low_class():
    model = constant_class_model(3, boosted=0)
    model.params["head_b"].values = np.zeros(3)  # all logits identical
    assert evaluate(model, single_class_test_set(0)) == 1.0
    assert evaluate(model, single_class_test_set(1)) == 0.0


def test_lodo_report_shape_and_counts():
    ds = tiny_dataset()
    report = lodo_experiment(ds, tiny_cfg(), ["ce_only", "align_only"], [0, 1])
    assert len(report.rows) == 3 * 2
    assert set(report.footer) == {"ce_only", "align_only"}
    for row in report.rows:
        assert len(row.accuracies) == 2
        assert abs(row.mean - math.fsum(row.accuracies) / 2) <= 1e-12
    for method in report.footer:
        cells = [r.mean for r in report.rows if r.method == method]
        assert abs(report.footer[method] - math.fsum(cells) / 3) <= 1e-12


def test_lodo_requires_multiple_domains():
    ds = tiny_dataset()
    solo = DomainDataset(
        X=ds.X[ds.domain == "d0"], y=ds.y[ds.domain == "d0"],
        domain=ds.domain[ds.domain == "d0"], num_classes=3, domain_names=["d0"],
    )
    with pytest.raises(ConfigError):
        lodo_experiment(solo, tiny_cfg(), ["ce_only"], [0])


def test_lodo_empty_seed_list():
    with pytest.raises(ConfigError):
        lodo_experiment(tiny_dataset(), tiny_cfg(), ["ce_only"], [])


def test_lodo_deterministic_repeat():
    ds = tiny_dataset()
    a = lodo_experiment(ds, tiny_cfg(), ["ce_only"], [0, 1])
    b = lodo_experiment(ds, tiny_cfg(), ["ce_only"], [0, 1])
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(b.to_json_dict(), sort_keys=True)


def test_lodo_holdout_records_source_validation():
    ds = tiny_dataset()
    report = lodo_experiment(ds, tiny_cfg(), ["ce_only"], [0], holdout_fraction=0.1)
    for row in report.rows:
        assert row.source_val is not None and len(row.source_val) == 1


@pytest.mark.parametrize(
    "point, mode",
    [((0.0, 0.0, 0.0), "ce_only"), ((0.1, 0.0, 0.0), "align_only"),
     ((0.0, 50.0, 70.0), "mask_only"), ((0.1, 50.0, 70.0), "alternate")],
    ids=["ce_only", "align_only", "mask_only", "alternate"],
)
def test_ablation_point_equals_lodo_of_its_mode(point, mode):
    # each grid point trains exactly as lodo_experiment does its strategy mode
    ds = tiny_dataset()
    base = tiny_cfg()
    other = (0.2, 25.0, 60.0)
    ab = ablation_grid(ds, base, [point, other], [0, 1])
    alpha, m_percent, q_max = point
    direct = lodo_experiment(ds, replace(base, alpha=alpha, m_percent=m_percent, q_max=q_max), [mode], [0, 1])
    label = grid_label(*point)
    for target in ds.domain_names:
        assert ab.cell(target, label).accuracies == direct.cell(target, mode).accuracies
    # rows are listed point by point, targets in dataset order within a point
    expected = [(label, t) for t in ds.domain_names] + [(grid_label(*other), t) for t in ds.domain_names]
    assert [(r.method, r.target) for r in ab.rows] == expected


def test_ablation_duplicate_labels_rejected_before_training():
    # the report keys rows and footer by label, so one label would merge two points;
    # this config fails with NumericError once any cell trains, so ConfigError shows the check came first
    exploding = tiny_cfg(iterations=40, base_lr=1e12)
    for grid in ([(0.1, 10, 70), (0.1, 10.0, 70)], [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.1, 0.0, 0.0)]):
        with pytest.raises(ConfigError, match="share the label"):
            ablation_grid(tiny_dataset(), exploding, grid, [0])



def test_grid_values_are_checked_as_written_and_run_as_floats():
    # TrainConfig checks each value as the field it sets; the run config and the report hold floats
    points = grid_points(tiny_cfg(), [[0, 50, 70], [0.1, 0, 0]])
    assert list(points) == ["alpha=- m=50 qMax=70", "alpha=0.1 m=- qMax=-"]
    for cfg in points.values():
        assert all(type(v) is float for v in (cfg.alpha, cfg.m_percent, cfg.q_max))
    assert [c.strategy_mode for c in points.values()] == ["mask_only", "align_only"]
    for point, message in [
        ([10**400, 0, 0], "alpha must be a finite double or an int64, got 1000"),
        ([0, 2**63, 0], "m_percent must be a finite double or an int64, got 9223372036854775808"),
        ([0, 50, 170], r"q_max must be in \[0, 100\], got 170$"),
        ([0, 50, True], "q_max must be a finite double or an int64, got True"),
    ]:
        with pytest.raises(ConfigError, match=message):
            grid_points(tiny_cfg(), [[0, 0, 0], point])


@pytest.mark.parametrize("domain", ["d0", "d2"], ids=["first-domain", "last-domain"])
@pytest.mark.parametrize("run", ["lodo", "ablation"])
def test_non_finite_data_rejected_before_any_cell_trains(run, domain, monkeypatch):
    # every domain is a source of some cell and the target of one; the check covers the whole
    # dataset at once, or a target's nan row would be scored as class 0 (argmax of nan logits)
    bad = tiny_dataset()
    row = int(np.flatnonzero(bad.domain == domain)[4])
    bad.X[row, 1] = np.nan
    monkeypatch.setattr(evaluation, "train", lambda *a: pytest.fail("trained on non-finite data"))
    with pytest.raises(DataFormatError, match=rf"^dataset: row {row}: value nan is not finite"):
        if run == "lodo":
            lodo_experiment(bad, tiny_cfg(), ["ce_only"], [0])
        else:
            ablation_grid(bad, tiny_cfg(), [(0.0, 0.0, 0.0)], [0])


def test_ablation_text_renders_zeros_as_dash():
    ds = tiny_dataset()
    ab = ablation_grid(ds, tiny_cfg(), [(0.0, 0.0, 0.0), (0.1, 50.0, 70.0)], [0])
    text = ablation_text(ab)
    lines = text.splitlines()
    assert "-" in lines[1]
    assert "0.1" in lines[2] and "50" in lines[2] and "70" in lines[2]


def test_ablation_empty_grid():
    with pytest.raises(ConfigError):
        ablation_grid(tiny_dataset(), tiny_cfg(), [], [0])


def test_report_mean_and_footer_come_from_accuracies():
    report = RunReport(
        rows=[
            ReportRow("a", "m", [0.5, 0.7]),
            ReportRow("b", "m", [0.25, 0.75]),
            ReportRow("a", "n", [0.1, 0.2]),
            ReportRow("b", "n", [0.3, 0.4]),
        ],
        fingerprint="x",
        seeds=[0, 1],
    )
    assert [r.mean for r in report.rows] == [math.fsum([0.5, 0.7]) / 2, 0.5, math.fsum([0.1, 0.2]) / 2, 0.35]
    assert report.footer == {
        "m": math.fsum([report.rows[0].mean, 0.5]) / 2,
        "n": math.fsum([report.rows[2].mean, 0.35]) / 2,
    }
    report.rows[0].accuracies = [1.0, 1.0]
    assert report.rows[0].mean == 1.0 and report.footer["m"] == 0.75
    doc = report.to_json_dict()
    assert doc["footer"] == report.footer
    assert [row["mean"] for row in doc["rows"]] == [r.mean for r in report.rows]


def test_report_validates_equal_seed_counts():
    with pytest.raises(ContractError):
        RunReport(
            rows=[
                ReportRow("a", "m", [0.5, 0.7]),
                ReportRow("b", "m", [0.5]),
            ],
            fingerprint="x",
            seeds=[0, 1],
        )


def test_report_text_table_contains_avg_row():
    ds = tiny_dataset()
    report = lodo_experiment(ds, tiny_cfg(), ["ce_only"], [0])
    text = report.to_text()
    assert text.splitlines()[0].startswith("Target")
    assert text.splitlines()[-1].startswith("Avg")


def test_fingerprint_tracks_config_and_dataset():
    ds = tiny_dataset()
    a = lodo_experiment(ds, tiny_cfg(), ["ce_only"], [0])
    b = lodo_experiment(ds, tiny_cfg(alpha=0.2), ["ce_only"], [0])
    c = lodo_experiment(tiny_dataset(seed=9), tiny_cfg(), ["ce_only"], [0])
    assert a.fingerprint != b.fingerprint
    assert a.fingerprint != c.fingerprint


def test_export_features_shape_and_determinism(tmp_path):
    ds = tiny_dataset()
    model = build_mlp([10, 6], 3, seed=0)
    p1, p2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    export_features(model, ds, p1)
    export_features(model, ds, p2)
    lines = p1.read_text().splitlines()
    assert len(lines) == ds.n + 1
    assert lines[0] == "domain,label," + ",".join(f"f{i}" for i in range(6))
    assert p1.read_bytes() == p2.read_bytes()
