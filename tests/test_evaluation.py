import json
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from dglab.data import DomainDataset, generate_shifted_waveforms, generate_spurious_gaussian, write_rows
from dglab import data, evaluation, models
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
    paired_summary,
    paired_text,
)
from dglab.models import build_cnn1d, build_mlp, features, forward, model_batch
from dglab.trainer import MODE_STRATEGIES, STRATEGY_ALIGN, STRATEGY_CE, STRATEGY_MASK, TrainConfig, train


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


def test_lodo_trains_with_one_seed_holdout_split_alive(monkeypatch):
    alive = []  # (seed, weakref) of each view split_holdout returned

    def recording_split(view, fraction, seed):
        views = data.split_holdout(view, fraction, seed)
        alive.extend((seed, weakref.ref(v)) for v in views)
        return views

    def checking_train(view, cfg):
        others = [seed for seed, ref in alive if seed != cfg.seed and ref() is not None]
        assert others == [], f"seed {cfg.seed} trains while the holdout views of seeds {others} are alive"
        return train(view, cfg)

    monkeypatch.setattr(evaluation, "split_holdout", recording_split)
    monkeypatch.setattr(evaluation, "train", checking_train)
    report = lodo_experiment(tiny_dataset(), tiny_cfg(), ["ce_only", "align_only"], [0, 1, 2], holdout_fraction=0.1)
    assert len(alive) == 3 * 3 * 2  # targets x seeds x (train, held)
    assert all(len(r.accuracies) == len(r.source_val) == 3 for r in report.rows)


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


@pytest.mark.parametrize(
    "alpha, m_percent, weighed",
    [(0, 0, {STRATEGY_CE}), (0.1, 0, {STRATEGY_ALIGN}), (0, 50, {STRATEGY_MASK}), (0.1, 50, {STRATEGY_ALIGN, STRATEGY_MASK})],
)
def test_grid_mode_runs_exactly_the_weighed_strategies(alpha, m_percent, weighed):
    # align when alpha weighs it, mask when m does, plain cross-entropy when neither
    (cfg,) = grid_points(tiny_cfg(), [[alpha, m_percent, 70]]).values()
    assert set(MODE_STRATEGIES[cfg.strategy_mode]) == weighed


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


CHUNKED_CASES = {
    # 270 and 30 rows: 7-row chunks leave a partial last chunk of 4 and 2 rows
    "mlp": lambda: (build_mlp([10, 6], 3, seed=5), tiny_dataset()),
    "cnn1d": lambda: (
        build_cnn1d([1, 8, 16], 5, 3, seed=5),
        generate_shifted_waveforms(num_domains=2, length=16, n_per_domain_class=5, seed=5),
    ),
}


@pytest.mark.parametrize("arch", list(CHUNKED_CASES))
def test_chunked_evaluate_and_export_are_the_one_pass_forward(arch, monkeypatch, tmp_path):
    model, ds = CHUNKED_CASES[arch]()
    batch = model_batch(model, ds.X)
    logits, feats = forward(model, batch).values, features(model, batch).values
    monkeypatch.setattr(models, "ROW_CHUNK_ELEMENTS", 7 * models._largest_row_intermediate(model, batch.shape[1:]))
    chunks = models.row_chunks(model, batch)
    assert len(chunks) > 1 and len(range(ds.n)[chunks[-1]]) < 7

    seen = []

    def recording_forward(model, x):
        out = forward(model, x)
        seen.append(out.values)
        return out

    monkeypatch.setattr(evaluation, "forward", recording_forward)
    assert evaluate(model, ds) == float(np.mean(np.argmax(logits, axis=1) == ds.y))
    assert len(seen) == len(chunks)
    # the head's matrix product may round a logit's last bit differently in a
    # 7-row pass than in one pass (the BLAS treats a row by its place in its
    # blocks); the features these models feed the head come out bit for bit
    np.testing.assert_allclose(np.concatenate(seen), logits, rtol=1e-13, atol=0)
    assert np.array_equal(np.argmax(np.concatenate(seen), axis=1), np.argmax(logits, axis=1))
    export_features(model, ds, tmp_path / "chunked.csv")
    write_rows(tmp_path / "one_pass.csv", "f", ds.domain, ds.y, feats)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "one_pass.csv").read_bytes()


@pytest.mark.parametrize("arch", list(CHUNKED_CASES))
def test_export_features_of_zero_rows_writes_the_header(arch, tmp_path):
    model, ds = CHUNKED_CASES[arch]()
    empty = DomainDataset(X=ds.X[:0], y=ds.y[:0], domain=ds.domain[:0], num_classes=3, domain_names=ds.domain_names)
    export_features(model, empty, tmp_path / "features.csv")
    width = 6 if arch == "mlp" else 16
    assert (tmp_path / "features.csv").read_text() == "domain,label," + ",".join(f"f{i}" for i in range(width)) + "\n"


def test_evaluate_peak_memory_does_not_grow_with_the_test_set():
    model = build_cnn1d([1, 8, 16], 5, 3, seed=0)  # the trainer's default CNN
    peaks = []
    for n_per_domain_class in (50, 200):  # 600 and 2400 rows
        ds = generate_shifted_waveforms(n_per_domain_class=n_per_domain_class, seed=0)
        tracemalloc.start()
        try:
            evaluate(model, ds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


def _two_method_report(seeds=3):
    accuracies = {
        ("a", "ce_only"): [0.5, 0.6, 0.4], ("b", "ce_only"): [0.7, 0.8, 0.9],
        ("a", "m"): [0.6, 0.6, 0.5], ("b", "m"): [0.7, 0.9, 0.7],
    }
    rows = [ReportRow(t, m, acc[:seeds]) for (t, m), acc in accuracies.items()]
    return RunReport(rows, fingerprint="x", seeds=list(range(seeds)))


def test_paired_summary_pairs_by_seed_and_target():
    summary = paired_summary(_two_method_report())
    m = summary["m"]
    # per-seed target means of the differences: 0.05, 0.05, -0.05
    assert m.mean == pytest.approx(0.05 / 3)
    assert m.stderr == pytest.approx(math.sqrt(((0.1 / 3) ** 2 * 2 + (0.2 / 3) ** 2) / 2 / 3))
    assert m.per_target == pytest.approx({"a": 0.2 / 3, "b": -0.1 / 3})
    assert (m.worst_target, m.worst_accuracy) == ("a", pytest.approx(1.7 / 3))
    base = summary["ce_only"]
    assert (base.mean, base.stderr, base.per_target) == (0.0, 0.0, {"a": 0.0, "b": 0.0})
    assert (base.worst_target, base.worst_accuracy) == ("a", pytest.approx(0.5))


def test_paired_summary_has_no_standard_error_below_two_seeds():
    m = paired_summary(_two_method_report(seeds=1))["m"]
    assert m.mean == pytest.approx(0.05) and m.stderr is None


def test_paired_summary_needs_the_baseline():
    with pytest.raises(ContractError, match="no 'alternate' rows"):
        paired_summary(_two_method_report(), baseline="alternate")
    assert set(paired_summary(_two_method_report(), baseline="m")) == {"ce_only", "m"}


def test_paired_text_shows_points():
    lines = paired_text(_two_method_report()).splitlines()
    assert lines[0].startswith("paired difference to ce_only in points over 3 seeds")
    assert lines[1].split() == ["Method", "diff", "se", "a", "b", "worst"]
    assert lines[2].split() == ["ce_only", "+0.00", "0.00", "+0.00", "+0.00", "a", "50.00"]
    assert lines[3].split() == ["m", "+1.67", "3.33", "+6.67", "-3.33", "a", "56.67"]
    one_seed = paired_text(_two_method_report(seeds=1)).splitlines()
    assert "over 1 seed " in one_seed[0] and one_seed[3].split()[:3] == ["m", "+5.00", "-"]


def _targets_report(short, long):
    accuracies = {
        (short, "ce_only"): [0.5, 0.6], (long, "ce_only"): [0.75, 0.75],
        (short, "alternate"): [0.75, 0.5], (long, "alternate"): [0.5, 0.5],
    }
    rows = [ReportRow(t, m, acc) for (t, m), acc in accuracies.items()]
    return RunReport(rows, fingerprint="x", seeds=[0, 1])


def test_long_target_name_widens_both_tables():
    long = "d0a_much_longer_domain"
    report = _targets_report("d1", long)
    assert report.to_text().splitlines() == [
        "Target                     ce_only   alternate",
        "d1                           55.00       62.50",
        "d0a_much_longer_domain       75.00       50.00",
        "Avg                          65.00       56.25",
    ]
    assert paired_text(report).splitlines()[1:] == [
        "Method          diff     se                     d1 d0a_much_longer_domain   worst",
        "ce_only        +0.00   0.00                  +0.00                  +0.00   d1 55.00",
        "alternate      -8.75   8.75                  +7.50                 -25.00   d0a_much_longer_domain 50.00",
    ]


def test_generated_target_names_keep_the_narrowest_columns():
    report = _targets_report("d1", "d999")
    assert report.to_text().splitlines() == [
        "Target         ce_only   alternate",
        "d1               55.00       62.50",
        "d999             75.00       50.00",
        "Avg              65.00       56.25",
    ]
    assert paired_text(report).splitlines()[1:] == [
        "Method          diff     se       d1     d999   worst",
        "ce_only        +0.00   0.00    +0.00    +0.00   d1 55.00",
        "alternate      -8.75   8.75    +7.50   -25.00   d999 50.00",
    ]
