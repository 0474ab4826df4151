import argparse
import inspect
import json
import shutil
import subprocess
import sys
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dglab import cli, evaluation
from dglab.data import DomainDataset, generate_shifted_waveforms, generate_spurious_gaussian, save_dataset
from dglab.errors import NumericError
from dglab.saliency import SmoothGradConfig
from dglab.trainer import MODE_STRATEGIES, TrainConfig


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "dglab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ds"
    result = run_cli(
        "generate", "--kind", "spurious-gaussian", "--out", str(path),
        "--seed", "3", "--num-domains", "3", "--n-per-domain-class", "40",
    )
    assert result.returncode == 0, result.stderr
    return path


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg = {"iterations": 4, "batch_size": 12, "sg_n": 1, "hidden": [8]}
    path.write_text(json.dumps(cfg))
    return path


def test_generate_writes_files(dataset_dir):
    assert (dataset_dir / "data.csv").exists()
    assert (dataset_dir / "meta.json").exists()


def test_generate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        result = run_cli(
            "generate", "--kind", "waveforms", "--out", str(out),
            "--seed", "5", "--num-domains", "2", "--classes", "2",
            "--length", "24", "--n-per-domain-class", "6",
        )
        assert result.returncode == 0, result.stderr
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "meta.json").read_bytes() == (b / "meta.json").read_bytes()


@pytest.mark.parametrize(
    "kind, generator",
    [("spurious-gaussian", generate_spurious_gaussian), ("waveforms", generate_shifted_waveforms)],
)
def test_generate_defaults_are_the_generators(kind, generator, tmp_path):
    result = run_cli("generate", "--kind", kind, "--out", str(tmp_path / "cli"), "--seed", "7")
    assert result.returncode == 0, result.stderr
    save_dataset(generator(seed=7), tmp_path / "direct")
    for name in ("data.csv", "meta.json"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()


@pytest.mark.parametrize(
    "kind, flag",
    [("spurious-gaussian", "--length"), ("waveforms", "--signal-dims"), ("waveforms", "--nuisance-dims")],
)
def test_generate_flag_the_kind_does_not_take_exits_one(kind, flag, tmp_path):
    out = tmp_path / "ds"
    result = run_cli("generate", "--kind", kind, "--out", str(out), flag, "3")
    assert result.returncode == 1
    assert result.stderr == f"error: {flag} does not apply to --kind {kind}\n"
    assert not out.exists()


def test_train_writes_checkpoint_and_history(dataset_dir, config_path, tmp_path):
    out = tmp_path / "run"
    result = run_cli("train", "--data", str(dataset_dir), "--config", str(config_path), "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert (out / "checkpoint.json").exists()
    history = (out / "history.csv").read_text().splitlines()
    assert history[0].startswith("iteration,")
    assert len(history) == 5


def test_train_checkpoint_byte_deterministic(dataset_dir, config_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        result = run_cli("train", "--data", str(dataset_dir), "--config", str(config_path), "--out", str(out))
        assert result.returncode == 0, result.stderr
    assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()


def test_lodo_report_and_determinism(dataset_dir, config_path, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    r2.write_text("{}" + " " * 100_000)  # rewritten in place: no stale tail may remain
    for out in (r1, r2):
        result = run_cli(
            "lodo", "--data", str(dataset_dir), "--config", str(config_path),
            "--methods", "ce_only,alternate", "--seeds", "0,1", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert "Avg" in result.stdout
    assert r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text())
    assert len(doc["rows"]) == 3 * 2
    assert set(doc["footer"]) == {"ce_only", "alternate"}


def test_lodo_prints_the_paired_summary_to_stderr_only(dataset_dir, config_path, tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["lodo", "--data", str(dataset_dir), "--config", str(config_path), "--seeds", "0,1", "--out", str(out)]
    assert cli.main([*argv, "--methods", "ce_only,alternate"]) == 0
    captured = capsys.readouterr()
    report = evaluation.RunReport(
        [evaluation.ReportRow(r["target"], r["method"], r["accuracies"]) for r in json.loads(out.read_text())["rows"]],
        fingerprint="", seeds=[0, 1],
    )
    assert captured.out == report.to_text() + "\n"
    assert captured.err == evaluation.paired_text(report) + "\n"
    assert "paired" not in out.read_text()
    # without the baseline there is nothing to pair with
    assert cli.main([*argv, "--methods", "alternate"]) == 0
    assert capsys.readouterr().err == ""


def test_ablation_cli(dataset_dir, config_path, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([[0.0, 0.0, 0.0], [0.1, 50.0, 70.0]]))
    out = tmp_path / "ablation.json"
    result = run_cli(
        "ablation", "--data", str(dataset_dir), "--config", str(config_path),
        "--grid", str(grid), "--seeds", "0", "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert "-" in result.stdout
    doc = json.loads(out.read_text())
    assert len(doc["grid"]) == 2


def test_ablation_prints_the_paired_summary_to_the_all_zero_point(dataset_dir, config_path, tmp_path, capsys):
    grid, out = tmp_path / "grid.json", tmp_path / "ablation.json"
    argv = ["ablation", "--data", str(dataset_dir), "--config", str(config_path), "--grid", str(grid),
            "--seeds", "0,1", "--out", str(out)]
    grid.write_text(json.dumps([[0.1, 50, 70], [0, 0, 0]]))
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    doc = json.loads(out.read_text())
    report = evaluation.RunReport(
        [evaluation.ReportRow(r["target"], r["method"], r["accuracies"]) for r in doc["rows"]],
        fingerprint="", seeds=[0, 1], grid=doc["grid"],
    )
    assert captured.out == evaluation.ablation_text(report) + "\n"
    baseline = evaluation.grid_label(0, 0, 0)
    assert captured.err == evaluation.paired_text(report, baseline=baseline) + "\n"
    assert "paired" not in out.read_text()
    # without the all-zero point there is nothing to pair with
    grid.write_text(json.dumps([[0.1, 50, 70]]))
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def test_saliency_export(dataset_dir, config_path, tmp_path):
    run_dir = tmp_path / "run"
    result = run_cli("train", "--data", str(dataset_dir), "--config", str(config_path), "--out", str(run_dir))
    assert result.returncode == 0, result.stderr
    out = tmp_path / "sal.csv"
    result = run_cli(
        "saliency-export", "--checkpoint", str(run_dir / "checkpoint.json"),
        "--data", str(dataset_dir), "--samples", "3", "--out", str(out), "--sg-n", "4",
    )
    assert result.returncode == 0, result.stderr
    for k in range(3):
        lines = (tmp_path / f"sal_{k:03d}.csv").read_text().splitlines()
        assert lines[0] == "index,value,vanilla,smoothgrad"
        assert len(lines) == 11  # 10 observations per sample
        for line in lines[1:]:
            index, *cells = line.split(",")
            assert int(index) >= 0 and all(isinstance(float(c), float) for c in cells)


def test_export_features_cli(dataset_dir, config_path, tmp_path):
    run_dir = tmp_path / "run"
    result = run_cli("train", "--data", str(dataset_dir), "--config", str(config_path), "--out", str(run_dir))
    assert result.returncode == 0, result.stderr
    out = tmp_path / "features.csv"
    result = run_cli(
        "export-features", "--checkpoint", str(run_dir / "checkpoint.json"),
        "--data", str(dataset_dir), "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 3 * 3 * 40 + 1


def test_bad_flag_exits_one():
    result = run_cli("lodo", "--data")
    assert result.returncode == 1


def test_unknown_method_exits_one(dataset_dir, config_path, tmp_path):
    result = run_cli(
        "lodo", "--data", str(dataset_dir), "--config", str(config_path),
        "--methods", "nonsense", "--seeds", "0", "--out", str(tmp_path / "x.json"),
    )
    assert result.returncode == 1
    assert "error" in result.stderr


def test_bad_config_key_exits_one(dataset_dir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}')
    result = run_cli(
        "lodo", "--data", str(dataset_dir), "--config", str(bad),
        "--seeds", "0", "--out", str(tmp_path / "x.json"),
    )
    assert result.returncode == 1


def test_numeric_failure_exits_two(dataset_dir, tmp_path):
    cfg = tmp_path / "explode.json"
    cfg.write_text(json.dumps({"iterations": 40, "batch_size": 12, "base_lr": 1e12, "hidden": [8], "sg_n": 1}))
    out = tmp_path / "run"
    result = run_cli("train", "--data", str(dataset_dir), "--config", str(cfg), "--out", str(out))
    assert result.returncode == 2
    assert "numeric" in result.stderr

@pytest.mark.parametrize(
    "bad",
    [
        {"iterations": "10"},
        {"iterations": 2.5},
        {"alpha": float("nan")},
        {"base_lr": float("inf")},
        {"momentum": -3},
    ],
    ids=["iterations-string", "iterations-fraction", "alpha-nan", "base-lr-inf", "momentum-negative"],
)
def test_bad_config_value_exits_one_before_training(bad, dataset_dir, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"iterations": 4, "batch_size": 12, "sg_n": 1, "hidden": [8], **bad}))
    out = tmp_path / "run"
    result = run_cli("train", "--data", str(dataset_dir), "--config", str(cfg), "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
    assert next(iter(bad)) in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["lodo", "ablation", "saliency-export", "export-features"])
def test_missing_out_directory_exits_one_before_loading_data(command, checkpoint_doc, tmp_path):
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(checkpoint_doc))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([[0.0, 0.0, 0.0]]))
    missing_data, missing_dir = tmp_path / "no-data", tmp_path / "no-such-dir"
    extra = {
        "lodo": ["--methods", "ce_only", "--seeds", "0"],
        "ablation": ["--grid", str(grid), "--seeds", "0"],
        "saliency-export": ["--checkpoint", str(checkpoint), "--samples", "2"],
        "export-features": ["--checkpoint", str(checkpoint)],
    }[command]
    result = run_cli(command, "--data", str(missing_data), *extra, "--out", str(missing_dir / "out.json"))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
    assert f"directory {missing_dir} does not exist" in result.stderr
    assert str(missing_data) not in result.stderr
    assert not missing_dir.exists()



@pytest.mark.parametrize("command", ["lodo", "ablation", "saliency-export", "export-features"])
def test_out_that_is_a_directory_exits_one_before_loading_data(command, checkpoint_doc, tmp_path):
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(checkpoint_doc))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([[0.0, 0.0, 0.0]]))
    missing_data, out_dir = tmp_path / "no-data", tmp_path / "results"
    out_dir.mkdir()
    extra = {
        "lodo": ["--methods", "ce_only", "--seeds", "0"],
        "ablation": ["--grid", str(grid), "--seeds", "0"],
        "saliency-export": ["--checkpoint", str(checkpoint), "--samples", "2"],
        "export-features": ["--checkpoint", str(checkpoint)],
    }[command]
    result = run_cli(command, "--data", str(missing_data), *extra, "--out", str(out_dir))
    assert result.returncode == 1
    assert result.stderr == f"error: --out {str(out_dir)!r} names a directory, not a file\n"
    assert list(out_dir.iterdir()) == []
    assert list(tmp_path.glob("results_*")) == []


@pytest.mark.parametrize("flag", ["--data", "--data-file", "--config", "--grid", "--checkpoint"])
def test_directory_where_a_file_is_expected_exits_one_before_training(flag, dataset_dir, explode_config, tmp_path, capsys):
    # explode_config fails with exit 2 once any cell trains
    ds = tmp_path / "ds"  # a dataset directory whose data.csv is a directory
    ds.mkdir()
    (ds / "meta.json").write_bytes((dataset_dir / "meta.json").read_bytes())
    (ds / "data.csv").mkdir()
    report = tmp_path / "out.json"
    out = ["--seeds", "0", "--out", str(report)]
    data, config = ["--data", str(dataset_dir)], ["--config", str(explode_config)]
    lodo = ["lodo", "--methods", "ce_only", *out]
    argv, named = {
        "--data": ([*lodo, "--data", str(ds), *config], ds / "data.csv"),
        "--data-file": ([*lodo, "--data", str(dataset_dir / "data.csv"), *config], dataset_dir / "data.csv" / "meta.json"),
        "--config": ([*lodo, *data, "--config", str(tmp_path)], tmp_path),
        "--grid": (["ablation", *data, *config, "--grid", str(tmp_path), *out], tmp_path),
        "--checkpoint": (["saliency-export", *data, "--checkpoint", str(tmp_path), "--out", str(tmp_path / "s.csv")], tmp_path),
    }[flag]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": {str(named)!r}\n")
    assert not report.exists()


@pytest.mark.parametrize("out", ["new-dir/", ""], ids=["trailing-separator", "empty"])
def test_out_that_cannot_be_a_file_exits_one_before_loading_data(out, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["lodo", "--data", "no-data", "--methods", "ce_only", "--seeds", "0", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: --out {out!r} names a directory, not a file\n"
    assert list(tmp_path.iterdir()) == []

def test_read_only_out_directory_exits_one(monkeypatch, tmp_path, capsys):
    # tests may run as root, which may write anywhere, so the permission test is stubbed
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = tmp_path / "report.json"
    assert cli.main(["lodo", "--data", str(tmp_path / "no-data"), "--out", str(out)]) == 1
    assert f"directory {tmp_path} is not writable" in capsys.readouterr().err


def _taken_path(tmp_path, below):
    """A file, and an --out that is that file or a directory below it."""
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    return taken, (taken / "run" if below else taken)


@pytest.mark.parametrize("below", [False, True], ids=["is-a-file", "under-a-file"])
def test_train_out_that_cannot_be_a_directory_exits_one_before_loading_data(below, tmp_path, capsys):
    taken, out = _taken_path(tmp_path, below)
    assert cli.main(["train", "--data", str(tmp_path / "no-data"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --out {out}: {taken} is not a directory\n"
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("below", [False, True], ids=["is-a-file", "under-a-file"])
def test_generate_out_that_cannot_be_a_directory_exits_one_before_generating(below, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli.GENERATORS, "waveforms", lambda: pytest.fail("generated before checking --out"))
    taken, out = _taken_path(tmp_path, below)
    assert cli.main(["generate", "--kind", "waveforms", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --out {out}: {taken} is not a directory\n"
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("command", ["train", "generate"])
def test_run_directory_that_cannot_be_made_exits_one(command, monkeypatch, tmp_path, capsys):
    argv = {"train": ["--data", str(tmp_path / "no-data")], "generate": ["--kind", "waveforms"]}[command]
    assert cli.main([command, *argv, "--out", ""]) == 1
    assert capsys.readouterr().err == "error: --out '' names no directory\n"
    # tests may run as root, which may write anywhere, so the permission test is stubbed
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert cli.main([command, *argv, "--out", str(tmp_path / "new" / "run")]) == 1
    assert capsys.readouterr().err == f"error: --out {tmp_path / 'new' / 'run'}: directory {tmp_path} is not writable\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("[[0.1, 50]]", "expected a list of [alpha, m, q_max] number triples"),
        ("[[0.1,", "invalid JSON"),
        ("[[0.1, 150, 70]]", "m_percent must be in [0, 100], got 150"),
        ("[[0.1, 10, 70], [0.1, 10.0, 70]]", "two grid points share the label 'alpha=0.1 m=10 qMax=70'"),
    ],
    ids=["not-triples", "invalid-json", "out-of-range", "repeated-label"],
)
def test_ablation_grid_checked_before_loading_data(text, message, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(text)
    argv = ["ablation", "--data", str(tmp_path / "no-data"), "--grid", str(grid), "--out", str(tmp_path / "a.json")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {grid}: {message}")


HUGE_CONFIGS = {
    # id: (--config document, the field the error names)
    "alpha-400-digits": ({"alpha": 10**400}, "alpha"),
    "hidden-10**30": ({"hidden": [10**30]}, "hidden"),
    "batch-size-10**30": ({"batch_size": 10**30}, "batch_size"),
}
HUGE_SETTINGS = {
    **{f"{command}-{key}": (command, "--config", *case) for key, case in HUGE_CONFIGS.items()
       for command in ("train", "lodo", "ablation")},
    "ablation-grid-alpha-400-digits": ("ablation", "--grid", [[10**400, 0, 0]], "alpha"),
}


@pytest.mark.parametrize("case", HUGE_SETTINGS.values(), ids=HUGE_SETTINGS.keys())
def test_setting_no_double_or_int64_holds_exits_one_before_loading_data(case, tmp_path, capsys):
    # no --data exists, so each error comes before any data loads, let alone trains
    command, flag, doc, name = case
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    grid = tmp_path / "grid.json"
    grid.write_text("[[0, 0, 0]]")
    args = [command, "--data", str(tmp_path / "no-data"), "--out", str(tmp_path / "out"), flag, str(path)]
    args += ["--grid", str(grid)] if command == "ablation" and flag == "--config" else []
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: {name} must be a")
    assert not (tmp_path / "out").exists()


def test_config_integer_past_the_digit_limit_exits_one(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"alpha": ' + "1" * 5000 + "}")
    argv = ["train", "--data", str(tmp_path / "no-data"), "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON: Exceeds the limit (4300 digits)")


@pytest.mark.filterwarnings("ignore:classes missing")
def test_train_on_data_missing_a_declared_class_exits_one(config_path, tmp_path, capsys, monkeypatch):
    # train would build a two-class head for three-class data
    data = tmp_path / "ds"
    ds = generate_spurious_gaussian(num_domains=2, classes=3, n_per_domain_class=6, seed=0)
    keep = ds.y != 2
    save_dataset(replace(ds, X=ds.X[keep], y=ds.y[keep], domain=ds.domain[keep]), data)
    monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("trained on data missing a class"))
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--config", str(config_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {data / 'data.csv'} has no rows of class 2\n"
    assert not out.exists()


@pytest.mark.parametrize("generate", [generate_spurious_gaussian, generate_shifted_waveforms], ids=["spurious-gaussian", "waveforms"])
@pytest.mark.parametrize(
    "command, message",
    [
        ("train", "{csv} has no rows of class 0, 1, 2"),
        ("lodo", "target domain 'd0' has no rows"),
        ("ablation", "target domain 'd0' has no rows"),
    ],
    ids=["train", "lodo", "ablation"],
)
def test_header_only_data_exits_one(generate, command, message, tmp_path, capsys):
    data = tmp_path / "ds"
    save_dataset(generate(num_domains=2, n_per_domain_class=4, seed=0), data)
    csv = data / "data.csv"
    csv.write_text(csv.read_text().splitlines(keepends=True)[0])
    grid = tmp_path / "grid.json"
    grid.write_text("[[0, 0, 0]]")
    out = tmp_path / "out"
    args = [command, "--data", str(data), "--out", str(out)]
    args += ["--grid", str(grid)] if command == "ablation" else []
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: {message.format(csv=csv)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--sg-n", "0", "n must be >= 1"),
        ("--sg-sigma", "-0.5", "sigma must be >= 0"),
        ("--sg-seed", "-1", "seed must be a non-negative int64 integer"),
    ],
    ids=["sg-n", "sg-sigma", "sg-seed"],
)
def test_saliency_flags_checked_before_loading_anything(flag, value, message, tmp_path, capsys):
    missing = tmp_path / "missing"
    argv = ["saliency-export", "--checkpoint", str(missing / "checkpoint.json"), "--data", str(missing)]
    assert cli.main([*argv, flag, value, "--out", str(tmp_path / "sal.csv")]) == 1
    assert capsys.readouterr().err == f"error: smoothgrad {message}, got {value}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--kind", "spurious-gaussian", "--seed", "-1"],
         "generate_spurious_gaussian: seed must be a non-negative int64 integer, got -1"),
        (["generate", "--kind", "spurious-gaussian", "--n-per-domain-class", str(10**20)],
         f"generate_spurious_gaussian: n_per_domain_class must be an int64 integer, got {10**20}"),
        (["saliency-export", "--checkpoint", "missing.json", "--data", "missing", "--sg-n", str(10**20)],
         f"smoothgrad n must be an int64 integer, got {10**20}"),
    ],
    ids=["generate-negative-seed", "generate-count-past-int64", "saliency-replicates-past-int64"],
)
def test_setting_numpy_cannot_take_exits_one_writing_nothing(argv, message, monkeypatch, tmp_path, capsys):
    # numpy takes no negative seed and no count past int64
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--out", "out"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_generate_flags_are_the_generators_parameters():
    # a new generator needs no CLI edit; a parameter name two generators share means one kind of value
    annotations = {}
    for generator in cli.GENERATORS.values():
        for name, param in inspect.signature(generator).parameters.items():
            assert annotations.setdefault(name, param.annotation) == param.annotation, name
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest for a in subparsers.choices["generate"]._actions} - {"help", "kind", "out"}
    assert flags == set(annotations)


NOT_INTEGERS = "argument --seeds: expected comma-separated integers, got '1,x'"
NEGATIVE_SEED = "seed must be a non-negative int64 integer, got -1"
LODO_FLAGS = {
    # id: (command, flags, message)
    "unknown-method": ("lodo", ["--methods", "bogus"], f"unknown strategy_mode 'bogus'; choose from {tuple(MODE_STRATEGIES)}"),
    "duplicate-method": ("lodo", ["--methods", "ce_only,ce_only"], "duplicate methods in ['ce_only', 'ce_only']"),
    "no-method": ("lodo", ["--methods", ","], "a leave-one-domain-out experiment needs at least one method"),
    "seed-not-an-integer": ("lodo", ["--seeds", "1,x"], NOT_INTEGERS),
    "duplicate-seed": ("lodo", ["--seeds", "1,1"], "duplicate seeds in [1, 1]"),
    "holdout-past-one": ("lodo", ["--holdout", "2"], "holdout fraction must be in (0, 1), got 2.0"),
    "ablation-seed-not-an-integer": ("ablation", ["--seeds", "1,x"], NOT_INTEGERS),
    "ablation-duplicate-seed": ("ablation", ["--seeds", "1,1"], "duplicate seeds in [1, 1]"),
    # argparse alone takes "-1,2" for an option and exits with "expected one argument"
    "seed-list-starting-negative": ("lodo", ["--seeds", "-1,2"], NEGATIVE_SEED),
    "ablation-seed-list-starting-negative": ("ablation", ["--seeds", "-1,2"], NEGATIVE_SEED),
}


@pytest.mark.parametrize("case", LODO_FLAGS.values(), ids=LODO_FLAGS.keys())
def test_lodo_and_ablation_flags_checked_before_loading_data(case, tmp_path, capsys):
    # no --data exists, so each error comes before any data loads
    command, flags, message = case
    grid = tmp_path / "grid.json"
    grid.write_text("[[0, 0, 0]]")
    args = [command, "--data", str(tmp_path / "nope"), *flags, "--out", str(tmp_path / "r.json")]
    args += ["--grid", str(grid)] if command == "ablation" else []
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r.json").exists()


@pytest.fixture
def explode_config(tmp_path):
    # ce_only fails numerically at this learning rate (exit 2) once it trains
    cfg = tmp_path / "explode.json"
    cfg.write_text(json.dumps({"iterations": 40, "batch_size": 12, "base_lr": 1e12, "hidden": [8], "sg_n": 1}))
    return cfg


def test_unknown_method_rejected_before_any_training(dataset_dir, explode_config, tmp_path):
    for method in ("bogus", "combined", "alternate_even_odd"):
        result = run_cli(
            "lodo", "--data", str(dataset_dir), "--config", str(explode_config),
            "--methods", f"ce_only,{method}", "--seeds", "0", "--out", str(tmp_path / "x.json"),
        )
        assert result.returncode == 1, method
        assert method in result.stderr and "Traceback" not in result.stderr


def _grid_or_methods(command, methods, tmp_path):
    if command == "lodo":
        return ["--methods", methods]
    grid = tmp_path / "grid.json"
    grid.write_text("[[0, 0, 0]]")
    return ["--grid", str(grid)]


@pytest.mark.parametrize(
    "command, methods, seeds",
    [("lodo", "ce_only,ce_only", "0"), ("lodo", "ce_only", "0,0"), ("ablation", None, "0,0")],
    ids=["methods", "seeds", "ablation-seeds"],
)
def test_duplicate_method_or_seed_exits_one_before_any_training(command, methods, seeds, dataset_dir, explode_config, tmp_path):
    result = run_cli(
        command, "--data", str(dataset_dir), "--config", str(explode_config),
        *_grid_or_methods(command, methods, tmp_path), "--seeds", seeds, "--out", str(tmp_path / "x.json"),
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: duplicate") and "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "command, seeds, holdout",
    [("lodo", "-1", ["--holdout", "0.1"]), ("lodo", "0,-1", []), ("ablation", "0,-1", [])],
    ids=["negative-with-holdout", "negative-after-a-valid-seed", "ablation-negative-after-a-valid-seed"],
)
def test_negative_seed_rejected_before_any_training(command, seeds, holdout, dataset_dir, explode_config, tmp_path):
    result = run_cli(
        command, "--data", str(dataset_dir), "--config", str(explode_config),
        *_grid_or_methods(command, "ce_only", tmp_path), "--seeds", seeds, *holdout,
        "--out", str(tmp_path / "x.json"),
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
    assert "-1" in result.stderr


def test_empty_ablation_seed_list_does_not_name_lodo(dataset_dir, explode_config, tmp_path):
    result = run_cli(
        "ablation", "--data", str(dataset_dir), "--config", str(explode_config),
        *_grid_or_methods("ablation", None, tmp_path), "--seeds", "", "--out", str(tmp_path / "x.json"),
    )
    assert result.returncode == 1
    assert result.stderr == "error: a leave-one-domain-out experiment needs at least one seed\n"


def test_exploding_ablation_names_the_grid_label(dataset_dir, explode_config, tmp_path):
    result = run_cli(
        "ablation", "--data", str(dataset_dir), "--config", str(explode_config),
        *_grid_or_methods("ablation", None, tmp_path), "--seeds", "0", "--out", str(tmp_path / "x.json"),
    )
    assert result.returncode == 2
    assert result.stderr.startswith("numeric failure: target=d0 method=alpha=- m=- qMax=- seed=0: ")
    assert "ce_only" not in result.stderr
    assert not (tmp_path / "x.json").exists()


def test_exploding_lodo_prints_one_stderr_line(dataset_dir, explode_config, tmp_path):
    # numpy warns of overflow in the affine matmul and of an invalid value in
    # the loss before the loss turns non-finite; none of that reaches stderr
    result = run_cli(
        "lodo", "--data", str(dataset_dir), "--config", str(explode_config),
        "--methods", "ce_only", "--seeds", "0", "--out", str(tmp_path / "x.json"),
    )
    assert result.returncode == 2
    assert result.stderr.startswith("numeric failure: target=d0 method=ce_only seed=0: ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")


def test_exploding_align_only_lodo_prints_one_stderr_line(dataset_dir, explode_config, tmp_path):
    # the align step's objective rejects non-finite logits before any exp
    out = tmp_path / "x.json"
    result = run_cli(
        "lodo", "--data", str(dataset_dir), "--config", str(explode_config),
        "--methods", "align_only", "--seeds", "0", "--out", str(out),
    )
    assert result.returncode == 2
    assert result.stderr.startswith("numeric failure: target=d0 method=align_only seed=0: ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
    assert not out.exists()


def _warn_then(outcome):
    def command(args):
        np.float64(1e308) * 10.0  # numpy warns: overflow encountered in scalar multiply
        warnings.warn("not numpy's", UserWarning)
        return outcome()

    return command


def _numeric_failure():
    raise NumericError("loss is nan")


@pytest.mark.parametrize(
    "outcome, status, shown, err",
    [
        (lambda: 0, 0, ["overflow encountered in scalar multiply", "not numpy's"], ""),
        (_numeric_failure, 2, ["not numpy's"], "numeric failure: loss is nan\n"),
    ],
    ids=["exit-0", "exit-2"],
)
def test_warnings_are_held_until_the_command_ends(outcome, status, shown, err, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "cmd_generate", _warn_then(outcome))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert cli.main(["generate", "--kind", "waveforms", "--out", str(tmp_path / "ds")]) == status
    assert [str(w.message) for w in seen] == shown
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "point",
    [["x", 0, 0], [None, 0, 0], [True, 50, 70]],
    ids=["string", "null", "bool"],
)
def test_ablation_grid_entry_that_is_not_a_number_exits_one(point, dataset_dir, explode_config, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([point]))
    result = run_cli(
        "ablation", "--data", str(dataset_dir), "--config", str(explode_config),
        "--grid", str(grid), "--seeds", "0", "--out", str(tmp_path / "x.json"),
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
    assert str(grid) in result.stderr


@pytest.mark.parametrize(
    "grid, message",
    [([[0, 0, 0], [0.1, 150, 70]], "m_percent"), ([[0.1, 10, 70], [0.1, 10.0, 70]], "share the label")],
    ids=["bad-second-point", "duplicate-label"],
)
def test_ablation_grid_checked_whole_before_any_training(grid, message, dataset_dir, explode_config, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    result = run_cli(
        "ablation", "--data", str(dataset_dir), "--config", str(explode_config),
        "--grid", str(path), "--seeds", "0", "--out", str(tmp_path / "x.json"),
    )
    assert result.returncode == 1
    assert message in result.stderr and "Traceback" not in result.stderr


@pytest.fixture(scope="module")
def checkpoint_doc(dataset_dir, config_path, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("run")
    result = run_cli("train", "--data", str(dataset_dir), "--config", str(config_path), "--out", str(run_dir))
    assert result.returncode == 0, result.stderr
    return json.loads((run_dir / "checkpoint.json").read_text())


def _exports(checkpoint, dataset_dir, tmp_path):
    return [
        run_cli("export-features", "--checkpoint", str(checkpoint), "--data", str(dataset_dir),
                "--out", str(tmp_path / "features.csv")),
        run_cli("saliency-export", "--checkpoint", str(checkpoint), "--data", str(dataset_dir),
                "--samples", "2", "--out", str(tmp_path / "sal.csv"), "--sg-n", "2"),
    ]


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]", "{bad", ("params",), ("params", "fc0_w"), ("layers", 0, "name"), ("format",), ("layers", 0, "kind"),
        ("params", "fc0_w", "values", 0),
    ],
    ids=["json-list", "invalid-json", "missing-params", "missing-parameter", "layer-without-name", "missing-format",
         "layer-without-kind", "value-count-not-the-shape"],
)
def test_malformed_checkpoint_exits_one(text, checkpoint_doc, dataset_dir, tmp_path):
    if isinstance(text, tuple):
        # a good checkpoint without the entry at this path
        doc = json.loads(json.dumps(checkpoint_doc))
        *parents, key = text
        node = doc
        for step in parents:
            node = node[step]
        del node[key]
        text = json.dumps(doc)
    bad = tmp_path / "checkpoint.json"
    bad.write_text(text)
    for result in _exports(bad, dataset_dir, tmp_path):
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
        assert str(bad) in result.stderr


def test_unknown_layer_kind_exits_one(checkpoint_doc, dataset_dir, tmp_path):
    doc = json.loads(json.dumps(checkpoint_doc))
    doc["layers"].insert(1, {"kind": "bogus"})
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(doc))
    for result in _exports(bad, dataset_dir, tmp_path):
        assert result.returncode == 1, result.stderr
        assert "bogus" in result.stderr and "Traceback" not in result.stderr
    assert not (tmp_path / "features.csv").exists()


@pytest.mark.parametrize("command", ["saliency-export", "export-features"])
def test_checkpoint_without_the_affine_head_exits_one_at_load(command, checkpoint_doc, monkeypatch, tmp_path, capsys):
    doc = json.loads(json.dumps(checkpoint_doc))
    del doc["layers"][-1]  # the MLP now ends in relu, and its forward pass still runs
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("read data for a checkpoint without a head"))
    out = tmp_path / "out.csv"
    assert cli.main([command, "--checkpoint", str(bad), "--data", str(tmp_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: the last layer must be the affine head\n"
    assert list(tmp_path.iterdir()) == [bad]


def test_checkpoint_with_a_wrong_num_classes_exits_one_before_saliency_export_writes(
    checkpoint_doc, dataset_dir, tmp_path, capsys
):
    doc = json.loads(json.dumps(checkpoint_doc))
    doc["num_classes"] = 2  # the head still has 3 columns; class-2 rows start at row 80
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(doc))
    args = ["saliency-export", "--checkpoint", str(bad), "--data", str(dataset_dir), "--samples", "100",
            "--sg-n", "1", "--out", str(tmp_path / "sal.csv")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: {bad}: the head has 3 outputs, but num_classes is 2\n"
    assert list(tmp_path.iterdir()) == [bad]


def test_label_the_checkpoint_lacks_exits_one_before_saliency_export_writes(checkpoint_doc, tmp_path, capsys):
    # the checkpoint has 3 classes; this data has 4, and its first class-3 row is data.csv row 17
    data = tmp_path / "four"
    argv = ["generate", "--kind", "spurious-gaussian", "--classes", "4", "--n-per-domain-class", "5", "--out", str(data)]
    assert cli.main(argv) == 0
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(checkpoint_doc))
    capsys.readouterr()
    args = ["saliency-export", "--checkpoint", str(checkpoint), "--data", str(data), "--samples", "80",
            "--sg-n", "1", "--out", str(tmp_path / "sal.csv")]
    assert cli.main(args) == 1
    message = f"error: {data / 'data.csv'}: row 17: label 3 is not a class of the checkpoint, which has 3 classes\n"
    assert capsys.readouterr() == ("", message)
    assert not list(tmp_path.glob("sal_*"))


def test_negative_saliency_sample_count_exits_one(checkpoint_doc, dataset_dir, tmp_path):
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(checkpoint_doc))
    result = run_cli(
        "saliency-export", "--checkpoint", str(checkpoint), "--data", str(dataset_dir),
        "--samples", "-3", "--out", str(tmp_path / "sal.csv"),
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "--samples" in result.stderr
    assert "wrote" not in result.stdout


def test_main_pins_glibc_heap_thresholds(monkeypatch, tmp_path, capsys):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli, "_libc", lambda: types.SimpleNamespace(mallopt=mallopt))
    out = tmp_path / "ds"
    assert cli.main(["generate", "--kind", "waveforms", "--out", str(out), "--length", "16"]) == 0
    # M_MMAP_THRESHOLD = -3 and M_TRIM_THRESHOLD = -1 in glibc's malloc.h
    assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]


def test_libc_without_mallopt_gives_the_same_lodo_report(monkeypatch, dataset_dir, config_path, tmp_path, capsys):
    args = ["lodo", "--data", str(dataset_dir), "--config", str(config_path),
            "--methods", "ce_only,mask_only", "--seeds", "0"]
    pinned = run_cli(*args, "--out", str(tmp_path / "pinned.json"))
    assert pinned.returncode == 0, pinned.stderr
    monkeypatch.setattr(cli, "_libc", lambda: types.SimpleNamespace())
    assert cli.main([*args, "--out", str(tmp_path / "unpinned.json")]) == 0
    assert capsys.readouterr().out == pinned.stdout
    assert (tmp_path / "unpinned.json").read_bytes() == (tmp_path / "pinned.json").read_bytes()


def _dataset_missing_a_class(path, missing, rows_outside_target):
    """Three domains a, b, c and three classes; class ``missing`` has 6 rows
    in target c and ``rows_outside_target`` in domain a."""
    rng = np.random.default_rng(0)
    X, y, domain = [], [], []
    for d in "abc":
        for c in range(3):
            if c != missing or d == "c":
                n = 6
            else:
                n = rows_outside_target if d == "a" else 0
            X.append(rng.standard_normal((n, 4)) + c)
            y += [c] * n
            domain += [d] * n
    save_dataset(
        DomainDataset(X=np.concatenate(X), y=np.array(y), domain=np.array(domain),
                      num_classes=3, domain_names=["a", "b", "c"]),
        path,
    )


MISSING_CLASS_CASES = {
    # id: (command, missing class, its rows in domain a, extra flags, message)
    "lodo-lowest-class": ("lodo", 0, 0, [], "class 0"),
    "lodo-top-class": ("lodo", 2, 0, [], "class 2"),
    "lodo-held-out": ("lodo", 2, 1, ["--holdout", "0.1"], "class 2 after the holdout split"),
    "ablation-lowest-class": ("ablation", 0, 0, [], "class 0"),
    "ablation-top-class": ("ablation", 2, 0, [], "class 2"),
}


@pytest.mark.filterwarnings("ignore:classes missing")
@pytest.mark.parametrize("case", MISSING_CLASS_CASES.values(), ids=MISSING_CLASS_CASES.keys())
def test_class_missing_from_a_source_split_exits_one(case, monkeypatch, config_path, tmp_path, capsys):
    command, missing, rows_outside_target, extra, message = case
    data = tmp_path / "ds"
    _dataset_missing_a_class(data, missing, rows_outside_target)
    # only the last target's split lacks the class, and it is found before any run trains
    monkeypatch.setattr(evaluation, "train", lambda *a: pytest.fail("trained before every split was checked"))
    args = [command, "--data", str(data), "--config", str(config_path), "--seeds", "0",
            "--out", str(tmp_path / "report.json"), *extra, *_grid_or_methods(command, "ce_only", tmp_path)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: target=c: the source split has no rows of {message}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["lodo", "ablation"])
def test_target_domain_without_rows_exits_one_before_any_training(command, explode_config, tmp_path, capsys):
    # meta.json lists domain c, but data.csv has no row of it
    rng = np.random.default_rng(0)
    y = np.tile(np.arange(3), 8)
    save_dataset(
        DomainDataset(X=rng.standard_normal((24, 4)), y=y, domain=np.repeat(["a", "b"], 12),
                      num_classes=3, domain_names=["a", "b", "c"]),
        tmp_path / "ds",
    )
    out = tmp_path / "report.json"
    args = [command, "--data", str(tmp_path / "ds"), "--config", str(explode_config), "--seeds", "0",
            *_grid_or_methods(command, "ce_only", tmp_path), "--out", str(out)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: target domain 'c' has no rows\n"
    assert not out.exists()


@pytest.mark.parametrize("holdout", [[], ["--holdout", "0.1"]], ids=["no-holdout", "holdout"])
def test_target_holding_every_row_exits_one_before_any_training(holdout, explode_config, tmp_path, capsys):
    # meta.json lists domain b, but every data.csv row is of domain a, so target a's source split is empty
    save_dataset(
        DomainDataset(X=np.zeros((6, 4)), y=np.tile(np.arange(3), 2), domain=np.repeat("a", 6),
                      num_classes=3, domain_names=["a", "b"]),
        tmp_path / "ds",
    )
    out = tmp_path / "report.json"
    args = ["lodo", "--data", str(tmp_path / "ds"), "--config", str(explode_config), "--seeds", "0",
            "--methods", "ce_only", *holdout, "--out", str(out)]
    assert cli.main(args) == 1
    after = " after the holdout split" if holdout else ""
    assert capsys.readouterr().err == f"error: target=a: the source split has no rows of class 0, 1, 2{after}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["lodo", "ablation"])
def test_dataset_listing_no_domain_exits_one(command, explode_config, tmp_path, capsys):
    save_dataset(
        DomainDataset(X=np.zeros((0, 4)), y=np.zeros(0, dtype=np.int64), domain=np.array([], dtype=str),
                      num_classes=3, domain_names=[]),
        tmp_path / "ds",
    )
    out = tmp_path / "report.json"
    args = [command, "--data", str(tmp_path / "ds"), "--config", str(explode_config), "--seeds", "0",
            *_grid_or_methods(command, "ce_only", tmp_path), "--out", str(out)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: leave_one_domain_out needs at least 2 domains\n"
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:classes missing")
def test_lodo_warns_of_a_class_missing_from_a_domain_once(config_path, tmp_path):
    # d0 has no row of class 2; a target split is a view, which checks no classes of its own
    ds = generate_spurious_gaussian(num_domains=3, n_per_domain_class=6, seed=0)
    keep = (ds.domain != "d0") | (ds.y != 2)
    save_dataset(replace(ds, X=ds.X[keep], y=ds.y[keep], domain=ds.domain[keep]), tmp_path / "ds")
    args = ["lodo", "--data", str(tmp_path / "ds"), "--config", str(config_path), "--seeds", "0",
            "--methods", "ce_only", "--out", str(tmp_path / "report.json")]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert cli.main(args) == 0
    missing = [str(w.message) for w in seen if str(w.message).startswith("classes missing")]
    assert missing == ["classes missing from some domains: [('d0', 2)]"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["train", "lodo", "ablation"])
def test_non_finite_data_exits_one_before_any_training(command, value, monkeypatch, explode_config, tmp_path, capsys):
    # load_dataset reads these values, but no run can train on them
    ds = generate_spurious_gaussian(num_domains=3, n_per_domain_class=6, seed=0)
    ds.X[4, 3] = float(value)  # data.csv row 6
    ds.X[9, 0] = np.nan  # a later row, which the message must not name
    save_dataset(ds, tmp_path / "ds")
    monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("trained on non-finite data"))
    monkeypatch.setattr(evaluation, "train", lambda *a: pytest.fail("trained on non-finite data"))
    extra = ["--seeds", "0", *_grid_or_methods(command, "ce_only", tmp_path)] if command != "train" else []
    out = tmp_path / "out"
    args = [command, "--data", str(tmp_path / "ds"), "--config", str(explode_config), *extra, "--out", str(out)]
    assert cli.main(args) == 1
    data_csv = tmp_path / "ds" / "data.csv"
    assert capsys.readouterr().err == (
        f"error: {data_csv}: row 6: value {value} is not finite, and training needs finite values\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "spurious-gaussian", "--num-domains", "0"], "generate_spurious_gaussian: counts must be positive"),
        (["--kind", "waveforms", "--classes", "1"], "generate_shifted_waveforms: need >= 2 classes, got 1"),
    ],
    ids=["no-domains", "one-class"],
)
def test_generate_count_the_generator_refuses_exits_one(argv, message, tmp_path, capsys):
    out = tmp_path / "ds"
    assert cli.main(["generate", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def two_class_dir(tmp_path_factory):
    """A tiny 2-class spurious-gaussian dataset with domains d0 and d1."""
    path = tmp_path_factory.mktemp("two-class") / "ds"
    save_dataset(generate_spurious_gaussian(num_domains=2, classes=2, n_per_domain_class=5, seed=1), path)
    return path


def _meta_edit(edit):
    def apply(data):
        meta = json.loads((data / "meta.json").read_text())
        edit(meta)
        (data / "meta.json").write_text(json.dumps(meta))
    return apply


DATASET_EDITS = {
    # id: (command, edit of the dataset directory, the file the message names, the message after it)
    "empty-data-csv": ("train", lambda data: (data / "data.csv").write_text(""), "data.csv", "empty file"),
    "meta-without-num-classes": (
        "train", _meta_edit(lambda meta: meta.pop("num_classes")), "meta.json", "bad sidecar fields: 'num_classes'"
    ),
    # a cast read 3.7 as 3 classes, and lodo exited 0
    "num-classes-not-an-integer": (
        "lodo", _meta_edit(lambda meta: meta.update(num_classes=3.7)), "meta.json",
        "num_classes must be an int64 integer, got 3.7",
    ),
    # lodo would run a repeated target twice and count it twice in its Avg row
    "domain-name-listed-twice": (
        "lodo", _meta_edit(lambda meta: meta["domain_names"].append("d0")), "meta.json",
        "domain name 'd0' is listed twice in domain_names",
    ),
}


@pytest.mark.parametrize("case", DATASET_EDITS.values(), ids=DATASET_EDITS.keys())
def test_dataset_file_the_loader_refuses_exits_one_before_any_training(case, two_class_dir, monkeypatch, tmp_path, capsys):
    command, edit, named, message = case
    data = tmp_path / "ds"
    shutil.copytree(two_class_dir, data)
    edit(data)
    monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("trained on a dataset the loader refuses"))
    monkeypatch.setattr(evaluation, "train", lambda *a: pytest.fail("trained on a dataset the loader refuses"))
    out = tmp_path / "out"
    extra = [] if command == "train" else ["--methods", "ce_only", "--seeds", "0"]
    assert cli.main([command, "--data", str(data), *extra, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {data / named}: {message}\n"
    assert not out.exists()


CONFIGS_THE_DATA_REFUSES = {
    # id: (command, --config document, message)
    "cnn1d-on-flat-samples": ("train", {"arch": "cnn1d"}, "cnn1d needs (channels, length) samples, got shape (10,)"),
    "config-a-json-list": ("train", [1, 2], "{config}: a config must be a JSON object, got list"),
    "class-ratio-the-batch-cannot-hold": (
        "lodo", {"min_class_ratio": 1.0, "batch_size": 5}, "cannot satisfy min_ratio 1.0 with batch_size 5 and 2 classes"
    ),
}


@pytest.mark.parametrize("case", CONFIGS_THE_DATA_REFUSES.values(), ids=CONFIGS_THE_DATA_REFUSES.keys())
def test_config_the_run_cannot_take_exits_one(case, two_class_dir, tmp_path, capsys):
    command, doc, message = case
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    extra = [] if command == "train" else ["--methods", "ce_only", "--seeds", "0"]
    assert cli.main([command, "--data", str(two_class_dir), "--config", str(config), *extra, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(config=config)}\n"
    assert not out.exists()


CONFIG_FILE_ERRORS = {
    # id: (--config document, the message after the file's name)
    "a-json-list": ([1, 2], "a config must be a JSON object, got list"),
    "negative-alpha": ({"alpha": -1}, "alpha must be >= 0, got -1"),
    "unknown-key": ({"nope": 1}, "unknown config keys: ['nope']"),
}


@pytest.mark.parametrize("command", ["train", "lodo", "ablation"])
@pytest.mark.parametrize("case", CONFIG_FILE_ERRORS.values(), ids=CONFIG_FILE_ERRORS.keys())
def test_config_file_error_names_the_file(case, command, tmp_path, capsys):
    # no --data exists, so each error comes before any data loads
    doc, message = case
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    grid = tmp_path / "grid.json"
    grid.write_text("[[0, 0, 0]]")
    args = [command, "--data", str(tmp_path / "no-data"), "--config", str(config), "--out", str(tmp_path / "out")]
    args += ["--grid", str(grid)] if command == "ablation" else []
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, flag, value, message",
    [
        ("spurious-gaussian", "--noise-sd", "nan",
         "generate_spurious_gaussian: noise_sd must be a finite double or an int64, got nan"),
        ("waveforms", "--noise-sd", "inf",
         "generate_shifted_waveforms: noise_sd must be a finite double or an int64, got inf"),
        ("spurious-gaussian", "--nuisance-strength", "-inf",
         "generate_spurious_gaussian: nuisance_strength must be a finite double or an int64, got -inf"),
        ("waveforms", "--background-amplitude", "nan",
         "generate_shifted_waveforms: background_amplitude must be a finite double or an int64, got nan"),
        ("spurious-gaussian", "--noise-sd", "-0.5", "generate_spurious_gaussian: noise_sd must be >= 0, got -0.5"),
        ("waveforms", "--noise-sd", "-1", "generate_shifted_waveforms: noise_sd must be >= 0, got -1.0"),
    ],
    ids=["gauss-noise-nan", "wave-noise-inf", "nuisance-minus-inf", "background-nan", "gauss-noise-negative",
         "wave-noise-negative"],
)
def test_generate_non_finite_or_negative_noise_flag_exits_one(kind, flag, value, message, tmp_path, capsys):
    out = tmp_path / "ds"
    assert cli.main(["generate", "--kind", kind, "--out", str(out), f"{flag}={value}"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_smoothgrad_defaults_reach_the_config_and_the_saliency_flags():
    sg = SmoothGradConfig()
    args = cli.build_parser().parse_args(["saliency-export", "--checkpoint", "c", "--data", "d", "--out", "o"])
    assert (args.sg_n, args.sg_sigma, args.sg_seed) == (sg.n, sg.sigma, sg.seed)
    assert (TrainConfig().sg_n, TrainConfig().sg_sigma) == (sg.n, sg.sigma)


NETWORK_SHAPES = {
    # id: (config, message)
    "even-kernel": ({"arch": "cnn1d", "kernel": 4}, "kernel must be odd and >= 1, got 4"),
    "zero-width": ({"hidden": [0]}, "hidden must be a list of integers >= 1, got [0]"),
    "zero-channels": ({"arch": "cnn1d", "channels": [8, 0]}, "channels must be a list of integers >= 1, got [8, 0]"),
}


@pytest.mark.parametrize("command", ["train", "lodo", "ablation"])
@pytest.mark.parametrize("case", NETWORK_SHAPES.values(), ids=NETWORK_SHAPES.keys())
def test_network_shape_checked_before_loading_data(case, command, tmp_path, capsys):
    # no --data exists, so the config's field is named before any data loads
    cfg, message = case
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / ("run" if command == "train" else "r.json")
    args = [command, "--data", str(tmp_path / "nope"), "--config", str(config), "--out", str(out)]
    args += [] if command == "train" else _grid_or_methods(command, "ce_only", tmp_path)
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    assert not out.exists()



UNALLOCATABLE = 10**12  # elements: far past any host's memory, so numpy refuses at once


@pytest.mark.parametrize(
    "command, setting",
    [
        ("generate", ["--n-per-domain-class", str(UNALLOCATABLE)]),
        ("train", {"sg_n": UNALLOCATABLE}),
        ("train", {"hidden": [UNALLOCATABLE]}),
        ("train", {"batch_size": UNALLOCATABLE}),
        ("lodo", {"sg_n": UNALLOCATABLE}),
        ("lodo", {"hidden": [UNALLOCATABLE]}),
        ("saliency-export", ["--sg-n", str(UNALLOCATABLE)]),
    ],
    ids=["generate-rows", "train-sg-n", "train-hidden", "train-batch-size", "lodo-sg-n", "lodo-hidden", "saliency-export-sg-n"],
)
def test_size_the_host_cannot_allocate_exits_one(command, setting, checkpoint_doc, dataset_dir, config_path, tmp_path, capsys):
    # the size passes every check and fails at its first allocation, after the data loads
    out = tmp_path / "out"
    if command == "generate":
        args = ["--kind", "spurious-gaussian", *setting]
    elif command == "saliency-export":
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(checkpoint_doc))
        args = ["--checkpoint", str(checkpoint), "--data", str(dataset_dir), "--samples", "2", *setting]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**json.loads(config_path.read_text()), **setting}))
        args = ["--data", str(dataset_dir), "--config", str(config)]
        args += ["--methods", "alternate", "--seeds", "0"] if command == "lodo" else []
    assert cli.main([command, *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1, err
