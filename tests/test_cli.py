import json
import subprocess
import sys
import types

import numpy as np
import pytest

from dglab import cli
from dglab.data import DomainDataset, generate_shifted_waveforms, generate_spurious_gaussian, save_dataset


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
    [("spurious-gaussian", "--length"), ("waveforms", "--signal-dims")],
)
def test_generate_flag_the_kind_does_not_take_exits_one(kind, flag, tmp_path):
    out = tmp_path / "ds"
    result = run_cli("generate", "--kind", kind, "--out", str(out), flag, "3")
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and flag in result.stderr
    assert "Traceback" not in result.stderr
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


def test_read_only_out_directory_exits_one(monkeypatch, tmp_path, capsys):
    # tests may run as root, which may write anywhere, so the permission test is stubbed
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = tmp_path / "report.json"
    assert cli.main(["lodo", "--data", str(tmp_path / "no-data"), "--out", str(out)]) == 1
    assert f"directory {tmp_path} is not writable" in capsys.readouterr().err


def test_unknown_method_rejected_before_any_training(dataset_dir, tmp_path):
    # ce_only fails numerically at this learning rate (exit 2) once it trains
    cfg = tmp_path / "explode.json"
    cfg.write_text(json.dumps({"iterations": 40, "batch_size": 12, "base_lr": 1e12, "hidden": [8], "sg_n": 1}))
    result = run_cli(
        "lodo", "--data", str(dataset_dir), "--config", str(cfg),
        "--methods", "ce_only,bogus", "--seeds", "0", "--out", str(tmp_path / "x.json"),
    )
    assert result.returncode == 1
    assert "bogus" in result.stderr and "Traceback" not in result.stderr


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
    ["[1, 2]", "{bad", None],
    ids=["json-list", "invalid-json", "missing-params"],
)
def test_malformed_checkpoint_exits_one(text, checkpoint_doc, dataset_dir, tmp_path):
    if text is None:
        text = json.dumps({k: v for k, v in checkpoint_doc.items() if k != "params"})
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
def test_class_missing_from_a_source_split_exits_one(case, config_path, tmp_path, capsys):
    command, missing, rows_outside_target, extra, message = case
    data = tmp_path / "ds"
    _dataset_missing_a_class(data, missing, rows_outside_target)
    args = [command, "--data", str(data), "--config", str(config_path), "--seeds", "0",
            "--out", str(tmp_path / "report.json"), *extra]
    if command == "lodo":
        args += ["--methods", "ce_only"]
    else:
        grid = tmp_path / "grid.json"
        grid.write_text("[[0, 0, 0]]")
        args += ["--grid", str(grid)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: target=c: the source split has no rows of {message}\n"
    assert not (tmp_path / "report.json").exists()
