import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"


def _load(monkeypatch):
    spec = importlib.util.spec_from_file_location("output_digests", _PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src on it
    spec.loader.exec_module(module)
    return module


def test_two_runs_list_every_output_once_with_the_same_digests(monkeypatch, tmp_path, capsys):
    script = _load(monkeypatch)
    listings = []
    for run in ("a", "b"):
        argv = ["--work", str(tmp_path / run), "--iterations", "2", "--n-per-domain-class", "8"]
        assert script.main(argv) == 0
        listings.append(capsys.readouterr().out.splitlines())
    assert listings[0] == listings[1]  # history.csv's seconds differ between the runs
    listed = [line.split("  ", 1)[1] for line in listings[0]]
    out = tmp_path / "a" / "out"
    assert listed == sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert "ablation-mlp.json" in listed
    for name in script.DATASETS:
        for variant in (f"{name}-{script.WIDE_DOMAINS}", f"{name}-odd"):
            assert {f"{variant}/data.csv", f"{variant}/meta.json"} <= set(listed)
    for name in script.MODELS:
        assert {f"lodo-{name}.json", f"train-{name}/checkpoint.json", f"train-{name}/history.csv",
                f"features-{name}.csv"} <= set(listed)
        masked = f"train-{name}-masked"
        assert {f"{masked}/checkpoint.json", f"{masked}/history.csv", f"{masked}/config.json"} <= set(listed)
        assert sum(path.startswith(f"saliency-{name}_") for path in listed) == script.SALIENCY_SAMPLES


def test_history_digest_drops_only_the_seconds_column(monkeypatch):
    script = _load(monkeypatch)
    text = "iteration,strategy,lr,seconds,x\n0,ce,0.001,0.25,1\n1,ce,0.001,0.5,2\n"
    assert script.without_seconds(text) == "iteration,strategy,lr,x\n0,ce,0.001,1\n1,ce,0.001,2\n"
