import ast
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import dglab
from dglab.data import (
    DomainDataset,
    TrainView,
    class_balanced_batches,
    generate_shifted_waveforms,
    generate_spurious_gaussian,
    leave_one_domain_out,
    load_dataset,
    open_for_rewrite,
    save_dataset,
    split_holdout,
)
from dglab.errors import ConfigError, DataFormatError


def small_gaussian(**kwargs):
    defaults = dict(num_domains=3, classes=3, n_per_domain_class=40, seed=0)
    defaults.update(kwargs)
    return generate_spurious_gaussian(**defaults)


def test_generator_is_pure_function_of_seed():
    a = small_gaussian()
    b = small_gaussian()
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = small_gaussian(seed=1)
    assert not np.array_equal(a.X, c.X)


def test_every_class_in_every_domain():
    ds = small_gaussian()
    for d in ds.domain_names:
        present = set(ds.y[ds.domain == d].tolist())
        assert present == set(range(ds.num_classes))


def test_zero_nuisance_strength_removes_domain_shift():
    ds = small_gaussian(nuisance_strength=0.0, n_per_domain_class=300)
    # nuisance coordinates then have zero mean in every (domain, class) cell
    nuis = ds.X[:, 2:]
    for d in ds.domain_names:
        for c in range(ds.num_classes):
            cell = nuis[(ds.domain == d) & (ds.y == c)]
            assert np.abs(cell.mean(axis=0)).max() < 4 * 0.5 / math.sqrt(len(cell))


def test_zero_nuisance_dims_means_no_shift_by_construction():
    ds = small_gaussian(nuisance_dims=0)
    assert ds.X.shape[1] == 2


def test_waveform_generator_shapes_and_determinism():
    ds = generate_shifted_waveforms(num_domains=2, classes=2, length=32, n_per_domain_class=5, seed=3)
    assert ds.X.shape == (2 * 2 * 5, 1, 32)
    again = generate_shifted_waveforms(num_domains=2, classes=2, length=32, n_per_domain_class=5, seed=3)
    assert np.array_equal(ds.X, again.X)


def test_waveform_zero_background_removes_domain_differences():
    ds = generate_shifted_waveforms(
        num_domains=3, classes=2, length=32, n_per_domain_class=200, seed=4, background_amplitude=0.0
    )
    # per-class mean waveforms agree across domains up to sampling noise
    for c in range(2):
        means = [
            ds.X[(ds.domain == d) & (ds.y == c), 0].mean(axis=0) for d in ds.domain_names
        ]
        for m in means[1:]:
            assert np.abs(m - means[0]).max() < 0.25


def test_waveform_length_validation():
    with pytest.raises(ConfigError):
        generate_shifted_waveforms(length=8)


def test_save_load_round_trip_bit_exact(tmp_path):
    for ds in (small_gaussian(), generate_shifted_waveforms(num_domains=2, classes=2, length=20, n_per_domain_class=4)):
        path = tmp_path / f"ds{ds.X.ndim}"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)
        assert list(back.domain) == list(ds.domain)
        assert back.num_classes == ds.num_classes
        assert back.domain_names == ds.domain_names


def _rewrite(path, text):
    with open_for_rewrite(path) as fh:
        fh.write(text)


@pytest.mark.parametrize("old, new", [("0123456789\n" * 50, "short\n"), ("short\n", "0123456789\n" * 50)],
                         ids=["shorter", "longer"])
def test_rewrite_leaves_exactly_the_new_bytes(old, new, tmp_path):
    path = tmp_path / "out.txt"
    path.write_text(old)
    inode = path.stat().st_ino
    _rewrite(path, new)
    assert path.read_text() == new
    assert path.stat().st_ino == inode


def test_rewrite_through_a_symlink_writes_its_target(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old contents, longer than the new\n")
    link.symlink_to(target)
    _rewrite(link, "new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"


def test_rewrite_is_seen_through_a_hard_link(tmp_path):
    path, other = tmp_path / "a.csv", tmp_path / "b.csv"
    path.write_text("old,old,old\n")
    os.link(path, other)
    _rewrite(path, "new\n")
    assert other.read_text() == "new\n"


def test_rewrite_keeps_the_file_mode(tmp_path):
    path = tmp_path / "private.json"
    path.write_text("old\n")
    path.chmod(0o600)
    _rewrite(path, "new\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_rewrite_creates_a_missing_file_like_open(tmp_path):
    path, reference = tmp_path / "new.txt", tmp_path / "reference.txt"
    _rewrite(path, "x\n")
    with open(reference, "w", encoding="utf-8") as fh:
        fh.write("x\n")
    assert path.read_bytes() == reference.read_bytes()
    assert path.stat().st_mode == reference.stat().st_mode  # umask applied alike


def test_rewrite_interrupted_leaves_what_was_written(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("a much longer report from an earlier run\n")
    with pytest.raises(RuntimeError):
        with open_for_rewrite(path) as fh:
            fh.write("half")
            raise RuntimeError("interrupted")
    assert path.read_text() == "half"


def test_rewrite_to_the_null_device():
    _rewrite(os.devnull, "discarded\n")  # a device has no length to cut


WRITE_MODE_CHARS = set("wax+")


def direct_writes(source: str) -> list[int]:
    """Lines of ``source`` that open a file for writing other than through open_for_rewrite."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "open_for_rewrite"
        for node in ast.walk(fn)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            lines.append(node.lineno)  # pathlib opens with "w"
            continue
        is_open = (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr == "open"
            and isinstance(func.value, ast.Name) and func.value.id == "io"
        )
        if not is_open:
            continue
        mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
        if mode is None:
            continue  # "r"
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or WRITE_MODE_CHARS & set(mode.value):
            lines.append(node.lineno)
    return sorted(lines)


def test_write_scan_flags_every_write_mode():
    source = "\n".join([
        "open(p)",
        "open(p, 'r', encoding='utf-8')",
        "open(p, 'w')",
        "open(p, mode='wb')",
        "io.open(p, 'a')",
        "open(p, 'x')",
        "open(p, m)",
        "Path(p).write_text(s)",
        "def open_for_rewrite(path):",
        "    return open(fd, 'w')",
    ])
    assert direct_writes(source) == [3, 4, 5, 6, 7, 8]


def test_every_writer_goes_through_open_for_rewrite():
    # open(path, "w") truncates on opening, which can wait for ext4 writeback
    src = Path(dglab.__file__).parent
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        for line in direct_writes(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_load_rejects_label_out_of_range(tmp_path):
    ds = small_gaussian()
    save_dataset(ds, tmp_path)
    data_file = tmp_path / "data.csv"
    lines = data_file.read_text().splitlines()
    parts = lines[5].split(",")
    parts[1] = str(ds.num_classes)  # invalid label
    lines[5] = ",".join(parts)
    data_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as exc:
        load_dataset(tmp_path)
    assert "row 6" in str(exc.value)


def test_load_rejects_header_sidecar_mismatch(tmp_path):
    ds = small_gaussian()
    save_dataset(ds, tmp_path)
    meta_file = tmp_path / "meta.json"
    meta = json.loads(meta_file.read_text())
    meta["input_shape"] = [7]
    meta_file.write_text(json.dumps(meta))
    with pytest.raises(DataFormatError):
        load_dataset(tmp_path)


def test_load_rejects_unknown_domain(tmp_path):
    ds = small_gaussian()
    save_dataset(ds, tmp_path)
    data_file = tmp_path / "data.csv"
    lines = data_file.read_text().splitlines()
    parts = lines[3].split(",")
    parts[0] = "mystery"
    lines[3] = ",".join(parts)
    data_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as exc:
        load_dataset(tmp_path)
    assert "row 4" in str(exc.value)


def test_lodo_sizes_and_partition():
    ds = small_gaussian()
    train, test = leave_one_domain_out(ds, "d1")
    assert test.n == ds.n // 3
    assert train.X.shape[0] == 2 * ds.n // 3
    assert train.y.shape == (train.X.shape[0],)
    # partition: row multisets of X match exactly
    combined = np.concatenate([train.X, test.X])
    assert np.array_equal(
        np.sort(combined.reshape(len(combined), -1), axis=0),
        np.sort(ds.X.reshape(ds.n, -1), axis=0),
    )


def test_lodo_unknown_target():
    with pytest.raises(ConfigError):
        leave_one_domain_out(small_gaussian(), "nope")


def test_lodo_requires_two_domains():
    ds = small_gaussian()
    solo = DomainDataset(
        X=ds.X[ds.domain == "d0"],
        y=ds.y[ds.domain == "d0"],
        domain=ds.domain[ds.domain == "d0"],
        num_classes=ds.num_classes,
        domain_names=["d0"],
    )
    with pytest.raises(ConfigError):
        leave_one_domain_out(solo, "d0")


def test_train_view_structurally_domain_free():
    ds = small_gaussian()
    train, _ = leave_one_domain_out(ds, "d0")
    assert isinstance(train, TrainView)
    assert not hasattr(train, "domain")
    assert set(TrainView.__dataclass_fields__) == {"X", "y"}


def test_split_holdout_stratified_partition():
    ds = small_gaussian()
    view = TrainView(X=ds.X, y=ds.y)
    rest, held = split_holdout(view, 0.1, seed=0)
    assert rest.X.shape[0] + held.X.shape[0] == ds.n
    assert set(np.unique(held.y)) == set(range(ds.num_classes))
    assert set(np.unique(rest.y)) == set(range(ds.num_classes))


def test_balanced_batches_exact_size_and_every_class():
    ds = small_gaussian()
    view = TrainView(X=ds.X, y=ds.y)
    stream = class_balanced_batches(view, 16, 0.5, np.random.default_rng(0))
    for _ in range(20):
        X, y = next(stream)
        assert X.shape == (16, ds.X.shape[1])
        counts = np.bincount(y, minlength=3)
        assert counts.min() >= 1
        assert counts.min() >= math.ceil(0.5 * counts.max())


def test_balanced_batches_heavy_imbalance():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((1000, 4))
    y = np.concatenate([np.zeros(990, dtype=np.int64), np.ones(10, dtype=np.int64)])
    stream = class_balanced_batches(TrainView(X=X, y=y), 128, 0.5, np.random.default_rng(2))
    for _ in range(100):
        _, yb = next(stream)
        counts = np.bincount(yb, minlength=2)
        assert counts.sum() == 128
        assert counts.min() >= math.ceil(0.5 * counts.max())


def test_balanced_batches_reject_empty_class():
    X = np.zeros((10, 3))
    y = np.array([0, 0, 0, 0, 0, 2, 2, 2, 2, 2])  # class 1 missing
    with pytest.raises(ConfigError):
        class_balanced_batches(TrainView(X=X, y=y), 6, 0.5, np.random.default_rng(0))


def test_balanced_batches_batch_size_below_classes():
    ds = small_gaussian()
    with pytest.raises(ConfigError):
        class_balanced_batches(TrainView(X=ds.X, y=ds.y), 2, 0.5, np.random.default_rng(0))


def test_waveform_motif_attracts_saliency():
    # train a small conv model, then check that the class-carrying burst
    # window scores higher average saliency than the background steps
    from dglab.saliency import SmoothGradConfig, smoothgrad
    from dglab.trainer import TrainConfig, train

    ds = generate_shifted_waveforms(num_domains=3, classes=2, length=32, n_per_domain_class=80, seed=0)
    view, _ = leave_one_domain_out(ds, "d0")
    cfg = TrainConfig(
        arch="cnn1d", channels=(8, 16), kernel=7, iterations=1000,
        batch_size=32, sg_n=4, strategy_mode="ce_only", seed=0,
    )
    model, _ = train(view, cfg)
    motif = np.zeros(32, dtype=bool)
    motif[8:24] = True
    sg = SmoothGradConfig(n=8, sigma=0.15, seed=0)
    totals = np.zeros(32)
    for i in range(0, len(view.X), 4):
        totals += smoothgrad(model, view.X[i], int(view.y[i]), sg)[0]
    assert totals[motif].mean() > 1.1 * totals[~motif].mean()


def test_missing_class_in_domain_warns():
    X = np.zeros((4, 2))
    y = np.array([0, 1, 0, 0])
    domain = np.array(["a", "a", "b", "b"])  # domain b lacks class 1
    with pytest.warns(UserWarning):
        DomainDataset(X=X, y=y, domain=domain, num_classes=2, domain_names=["a", "b"])
