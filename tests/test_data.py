import ast
import csv
import io
import json
import math
import os
import re
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dglab
from dglab.data import (
    WRITE_BLOCK_ROWS,
    DomainDataset,
    TrainView,
    check_every_class,
    check_finite,
    class_balanced_batches,
    generate_shifted_waveforms,
    generate_spurious_gaussian,
    holdout_rows,
    leave_one_domain_out,
    load_dataset,
    open_for_rewrite,
    read_json,
    save_dataset,
    split_holdout,
    write_json,
    write_rows,
)
from dglab.errors import ConfigError, ContractError, DataFormatError


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


JSON_HELPERS = ("write_json", "read_json")


def direct_json_file_calls(source: str) -> list[int]:
    """Lines of ``source`` that call json.dump or json.load, or import either,
    other than inside write_json and read_json."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in JSON_HELPERS
        for node in ast.walk(fn)
    }
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if {alias.name for alias in node.names} & {"dump", "load"}:
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "load")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_json_scan_flags_every_file_call():
    source = "\n".join([
        "json.dumps(doc, sort_keys=True)",
        "json.loads(text)",
        "json.dump(doc, fh)",
        "json.load(fh)",
        "from json import load",
        "pickle.load(fh)",
        "def write_json(path, doc):",
        "    json.dump(doc, fh)",
        "def read_json(path):",
        "    return json.load(fh)",
    ])
    assert direct_json_file_calls(source) == [3, 4, 5]


def test_every_json_file_goes_through_write_json_and_read_json():
    # one owner for the sorted keys, the trailing newline and the invalid-JSON error
    src = Path(dglab.__file__).parent
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        for line in direct_json_file_calls(path.read_text(encoding="utf-8"))
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


def test_json_round_trip_keeps_each_layout(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"b": [1, 2.5], "a": {"y": None, "x": "s"}}
    for layout in ({"indent": 2}, {"separators": (",", ":")}):
        path.write_text("x" * 500)  # rewritten in place: no stale tail may remain
        write_json(path, doc, **layout)
        assert path.read_text() == json.dumps(doc, sort_keys=True, **layout) + "\n"
        assert read_json(path) == doc


@pytest.mark.parametrize("content", [b"{bad", b"\xff\xfe{}"], ids=["invalid-json", "not-utf8"])
def test_read_json_raises_the_given_error_naming_the_file(content, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: invalid JSON")):
        read_json(path)
    (tmp_path / "meta.json").write_bytes(content)
    with pytest.raises(DataFormatError, match="meta.json: invalid JSON"):
        load_dataset(tmp_path)


def test_domain_name_listed_twice_is_a_contract_error():
    # a LODO over the names would run that target twice and count it twice in its Avg row
    with pytest.raises(ContractError, match=r"^domain name 'a' is listed twice$"):
        DomainDataset(X=np.zeros((2, 1)), y=[0, 1], domain=["a", "a"], num_classes=2, domain_names=["a", "b", "a"])


def test_load_rejects_a_domain_name_listed_twice_before_reading_rows(tmp_path):
    save_dataset(small_gaussian(), tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["domain_names"].append("d1")
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    (tmp_path / "data.csv").write_text("")  # not read: the sidecar's error comes first
    with pytest.raises(DataFormatError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'meta.json'}: domain name 'd1' is listed twice in domain_names"


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


# ---------------------------------------------------------------------------
# data.csv against the row-by-row csv reader and writer it replaced


def reference_load(path):
    """csv.reader plus float() on every value, row by row: the oracle for load_dataset."""
    meta = json.loads((Path(path) / "meta.json").read_text(encoding="utf-8"))
    input_shape = tuple(int(d) for d in meta["input_shape"])
    num_classes, domain_names = int(meta["num_classes"]), [str(d) for d in meta["domain_names"]]
    width = int(np.prod(input_shape, dtype=np.int64)) if input_shape else 1
    data_path = os.path.join(path, "data.csv")
    rows, labels, domains = [], [], []
    with open(data_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width + 2:
                raise DataFormatError(f"{data_path}: row {lineno}: expected {width + 2} fields, got {len(row)}")
            if row[0] not in domain_names:
                raise DataFormatError(f"{data_path}: row {lineno}: unknown domain {row[0]!r}")
            try:
                label = int(row[1])
            except ValueError:
                raise DataFormatError(f"{data_path}: row {lineno}: label {row[1]!r} is not an integer") from None
            if not 0 <= label < num_classes:
                raise DataFormatError(f"{data_path}: row {lineno}: label {label} outside [0, {num_classes})")
            try:
                values = [float(v) for v in row[2:]]
            except ValueError as e:
                raise DataFormatError(f"{data_path}: row {lineno}: bad float: {e}") from None
            domains.append(row[0])
            labels.append(label)
            rows.append(values)
    X = np.asarray(rows, dtype=np.float64).reshape(len(rows), *input_shape)
    return X, np.asarray(labels, dtype=np.int64), np.asarray(domains)


def reference_save_bytes(ds: DomainDataset) -> bytes:
    """csv.writer over per-value lists: the byte oracle for save_dataset."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    width = int(np.prod(ds.input_shape, dtype=np.int64)) if ds.input_shape else 1
    flat = ds.X.reshape(ds.n, width)
    writer.writerow(["domain", "label"] + [f"x{i}" for i in range(width)])
    for i in range(ds.n):
        writer.writerow([str(ds.domain[i]), int(ds.y[i])] + ["%.17g" % v for v in flat[i]])
    return buf.getvalue().encode("utf-8")


def assert_loads_like_reference(path):
    X, y, domain = reference_load(path)
    ds = load_dataset(path)
    assert ds.X.shape == X.shape and ds.X.dtype == X.dtype
    assert ds.X.tobytes() == X.tobytes()  # bitwise, so NaN payloads and -0.0 count
    assert ds.y.tobytes() == y.tobytes()
    assert ds.domain.dtype == domain.dtype and ds.domain.tolist() == domain.tolist()


def odd_names_dataset():
    """Domain names csv must quote, or that a comment-skipping reader would drop."""
    base = small_gaussian(n_per_domain_class=4)
    names = ['north, "east"', "#hash", "", " lead"]
    return DomainDataset(
        X=np.concatenate([base.X, base.X[:12] * -1e-300]),
        y=np.concatenate([base.y, base.y[:12]]),
        domain=np.asarray([names[int(d[1])] for d in base.domain] + [names[3]] * 12),
        num_classes=3,
        domain_names=names,
    )


GENERATED = {
    "gaussian": lambda: generate_spurious_gaussian(seed=1),
    "waveforms": lambda: generate_shifted_waveforms(seed=2),
    "odd-names": odd_names_dataset,
}


@pytest.mark.parametrize("make", GENERATED.values(), ids=GENERATED.keys())
def test_save_writes_the_csv_writer_bytes_and_load_reads_them_back(make, tmp_path):
    ds = make()
    save_dataset(ds, tmp_path)
    assert (tmp_path / "data.csv").read_bytes() == reference_save_bytes(ds)
    assert_loads_like_reference(tmp_path)
    back = load_dataset(tmp_path)
    assert back.X.tobytes() == ds.X.tobytes()
    assert back.domain.tolist() == ds.domain.tolist()


def test_write_rows_takes_any_column_prefix(tmp_path):
    ds = odd_names_dataset()
    write_rows(tmp_path / "f.csv", "f", ds.domain, ds.y, ds.X)
    expected = reference_save_bytes(ds).replace(b",x", b",f", ds.X.shape[1])
    assert (tmp_path / "f.csv").read_bytes() == expected


def test_write_rows_peak_memory_does_not_grow_with_the_row_count(tmp_path):
    # rows become Python values one block at a time, never the whole array at once
    peaks = []
    for n in (2 * WRITE_BLOCK_ROWS, 8 * WRITE_BLOCK_ROWS):
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((n, 10)), rng.integers(0, 3, n)
        domain = np.asarray([f"d{i % 4}" for i in range(n)])
        tracemalloc.start()
        try:
            write_rows(tmp_path / "f.csv", "f", domain, y, X)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


def small_saved(tmp_path, **kwargs):
    ds = small_gaussian(n_per_domain_class=3, signal_dims=1, nuisance_dims=2, **kwargs)
    save_dataset(ds, tmp_path)
    return tmp_path / "data.csv"


@pytest.mark.parametrize("eol", ["\r\n", "\n", "\r"], ids=["crlf", "lf", "cr"])
@pytest.mark.parametrize("trailing", [True, False], ids=["trailing-eol", "no-trailing-eol"])
def test_load_reads_any_line_ending_with_or_without_a_last_one(eol, trailing, tmp_path):
    data_file = small_saved(tmp_path)
    lines = data_file.read_text(encoding="utf-8").splitlines()
    data_file.write_bytes((eol.join(lines) + (eol if trailing else "")).encode("utf-8"))
    assert_loads_like_reference(tmp_path)
    assert load_dataset(tmp_path).n == len(lines) - 1


def edit_row(data_file, row, edit):
    """Apply ``edit`` to the fields of 1-based ``row`` (the header is row 1)."""
    lines = data_file.read_bytes().decode("utf-8").split("\r\n")
    lines[row - 1] = edit(lines[row - 1].split(","))
    data_file.write_bytes("\r\n".join(lines).encode("utf-8"))


def set_field(i, value):
    return lambda fields: ",".join(fields[:i] + [value] + fields[i + 1:])


# each edit is rejected by both readers with one message naming row 5
REJECTED = {
    "blank-line": lambda fields: "",
    "extra-column": lambda fields: ",".join(fields + ["1.0"]),
    "short-row": lambda fields: ",".join(fields[:-1]),
    "hash-row": lambda fields: "#" + ",".join(fields),
    "unknown-domain": set_field(0, "mystery"),
    "quoted-unknown-domain": set_field(0, '"d0,d1"'),
    "label-not-integer": set_field(1, "1.0"),
    "label-out-of-range": set_field(1, "3"),
    "label-negative": set_field(1, "-1"),
    "bad-float": set_field(3, "abc"),
    "empty-float": set_field(4, ""),
    "blank-float": set_field(4, " "),
    "hex-float": set_field(2, "0x10"),
    "nan-payload": set_field(2, "nan(1)"),
    "comment-in-float": set_field(2, "1.5 # note"),
    "quoted-comma-float": set_field(3, '"1,5"'),
    "separator-before-float": set_field(2, "\x1c1.5"),
    "separator-after-float": set_field(4, "1.5\x1f"),
    "separator-in-quoted-row": lambda fields: ",".join(['"d0"', fields[1], "1.5\x1d"] + fields[3:]),
    "float-nul": set_field(3, "1.5\x00"),
}


@pytest.mark.parametrize("edit", REJECTED.values(), ids=REJECTED.keys())
def test_load_rejects_a_bad_row_like_the_row_by_row_reader(edit, tmp_path):
    data_file = small_saved(tmp_path)
    edit_row(data_file, 5, edit)
    with pytest.raises(DataFormatError) as expected:
        reference_load(tmp_path)
    with pytest.raises(DataFormatError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == str(expected.value)
    assert f"{data_file}: row 5: " in str(exc.value)


@pytest.mark.parametrize("eol", [b"\r\n", b"\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("appended", [False, True], ids=["early-row", "appended-row"])
def test_byte_that_is_not_utf8_names_its_row(appended, eol, tmp_path):
    data_file = small_saved(tmp_path)
    lines = data_file.read_bytes().split(b"\r\n")[:-1]
    if appended:
        lines.append(b"d0,0,\xff")
    else:
        lines[2] = lines[2].replace(b",", b",\xff", 1)
    data_file.write_bytes(eol.join(lines) + eol)
    with pytest.raises(DataFormatError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == f"{data_file}: row {len(lines) if appended else 3}: byte 0xff is not UTF-8"


@pytest.mark.parametrize(
    "edit, message",
    [
        (REJECTED["short-row"], "expected 5 fields, got 4"),
        (set_field(2, "1_0"), "bad float: could not convert string to float: '1_0'"),
    ],
    ids=["field-count", "numpy-only-float"],
)
def test_bad_row_before_a_byte_that_is_not_utf8_is_named_first(edit, message, tmp_path):
    data_file = small_saved(tmp_path)
    edit_row(data_file, 3, edit)
    lines = data_file.read_bytes().split(b"\r\n")
    lines[5] = lines[5].replace(b",", b",\xff", 1)
    data_file.write_bytes(b"\r\n".join(lines))
    with pytest.raises(DataFormatError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == f"{data_file}: row 3: {message}"


def test_byte_that_is_not_utf8_in_the_header_names_row_one(tmp_path):
    data_file = small_saved(tmp_path)
    data_file.write_bytes(data_file.read_bytes().replace(b"label", b"lab\xe9l", 1))
    with pytest.raises(DataFormatError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == f"{data_file}: row 1: byte 0xe9 is not UTF-8"


def test_blank_line_reports_zero_fields(tmp_path):
    data_file = small_saved(tmp_path)
    edit_row(data_file, 4, REJECTED["blank-line"])
    with pytest.raises(DataFormatError, match="row 4: expected 5 fields, got 0"):
        load_dataset(tmp_path)


# each edit is taken by both readers, with the same values
ACCEPTED = {
    "quoted-float": set_field(2, '"1.5"'),
    "quoted-label": set_field(1, '"2"'),
    "quoted-domain": set_field(0, '"d1"'),
    "spaces": set_field(2, " 1.5 "),
    "tab": set_field(2, "\t-2"),
    "no-break-space": set_field(3, "\xa07"),
    "signs-and-exponents": lambda fields: ",".join(fields[:2] + ["+1E5", "-.5e-3", "5."]),
    "inf-and-nan": lambda fields: ",".join(fields[:2] + ["-Infinity", "inf", "NaN"]),
    "label-with-spaces": set_field(1, " 1 "),
    "tiny-and-huge": lambda fields: ",".join(fields[:2] + ["1e-400", "1e400", "-0"]),
}


@pytest.mark.parametrize("edit", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_load_accepts_what_the_row_by_row_reader_accepts(edit, tmp_path):
    data_file = small_saved(tmp_path)
    edit_row(data_file, 5, edit)
    assert_loads_like_reference(tmp_path)


@pytest.mark.parametrize("value", ["1_5", "١", "1٥"], ids=["underscore", "arabic-digit", "mixed-digits"])
@pytest.mark.parametrize("domain", ["d0", '"d0"'], ids=["plain-row", "quoted-row"])
def test_load_rejects_floats_only_python_reads(value, domain, tmp_path):
    # float() takes digit underscores and non-ASCII digits, numpy's reader does not;
    # data.csv is written with FLOAT_FORMAT, which never produces either
    data_file = small_saved(tmp_path)
    edit_row(data_file, 6, lambda fields: ",".join([domain, fields[1], value] + fields[3:]))
    reference_load(tmp_path)  # the old reader took it
    with pytest.raises(DataFormatError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == f"{data_file}: row 6: bad float: could not convert string to float: {value!r}"


@pytest.mark.parametrize(
    "first, second",
    [
        (("bad-float", 3), ("label-not-integer", 5)),
        (("label-not-integer", 3), ("bad-float", 5)),
        (("separator-after-float", 3), ("short-row", 5)),
        (("empty-float", 3), ("quoted-unknown-domain", 5)),
        (("quoted-comma-float", 3), ("bad-float", 5)),
    ],
    ids=lambda case: case[0],
)
def test_load_names_the_first_of_two_bad_rows(first, second, tmp_path):
    data_file = small_saved(tmp_path)
    for name, row in (first, second):
        edit_row(data_file, row, REJECTED[name])
    with pytest.raises(DataFormatError) as expected:
        reference_load(tmp_path)
    with pytest.raises(DataFormatError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == str(expected.value)
    assert ": row 3: " in str(exc.value)


def test_numpy_only_bad_float_before_a_bad_label_is_named_first(tmp_path):
    data_file = small_saved(tmp_path)
    edit_row(data_file, 3, set_field(2, "1_0"))
    edit_row(data_file, 5, REJECTED["label-out-of-range"])
    with pytest.raises(DataFormatError, match=r"row 3: bad float: could not convert string to float: '1_0'"):
        load_dataset(tmp_path)


def test_domain_name_with_a_line_break_is_rejected_on_load(tmp_path):
    # csv quotes it across two lines; load_dataset reads data.csv one line per row
    ds = small_gaussian(num_domains=2, n_per_domain_class=2)
    ds = DomainDataset(X=ds.X, y=ds.y, domain=np.where(ds.domain == "d1", "d\n1", ds.domain),
                       num_classes=3, domain_names=["d0", "d\n1"])
    save_dataset(ds, tmp_path)
    first_d1 = 2 + int(np.argmax(ds.domain == "d\n1"))
    with pytest.raises(DataFormatError, match=f"row {first_d1}: expected 12 fields, got 1"):
        load_dataset(tmp_path)


def test_load_header_only_gives_an_empty_dataset(tmp_path):
    data_file = small_saved(tmp_path)
    header = data_file.read_text(encoding="utf-8").splitlines()[0]
    data_file.write_text(header + "\r\n", encoding="utf-8")
    ds = load_dataset(tmp_path)
    assert ds.X.shape == (0, 3) and ds.y.shape == (0,) and ds.domain.shape == (0,)


@pytest.mark.parametrize("num_classes", [0, -1])
def test_load_rejects_a_sidecar_without_a_class(num_classes, tmp_path):
    small_saved(tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text(encoding="utf-8"))
    (tmp_path / "meta.json").write_text(json.dumps({**meta, "num_classes": num_classes}), encoding="utf-8")
    with pytest.raises(DataFormatError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'meta.json'}: num_classes must be >= 1, got {num_classes}"


def test_load_peak_memory_stays_below_the_old_reader(tmp_path):
    save_dataset(generate_shifted_waveforms(n_per_domain_class=50), tmp_path)
    peaks = []
    for load in (reference_load, load_dataset):
        tracemalloc.start()
        try:
            load(tmp_path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]


def test_lodo_sizes_and_partition():
    ds = small_gaussian()
    train, test = leave_one_domain_out(ds, "d1")
    assert len(test.y) == ds.n // 3
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


def reference_split_holdout(view, fraction, seed):
    """The stratified split as it drew its rows before holdout_rows existed."""
    rng = np.random.default_rng(seed)
    held_idx = []
    for c in np.unique(view.y):
        pool = np.flatnonzero(view.y == c)
        take = max(1, int(round(fraction * pool.size)))
        held_idx.append(rng.permutation(pool)[:take])
    held_idx = np.sort(np.concatenate(held_idx))
    keep = np.setdiff1d(np.arange(view.y.size), held_idx)
    return view.X[keep], view.X[held_idx]


@pytest.mark.parametrize("fraction, seed", [(0.1, 0), (0.1, 7), (0.25, 3), (0.9, 1)])
def test_holdout_rows_are_the_split_holdout_rows(fraction, seed):
    ds = small_gaussian()
    view, _ = leave_one_domain_out(ds, "d1")
    kept, held = holdout_rows(view.y, fraction, seed)
    want_kept, want_held = reference_split_holdout(view, fraction, seed)
    assert view.X[kept].tobytes() == want_kept.tobytes()
    assert view.X[held].tobytes() == want_held.tobytes()
    rest, held_view = split_holdout(view, fraction, seed=seed)
    assert rest.X.tobytes() == want_kept.tobytes() and held_view.X.tobytes() == want_held.tobytes()


@pytest.mark.parametrize("fraction", [0.01, 0.1, 0.25, 0.5, 0.75, 0.99])
def test_holdout_rows_keep_the_same_class_counts_for_every_seed(fraction):
    # classes of 1, 2, 3, 7 and 40 rows, shuffled; a LODO pre-check reads one seed's split for all
    y = np.random.default_rng(0).permutation(np.repeat(np.arange(5), [1, 2, 3, 7, 40]))
    counts = {
        seed: np.bincount(y[holdout_rows(y, fraction, seed)[0]], minlength=5).tolist() for seed in range(12)
    }
    assert len(set(map(tuple, counts.values()))) == 1, counts


def test_holdout_rows_of_no_labels_hold_none_out():
    kept, held = holdout_rows(np.zeros(0, dtype=np.int64), 0.1, 0)
    assert kept.size == held.size == 0 and held.dtype == np.intp


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
    with pytest.warns(UserWarning) as seen:
        DomainDataset(X=X, y=y, domain=domain, num_classes=2, domain_names=["a", "b"])
    # the warning points at the code that built the dataset, not into the dataclass machinery
    assert [w.filename for w in seen] == [__file__]


def test_check_finite_names_the_first_bad_row_from_the_given_number():
    X = np.zeros((5, 2, 3))
    check_finite(X, "here")
    X[3, 1, 2], X[2, 0, 1], X[4, 0, 0] = np.inf, -np.inf, np.nan
    with pytest.raises(DataFormatError, match=r"^here: row 12: value -inf is not finite, and training needs"):
        check_finite(X, "here", first_row=10)


def test_check_every_class_names_each_missing_class():
    check_every_class(np.array([0, 1, 2, 1]), 3, "split")
    with pytest.raises(ConfigError, match=r"^split has no rows of class 0, 3 after all$"):
        check_every_class(np.array([1, 2, 1]), 4, "split", " after all")


def test_read_json_integer_past_the_digit_limit_is_invalid_json(tmp_path):
    # json.loads raises a plain ValueError for an integer longer than int() converts
    path = tmp_path / "big.json"
    path.write_text('{"alpha": ' + "1" * 5000 + "}")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: invalid JSON: Exceeds the limit"):
        read_json(path)
