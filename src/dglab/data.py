"""Multi-domain datasets: synthetic generators, file round-trip, splits, batching.

Domain tags live only on :class:`DomainDataset`. The leave-one-domain-out
split hands training code a :class:`TrainView`, which has no domain field
at all, so nothing downstream can condition on domains even by accident.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import numbers
import os
import re
import stat
import warnings
from dataclasses import dataclass
from typing import NewType, get_type_hints

import numpy as np

from .errors import ConfigError, ContractError, DataFormatError

DATA_FILE = "data.csv"
META_FILE = "meta.json"
FLOAT_FORMAT = "%.17g"  # 17 significant digits round-trip float64 exactly
MISSING_PAIRS_SHOWN = 20  # the missing (domain, class) pairs a warning lists before it counts the rest


def _repeated_name(names) -> str | None:
    """The first of ``names`` that an earlier entry already holds, or None."""
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


@dataclass
class DomainDataset:
    """Samples with class labels and a domain tag per row."""

    X: np.ndarray
    y: np.ndarray
    domain: np.ndarray
    num_classes: int
    domain_names: list[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.domain = np.asarray(self.domain)
        n = self.X.shape[0]
        if self.y.shape != (n,) or self.domain.shape != (n,):
            raise ContractError(
                f"row counts disagree: X {self.X.shape}, y {self.y.shape}, domain {self.domain.shape}"
            )
        if n and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ContractError(f"labels must lie in [0, {self.num_classes})")
        repeat = _repeated_name(self.domain_names)
        if repeat is not None:
            raise ContractError(f"domain name {repeat!r} is listed twice")
        known = set(self.domain_names)
        # the tags present, sorted, and each row's position among them
        tags, tag_of_row = np.unique(self.domain, return_inverse=True)
        present = set(tags.tolist())
        if not present <= known:
            raise ContractError(f"unknown domain tags: {sorted(present - known)}")
        # rows per (tag, class) pair, counted in one pass over the rows; the
        # empty pairs come out tag by tag, then class by class
        pairs = np.bincount(tag_of_row * self.num_classes + self.y, minlength=tags.size * self.num_classes)
        empty_tag, empty_class = (pairs.reshape(tags.size, self.num_classes) == 0).nonzero()
        if empty_tag.size:
            first = slice(MISSING_PAIRS_SHOWN)
            shown = list(zip(tags[empty_tag[first]].tolist(), empty_class[first].tolist()))
            more = empty_tag.size - len(shown)
            rest = f" and {more} more, {empty_tag.size} pairs in all" if more else ""
            # stack levels: this method, the generated __init__, the code building the dataset
            warnings.warn(f"classes missing from some domains: {shown}{rest}", stacklevel=3)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.X.shape[1:]


@dataclass
class TrainView:
    """Domain-free view: samples and class labels, nothing else."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.y.shape != (self.X.shape[0],):
            raise ContractError(f"row counts disagree: X {self.X.shape}, y {self.y.shape}")


def check_finite(X: np.ndarray, where: str, first_row: int = 0) -> None:
    """Raise DataFormatError naming the first row of ``X``, numbered from
    ``first_row``, that holds nan or +-inf: no run can train on it."""
    flat = X.reshape(len(X), math.prod(X.shape[1:]))
    bad = ~np.isfinite(flat)
    if bad.any():
        row, col = divmod(int(bad.argmax()), flat.shape[1])
        value = f"{where}: row {row + first_row}: value {flat[row, col]}"
        raise DataFormatError(f"{value} is not finite, and training needs finite values")


def check_every_class(y: np.ndarray, num_classes: int, where: str, after: str = "") -> None:
    """Raise ConfigError naming each class below ``num_classes`` that ``y``
    has no row of: batching could not draw it, and the model's head would
    lose it. The message reads ``{where} has no rows of class {c}{after}``."""
    missing = np.flatnonzero(np.bincount(y, minlength=num_classes) == 0)
    if missing.size:
        classes = ", ".join(str(c) for c in missing)
        raise ConfigError(f"{where} has no rows of class {classes}{after}")


Seed = NewType("Seed", int)  # a seed of numpy's generators, which take no negative integer


def _is_int64(v) -> bool:
    """An integer, not a bool, that numpy's default integer type holds."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and -(2**63) <= v < 2**63


# what a setting of each annotated kind may hold (JSON and flags can carry NaN and huge integers)
SETTING_KINDS = {
    int: (_is_int64, "an int64 integer"),
    Seed: (lambda v: _is_int64(v) and v >= 0, "a non-negative int64 integer"),
    float: (lambda v: _is_int64(v) or isinstance(v, float) and math.isfinite(v), "a finite double or an int64"),
    tuple: (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int64, v)), "a list of int64 integers"),
    str: (lambda v: isinstance(v, str), "a string"),
}


@functools.cache
def setting_kinds(owner) -> dict:
    """The annotated kind of each field of a class or parameter of a function, by name."""
    return {name: kind for name, kind in get_type_hints(owner).items() if name != "return"}


def check_settings(owner, values, prefix: str = "") -> None:
    """Raise ConfigError at the first annotated setting of ``owner`` whose value in ``values`` its kind rejects."""
    for name, kind in setting_kinds(owner).items():
        holds, what = SETTING_KINDS[kind]
        if not holds(values[name]):
            raise ConfigError(f"{prefix}{name} must be {what}, got {values[name]!r}")


# ---------------------------------------------------------------------------
# synthetic generators


def _domain_major(block, num_domains: int, classes: int, n_per_domain_class: int) -> DomainDataset:
    """The dataset whose ``X`` stacks a generator's ``block(d, c)``, the
    ``n_per_domain_class`` samples of class ``c`` in domain ``d``, domain by
    domain, then class by class; domains are named ``d0``, ``d1``, ..."""
    names = [f"d{i}" for i in range(num_domains)]
    return DomainDataset(
        X=np.concatenate([block(d, c) for d in range(num_domains) for c in range(classes)]),
        y=np.tile(np.repeat(np.arange(classes, dtype=np.int64), n_per_domain_class), num_domains),
        domain=np.repeat(names, classes * n_per_domain_class),
        num_classes=classes,
        domain_names=names,
    )


def generate_spurious_gaussian(
    num_domains: int = 4,
    classes: int = 3,
    signal_dims: int = 2,
    nuisance_dims: int = 8,
    nuisance_strength: float = 3.0,
    noise_sd: float = 0.5,
    n_per_domain_class: int = 500,
    seed: Seed = 0,
) -> DomainDataset:
    """Gaussian blobs whose nuisance coordinates are predictive only in-domain.

    Signal dims get class-conditional means shared by every domain, spaced
    one unit apart along a common direction. Nuisance dims get means drawn
    per (domain, class), so they separate classes cleanly inside each source
    domain but point nowhere useful in a held-out domain. A model that leans
    on them looks strong in-domain and falls over under the LODO split.
    """
    check_settings(generate_spurious_gaussian, locals(), "generate_spurious_gaussian: ")
    if num_domains < 1 or signal_dims < 1 or n_per_domain_class < 1 or nuisance_dims < 0:
        raise ConfigError("generate_spurious_gaussian: counts must be positive")
    if classes < 2:
        raise ConfigError(f"generate_spurious_gaussian: need >= 2 classes, got {classes}")
    if noise_sd < 0:
        raise ConfigError(f"generate_spurious_gaussian: noise_sd must be >= 0, got {noise_sd}")

    rng = np.random.default_rng(seed)
    signal_means = np.outer(np.arange(classes), np.ones(signal_dims) / math.sqrt(signal_dims))
    nuisance_means = nuisance_strength * rng.standard_normal((num_domains, classes, nuisance_dims))

    def block(d, c):
        sig = signal_means[c] + noise_sd * rng.standard_normal((n_per_domain_class, signal_dims))
        nui = nuisance_means[d, c] + noise_sd * rng.standard_normal((n_per_domain_class, nuisance_dims))
        return np.concatenate([sig, nui], axis=1)

    return _domain_major(block, num_domains, classes, n_per_domain_class)


def generate_shifted_waveforms(
    num_domains: int = 4,
    classes: int = 3,
    length: int = 64,
    n_per_domain_class: int = 200,
    seed: Seed = 0,
    background_amplitude: float = 1.0,
    noise_sd: float = 0.05,
) -> DomainDataset:
    """Time series whose class lives in a central burst and whose domain
    lives in the background.

    The class sets the burst frequency inside a fixed central window; the
    domain sets a baseline drift plus periodic interference on every step
    outside that window. With background_amplitude 0 all domains share one
    distribution. Output shape is (n, 1, length). It draws the four
    per-domain background vectors, then for each sample of each
    ``block(d, c)``, which ``_domain_major`` builds ``X`` from, the burst
    phase, the background phase and ``length`` normals.
    """
    check_settings(generate_shifted_waveforms, locals(), "generate_shifted_waveforms: ")
    if length < 16:
        raise ConfigError(f"generate_shifted_waveforms: length must be >= 16, got {length}")
    if num_domains < 1 or n_per_domain_class < 1:
        raise ConfigError("generate_shifted_waveforms: counts must be positive")
    if classes < 2:
        raise ConfigError(f"generate_shifted_waveforms: need >= 2 classes, got {classes}")
    if noise_sd < 0:
        raise ConfigError(f"generate_shifted_waveforms: noise_sd must be >= 0, got {noise_sd}")

    rng = np.random.default_rng(seed)
    window = length // 2
    start = (length - window) // 2
    t_window = np.arange(window)
    taper = np.hanning(window)

    # per-domain background parameters, fixed for the dataset
    slopes = background_amplitude * rng.uniform(-1.0, 1.0, num_domains)
    offsets = background_amplitude * rng.uniform(-0.5, 0.5, num_domains)
    interference_amp = background_amplitude * rng.uniform(0.5, 1.0, num_domains)
    interference_freq = rng.uniform(2.0, 6.0, num_domains)
    ramp = np.linspace(-1.0, 1.0, length)
    t_full = np.arange(length)

    def block(d, c):
        # sample by sample, as a normal takes a varying number of draws; small phase jitter keeps the burst learnable
        draws = [
            (rng.uniform(-0.4, 0.4), rng.uniform(0.0, 2.0 * math.pi), rng.standard_normal(length))
            for _ in range(n_per_domain_class)
        ]
        phase, bg_phase, normals = map(np.array, zip(*draws))
        burst = 2.0 * taper * np.sin(2.0 * math.pi * (c + 1) * t_window / window + phase[:, None])
        series = slopes[d] * ramp + offsets[d] + interference_amp[d] * np.sin(
            2.0 * math.pi * interference_freq[d] * t_full / length + bg_phase[:, None]
        )
        series[:, start : start + window] = 0.0
        series[:, start : start + window] += burst
        series += noise_sd * normals
        return series[:, None, :]

    return _domain_major(block, num_domains, classes, n_per_domain_class)


# ---------------------------------------------------------------------------
# file round-trip


@contextlib.contextmanager
def open_for_rewrite(path, newline=None):
    """Open ``path`` as UTF-8 text for writing, overwriting it in place.

    Acts like ``open(path, "w", encoding="utf-8", newline=newline)``:
    symlinks are followed, a new file gets the umask mode, and after an
    error part-way through the file holds what was written so far. Only
    the moment the old bytes go differs. ``open`` truncates on opening,
    and on ext4 (``auto_da_alloc``, the default) truncating a file whose
    last write is still being written back waits for that writeback,
    tens of milliseconds. Here the file is written over from offset 0
    and cut to the written length on exit, on the same inode, so hard
    links and the file mode are kept as well.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", encoding="utf-8", newline=newline) as fh:
        # a device or pipe (--out /dev/null) has no length to cut
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            yield fh
        finally:
            if regular:
                fh.truncate()  # flushes, then cuts the file at the current offset


def write_json(path, doc, **json_dump_kwargs) -> None:
    """Write ``doc`` to ``path`` through :func:`open_for_rewrite`: keys
    sorted, the layout set by ``json_dump_kwargs``, then a newline."""
    with open_for_rewrite(path) as fh:
        json.dump(doc, fh, sort_keys=True, **json_dump_kwargs)
        fh.write("\n")


def write_cells(path, header, rows) -> None:
    """Write a CSV of the column names ``header`` and the cell tuples
    ``rows`` through :func:`open_for_rewrite`: a string as is, None empty,
    a number as its repr. No cell is quoted, so none may hold a comma."""
    with open_for_rewrite(path, newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else "" if v is None else repr(v) for v in row) + "\n")


def read_json(path, error=ConfigError):
    """The JSON document at ``path``; invalid JSON, bytes that are not UTF-8
    (which JSON text must be), or an integer longer than Python converts
    (4300 digits by default) raise ``error`` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise error(f"{path}: invalid JSON: {e}") from e


def _csv_field(text: str) -> str:
    """``text`` quoted as csv.writer quotes a field that shares its row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue().rpartition(",")[0]  # drop the empty second field and the line end


# rows per block that write_rows formats at once
WRITE_BLOCK_ROWS = 1024


def write_rows(path, column_prefix: str, domain, labels, values) -> None:
    """Write a CSV of domain, label and float columns ``column_prefix``0, 1, ...

    ``values`` holds one row per domain tag. Floats are written with
    FLOAT_FORMAT, so they read back bit for bit. The bytes are those of
    ``csv.writer`` over the same fields, but each domain name is quoted
    once and each row is formatted in one ``%`` operation. Rows become Python
    values WRITE_BLOCK_ROWS at a time, so memory does not grow with the row count.
    """
    width = values.shape[1]
    with open_for_rewrite(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "label"] + [f"{column_prefix}{i}" for i in range(width)])
        quoted = {name: _csv_field(name) for name in set(domain)}
        row = ",".join(["%s", "%d"] + [FLOAT_FORMAT] * width) + writer.dialect.lineterminator
        for start in range(0, len(values), WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            cells = zip(domain[block].tolist(), labels[block].tolist(), values[block].tolist())
            fh.writelines(row % (quoted[d], c, *x) for d, c, x in cells)


def save_dataset(ds: DomainDataset, path) -> None:
    """Write data.csv plus a meta.json sidecar into the directory ``path``."""
    os.makedirs(path, exist_ok=True)
    meta = {
        "input_shape": [int(d) for d in ds.input_shape],
        "num_classes": int(ds.num_classes),
        "domain_names": [str(name) for name in ds.domain_names],
    }
    write_json(os.path.join(path, META_FILE), meta, indent=2)
    write_rows(os.path.join(path, DATA_FILE), "x", ds.domain, ds.y, ds.X.reshape(ds.n, math.prod(ds.input_shape)))


# Options of numpy's C text reader for data.csv floats. It gives the bits of
# float() on every string both accept; for the few strings they disagree on,
# see _first_bad_float.
_FLOAT_TEXT = dict(dtype=np.float64, delimiter=",", comments=None, ndmin=2)


def _float_error(fields) -> str | None:
    """float()'s reason for rejecting one of ``fields``, or None."""
    for v in fields:
        try:
            float(v)
        except ValueError as e:
            return str(e)
    return None


def _first_bad_float(lines):
    """(row number, reason) of the first of ``lines`` holding a float that
    float() or numpy's reader rejects, or None.

    Each line is a data.csv row whose first two fields are skipped. numpy's
    reader also rejects digit underscores and non-ASCII digits, which
    float() takes. It also takes the ASCII separators \\x1c-\\x1f as
    whitespace, which float() rejects; load_dataset sends lines holding
    them through float() first.
    """
    for lineno, line in enumerate(lines, start=2):
        fields = line.split(",")[2:]
        reason = _float_error(fields)
        if reason is not None:
            return lineno, f"bad float: {reason}"
        try:
            np.loadtxt(fields, **_FLOAT_TEXT)  # each field one row: float() took it, so it holds no comma
        except ValueError:
            for v in fields:
                try:
                    np.loadtxt([v], **_FLOAT_TEXT)
                except ValueError:
                    return lineno, f"bad float: could not convert string to float: {v!r}"
    return None


def _non_utf8(line: str) -> str | None:
    """Why ``line``, read with errors="surrogateescape", is not UTF-8, or None.

    Each byte the decoder rejects comes back as a lone surrogate.
    """
    if line.isascii():
        return None
    found = re.search("[\udc80-\udcff]", line)
    return found and f"byte 0x{ord(found.group()) - 0xDC00:02x} is not UTF-8"


def load_dataset(path) -> DomainDataset:
    """Read a dataset directory; validates invariants and names bad rows.

    meta.json is read and its fields are checked, then data.csv is parsed
    (see :func:`_parse_rows`) and the dataset is built and checked by
    ``DomainDataset``. Nothing is written.
    """
    meta_path = os.path.join(path, META_FILE)
    data_path = os.path.join(path, DATA_FILE)
    meta = read_json(meta_path, DataFormatError)
    try:
        input_shape, num_classes, domain_names = meta["input_shape"], meta["num_classes"], meta["domain_names"]
    except (KeyError, TypeError) as e:
        raise DataFormatError(f"{meta_path}: bad sidecar fields: {e}") from e
    # a cast would take 3.7, "3" or true, and a huge count would stall the missing-class scan
    for name, kind in (("input_shape", tuple), ("num_classes", int)):
        holds, what = SETTING_KINDS[kind]
        if not holds(meta[name]):
            raise DataFormatError(f"{meta_path}: {name} must be {what}, got {meta[name]!r}")
    if num_classes < 1:  # a header-only file holds no label to reject
        raise DataFormatError(f"{meta_path}: num_classes must be >= 1, got {num_classes}")
    if any(d < 1 for d in input_shape):  # [] stays allowed: scalar features
        raise DataFormatError(f"{meta_path}: input_shape entries must be >= 1, got {input_shape}")
    # a cast would split a string into characters, take a dict's keys and name a null 'None'
    if not (isinstance(domain_names, list) and all(isinstance(d, str) for d in domain_names)):
        raise DataFormatError(f"{meta_path}: domain_names must be a list of strings, got {domain_names!r}")
    # a target listed twice would count twice in a LODO footer
    repeat = _repeated_name(domain_names)
    if repeat is not None:
        raise DataFormatError(f"{meta_path}: domain name {repeat!r} is listed twice in domain_names")
    X, y, domain = _parse_rows(data_path, input_shape, num_classes, set(domain_names))
    return DomainDataset(X=X, y=y, domain=domain, num_classes=num_classes, domain_names=domain_names)


def _parse_rows(data_path, input_shape, num_classes: int, known: set):
    """The (X, y, domain) arrays of the data.csv at ``data_path`` under the
    sidecar's fields.

    Each row's bytes, field count, domain and label are checked in Python,
    with csv's quoting rules on rows holding a quote, and all floats are
    parsed in one call to numpy's C reader. An error names the first bad
    row in file order, as a row-by-row read would.
    """
    width = math.prod(input_shape)
    # ``lines`` keeps each good row for numpy: as read, or for a row parsed
    # by csv's rules, its float fields behind two empty ones
    lines, labels, domains, bad_row = [], [], [], None
    with open(data_path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        first = next(fh, None)
        if first is None:
            raise DataFormatError(f"{data_path}: empty file")
        reason = _non_utf8(first)
        if reason is not None:
            raise DataFormatError(f"{data_path}: row 1: {reason}")
        header = next(csv.reader([first]))
        if len(header) != width + 2:
            raise DataFormatError(
                f"{data_path}: header has {len(header) - 2} feature columns, "
                f"sidecar input_shape {list(input_shape)} implies {width}"
            )
        if header[:2] != ["domain", "label"]:
            raise DataFormatError(f"{data_path}: header starts {header[:2]!r}, not ['domain', 'label']")
        for lineno, line in enumerate(fh, start=2):
            reason = _non_utf8(line)
            if reason is not None:
                bad_row = (lineno, reason)
                break
            line = line.rstrip("\r\n")
            # a quote needs csv's rules; \x1c-\x1f need float()'s, as numpy's reader takes them
            careful = '"' in line or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line
            if careful:
                fields = next(csv.reader([line]))
                count = len(fields)
            else:
                fields = line.split(",", 2)
                count = line.count(",") + 1 if line else 0
            if count != width + 2:
                bad_row = (lineno, f"expected {width + 2} fields, got {count}")
                break
            domain = fields[0]
            if domain not in known:
                bad_row = (lineno, f"unknown domain {domain!r}")
                break
            try:
                label = int(fields[1])
                # int() also takes digit underscores and non-ASCII digits, which no float field may hold
                if "_" in fields[1] or not fields[1].strip().isascii():
                    raise ValueError
            except ValueError:
                bad_row = (lineno, f"label {fields[1]!r} is not an integer")
                break
            if not 0 <= label < num_classes:
                bad_row = (lineno, f"label {label} outside [0, {num_classes})")
                break
            if careful:
                reason = _float_error(fields[2:])
                if reason is not None:
                    bad_row = (lineno, f"bad float: {reason}")
                    break
                line = ",," + ",".join(fields[2:])
            lines.append(line)
            labels.append(label)
            domains.append(domain)

    # the rows before ``bad_row`` are parsed too: a bad float there comes first
    try:
        X = np.loadtxt(lines, usecols=range(2, width + 2), **_FLOAT_TEXT) if lines else np.empty((0, width))
    except ValueError:
        bad_row = _first_bad_float(lines)
        if bad_row is None:
            raise
    if bad_row is not None:
        raise DataFormatError(f"{data_path}: row {bad_row[0]}: {bad_row[1]}")
    return X.reshape(len(lines), *input_shape), np.asarray(labels, dtype=np.int64), np.asarray(domains)


# ---------------------------------------------------------------------------
# splits and batching


def target_rows(ds: DomainDataset, target: str) -> np.ndarray:
    """Row mask of domain ``target``, the test set of its leave-one-domain-out
    split; a split without source domains or without target rows raises
    ConfigError."""
    if len(ds.domain_names) < 2:
        raise ConfigError("leave_one_domain_out needs at least 2 domains")
    if target not in ds.domain_names:
        raise ConfigError(f"unknown target domain {target!r}; have {ds.domain_names}")
    test_mask = ds.domain == target
    if not test_mask.any():
        raise ConfigError(f"target domain {target!r} has no rows")
    return test_mask


def leave_one_domain_out(ds: DomainDataset, target: str) -> tuple[TrainView, TrainView]:
    """Partition into domain-free views of (the source domains, the target domain)."""
    test_mask = target_rows(ds, target)
    return tuple(TrainView(X=ds.X[rows], y=ds.y[rows]) for rows in (~test_mask, test_mask))


def check_holdout_fraction(fraction: float) -> None:
    """Raise ConfigError unless a holdout split can take ``fraction`` of each class."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"holdout fraction must be in (0, 1), got {fraction}")


def holdout_rows(y: np.ndarray, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted row indices (kept, held) of a stratified in-source validation
    split of labels ``y``: each class present holds out a ``fraction`` of
    its rows, at least one, drawn from a generator seeded with ``seed``."""
    check_holdout_fraction(fraction)
    rng = np.random.default_rng(seed)
    held = [np.empty(0, dtype=np.intp)]  # no rows hold none out
    for c in np.unique(y):
        pool = np.flatnonzero(y == c)
        take = max(1, int(round(fraction * pool.size)))
        held.append(rng.permutation(pool)[:take])
    held = np.sort(np.concatenate(held))
    # the sorted complement by a mask, without the sort setdiff1d would run
    kept = np.ones(y.size, dtype=bool)
    kept[held] = False
    return np.flatnonzero(kept), held


def split_holdout(view: TrainView, fraction: float, seed: int):
    """Split off a stratified in-source validation fraction; returns (train, held)."""
    kept, held = holdout_rows(view.y, fraction, seed)
    return (
        TrainView(X=view.X[kept], y=view.y[kept]),
        TrainView(X=view.X[held], y=view.y[held]),
    )


def class_balanced_batches(train: TrainView, batch_size: int, min_ratio: float, rng):
    """Endless stream of fixed-size batches holding every class at
    count >= ceil(min_ratio * majority count).

    Each batch starts as a uniform draw; deficient classes are upsampled
    uniformly at random with replacement from their pool, each duplicate
    replacing a uniformly chosen row of the currently largest class, so the
    batch size never changes.
    """
    if not 0.0 < min_ratio <= 1.0:
        raise ConfigError(f"min_ratio must be in (0, 1], got {min_ratio}")
    y = train.y
    if y.size == 0:
        raise ConfigError("class_balanced_batches: empty training view")
    num_classes = int(y.max()) + 1
    if batch_size < num_classes:
        raise ConfigError(f"batch_size {batch_size} is below the class count {num_classes}")
    pools = [np.flatnonzero(y == c) for c in range(num_classes)]
    for c, pool in enumerate(pools):
        if pool.size == 0:
            raise ConfigError(f"class {c} has no training samples")

    n = y.size
    max_fixes = 10 * batch_size

    def stream():
        while True:
            idx = rng.choice(n, size=batch_size, replace=n < batch_size)
            labels = y[idx]  # kept in step with idx, and yielded
            for _ in range(max_fixes):
                counts = np.bincount(labels, minlength=num_classes).tolist()
                majority, fewest = max(counts), min(counts)
                if fewest >= math.ceil(min_ratio * majority):
                    break
                # the smallest count is below the need, so the first class at
                # it is the first deficient class at the smallest count; the
                # donor is the first class at the largest
                worst = counts.index(fewest)
                slot = int(rng.choice(np.flatnonzero(labels == counts.index(majority))))
                idx[slot] = int(rng.choice(pools[worst]))
                labels[slot] = worst
            else:
                raise ConfigError(
                    f"cannot satisfy min_ratio {min_ratio} with batch_size {batch_size} "
                    f"and {num_classes} classes"
                )
            yield train.X.take(idx, axis=0), labels

    return stream()
