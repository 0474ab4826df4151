#!/usr/bin/env python3
"""Print a sha256 digest of every file a fixed set of dglab commands writes.

A refactor that keeps RNG consumption must leave every output byte for
byte as it was. This script runs ``dglab.cli.main`` in-process on the
``src`` tree next to it:

- ``generate`` spurious-gaussian data (``--seed 1``) and waveforms data
  (``--seed 2``);
- ``lodo`` with the MLP on the gaussian data (ce_only, align_only,
  mask_only, alternate) and with the 1-d CNN on the waveforms (ce_only,
  mask_only, alternate), seeds 0 and 1, ``--holdout 0.1``;
- ``train`` with each of the two, then ``saliency-export`` (5 samples)
  and ``export-features`` from each checkpoint;
- ``ablation`` with the MLP on the gaussian data over ``ABLATION_GRID``,
  seeds 0 and 1.

It prints one ``sha256  path`` line per file written, sorted by path and
relative to the output directory. ``history.csv`` is digested without its
``seconds`` column, the one wall-clock field. To check a change against
its parent, run the script in both checkouts and diff the two listings:

    python3 scripts/output_digests.py --work /tmp/digests-a > a.txt
    python3 scripts/output_digests.py --work /tmp/digests-b > b.txt  # other checkout
    diff a.txt b.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dglab import cli  # noqa: E402

# name: (generate --kind, generate --seed)
DATASETS = {"gauss": ("spurious-gaussian", 1), "wave": ("waveforms", 2)}

# name: (dataset, TrainConfig keys, lodo --methods)
MODELS = {
    "mlp": ("gauss", {"arch": "mlp"}, "ce_only,align_only,mask_only,alternate"),
    "cnn1d": ("wave", {"arch": "cnn1d"}, "ce_only,mask_only,alternate"),
}

SALIENCY_SAMPLES = 5

# the [alpha, m, q_max] points of the ablation run: off, each strategy alone, both
ABLATION_GRID = [[0, 0, 0], [0.1, 0, 0], [0, 50, 70], [0.1, 50, 70]]


def commands(inputs: Path, out: Path, iterations: int, n_per_domain_class: int | None) -> list[list[str]]:
    """Every command line, in run order; writes the config files into ``inputs``."""
    sizes = [] if n_per_domain_class is None else ["--n-per-domain-class", str(n_per_domain_class)]
    cmds = [
        ["generate", "--kind", kind, "--seed", str(seed), "--out", str(out / name), *sizes]
        for name, (kind, seed) in DATASETS.items()
    ]
    for name, (dataset, arch, methods) in MODELS.items():
        config = inputs / f"{name}.json"
        config.write_text(json.dumps({**arch, "iterations": iterations}))
        data, run = str(out / dataset), out / f"train-{name}"
        common = ["--data", data, "--config", str(config)]
        cmds += [
            ["lodo", *common, "--methods", methods, "--seeds", "0,1", "--holdout", "0.1",
             "--out", str(out / f"lodo-{name}.json")],
            ["train", *common, "--out", str(run)],
            ["saliency-export", "--checkpoint", str(run / "checkpoint.json"), "--data", data,
             "--samples", str(SALIENCY_SAMPLES), "--out", str(out / f"saliency-{name}.csv")],
            ["export-features", "--checkpoint", str(run / "checkpoint.json"), "--data", data,
             "--out", str(out / f"features-{name}.csv")],
        ]
    grid = inputs / "grid.json"
    grid.write_text(json.dumps(ABLATION_GRID))
    cmds.append(["ablation", "--data", str(out / "gauss"), "--config", str(inputs / "mlp.json"), "--grid", str(grid),
                 "--seeds", "0,1", "--out", str(out / "ablation-mlp.json")])
    return cmds


def run(argv: list[str]) -> None:
    """Run one command, quietly; a failure exits with the command and what it printed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.main(argv)
    if status != 0:
        sys.exit(f"dglab {' '.join(argv)} exited {status}:\n{stderr.getvalue()}")


def without_seconds(text: str) -> str:
    """A history CSV with its ``seconds`` column dropped."""
    rows = [line.split(",") for line in text.splitlines()]
    drop = rows[0].index("seconds")
    return "".join(",".join(row[:drop] + row[drop + 1 :]) + "\n" for row in rows)


def digests(out: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "history.csv":
            data = without_seconds(data.decode("utf-8")).encode("utf-8")
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {path.relative_to(out).as_posix()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--work", required=True, type=Path, help="a directory that does not exist yet")
    parser.add_argument("--iterations", type=int, default=40, help="TrainConfig iterations of every run")
    parser.add_argument("--n-per-domain-class", type=int, default=None,
                        help="generate --n-per-domain-class (default: each generator's)")
    args = parser.parse_args(argv)
    inputs, out = args.work / "inputs", args.work / "out"
    args.work.mkdir(parents=True)
    inputs.mkdir()
    for cmd in commands(inputs, out, args.iterations, args.n_per_domain_class):
        run(cmd)
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
