"""Training loop: per-batch strategy alternation, SGD with momentum, step decay.

Each batch runs exactly one strategy: the alignment-regularised objective,
cross-entropy on a saliency-masked batch, or plain cross-entropy. In
``alternate`` mode a fair coin picks between alignment and masking per
batch. The trainer consumes a domain-free :class:`TrainView`; domain tags
are not representable on its input type.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import asdict, dataclass, field
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import TrainView, check_finite, class_balanced_batches, open_for_rewrite, read_json, write_json
from .errors import ConfigError, ContractError, NumericError
from .losses import cross_entropy, objective_parts
from .masking import augment_batch
from .models import Model, build_cnn1d, build_mlp, forward, model_batch
from .saliency import SmoothGradConfig

STRATEGY_ALIGN = "align"
STRATEGY_MASK = "mask"
STRATEGY_CE = "ce"

STRATEGY_MODES = ("alternate", "align_only", "mask_only", "ce_only")

ARCHITECTURES = ("mlp", "cnn1d")


def _is_int64(v) -> bool:
    """An integer, not a bool, that numpy's default integer type holds."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and -(2**63) <= v < 2**63


# what a field of each annotated type may hold (JSON can carry NaN and huge integers)
_FIELD_KINDS = {
    int: (_is_int64, "an int64 integer"),
    float: (lambda v: _is_int64(v) or isinstance(v, float) and math.isfinite(v), "a finite double or an int64"),
    tuple: (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int64, v)), "a list of int64 integers"),
    str: (lambda v: isinstance(v, str), "a string"),
}


@functools.cache
def _field_kinds(cls) -> tuple:
    """(name, check, what it holds) of each annotated field of ``cls``, resolved once per class."""
    return tuple((name, *_FIELD_KINDS[kind]) for name, kind in get_type_hints(cls).items())


@dataclass
class TrainConfig:
    """Hyperparameters; defaults follow the reference protocol."""

    alpha: float = 0.1
    m_percent: float = 50.0
    q_max: float = 70.0
    sg_n: int = SmoothGradConfig.n
    sg_sigma: float = SmoothGradConfig.sigma
    batch_size: int = 128
    iterations: int = 2000
    base_lr: float = 0.001
    lr_decay_factor: float = 0.1
    lr_decay_at_fraction: float = 0.8
    min_class_ratio: float = 0.5
    momentum: float = 0.9
    strategy_mode: str = "alternate"
    seed: int = 0
    arch: str = "mlp"
    hidden: tuple = (32,)
    channels: tuple = (8, 16)
    kernel: int = 5

    def __post_init__(self):
        # types first, as annotated; a tuple field is stored as a tuple of ints
        for name, holds, what in _field_kinds(type(self)):
            v = getattr(self, name)
            if not holds(v):
                raise ConfigError(f"{name} must be {what}, got {v!r}")
            if isinstance(v, (list, tuple)):
                setattr(self, name, tuple(int(h) for h in v))
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if not 0.0 <= self.m_percent <= 100.0:
            raise ConfigError(f"m_percent must be in [0, 100], got {self.m_percent}")
        if not 0.0 <= self.q_max <= 100.0:
            raise ConfigError(f"q_max must be in [0, 100], got {self.q_max}")
        if self.sg_n < 1:
            raise ConfigError(f"sg_n must be >= 1, got {self.sg_n}")
        if self.sg_sigma < 0:
            raise ConfigError(f"sg_sigma must be >= 0, got {self.sg_sigma}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be > 0, got {self.base_lr}")
        if self.lr_decay_factor <= 0:
            raise ConfigError(f"lr_decay_factor must be > 0, got {self.lr_decay_factor}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.lr_decay_at_fraction <= 1.0:
            raise ConfigError(f"lr_decay_at_fraction must be in [0, 1], got {self.lr_decay_at_fraction}")
        if not 0.0 < self.min_class_ratio <= 1.0:
            raise ConfigError(f"min_class_ratio must be in (0, 1], got {self.min_class_ratio}")
        if self.strategy_mode not in STRATEGY_MODES:
            raise ConfigError(
                f"unknown strategy_mode {self.strategy_mode!r}; choose from {STRATEGY_MODES}"
            )
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"unknown arch {self.arch!r}; choose from {ARCHITECTURES}")

    def to_json_dict(self) -> dict:
        # JSON writes a tuple as a list; a dict compared with a loaded one must hold lists
        return {name: list(v) if isinstance(v, tuple) else v for name, v in asdict(self).items()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(doc).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict(), indent=2)

    @classmethod
    def load_json(cls, path) -> "TrainConfig":
        return cls.from_json_dict(read_json(path))


@dataclass
class TrainRecord:
    iteration: int
    strategy: str
    loss_ce: float
    loss_align: float | None
    lr: float
    seconds: float


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        with open_for_rewrite(path, newline="") as fh:
            fh.write("iteration,strategy,loss_ce,loss_align,lr,seconds\n")
            for r in self.records:
                align = "" if r.loss_align is None else repr(r.loss_align)
                fh.write(f"{r.iteration},{r.strategy},{r.loss_ce!r},{align},{r.lr!r},{r.seconds!r}\n")


def lr_schedule(base_lr: float, iteration: int, total: int, factor: float, at_fraction: float) -> float:
    """Constant learning rate, multiplied by ``factor`` once the run passes
    ``at_fraction`` of its iterations."""
    if not 0 <= iteration < total:
        raise ContractError(f"iteration {iteration} outside [0, {total})")
    cutoff = math.ceil(at_fraction * total)
    return base_lr if iteration < cutoff else base_lr * factor


def choose_strategy(mode: str, rng) -> str:
    """Pick the strategy for one batch; ``alternate`` flips a fair coin."""
    if mode == "align_only":
        return STRATEGY_ALIGN
    if mode == "mask_only":
        return STRATEGY_MASK
    if mode == "ce_only":
        return STRATEGY_CE
    if mode == "alternate":
        return STRATEGY_ALIGN if rng.random() < 0.5 else STRATEGY_MASK
    raise ConfigError(f"unknown strategy_mode {mode!r}")


def train_step(model: Model, batch, strategy: str, cfg: TrainConfig, lr: float, rng, momentum_state) -> dict:
    """One forward/backward/update; returns the per-batch loss components.

    A mask step augments the batch with saliency from the current
    (pre-update) parameters; only an align step adds the alignment term.
    """
    x_batch, labels = batch
    if strategy == STRATEGY_MASK:
        x_batch, labels = augment_batch((x_batch, labels), model, cfg, rng)

    logits = forward(model, Tensor(x_batch))
    if strategy == STRATEGY_ALIGN:
        loss, ce, align = objective_parts(logits, labels, cfg.alpha)
    else:
        ce = cross_entropy(logits, labels)
        loss, align = ce, None

    loss_value = float(loss.values)
    if not np.isfinite(loss_value):
        parts = f"ce={float(ce.values)!r}"
        if align is not None:
            parts += f", align={float(align.values)!r}"
        raise NumericError(f"non-finite loss under strategy {strategy!r} ({parts})")

    grads = ad.backward(loss)
    for name, p in model.params.items():
        g = grads.get(p)
        if g is None:
            g = np.zeros_like(p.values)
        v = momentum_state[name]
        v *= cfg.momentum
        v += g
        p.values = p.values - lr * v

    return {
        "strategy": strategy,
        "loss_ce": float(ce.values),
        "loss_align": None if align is None else float(align.values),
    }


def build_model_for(cfg: TrainConfig, input_shape: tuple, num_classes: int, model_seed: int) -> Model:
    """Instantiate the configured architecture for the given data shape."""
    if cfg.arch == "mlp":
        width = int(np.prod(input_shape, dtype=np.int64))
        return build_mlp([width, *cfg.hidden], num_classes, model_seed)
    if len(input_shape) != 2:
        raise ConfigError(f"cnn1d needs (channels, length) samples, got shape {input_shape}")
    return build_cnn1d([int(input_shape[0]), *cfg.channels], cfg.kernel, num_classes, model_seed)


def train(dataset: TrainView, cfg: TrainConfig):
    """Train on a domain-free view; returns (model, history).

    Fully deterministic given (dataset, cfg): one master seed sequence
    splits into independent streams for model init, batch sampling, the
    strategy coin, and per-step masking/saliency noise.
    """
    if dataset.y.size == 0:
        raise ConfigError("train: empty dataset")
    num_classes = int(dataset.y.max()) + 1
    if num_classes < 2:
        raise ConfigError(f"train: need >= 2 classes, got {num_classes}")
    check_finite(dataset.X, "train")

    ss = np.random.SeedSequence(cfg.seed)
    ss_model, ss_batch, ss_strategy, ss_step = ss.spawn(4)
    model_seed = int(ss_model.generate_state(1)[0])
    rng_batch = np.random.default_rng(ss_batch)
    rng_strategy = np.random.default_rng(ss_strategy)
    rng_step = np.random.default_rng(ss_step)

    model = build_model_for(cfg, dataset.X.shape[1:], num_classes, model_seed)
    view = TrainView(X=model_batch(model, dataset.X), y=dataset.y)
    batches = class_balanced_batches(view, cfg.batch_size, cfg.min_class_ratio, rng_batch)
    momentum_state = {name: np.zeros_like(p.values) for name, p in model.params.items()}

    history = TrainHistory()
    for i in range(cfg.iterations):
        lr = lr_schedule(cfg.base_lr, i, cfg.iterations, cfg.lr_decay_factor, cfg.lr_decay_at_fraction)
        strategy = choose_strategy(cfg.strategy_mode, rng_strategy)
        batch = next(batches)
        started = time.perf_counter()
        try:
            rec = train_step(model, batch, strategy, cfg, lr, rng_step, momentum_state)
        except NumericError as e:
            raise NumericError(f"iteration {i}: {e}") from e
        history.records.append(
            TrainRecord(
                iteration=i,
                strategy=rec["strategy"],
                loss_ce=rec["loss_ce"],
                loss_align=rec["loss_align"],
                lr=lr,
                seconds=time.perf_counter() - started,
            )
        )
    return model, history
