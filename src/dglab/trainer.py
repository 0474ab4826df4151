"""Training loop: per-batch strategy alternation, SGD with momentum, step decay.

Each batch runs exactly one strategy: the alignment-regularised objective,
cross-entropy on a saliency-masked batch, or plain cross-entropy. In
``alternate`` mode a fair coin picks between alignment and masking per
batch. The trainer consumes a domain-free :class:`TrainView`; domain tags
are not representable on its input type.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Seed, TrainView, check_finite, check_settings, class_balanced_batches, read_json, setting_kinds
from .data import write_cells, write_json
from .errors import ConfigError, ContractError, NumericError
from .losses import cross_entropy, objective_parts
from .masking import augment_batch
from .models import Model, build_cnn1d, build_mlp, forward, model_batch
from .saliency import SmoothGradConfig

STRATEGY_ALIGN = "align"
STRATEGY_MASK = "mask"
STRATEGY_CE = "ce"

# each mode's strategies: a one-strategy mode draws nothing, ``alternate`` flips a fair coin between its two
MODE_STRATEGIES = {
    "alternate": (STRATEGY_ALIGN, STRATEGY_MASK),
    "align_only": (STRATEGY_ALIGN,),
    "mask_only": (STRATEGY_MASK,),
    "ce_only": (STRATEGY_CE,),
}

ARCHITECTURES = ("mlp", "cnn1d")


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
    seed: Seed = 0
    arch: str = "mlp"
    hidden: tuple = (32,)
    channels: tuple = (8, 16)
    kernel: int = 5

    def __post_init__(self):
        # kinds first, as annotated; then ranges and choices; last, a tuple field is stored as a tuple of ints
        check_settings(type(self), vars(self))
        for name, holds, rule in (
            ("alpha", self.alpha >= 0, ">= 0"),
            ("m_percent", 0 <= self.m_percent <= 100, "in [0, 100]"),
            ("q_max", 0 <= self.q_max <= 100, "in [0, 100]"),
            ("sg_n", self.sg_n >= 1, ">= 1"),
            ("sg_sigma", self.sg_sigma >= 0, ">= 0"),
            ("iterations", self.iterations >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("base_lr", self.base_lr > 0, "> 0"),
            ("lr_decay_factor", self.lr_decay_factor > 0, "> 0"),
            ("momentum", 0 <= self.momentum < 1, "in [0, 1)"),
            ("lr_decay_at_fraction", 0 <= self.lr_decay_at_fraction <= 1, "in [0, 1]"),
            ("min_class_ratio", 0 < self.min_class_ratio <= 1, "in (0, 1]"),
            # the network's shape, checked before any data loads (the model builders check it again)
            ("hidden", all(h >= 1 for h in self.hidden), "a list of integers >= 1"),
            ("channels", all(c >= 1 for c in self.channels), "a list of integers >= 1"),
            ("kernel", self.kernel >= 1 and self.kernel % 2 == 1, "odd and >= 1"),
        ):
            if not holds:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")
        if self.strategy_mode not in MODE_STRATEGIES:
            raise ConfigError(
                f"unknown strategy_mode {self.strategy_mode!r}; choose from {tuple(MODE_STRATEGIES)}"
            )
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"unknown arch {self.arch!r}; choose from {ARCHITECTURES}")
        self.hidden, self.channels = tuple(map(int, self.hidden)), tuple(map(int, self.channels))

    def to_json_dict(self) -> dict:
        # JSON writes a tuple as a list; a dict compared with a loaded one must hold lists
        return {name: list(v) if isinstance(v, tuple) else v for name, v in asdict(self).items()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - setting_kinds(cls).keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict(), indent=2)

    @classmethod
    def load_json(cls, path) -> "TrainConfig":
        """The config at ``path``; every ConfigError names the file."""
        doc = read_json(path)  # names the file itself
        try:
            return cls.from_json_dict(doc)
        except ConfigError as e:
            raise ConfigError(f"{path}: {e}") from e


@dataclass
class TrainRecord:
    iteration: int
    strategy: str
    loss_ce: float
    loss_align: float | None
    lr: float
    seconds: float


def write_history(path, records: list[TrainRecord]) -> None:
    """Write ``history.csv``: one column per TrainRecord field, one row per record."""
    write_cells(path, [f.name for f in fields(TrainRecord)], map(astuple, records))


def lr_schedule(base_lr: float, iteration: int, total: int, factor: float, at_fraction: float) -> float:
    """Constant learning rate, multiplied by ``factor`` once the run passes
    ``at_fraction`` of its iterations."""
    if not 0 <= iteration < total:
        raise ContractError(f"iteration {iteration} outside [0, {total})")
    cutoff = math.ceil(at_fraction * total)
    return base_lr if iteration < cutoff else base_lr * factor


def choose_strategy(mode: str, rng) -> str:
    """Pick the strategy for one batch from ``MODE_STRATEGIES``; ``alternate`` flips a fair coin."""
    strategies = MODE_STRATEGIES.get(mode)
    if strategies is None:
        raise ConfigError(f"unknown strategy_mode {mode!r}")
    return strategies[0] if len(strategies) == 1 else strategies[int(rng.random() >= 0.5)]


def train_step(model: Model, batch, strategy: str, cfg: TrainConfig, lr: float, rng, momentum_state) -> dict:
    """One forward/backward/update; returns the per-batch loss components.

    A mask step augments the batch with saliency from the current
    (pre-update) parameters; only an align step adds the alignment term.
    """
    x_batch, labels = batch
    if strategy == STRATEGY_MASK:
        x_batch = augment_batch(x_batch, labels, model, cfg, rng)

    logits = forward(model, Tensor(x_batch))
    if strategy == STRATEGY_ALIGN:
        loss, ce, align = objective_parts(logits, labels, cfg.alpha)
    else:
        loss, align = cross_entropy(logits, labels), None
        ce = float(loss.values)

    if not np.isfinite(loss.values):
        parts = f"ce={ce!r}" + ("" if align is None else f", align={align!r}")
        raise NumericError(f"non-finite loss under strategy {strategy!r} ({parts})")

    grads = ad.backward(loss)
    for name, p in model.params.items():
        v = momentum_state[name]
        v *= cfg.momentum
        v += grads[p]
        p.values = p.values - lr * v

    return {"strategy": strategy, "loss_ce": ce, "loss_align": align}


def build_model_for(cfg: TrainConfig, input_shape: tuple, num_classes: int, model_seed: int) -> Model:
    """Instantiate the configured architecture for the given data shape."""
    if cfg.arch == "mlp":
        return build_mlp([math.prod(input_shape), *cfg.hidden], num_classes, model_seed)
    if len(input_shape) != 2:
        raise ConfigError(f"cnn1d needs (channels, length) samples, got shape {input_shape}")
    return build_cnn1d([int(input_shape[0]), *cfg.channels], cfg.kernel, num_classes, model_seed)


def train(dataset: TrainView, cfg: TrainConfig):
    """Train on a domain-free view; returns (model, records), one
    :class:`TrainRecord` per iteration.

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

    records = []
    for i in range(cfg.iterations):
        lr = lr_schedule(cfg.base_lr, i, cfg.iterations, cfg.lr_decay_factor, cfg.lr_decay_at_fraction)
        strategy = choose_strategy(cfg.strategy_mode, rng_strategy)
        batch = next(batches)
        started = time.perf_counter()
        try:
            rec = train_step(model, batch, strategy, cfg, lr, rng_step, momentum_state)
        except NumericError as e:
            raise NumericError(f"iteration {i}: {e}") from e
        records.append(TrainRecord(iteration=i, **rec, lr=lr, seconds=time.perf_counter() - started))
    return model, records
