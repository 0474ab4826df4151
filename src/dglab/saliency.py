"""Per-observation relevance scores from squared input gradients.

SmoothGrad averages the squared gradient of one class logit with respect
to the input over Gaussian-perturbed copies of the input; its noise scale
is a fraction of the sample's value range, so a constant sample gets no
noise. The vanilla map is its one-replicate, noise-free case. Both take
one sample or a stack of samples, compute every map in one pass, and
return the score array itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Seed, check_settings
from .errors import ConfigError, DimensionError
from .models import Model, class_logit_input_gradients


@dataclass
class SmoothGradConfig:
    """Replicate count, range-relative noise scale, and noise seed."""

    n: int = 25
    sigma: float = 0.15
    seed: Seed = 0

    def __post_init__(self):
        check_settings(type(self), vars(self), "smoothgrad ")
        if self.n < 1:
            raise ConfigError(f"smoothgrad n must be >= 1, got {self.n}")
        if self.sigma < 0:
            raise ConfigError(f"smoothgrad sigma must be >= 0, got {self.sigma}")


def vanilla_saliency(model: Model, x, c: int) -> np.ndarray:
    """Squared gradient of the class-c logit: SmoothGrad with one noise-free replicate."""
    return smoothgrad(model, x, c, SmoothGradConfig(n=1, sigma=0.0))


def smoothgrad(model: Model, x, c, cfg: SmoothGradConfig) -> np.ndarray:
    """Average the squared-gradient map over n Gaussian-perturbed copies.

    ``x`` is one sample with class ``c``, or a stack (k, *input_shape) with
    one class per row in ``c``; a stack returns (k, *input_shape) scores and
    row i is the single-sample call on x[i], with the same noise and the
    same per-row arithmetic (the BLAS may pick another matrix-product
    kernel for another row count, which can move the last bits). One draw of
    (n, *input_shape) standard-normal noise from cfg.seed is shared by every
    row and scaled per row by cfg.sigma times that row's value range, so a
    constant row gets no noise. All k*n replicates go through one
    input-gradient pass (rows pass through the network independently),
    stacked replicate-major so that every per-replicate step runs over a
    contiguous (k, *input_shape) block. The average is anchored at the
    first replicate, which keeps it exact when every replicate map is
    identical, e.g. for linear models or zero noise.
    """
    values = np.asarray(x, dtype=np.float64)
    stacked = values.ndim == len(model.input_shape) + 1
    samples = values if stacked else values[None]
    classes = np.asarray(c, dtype=np.intp).reshape(-1)
    if classes.shape != samples.shape[:1]:
        raise DimensionError(f"need one class per sample: {classes.shape} for {samples.shape[0]} samples")

    k, shape = samples.shape[0], samples.shape[1:]
    flat = samples.reshape(k, -1)
    sigma_abs = cfg.sigma * (flat.max(axis=1) - flat.min(axis=1))
    # without noise every replicate is the sample itself, and one replicate
    # per row reproduces the vanilla one-row pass bit for bit
    n = cfg.n if sigma_abs.any() else 1
    noise = np.random.default_rng(cfg.seed).standard_normal((n, *shape))
    # replicate-major: row r*k + i is replicate r of sample i
    replicates = noise[:, None] * sigma_abs.reshape(1, k, *(1,) * len(shape))
    replicates += samples
    grads = class_logit_input_gradients(model, replicates.reshape(n * k, *shape), np.tile(classes, n))
    squared = (grads * grads).reshape(n, k, *shape)
    # the same sequential sum over replicates, and division by n, as a mean
    scores = np.maximum(squared[0] + (squared - squared[0]).sum(axis=0) / n, 0.0)
    return scores if stacked else scores[0]
