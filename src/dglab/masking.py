"""Saliency-guided input masking: thresholds, the positions below them, and a shuffle.

A mask step picks each row's positions scoring strictly below a sampled
percentile threshold (``positions_below_percentile``) and permutes their
values within the row (``shuffle_positions``), preserving its value
multiset. Strict inequality makes a zero threshold percentile and a
constant score map exact no-ops, and leaves ties at the threshold alone.
``augment_batch`` masks a batch's chosen rows; ``mask_below_percentile`` one sample.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .models import Model
from .saliency import SmoothGradConfig, smoothgrad

if TYPE_CHECKING:  # trainer imports this module
    from .trainer import TrainConfig

# Order-statistic interpolation used for thresholds; part of the documented
# masking contract, do not change silently.
PERCENTILE_METHOD = "linear"


def sample_threshold(q_max: float, rng, size: int) -> np.ndarray:
    """Draw ``size`` threshold percentiles uniformly from [0, q_max]."""
    if not 0.0 <= q_max <= 100.0:
        raise ConfigError(f"q_max must be in [0, 100], got {q_max}")
    return rng.uniform(0.0, q_max, size=size)


def row_percentiles(scores: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """The qs[i]-th percentile of each row of a (k, d) score array.

    Bit-equal to ``np.percentile(scores[i], qs[i], method=PERCENTILE_METHOD)``
    for finite scores: one sort for all rows, then numpy's linear
    interpolation step by step.
    """
    ordered = np.sort(scores, axis=1)
    last = scores.shape[1] - 1
    virtual = last * (qs / 100)
    floor = np.floor(virtual)
    gamma = virtual - floor
    rows = np.arange(scores.shape[0])
    lo_index = floor.astype(np.intp)
    lo = ordered[rows, lo_index]
    hi = ordered[rows, np.minimum(lo_index + 1, last)]
    diff = hi - lo
    return np.where(gamma >= 0.5, hi - diff * (1 - gamma), lo + diff * gamma)


def positions_below_percentile(scores: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) of the (k, d) scores strictly below their row's qs[i]-th percentile, row-major."""
    return np.nonzero(scores < row_percentiles(scores, qs)[:, None])


def shuffle_positions(x: np.ndarray, rows: np.ndarray, cols: np.ndarray, rng) -> None:
    """Permute the values of (k, d) ``x`` at (rows, cols) within each row, in place.

    ``rows`` must be sorted, as the picker returns them. One random key per
    position and one sort by (row, key) shuffle every row at once, so values
    never leave their row; every other entry of ``x`` is left as it is.
    """
    order = np.lexsort((rng.random(rows.size), rows))
    x[rows, cols] = x[rows, cols[order]]


def mask_below_percentile(x, scores, q: float, rng) -> np.ndarray:
    """Shuffle the values at positions scoring strictly below the q-th percentile.

    The one-row case of a mask step. Positions at or above the threshold are
    bit-identical to the input, and the returned sample always holds the
    same value multiset as x.
    """
    scores = np.asarray(scores, dtype=np.float64)
    out = np.array(x, dtype=np.float64, copy=True)
    if scores.shape != out.shape:
        raise DimensionError(f"saliency shape {scores.shape} does not match sample shape {out.shape}")
    if not 0.0 <= q <= 100.0:
        raise ConfigError(f"q must be in [0, 100], got {q}")
    row = out.reshape(1, -1)
    shuffle_positions(row, *positions_below_percentile(scores.reshape(1, -1), np.array([q], dtype=np.float64)), rng)
    return row.reshape(out.shape)


def augment_batch(x_batch, labels, model: Model, cfg: TrainConfig, rng) -> np.ndarray:
    """A copy of the batch with a uniformly chosen ``cfg.m_percent``% of its rows masked.

    ``cfg`` is the run's TrainConfig, which has checked the fields read here.
    Each chosen sample gets its own threshold percentile in [0, ``cfg.q_max``];
    saliency is conditioned on the sample's true label using the model's
    current parameters, in one stacked SmoothGrad pass (``cfg.sg_n``,
    ``cfg.sg_sigma``). Unchosen rows come back bit-identical. ``rng`` is drawn
    in this order: the SmoothGrad seed (even when no row is chosen), the
    chosen rows, all thresholds, then the shuffle keys of every masked position.
    """
    out = np.array(x_batch, dtype=np.float64, copy=True)
    if out.shape[0] < 1:
        raise ContractError("augment_batch: empty batch")
    sg_cfg = SmoothGradConfig(cfg.sg_n, cfg.sg_sigma, seed=int(rng.integers(2**63)))
    count = math.floor(cfg.m_percent / 100.0 * out.shape[0] + 0.5)  # round half away from zero
    if count == 0:
        return out
    chosen = rng.choice(out.shape[0], size=count, replace=False)
    rows = out[chosen]
    scores = smoothgrad(model, rows, np.asarray(labels)[chosen], sg_cfg)
    qs = sample_threshold(cfg.q_max, rng, size=count)
    flat = rows.reshape(count, -1)
    shuffle_positions(flat, *positions_below_percentile(scores.reshape(count, -1), qs), rng)
    out[chosen] = flat.reshape(rows.shape)
    return out
