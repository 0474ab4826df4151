"""Training objectives: cross-entropy, class-centroid alignment, and their sum.

Cross-entropy is computed from logits through log-sum-exp, never through
materialised probabilities, so log(0) cannot occur. The alignment term
pulls each sample's soft label toward the mean soft label of its class
within the batch; gradients flow through the centroid too (no
stop-gradient). Each of the two terms is one autodiff node
(``autodiff.mean_nll`` and ``autodiff.centroid_spread``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError


@dataclass
class SoftLabelBatch:
    """Per-sample class-probability rows plus integer labels.

    Deliberately carries no domain information: alignment is computed from
    (probs, labels) alone.
    """

    probs: Tensor
    labels: np.ndarray

    def __post_init__(self):
        self.probs = ad.as_tensor(self.probs)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        p = self.probs.values
        if p.ndim != 2:
            raise DimensionError(f"soft labels must be (batch, C), got {p.shape}")
        if self.labels.shape != (p.shape[0],):
            raise DimensionError(
                f"labels shape {self.labels.shape} does not match batch size {p.shape[0]}"
            )
        if p.size and (p.min() < 0.0 or np.abs(p.sum(axis=1) - 1.0).max() > 1e-9):
            raise ContractError("soft-label rows must be nonnegative and sum to 1 within 1e-9")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= p.shape[1]):
            raise ContractError(f"labels must lie in [0, {p.shape[1]})")


def _check_labels(logits: Tensor, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp)
    if logits.values.ndim != 2:
        raise DimensionError(f"logits must be (batch, C), got {logits.shape}")
    if logits.shape[0] < 1:
        raise ContractError("cross_entropy: empty batch")
    if labels.shape != (logits.shape[0],):
        raise DimensionError(
            f"labels shape {labels.shape} does not match batch size {logits.shape[0]}"
        )
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ContractError(f"labels must lie in [0, {logits.shape[1]})")
    return labels


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of the true classes, from raw logits."""
    z = ad.as_tensor(logits)
    return ad.mean_nll(z, _check_labels(z, labels))


def class_centroids(soft: SoftLabelBatch) -> dict[int, Tensor]:
    """Mean soft-label vector per class present in the batch.

    Classes absent from the batch have no entry. The returned tensors stay
    in the graph, so downstream losses differentiate through them.
    """
    if soft.labels.size < 1:
        raise ContractError("class_centroids: empty batch")
    centroids: dict[int, Tensor] = {}
    for c in np.unique(soft.labels):
        idx = np.flatnonzero(soft.labels == c)
        centroids[int(c)] = ad.mean_rows(ad.select_rows(soft.probs, idx))
    return centroids


def alignment_loss(soft: SoftLabelBatch) -> Tensor:
    """Sum over classes of the mean squared distance to the class centroid.

    Each class present contributes (1/n_c) * sum_i ||p_i - mu(c)||^2; absent
    classes contribute nothing. Zero exactly when every class's soft labels
    are identical (in particular with one sample per class).
    """
    if soft.labels.size < 1:
        raise ContractError("alignment_loss: empty batch")
    return ad.centroid_spread(soft.probs, soft.labels)


def objective_parts(logits, labels, alpha: float) -> tuple[Tensor, Tensor, Tensor | None]:
    """(combined, cross-entropy, alignment or None) for one batch.

    alpha == 0 skips the alignment subgraph entirely, so the combined loss
    is the cross-entropy graph itself.
    """
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    z = ad.as_tensor(logits)
    ce = cross_entropy(z, labels)
    if alpha == 0.0:
        return ce, ce, None
    soft = SoftLabelBatch(ad.softmax_rows(z), labels)
    align = alignment_loss(soft)
    return ad.add(ce, ad.scale(align, float(alpha))), ce, align
