"""Training objectives: cross-entropy, class-centroid alignment, and their sum.

Cross-entropy is computed from logits through log-sum-exp, never through
materialised probabilities, so log(0) cannot occur. The alignment term
pulls each sample's soft label toward the mean soft label of its class
within the batch; gradients flow through the centroid too (no
stop-gradient). Each of the two terms is one autodiff node
(``autodiff.mean_nll`` and ``autodiff.centroid_spread``), and the training
objective, cross-entropy plus alpha times the alignment, is one node on the
logits too (``autodiff.soft_label_objective``), which forms the softmax once
for both terms. alpha = 0 is that objective with zero weight: the same
node, whose alignment is still measured.
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


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of the true classes, from raw logits."""
    return ad.mean_nll(logits, labels)


def alignment_loss(soft: SoftLabelBatch) -> Tensor:
    """Sum over classes of the mean squared distance to the class centroid.

    Each class present contributes (1/n_c) * sum_i ||p_i - mu(c)||^2; absent
    classes contribute nothing. Zero exactly when every class's soft labels
    are identical (in particular with one sample per class).
    """
    if soft.labels.size < 1:
        raise ContractError("alignment_loss: empty batch")
    return ad.centroid_spread(soft.probs, soft.labels)


def objective_parts(logits, labels, alpha: float) -> tuple[Tensor, float, float]:
    """(combined loss node, cross-entropy, alignment) for one batch.

    The combined loss is the one node ``autodiff.soft_label_objective`` on
    the logits at every alpha; at alpha = 0 its value and logits gradient
    are bit for bit those of :func:`cross_entropy`. The two terms come back
    as Python floats, whose repr is the shortest round-tripping decimal.
    """
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    loss, ce, align = ad.soft_label_objective(logits, labels, alpha)
    return loss, float(ce), float(align)
