import math

import numpy as np
import pytest

from dglab import autodiff as ad
from dglab.autodiff import Tensor, backward, grad_check
from dglab.errors import ConfigError, ContractError
from dglab.losses import (
    SoftLabelBatch,
    alignment_loss,
    class_centroids,
    cross_entropy,
    objective_parts,
)
from dglab.models import build_mlp, forward


def _soft(probs, labels):
    return SoftLabelBatch(Tensor(np.asarray(probs, dtype=np.float64)), np.asarray(labels))


def test_cross_entropy_confident_prediction_near_zero():
    logits = np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
    loss = cross_entropy(logits, [0, 1])
    assert float(loss.values) <= 1e-9


def test_cross_entropy_uniform_is_log_c():
    loss = cross_entropy(np.zeros((5, 4)), [0, 1, 2, 3, 0])
    assert abs(float(loss.values) - math.log(4)) < 1e-12


def test_cross_entropy_matches_direct_oracle():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((16, 5)) * 3
    labels = rng.integers(0, 5, 16)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    expected = -np.mean(np.log(p[np.arange(16), labels]))
    assert abs(float(cross_entropy(logits, labels).values) - expected) < 1e-12


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((8, 3))
    labels = rng.integers(0, 3, 8)
    a = float(cross_entropy(logits, labels).values)
    b = float(cross_entropy(logits + 123.0, labels).values)
    assert abs(a - b) < 1e-9


def test_cross_entropy_empty_batch():
    with pytest.raises(ContractError):
        cross_entropy(np.zeros((0, 3)), [])


def test_centroid_single_sample_is_itself():
    soft = _soft([[0.2, 0.8]], [1])
    mu = class_centroids(soft)
    assert list(mu) == [1]
    assert np.array_equal(mu[1].values, [0.2, 0.8])


def test_centroid_is_mean():
    soft = _soft([[1.0, 0.0], [0.0, 1.0]], [0, 0])
    assert np.array_equal(class_centroids(soft)[0].values, [0.5, 0.5])


def test_centroids_match_loop_oracle():
    rng = np.random.default_rng(2)
    raw = rng.uniform(0.01, 1, (20, 4))
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 4, 20)
    mu = class_centroids(_soft(probs, labels))
    for c in np.unique(labels):
        rows = [probs[i] for i in range(20) if labels[i] == c]
        expected = sum(rows) / len(rows)
        np.testing.assert_allclose(mu[int(c)].values, expected, rtol=0, atol=1e-12)


def test_centroids_skip_absent_classes():
    soft = _soft([[0.5, 0.3, 0.2]], [2])
    assert set(class_centroids(soft)) == {2}


def test_alignment_zero_when_identical_soft_labels():
    soft = _soft([[0.6, 0.4], [0.6, 0.4], [0.6, 0.4]], [0, 0, 0])
    assert float(alignment_loss(soft).values) == 0.0


def test_alignment_zero_with_one_sample_per_class():
    soft = _soft([[0.9, 0.1], [0.2, 0.8]], [0, 1])
    assert float(alignment_loss(soft).values) == 0.0


def test_alignment_hand_case():
    # one class, p1=(1,0), p2=(0,1): mu=(.5,.5), each squared distance .5
    soft = _soft([[1.0, 0.0], [0.0, 1.0]], [0, 0])
    assert abs(float(alignment_loss(soft).values) - 0.5) <= 1e-12


def test_alignment_nonnegative_and_permutation_invariant():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.01, 1, (12, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 3, 12)
    base = float(alignment_loss(_soft(probs, labels)).values)
    assert base >= 0.0
    perm = rng.permutation(12)
    permuted = float(alignment_loss(_soft(probs[perm], labels[perm])).values)
    assert abs(base - permuted) < 1e-12


def test_alignment_gradient_through_centroid():
    # finite differences through logits: the centroid is a function of the
    # soft labels, so its contribution must appear in the gradient
    model = build_mlp([3, 5], 3, seed=4)
    labels = np.array([0, 1, 0, 2, 1, 0])

    def loss(x):
        p = ad.softmax_rows(forward(model, x))
        return alignment_loss(SoftLabelBatch(p, labels))

    err = grad_check(loss, np.random.default_rng(5).uniform(-1, 1, (6, 3)), eps=1e-5)
    assert err < 1e-4


def test_total_loss_alpha_zero_is_cross_entropy_graph():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.standard_normal((6, 3)))
    labels = rng.integers(0, 3, 6)
    combined = objective_parts(logits, labels, 0.0)[0]
    ce = cross_entropy(logits, labels)
    assert float(combined.values) == float(ce.values)
    assert np.array_equal(backward(combined)[logits], backward(ce)[logits])


def test_total_loss_is_weighted_sum():
    rng = np.random.default_rng(7)
    logits = Tensor(rng.standard_normal((10, 4)))
    labels = rng.integers(0, 4, 10)
    ce = float(cross_entropy(logits, labels).values)
    p = ad.softmax_rows(logits)
    align = float(alignment_loss(SoftLabelBatch(p, labels)).values)
    combined = float(objective_parts(logits, labels, 0.1)[0].values)
    assert abs(combined - (ce + 0.1 * align)) < 1e-12


def test_total_loss_gradient_finite_differences():
    labels = np.array([0, 2, 1, 1])

    def loss(z):
        return objective_parts(z, labels, 0.1)[0]

    err = grad_check(loss, np.random.default_rng(8).uniform(-1, 1, (4, 3)), eps=1e-5)
    assert err < 1e-4


def test_total_loss_rejects_negative_alpha():
    with pytest.raises(ConfigError):
        objective_parts(np.zeros((2, 3)), [0, 1], -0.1)


def test_soft_label_batch_validation():
    with pytest.raises(ContractError):
        _soft([[0.7, 0.7]], [0])  # row does not sum to 1
    with pytest.raises(ContractError):
        _soft([[0.5, 0.5]], [2])  # label out of range
