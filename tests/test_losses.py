import math

import numpy as np
import pytest

from dglab import autodiff as ad
from dglab.autodiff import Tensor, backward, grad_check
from dglab.errors import ConfigError, ContractError, DimensionError, NumericError
from dglab.losses import (
    SoftLabelBatch,
    alignment_loss,
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


def test_cross_entropy_rejects_out_of_range_label():
    with pytest.raises(IndexError):
        cross_entropy(np.zeros((2, 3)), [0, 3])
    with pytest.raises(IndexError):
        cross_entropy(np.zeros((2, 3)), [-1, 0])


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


def test_total_loss_rejects_one_column_or_non_finite_logits():
    # the checks softmax_rows made on the logits before the align objective was one node
    with pytest.raises(DimensionError):
        objective_parts(np.zeros((2, 1)), [0, 0], 0.1)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NumericError, match="non-finite logits"):
            objective_parts(np.array([[0.0, bad], [1.0, 2.0]]), [0, 1], 0.1)


def test_soft_label_batch_validation():
    with pytest.raises(ContractError):
        _soft([[0.7, 0.7]], [0])  # row does not sum to 1
    with pytest.raises(ContractError):
        _soft([[0.5, 0.5]], [2])  # label out of range


# ---------------------------------------------------------------------------
# the fused loss nodes against the composed graphs they replaced
#
# cross_entropy and alignment_loss each build one autodiff node. The oracles
# below are the graphs of small ops those losses used to build; value and
# gradient must agree bit for bit, signed zeros included.


def _ce_oracle(z, labels):
    lse = ad.log_sum_exp_rows(z)
    picked = ad.take_per_row(z, labels)
    return ad.scale(ad.sum_all(ad.sub(lse, picked)), 1.0 / z.shape[0])


def _alignment_oracle(probs, labels):
    centroids = {}
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        centroids[int(c)] = ad.mean_rows(ad.select_rows(probs, idx))
    total = None
    for c, mu in centroids.items():
        idx = np.flatnonzero(labels == c)
        diff = ad.sub_rowvec(ad.select_rows(probs, idx), mu)
        term = ad.scale(ad.sum_all(ad.mul(diff, diff)), 1.0 / idx.size)
        total = term if total is None else ad.add(total, term)
    return total


def _objective_oracle(z, labels, alpha):
    align = _alignment_oracle(ad.softmax_rows(z), labels)
    return ad.add(_ce_oracle(z, labels), ad.scale(align, alpha))


def _bits(a):
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


def _value_and_grad(loss_fn, x, upstream):
    leaf = Tensor(x)
    loss = loss_fn(leaf)
    return loss.values, backward(ad.scale(loss, upstream))[leaf]


# (logits, labels): one row, one class present, a class absent, one sample
# per class, and rows whose softmax is exactly 0/1
_FUSED_CASES = {
    "one-row": (np.array([[0.3, -1.2, 2.0]]), [2]),
    "one-class": (np.random.default_rng(11).normal(0, 2, (7, 3)), [1] * 7),
    "class-absent": (np.random.default_rng(12).normal(0, 2, (9, 4)), [0, 2, 3, 0, 2, 3, 3, 0, 0]),
    "one-per-class": (np.random.default_rng(13).normal(0, 2, (4, 4)), [2, 0, 3, 1]),
    "saturated": (
        np.array(
            [[900.0, 0.0, -5.0], [0.0, 800.0, 1.0], [0.5, 0.2, 0.1], [-700.0, 0.0, 700.0], [0.0, 0.1, 0.0]]
        ),
        [0, 0, 1, 2, 2],
    ),
}
# -1 and -0.0 flip the sign of every product, so the composed graph's
# +0.0-normalising adds show up as sign bits
_UPSTREAM = (1.0, -1.0, 0.0, -0.0, 0.37)


@pytest.mark.parametrize("case", sorted(_FUSED_CASES))
@pytest.mark.parametrize("upstream", _UPSTREAM)
def test_cross_entropy_is_bitwise_composed_graph(case, upstream):
    z, labels = _FUSED_CASES[case]
    labels = np.asarray(labels)
    got = _value_and_grad(lambda t: cross_entropy(t, labels), z, upstream)
    want = _value_and_grad(lambda t: _ce_oracle(t, labels), z, upstream)
    assert [_bits(a) for a in got] == [_bits(a) for a in want]


@pytest.mark.parametrize("case", sorted(_FUSED_CASES))
@pytest.mark.parametrize("upstream", _UPSTREAM)
def test_alignment_loss_is_bitwise_composed_graph(case, upstream):
    z, labels = _FUSED_CASES[case]
    labels = np.asarray(labels)
    with ad.no_grad():
        probs = ad.softmax_rows(z).values
    got = _value_and_grad(lambda t: alignment_loss(SoftLabelBatch(t, labels)), probs, upstream)
    want = _value_and_grad(lambda t: _alignment_oracle(t, labels), probs, upstream)
    assert [_bits(a) for a in got] == [_bits(a) for a in want]


@pytest.mark.parametrize("case", sorted(_FUSED_CASES))
@pytest.mark.parametrize("alpha", [0.1, 0.37, 1.0])
@pytest.mark.parametrize("upstream", [1.0, -1.0, -0.0])
def test_objective_parts_is_bitwise_composed_graph(case, alpha, upstream):
    z, labels = _FUSED_CASES[case]
    labels = np.asarray(labels)
    got = _value_and_grad(lambda t: objective_parts(t, labels, alpha)[0], z, upstream)
    want = _value_and_grad(lambda t: _objective_oracle(t, labels, alpha), z, upstream)
    assert [_bits(a) for a in got] == [_bits(a) for a in want]


def test_fused_cases_reach_signed_zero_gradients():
    # the saturated case must put exact zeros into the oracle gradients, or
    # the sign-bit comparison above tests nothing
    z, labels = _FUSED_CASES["saturated"]
    labels = np.asarray(labels)
    _, g_ce = _value_and_grad(lambda t: _ce_oracle(t, labels), z, -1.0)
    probs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.2, 0.0, 0.8]])
    _, g_align = _value_and_grad(lambda t: _alignment_oracle(t, np.array([0, 0, 2, 2])), probs, -1.0)
    for g in (g_ce, g_align):
        assert np.any(g == 0.0) and not np.any(np.signbit(g[g == 0.0]))


def _unsorted_labels(rng, n, c):
    """n labels below c in random order: some classes absent, some of one row."""
    present = rng.permutation(c)[: int(rng.integers(1, c + 1))]
    singles = present[: int(rng.integers(0, min(present.size, n)))]
    rest = present[singles.size :]
    return rng.permutation(np.concatenate([singles, rng.choice(rest, size=n - singles.size)]))


def test_fused_losses_are_bitwise_composed_graphs_on_random_batches():
    rng = np.random.default_rng(14)
    for trial in range(300):
        # up to the training batch size of 128 rows, over 2 to 12 classes
        n, c = int(rng.integers(1, 129)), int(rng.integers(2, 13))
        z = rng.normal(0, 3, (n, c)) * (300.0 if trial % 7 == 0 else 1.0)
        if trial % 5 == 0:
            z = np.round(z)  # tied row maxima and signed zeros
        labels = rng.integers(0, c, n) if trial % 2 else _unsorted_labels(rng, n, c)
        alpha = (0.1, 0.37, 1.0)[trial % 3]
        upstream = (1.0, -1.0, 0.37)[trial % 3 - 1]
        for fused, oracle, x in (
            (lambda t: objective_parts(t, labels, alpha)[0], lambda t: _objective_oracle(t, labels, alpha), z),
            (lambda t: cross_entropy(t, labels), lambda t: _ce_oracle(t, labels), z),
            (lambda t: ad.centroid_spread(t, labels), lambda t: _alignment_oracle(t, labels), _softmax(z)),
        ):
            got = _value_and_grad(fused, x, upstream)
            want = _value_and_grad(oracle, x, upstream)
            assert [_bits(a) for a in got] == [_bits(a) for a in want], (trial, n, c)


def _softmax(z):
    with ad.no_grad():
        return ad.softmax_rows(z).values


def test_fused_loss_nodes_grad_check():
    rng = np.random.default_rng(15)
    labels = np.array([0, 2, 1, 1, 2, 2])
    z = rng.uniform(-2, 2, (6, 3))
    assert grad_check(lambda t: ad.mean_nll(t, labels), z) < 1e-6
    probs = rng.uniform(0.0, 1.0, (6, 3))
    assert grad_check(lambda t: ad.centroid_spread(t, labels), probs) < 1e-6
    assert grad_check(lambda t: ad.soft_label_objective(t, labels, 0.37)[0], z) < 1e-6


def test_each_loss_is_one_node_on_logits_or_probs():
    z = Tensor(np.random.default_rng(16).normal(0, 1, (5, 3)))
    labels = np.array([0, 1, 1, 2, 0])
    assert cross_entropy(z, labels).lineage == ("mean_nll", (z,))
    soft = SoftLabelBatch(ad.softmax_rows(z), labels)
    assert alignment_loss(soft).lineage == ("centroid_spread", (soft.probs,))
    assert objective_parts(z, labels, 0.0)[0].lineage == ("mean_nll", (z,))
    # with alpha > 0 the whole objective is one node whose only parent is
    # the logits; the two terms come back as values
    combined, ce, align = objective_parts(z, labels, 0.1)
    assert combined.lineage == ("soft_label_objective", (z,))
    assert type(ce) is float and type(align) is float
    assert _bits(ce) == _bits(cross_entropy(z, labels).values)
    assert _bits(align) == _bits(alignment_loss(soft).values)
    # with alpha == 0 the cross-entropy is a float too, and there is no alignment term
    plain, ce, align = objective_parts(z, labels, 0.0)
    assert type(ce) is float and ce == float(plain.values) and align is None
