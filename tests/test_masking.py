import copy

import numpy as np
import pytest

from dglab.errors import ConfigError, DimensionError
from dglab.masking import (
    PERCENTILE_METHOD,
    augment_batch,
    mask_below_percentile,
    positions_below_percentile,
    row_percentiles,
    sample_threshold,
    shuffle_positions,
)
from dglab.models import build_cnn1d, build_mlp
from dglab.saliency import SmoothGradConfig, smoothgrad
from dglab.trainer import TrainConfig


def test_threshold_qmax_zero_always_zero():
    assert np.array_equal(sample_threshold(0.0, np.random.default_rng(0), 50), np.zeros(50))


def test_threshold_distribution():
    rng = np.random.default_rng(1)
    draws = sample_threshold(70.0, rng, 10_000)
    assert draws.min() >= 0.0 and draws.max() <= 70.0
    assert abs(draws.mean() - 35.0) < 1.0


def test_threshold_seeded_reproducibility():
    a = sample_threshold(70.0, np.random.default_rng(7), 5)
    b = sample_threshold(70.0, np.random.default_rng(7), 5)
    assert np.array_equal(a, b)


def test_threshold_rejects_out_of_range():
    with pytest.raises(ConfigError):
        sample_threshold(101.0, np.random.default_rng(0), 1)


def test_q_zero_is_identity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(12)
    scores = rng.uniform(0, 1, 12)
    out = mask_below_percentile(x, scores, 0.0, rng)
    assert np.array_equal(out, x)


def test_constant_scores_is_identity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(10)
    out = mask_below_percentile(x, np.full(10, 0.5), 80.0, rng)
    assert np.array_equal(out, x)


def test_q100_all_but_max_eligible_multiset_preserved():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(20)
    scores = rng.permutation(20).astype(float)  # all distinct
    out = mask_below_percentile(x, scores, 100.0, rng)
    top = int(np.argmax(scores))
    assert out[top] == x[top]
    assert np.array_equal(np.sort(out), np.sort(x))


def test_positions_at_or_above_threshold_untouched():
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.standard_normal(15)
        scores = rng.uniform(0, 1, 15)
        q = float(rng.uniform(0, 100))
        t = np.percentile(scores, q, method="linear")
        out = mask_below_percentile(x, scores, q, rng)
        keep = scores >= t
        assert np.array_equal(out[keep], x[keep])
        assert np.array_equal(np.sort(out), np.sort(x))


@pytest.mark.parametrize("q", [-0.5, 100.5, float("nan")])
def test_mask_below_percentile_rejects_q_outside_0_100(q):
    with pytest.raises(ConfigError, match="q must be in"):
        mask_below_percentile(np.zeros(4), np.arange(4.0), q, np.random.default_rng(0))


def test_mask_below_percentile_rejects_scores_of_another_shape():
    with pytest.raises(DimensionError, match="does not match sample shape"):
        mask_below_percentile(np.zeros((2, 3)), np.zeros(6), 50.0, np.random.default_rng(0))


def test_masked_set_monotone_in_q():
    rng = np.random.default_rng(6)
    for _ in range(200):
        scores = rng.uniform(0, 1, 15)
        q1, q2 = sorted(rng.uniform(0, 100, 2))
        m1 = scores < np.percentile(scores, q1, method="linear")
        m2 = scores < np.percentile(scores, q2, method="linear")
        assert not np.any(m1 & ~m2)  # m1 subset of m2


def test_mask_respects_2d_samples():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 16))
    scores = rng.uniform(0, 1, (1, 16))
    out = mask_below_percentile(x, scores, 90.0, rng)
    assert out.shape == x.shape
    assert np.array_equal(np.sort(out.ravel()), np.sort(x.ravel()))


def test_lowest_scored_position_masked_most_often():
    rng = np.random.default_rng(8)
    scores = np.linspace(0.0, 1.0, 8)
    hits = np.zeros(8)
    for q in sample_threshold(70.0, rng, 4000):
        t = np.percentile(scores, q, method="linear")
        hits += scores < t
    assert hits[0] == hits.max()
    assert hits[0] > hits[4]


def test_augment_m_zero_is_identity():
    model = build_mlp([6, 4], 3, seed=0)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((10, 6))
    y = rng.integers(0, 3, 10)
    Xa = augment_batch(X, y, model, TrainConfig(m_percent=0.0, q_max=70.0, sg_n=2), rng)
    assert np.array_equal(Xa, X)


def test_augment_full_batch_qmax_zero_is_identity():
    model = build_mlp([6, 4], 3, seed=0)
    rng = np.random.default_rng(10)
    X = rng.standard_normal((8, 6))
    y = rng.integers(0, 3, 8)
    Xa = augment_batch(X, y, model, TrainConfig(m_percent=100.0, q_max=0.0, sg_n=2), rng)
    assert np.array_equal(Xa, X)


def test_augment_changes_at_most_m_percent_rows():
    model = build_mlp([16, 8], 3, seed=1)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((128, 16))
    y = rng.integers(0, 3, 128)
    Xa = augment_batch(X, y, model, TrainConfig(m_percent=50.0, q_max=70.0, sg_n=3), rng)
    changed = [i for i in range(128) if not np.array_equal(Xa[i], X[i])]
    assert len(changed) <= 64
    for i in range(128):
        assert np.array_equal(np.sort(Xa[i]), np.sort(X[i]))


def test_augment_row_count_rounding_half_away_from_zero():
    model = build_mlp([4, 4], 2, seed=2)
    rng = np.random.default_rng(12)
    X = rng.standard_normal((3, 4))
    y = np.array([0, 1, 0])
    # 50% of 3 rows rounds to 2; verify via unchanged-row count >= 1
    Xa = augment_batch(X, y, model, TrainConfig(m_percent=50.0, q_max=100.0, sg_n=2), rng)
    unchanged = sum(np.array_equal(Xa[i], X[i]) for i in range(3))
    assert unchanged >= 1


def test_augment_deterministic_given_rng_seed():
    model = build_mlp([6, 4], 3, seed=3)
    X = np.random.default_rng(13).standard_normal((12, 6))
    y = np.random.default_rng(14).integers(0, 3, 12)
    cfg = TrainConfig(m_percent=50.0, q_max=70.0, sg_n=3, sg_sigma=0.15)
    a = augment_batch(X, y, model, cfg, np.random.default_rng(99))
    b = augment_batch(X, y, model, cfg, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_row_percentiles_bitwise_equal_numpy_with_ties_and_end_points():
    # and the picker takes, row by row, the positions strictly below that percentile
    rng = np.random.default_rng(30)
    for d in (1, 2, 7, 25, 64):
        scores = rng.integers(0, 5, (200, d)) * rng.uniform(0.1, 1.0)  # heavy ties
        scores[::3] = rng.uniform(0.0, 1.0, scores[::3].shape)
        scores[4:8] = 0.25  # constant rows
        qs = rng.uniform(0.0, 100.0, 200)
        qs[:8] = [0.0, 100.0, 50.0, 100.0 * (1 - 1e-16), 0.0, 100.0, 50.0, 100.0]
        expected = [np.percentile(row, q, method=PERCENTILE_METHOD) for row, q in zip(scores, qs)]
        assert np.array_equal(row_percentiles(scores, qs), expected)
        rows, cols = positions_below_percentile(scores, qs)
        below = [np.flatnonzero(row < np.percentile(row, q, method=PERCENTILE_METHOD)) for row, q in zip(scores, qs)]
        assert np.array_equal(rows, np.repeat(np.arange(200), [b.size for b in below]))
        assert np.array_equal(cols, np.concatenate(below))
        assert not np.isin(rows, [0, 4, 5, 6, 7]).any()  # q = 0 and constant rows pick nothing


def test_shuffle_positions_moves_values_within_their_row_only_and_draws_one_key_per_position():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((50, 9))
    scores = rng.integers(0, 4, (50, 9)).astype(float)
    qs = rng.uniform(0.0, 100.0, 50)
    qs[:3] = [0.0, 100.0, 100.0]
    scores[2] = 1.0  # a constant row: no position even at q = 100
    rows, cols = positions_below_percentile(scores, qs)
    assert rows.size > 0 and not np.isin([0, 2], rows).any()
    for picked in [(rows, cols), (rows[:0], cols[:0])]:  # every picked position, then none
        out = x.copy()
        gen = np.random.default_rng(42)
        replay = copy.deepcopy(gen)
        assert shuffle_positions(out, *picked, gen) is None  # in place
        replay.random(picked[0].size)
        assert gen.bit_generator.state == replay.bit_generator.state
        kept = np.ones(x.shape, dtype=bool)
        kept[picked] = False
        assert np.array_equal(out[kept], x[kept])  # bit for bit outside the positions
        assert np.array_equal(np.sort(out, axis=1), np.sort(x, axis=1))  # each row keeps its values
        assert np.array_equal(out, x) == (picked[0].size == 0)


def test_sample_threshold_batch_draw_matches_sequential_draws():
    batch = sample_threshold(70.0, np.random.default_rng(31), 5)
    gen = np.random.default_rng(31)
    assert np.array_equal(batch, [gen.uniform(0.0, 70.0) for _ in range(5)])


@pytest.mark.parametrize("arch", ["mlp", "cnn1d"])
def test_augment_batch_row_invariants_against_replayed_draws(arch):
    # replay the documented draw order: SmoothGrad seed, chosen rows, then every threshold
    if arch == "mlp":
        model, shape = build_mlp([12, 8], 3, seed=32), (12,)
    else:
        model, shape = build_cnn1d([2, 4], 3, 3, seed=33), (2, 6)
    rng = np.random.default_rng(34)
    X = rng.standard_normal((40, *shape))
    y = rng.integers(0, 3, 40)
    cfg = TrainConfig(m_percent=60.0, q_max=90.0, sg_n=4, sg_sigma=0.2)
    out = augment_batch(X, y, model, cfg, np.random.default_rng(36))
    again = augment_batch(X, y, model, cfg, np.random.default_rng(36))
    assert np.array_equal(out, again)

    replay = np.random.default_rng(36)
    sg = SmoothGradConfig(n=4, sigma=0.2, seed=int(replay.integers(2**63)))
    chosen = replay.choice(40, size=24, replace=False)
    qs = replay.uniform(0.0, 90.0, size=24)
    scores = smoothgrad(model, X[chosen], y[chosen], sg)
    unchosen = np.setdiff1d(np.arange(40), chosen)
    assert np.array_equal(out[unchosen], X[unchosen])
    shuffled = 0
    for j, i in enumerate(chosen):
        row, before, sal = out[i].ravel(), X[i].ravel(), scores[j].ravel()
        keep = sal >= np.percentile(sal, qs[j], method=PERCENTILE_METHOD)
        assert np.array_equal(np.sort(row), np.sort(before))
        assert np.array_equal(row[keep], before[keep])
        shuffled += not np.array_equal(row, before)
    assert shuffled > 0


@pytest.mark.parametrize("arch", ["mlp", "cnn1d"])
@pytest.mark.parametrize("m_percent", [0.0, 60.0])
def test_augment_batch_equals_a_replay_of_its_documented_draws(arch, m_percent):
    # one mask step rebuilt from a clone of the step generator, draw by draw:
    # the SmoothGrad seed, the chosen rows, every threshold, then one shuffle key
    # per masked position, row by row; the batch must match bit for bit and the
    # generator must end in the same state
    if arch == "mlp":
        model, shape = build_mlp([12, 8], 3, seed=37), (12,)
    else:
        model, shape = build_cnn1d([2, 4], 3, 3, seed=38), (2, 6)
    data = np.random.default_rng(39)
    X = data.standard_normal((30, *shape))
    y = data.integers(0, 3, 30)
    cfg = TrainConfig(m_percent=m_percent, q_max=80.0, sg_n=3, sg_sigma=0.25)
    rng = np.random.default_rng(40)
    replay = copy.deepcopy(rng)
    out = augment_batch(X, y, model, cfg, rng)

    expected = X.copy()
    sg = SmoothGradConfig(n=cfg.sg_n, sigma=cfg.sg_sigma, seed=int(replay.integers(2**63)))
    count = int(np.floor(m_percent / 100 * 30 + 0.5))
    if count:
        chosen = replay.choice(30, size=count, replace=False)
        qs = replay.uniform(0.0, cfg.q_max, size=count)
        scores = smoothgrad(model, X[chosen], y[chosen], sg).reshape(count, -1)
        below = [np.flatnonzero(s < np.percentile(s, q, method=PERCENTILE_METHOD)) for s, q in zip(scores, qs)]
        keys = replay.random(sum(b.size for b in below))
        start = 0
        for i, cols in zip(chosen, below):
            order = np.argsort(keys[start : start + cols.size], kind="stable")
            start += cols.size
            row = expected[i].reshape(-1)
            row[cols] = row[cols[order]]
    assert np.array_equal(out, expected)
    assert rng.bit_generator.state == replay.bit_generator.state
