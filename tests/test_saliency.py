import re

import numpy as np
import pytest

from dglab import models
from dglab.errors import ConfigError, DimensionError
from dglab.models import build_cnn1d, build_mlp, class_logit_input_gradients
from dglab.saliency import SmoothGradConfig, smoothgrad, vanilla_saliency


def test_linear_model_vanilla_is_squared_weight_column():
    model = build_mlp([5], 3, seed=0)
    w = model.params["head_w"].values
    for c in range(3):
        for x_seed in range(3):
            x = np.random.default_rng(x_seed).standard_normal(5)
            sal = vanilla_saliency(model, x, c)
            assert np.array_equal(sal, w[:, c] ** 2)


def test_zero_weights_give_zero_map():
    model = build_mlp([4, 6], 3, seed=0)
    model.params["head_w"].values = np.zeros((6, 3))
    model.params["head_b"].values = np.zeros(3)
    sal = vanilla_saliency(model, np.ones(4), 1)
    assert np.array_equal(sal, np.zeros(4))


def test_vanilla_matches_squared_finite_differences():
    model = build_mlp([4, 6], 3, seed=1)
    x = np.random.default_rng(2).uniform(-1, 1, 4)
    c = 2
    eps = 1e-5
    fd = np.zeros(4)
    for i in range(4):
        plus, minus = x.copy(), x.copy()
        plus[i] += eps
        minus[i] -= eps
        from dglab.autodiff import no_grad
        from dglab.models import forward

        with no_grad():
            fp = forward(model, plus[None]).values[0, c]
            fm = forward(model, minus[None]).values[0, c]
        fd[i] = (fp - fm) / (2 * eps)
    sal = vanilla_saliency(model, x, c)
    np.testing.assert_allclose(sal, fd**2, rtol=1e-3, atol=1e-12)


def test_linear_model_smoothgrad_equals_vanilla_exactly():
    model = build_mlp([6], 4, seed=3)
    x = np.random.default_rng(4).standard_normal(6)
    for c in range(4):
        vanilla = vanilla_saliency(model, x, c)
        for n, sigma, seed in [(1, 0.0, 0), (25, 0.15, 0), (25, 0.15, 99), (7, 2.0, 5)]:
            smooth = smoothgrad(model, x, c, SmoothGradConfig(n=n, sigma=sigma, seed=seed))
            assert np.array_equal(smooth, vanilla)


def test_degenerate_config_is_vanilla_bitwise():
    model = build_mlp([4, 6], 3, seed=5)
    x = np.random.default_rng(6).standard_normal(4)
    smooth = smoothgrad(model, x, 1, SmoothGradConfig(n=1, sigma=0.0, seed=0))
    vanilla = vanilla_saliency(model, x, 1)
    assert np.array_equal(smooth, vanilla)


def test_constant_sample_degenerates_to_vanilla():
    # zero value range forces zero absolute noise regardless of sigma
    model = build_mlp([4, 6], 3, seed=5)
    x = np.full(4, 0.7)
    smooth = smoothgrad(model, x, 0, SmoothGradConfig(n=10, sigma=0.15, seed=0))
    vanilla = vanilla_saliency(model, x, 0)
    assert np.array_equal(smooth, vanilla)


def test_smoothgrad_seed_determinism_and_seed_sensitivity():
    model = build_mlp([4, 6], 3, seed=7)
    x = np.random.default_rng(8).standard_normal(4)
    a = smoothgrad(model, x, 0, SmoothGradConfig(n=5, sigma=0.15, seed=11))
    b = smoothgrad(model, x, 0, SmoothGradConfig(n=5, sigma=0.15, seed=11))
    c = smoothgrad(model, x, 0, SmoothGradConfig(n=5, sigma=0.15, seed=12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_maps_are_nonnegative():
    model = build_mlp([4, 6], 3, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = rng.standard_normal(4)
        assert vanilla_saliency(model, x, 0).min() >= 0.0
        assert smoothgrad(model, x, 0, SmoothGradConfig(n=5, sigma=0.2, seed=0)).min() >= 0.0


def test_saliency_mutates_nothing():
    model = build_mlp([4, 6], 3, seed=11)
    before = {name: p.values.copy() for name, p in model.params.items()}
    x = np.random.default_rng(12).standard_normal(4)
    x_before = x.copy()
    vanilla_saliency(model, x, 1)
    smoothgrad(model, x, 1, SmoothGradConfig(n=8, sigma=0.3, seed=0))
    assert np.array_equal(x, x_before)
    for name, p in model.params.items():
        assert np.array_equal(p.values, before[name])


def test_replicate_averaging_shrinks_seed_variance():
    # across-seed spread of the map must drop when averaging 25 replicates
    model = build_mlp([4, 6], 3, seed=13)
    x = np.random.default_rng(14).standard_normal(4)
    maps_n1 = np.stack(
        [smoothgrad(model, x, 0, SmoothGradConfig(n=1, sigma=0.3, seed=s)) for s in range(20)]
    )
    maps_n25 = np.stack(
        [smoothgrad(model, x, 0, SmoothGradConfig(n=25, sigma=0.3, seed=s)) for s in range(20)]
    )
    assert maps_n25.std(axis=0).mean() < maps_n1.std(axis=0).mean()


def test_config_validation():
    with pytest.raises(ConfigError):
        SmoothGradConfig(n=0)
    with pytest.raises(ConfigError):
        SmoothGradConfig(sigma=-0.1)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("sigma", float("nan"), "sigma must be a finite double or an int64, got nan"),
        ("sigma", float("inf"), "sigma must be a finite double or an int64, got inf"),
        ("sigma", -float("inf"), "sigma must be a finite double or an int64, got -inf"),
        ("sigma", True, "sigma must be a finite double or an int64, got True"),
        ("sigma", "0.1", "sigma must be a finite double or an int64, got '0.1'"),
        pytest.param(
            "sigma", 10**400, f"sigma must be a finite double or an int64, got {10**400}", id="sigma-10**400"
        ),
        # n is the replicate count
        pytest.param("n", 2.5, "n must be an int64 integer, got 2.5", id="n-2.5-replicate count"),
        pytest.param("n", 3.0, "n must be an int64 integer, got 3.0", id="n-3.0-replicate count"),
        pytest.param("n", True, "n must be an int64 integer, got True", id="n-True-replicate count"),
        pytest.param("n", None, "n must be an int64 integer, got None", id="n-None-replicate count"),
        ("seed", -1, "seed must be a non-negative int64 integer, got -1"),
        ("seed", 2.5, "seed must be a non-negative int64 integer, got 2.5"),
        ("seed", True, "seed must be a non-negative int64 integer, got True"),
    ],
)
def test_config_rejects_what_is_not_a_count_a_finite_scale_or_a_seed(field, value, message):
    # nan gave an all-zero map, inf finite nonsense, n=2.5 or True a TypeError,
    # a negative seed a ValueError from numpy at the first call, and 10**400 an OverflowError
    with pytest.raises(ConfigError, match=f"^smoothgrad {re.escape(message)}$"):
        SmoothGradConfig(**{field: value})


def test_config_takes_numpy_scalars():
    cfg = SmoothGradConfig(n=np.int64(3), sigma=np.float64(0.2), seed=1)
    model, x = build_mlp([4, 6], 3, seed=48), np.random.default_rng(49).standard_normal(4)
    assert np.array_equal(smoothgrad(model, x, 1, cfg), smoothgrad(model, x, 1, SmoothGradConfig(3, 0.2, 1)))


def test_class_out_of_range():
    model = build_mlp([4], 3, seed=0)
    with pytest.raises(IndexError):
        vanilla_saliency(model, np.zeros(4), 5)
    with pytest.raises(IndexError):
        smoothgrad(model, np.zeros(4), -1, SmoothGradConfig())


def test_noise_stream_is_sequential():
    # drawing the whole replicate block at once consumes the stream exactly
    # like per-replicate draws; this pins the documented convention
    rng_block = np.random.default_rng(42).standard_normal((3, 4))
    gen = np.random.default_rng(42)
    rng_seq = np.stack([gen.standard_normal(4) for _ in range(3)])
    assert np.array_equal(rng_block, rng_seq)


def test_vanilla_agrees_with_logit_input_gradient():
    mlp, cnn = build_mlp([4, 6], 3, seed=15), build_cnn1d([2, 4], 3, 3, seed=17)
    rng = np.random.default_rng(16)
    for model, x in ((mlp, rng.standard_normal(4)), (cnn, rng.standard_normal((2, 13)))):
        grad = class_logit_input_gradients(model, x[None], [2])[0]
        sal = vanilla_saliency(model, x, 2)
        assert np.array_equal(sal, grad**2)
        # vanilla is SmoothGrad with one noise-free replicate, whatever the seed
        for seed in (0, 1, 7, 123):
            cfg = SmoothGradConfig(n=1, sigma=0.0, seed=seed)
            assert np.array_equal(sal, smoothgrad(model, x, 2, cfg))


def _stack_with_constant_row(shape, rng):
    X = rng.standard_normal((9, *shape))
    X[4] = 0.7  # zero value range: this row gets no noise
    return X, rng.integers(0, 3, 9)


@pytest.mark.parametrize("sigma", [0.15, 0.0])
def test_stacked_smoothgrad_rows_equal_single_calls_cnn1d(sigma, monkeypatch):
    model = build_cnn1d([2, 4, 5], 3, 3, seed=22)
    X, y = _stack_with_constant_row((2, 12), np.random.default_rng(23))
    # 7-row chunks: the 9 x 5 replicate stack spans 7 chunks, cut mid-sample
    monkeypatch.setattr(
        models, "ROW_CHUNK_ELEMENTS", 7 * models._largest_row_intermediate(model, (2, 12))
    )
    cfg = SmoothGradConfig(n=5, sigma=sigma, seed=24)
    stacked = smoothgrad(model, X, y, cfg)
    assert stacked.shape == X.shape
    for i in range(len(X)):
        assert np.array_equal(stacked[i], smoothgrad(model, X[i], int(y[i]), cfg))


@pytest.mark.parametrize("sigma", [0.15, 0.0])
def test_stacked_smoothgrad_rows_match_single_calls_mlp(sigma):
    # OpenBLAS picks its dgemm kernel by matrix size (and gemv for one row),
    # so the hidden layer's input-gradient product can round differently in
    # a 45-row pass than in a 5-row one: equal to a few ulps, not bitwise.
    # Without a hidden layer the gradient is a weight column: bitwise.
    X, y = _stack_with_constant_row((6,), np.random.default_rng(25))
    cfg = SmoothGradConfig(n=5, sigma=sigma, seed=26)
    linear, hidden = build_mlp([6], 3, seed=27), build_mlp([6, 8], 3, seed=28)
    stacked_linear = smoothgrad(linear, X, y, cfg)
    stacked_hidden = smoothgrad(hidden, X, y, cfg)
    for i in range(len(X)):
        assert np.array_equal(stacked_linear[i], smoothgrad(linear, X[i], int(y[i]), cfg))
        single = smoothgrad(hidden, X[i], int(y[i]), cfg)
        np.testing.assert_allclose(stacked_hidden[i], single, rtol=0, atol=1e-12 * single.max())


def test_stacked_smoothgrad_rejects_class_count_mismatch():
    model = build_mlp([4, 6], 3, seed=0)
    with pytest.raises(DimensionError):
        smoothgrad(model, np.zeros((3, 4)), [0, 1], SmoothGradConfig(n=2))


def test_sample_shape_mismatch_raises_dimension_error():
    mlp, cnn = build_mlp([4, 6], 3, seed=0), build_cnn1d([2, 4], 3, 3, seed=1)
    for model, x in ((mlp, np.zeros(5)), (mlp, np.zeros((2, 3, 4))), (cnn, np.zeros((3, 13)))):
        with pytest.raises(DimensionError):
            vanilla_saliency(model, x, 0)
        with pytest.raises(DimensionError):
            smoothgrad(model, x, 0, SmoothGradConfig(n=3))


def _sample_major_smoothgrad(model, samples, classes, cfg):
    """SmoothGrad with the replicates stacked sample-major, (k, n): row i*n + r
    is replicate r of sample i, and the average is a mean over axis 1."""
    k, shape = samples.shape[0], samples.shape[1:]
    flat = samples.reshape(k, -1)
    sigma_abs = cfg.sigma * (flat.max(axis=1) - flat.min(axis=1))
    n = cfg.n if sigma_abs.any() else 1
    noise = np.random.default_rng(cfg.seed).standard_normal((n, *shape))
    replicates = samples[:, None] + noise * sigma_abs.reshape(k, *(1,) * (1 + len(shape)))
    grads = class_logit_input_gradients(model, replicates.reshape(k * n, *shape), np.repeat(classes, n))
    squared = (grads * grads).reshape(k, n, *shape)
    return np.maximum(squared[:, 0] + (squared - squared[:, :1]).mean(axis=1), 0.0)


@pytest.mark.parametrize("sigma", [0.15, 0.0], ids=["n-25", "noise-free"])
@pytest.mark.parametrize("arch", ["mlp", "cnn1d"])
def test_replicate_major_smoothgrad_is_bitwise_the_sample_major_stack(arch, sigma):
    # the mask step's shape: 64 samples x 25 replicates, one 1600-row pass for
    # the MLP; the cnn1d stack spans 16 chunks, cut at other rows in each layout
    rng = np.random.default_rng(50)
    if arch == "mlp":
        model, X = build_mlp([18, 32], 3, seed=51), rng.standard_normal((64, 18))
    else:
        model, X = build_cnn1d([1, 8, 16], 5, 3, seed=52), rng.standard_normal((64, 1, 64))
    X[5] = 0.25  # a constant row gets no noise
    y = rng.integers(0, 3, 64)
    cfg = SmoothGradConfig(n=25, sigma=sigma, seed=53)
    assert smoothgrad(model, X, y, cfg).tobytes() == _sample_major_smoothgrad(model, X, y, cfg).tobytes()
