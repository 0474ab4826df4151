import re

import numpy as np
import pytest

from dglab import autodiff as ad
from dglab import models
from dglab.autodiff import Tensor, grad_check
from dglab.errors import ConfigError, DimensionError
from dglab.models import (
    build_cnn1d,
    build_mlp,
    class_logit_input_gradients,
    features,
    forward,
    load_model,
    save_model,
)


def test_mlp_param_count():
    model = build_mlp([4, 8], 3, seed=0)
    # 4 * 8 + 8 + 8 * 3 + 3 = 67 values, in layer order
    shapes = [(name, p.values.shape) for name, p in model.params.items()]
    assert shapes == [("fc0_w", (4, 8)), ("fc0_b", (8,)), ("head_w", (8, 3)), ("head_b", (3,))]


def test_mlp_same_seed_bit_identical():
    a = build_mlp([4, 8], 3, seed=42)
    b = build_mlp([4, 8], 3, seed=42)
    for name in a.params:
        assert np.array_equal(a.params[name].values, b.params[name].values)


def test_mlp_different_seeds_differ():
    a = build_mlp([4, 8], 3, seed=0)
    b = build_mlp([4, 8], 3, seed=1)
    assert any(
        not np.array_equal(a.params[name].values, b.params[name].values) for name in a.params
    )


def test_mlp_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        build_mlp([], 3, seed=0)
    with pytest.raises(ConfigError):
        build_mlp([4, 0], 3, seed=0)
    with pytest.raises(ConfigError):
        build_mlp([4], 1, seed=0)


def test_cnn_rejects_even_kernel():
    with pytest.raises(ConfigError):
        build_cnn1d([1, 4], 4, 3, seed=0)


def test_cnn_same_padding_preserves_length():
    model = build_cnn1d([1, 4, 8], 5, 3, seed=0)
    x = np.random.default_rng(0).standard_normal((2, 1, 33))
    logits = forward(model, x)
    assert logits.shape == (2, 3)


def test_cnn_kernel_one_identity():
    model = build_cnn1d([1, 1], 1, 2, seed=0)
    model.params["conv0_w"].values = np.ones((1, 1, 1))
    model.params["conv0_b"].values = np.zeros(1)
    x = np.random.default_rng(1).standard_normal((3, 1, 12))
    h = ad.conv1d(Tensor(x), model.params["conv0_w"], model.params["conv0_b"])
    assert np.array_equal(h.values, x)


def test_forward_zero_head_gives_uniform_softmax():
    model = build_mlp([4, 8], 3, seed=0)
    model.params["head_w"].values = np.zeros((8, 3))
    model.params["head_b"].values = np.zeros(3)
    logits = forward(model, np.random.default_rng(2).standard_normal((5, 4)))
    assert np.array_equal(logits.values, np.zeros((5, 3)))
    probs = np.exp(logits.values) / np.exp(logits.values).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(probs, 1 / 3, rtol=0, atol=1e-15)


def test_forward_identical_rows_identical_logits():
    model = build_mlp([4, 8], 3, seed=0)
    row = np.random.default_rng(3).standard_normal(4)
    logits = forward(model, np.stack([row, row, row])).values
    assert np.array_equal(logits[0], logits[1]) and np.array_equal(logits[1], logits[2])


def test_forward_is_pure():
    model = build_mlp([4, 8], 3, seed=0)
    x = np.random.default_rng(4).standard_normal((6, 4))
    a = forward(model, x).values
    b = forward(model, x).values
    assert np.array_equal(a, b)


def test_forward_matches_hand_computation():
    # one hidden unit: h = relu(x1 + 2 x2), logits = (h, -h) + (0.5, -0.5)
    model = build_mlp([2, 1], 2, seed=0)
    model.params["fc0_w"].values = np.array([[1.0], [2.0]])
    model.params["fc0_b"].values = np.array([0.0])
    model.params["head_w"].values = np.array([[1.0, -1.0]])
    model.params["head_b"].values = np.array([0.5, -0.5])
    logits = forward(model, [[3.0, 1.0]]).values
    assert np.array_equal(logits, [[5.5, -5.5]])
    logits_neg = forward(model, [[-3.0, 1.0]]).values  # pre-activation -1 -> relu 0
    assert np.array_equal(logits_neg, [[0.5, -0.5]])


def test_forward_shape_mismatch():
    model = build_mlp([4, 8], 3, seed=0)
    with pytest.raises(DimensionError):
        forward(model, np.zeros((2, 5)))


def test_linear_model_input_gradient_is_weight_column():
    model = build_mlp([5], 3, seed=7)
    w = model.params["head_w"].values
    for c in range(3):
        for x_seed in range(3):
            x = np.random.default_rng(x_seed).standard_normal((1, 5))
            grad = class_logit_input_gradients(model, x, [c])[0]
            assert np.array_equal(grad, w[:, c])


def test_input_gradient_finite_differences():
    model = build_mlp([4, 6], 3, seed=1)

    def pick(x):
        return ad.sum_all(ad.take_per_row(forward(model, x), [2]))

    err = grad_check(pick, np.random.default_rng(5).uniform(-1, 1, (1, 4)), eps=1e-5)
    assert err < 1e-4


def test_input_gradient_shape_matches_conv_input():
    model = build_cnn1d([2, 4], 3, 3, seed=0)
    x = np.random.default_rng(6).standard_normal((1, 2, 17))
    grad = class_logit_input_gradients(model, x, [1])[0]
    assert grad.shape == (2, 17)


def test_input_gradient_leaves_params_untouched():
    model = build_mlp([4, 6], 3, seed=2)
    before = {name: p.values.copy() for name, p in model.params.items()}
    class_logit_input_gradients(model, np.random.default_rng(7).standard_normal((1, 4)), [0])
    for name, p in model.params.items():
        assert np.array_equal(p.values, before[name])


def test_input_gradient_class_out_of_range():
    model = build_mlp([4], 3, seed=0)
    with pytest.raises(IndexError):
        class_logit_input_gradients(model, np.zeros((1, 4)), [3])


def test_features_width_is_penultimate():
    model = build_mlp([4, 8], 3, seed=0)
    feats = features(model, np.zeros((5, 4)))
    assert feats.shape == (5, 8)
    linear = build_mlp([4], 3, seed=0)
    assert features(linear, np.zeros((5, 4))).shape == (5, 4)
    cnn = build_cnn1d([2, 4, 6], 3, 3, seed=0)
    assert features(cnn, np.zeros((5, 2, 11))).shape == (5, 6)
    # the head applied to the features is the forward pass, bit for bit
    rng = np.random.default_rng(9)
    for m, x in ((model, rng.standard_normal((5, 4))), (linear, rng.standard_normal((5, 4))),
                 (cnn, rng.standard_normal((5, 2, 11)))):
        head = ad.affine(features(m, x), m.params["head_w"], m.params["head_b"])
        assert np.array_equal(head.values, forward(m, x).values)


def test_unknown_layer_kind_rejected_by_forward_and_features():
    for position in (1, 3):  # inside the feature stack, and after the head
        model = build_mlp([4, 8], 3, seed=0)
        model.layers.insert(position, {"kind": "bogus"})
        with pytest.raises(ConfigError):
            forward(model, np.zeros((2, 4)))
        with pytest.raises(ConfigError):
            features(model, np.zeros((2, 4)))


def test_walks_follow_layers_and_parameters_changed_after_a_pass():
    # each layer is resolved once per model; a later change to its layers or
    # to the tensor a parameter name holds is seen by the next pass
    model = build_mlp([4, 8], 3, seed=0)
    x = np.random.default_rng(4).standard_normal((5, 4))
    classes = [0, 1, 2, 0, 1]

    def inline(relu=True):
        w0, b0, w1, b1 = (model.params[k].values for k in ("fc0_w", "fc0_b", "head_w", "head_b"))
        h = x @ w0
        h += b0
        out = (np.maximum(h, 0.0) if relu else h) @ w1
        out += b1
        return out

    assert np.array_equal(forward(model, x).values, inline())
    grads = class_logit_input_gradients(model, x, classes)
    model.params["head_b"] = Tensor(model.params["head_b"].values + 1.0)
    assert np.array_equal(forward(model, x).values, inline())
    # a doubled first layer keeps the ReLU pattern, so the input gradient doubles
    for name in ("fc0_w", "fc0_b"):
        model.params[name] = Tensor(2.0 * model.params[name].values)
    assert np.array_equal(class_logit_input_gradients(model, x, classes), 2.0 * grads)
    model.layers.insert(1, {"kind": "bogus"})
    with pytest.raises(ConfigError, match="unknown layer kind 'bogus'"):
        forward(model, x)
    del model.layers[1:3]  # the bogus layer and the relu: the stack is now linear
    assert np.array_equal(forward(model, x).values, inline(relu=False))


def test_checkpoint_round_trip_bit_exact(tmp_path):
    for model in (build_mlp([4, 8], 3, seed=3), build_cnn1d([1, 4], 3, 2, seed=3)):
        path = tmp_path / "ckpt.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layers == model.layers
        assert loaded.input_shape == model.input_shape
        assert loaded.num_classes == model.num_classes
        for name in model.params:
            assert np.array_equal(loaded.params[name].values, model.params[name].values)
        shape = (2, 4) if len(model.input_shape) == 1 else (2, 1, 19)
        x = np.random.default_rng(8).standard_normal(shape)
        assert np.array_equal(forward(model, x).values, forward(loaded, x).values)


def test_input_gradient_needs_one_class_per_row():
    model = build_mlp([4, 6], 3, seed=0)
    with pytest.raises(DimensionError):
        class_logit_input_gradients(model, np.zeros((3, 4)), [0, 1])


def _picked_logit_gradients(model, values, classes):
    """Input gradients as the backward pass of the summed picked logits through
    the whole network, head included, chunked as the library chunks."""
    rows = max(1, models.ROW_CHUNK_ELEMENTS // models._largest_row_intermediate(model, values.shape[1:]))
    grads = np.empty_like(values)
    for start in range(0, values.shape[0], rows):
        leaf = Tensor(values[start : start + rows])
        picked = ad.take_per_row(forward(model, leaf), classes[start : start + rows])
        grads[start : start + rows] = ad.backward(ad.sum_all(picked))[leaf]
    return grads


def _stack(kinds, shape, seed, width=8, kernel=5):
    """A hand-built stack of the given layer kinds below a 3-way affine head,
    over inputs of the given batch shape; every affine and conv1d is width wide."""
    rng = np.random.default_rng(seed)
    layers, params, c = [], {}, shape[1]
    for i, kind in enumerate(kinds):
        layers.append({"kind": kind})
        if kind == "conv1d":
            layers[-1]["name"] = f"conv{i}"
            models._init_conv(params, f"conv{i}", c, width, kernel, rng)
        elif kind == "affine":
            layers[-1]["name"] = f"fc{i}"
            models._init_affine(params, f"fc{i}", c, width, rng)
        c = width if kind in ("conv1d", "affine") else c
    models._init_affine(params, "head", c, 3, rng)
    layers.append({"kind": "affine", "name": "head"})
    return models.Model(layers, params, 3, (shape[1], None) if len(shape) == 3 else (shape[1],), seed)


def _stack_case(kinds, shape, seed):
    return (lambda: _stack(kinds, shape, seed), shape)


INPUT_GRADIENT_CASES = {
    "mlp-32": (lambda: build_mlp([18, 32], 3, seed=41), (1600, 18)),
    "mlp-16-8": (lambda: build_mlp([18, 16, 8], 3, seed=42), (1600, 18)),
    "linear": (lambda: build_mlp([18], 3, seed=43), (1600, 18)),
    "cnn1d": (lambda: build_cnn1d([1, 8, 16], 5, 3, seed=44), (250, 1, 64)),
    # stacks no builder makes: each layer below the head is still pulled back
    # by its kind's rule, and only the layers below the last relu are walked
    "cnn1d-relu-after-pool": _stack_case(("conv1d", "relu", "gap", "relu"), (250, 1, 64), 48),
    # no relu: nothing is walked
    "conv-pool": _stack_case(("conv1d", "gap"), (250, 1, 64), 51),
    # a conv between the last relu and the pool
    "conv-relu-conv-pool": _stack_case(("conv1d", "relu", "conv1d", "gap"), (250, 1, 64), 52),
    "relu-affine-relu": _stack_case(("relu", "affine", "relu"), (1600, 18), 53),
    "conv-relu-relu-conv-relu-pool": _stack_case(("conv1d", "relu", "relu", "conv1d", "relu", "gap"), (250, 1, 64), 54),
}


@pytest.mark.parametrize("case", list(INPUT_GRADIENT_CASES))
def test_input_gradients_are_bitwise_the_picked_logit_graph(case):
    build, shape = INPUT_GRADIENT_CASES[case]
    model = build()
    if case == "cnn1d":  # the stack spans three chunks, the last one partial
        assert 2 * models.ROW_CHUNK_ELEMENTS // models._largest_row_intermediate(model, shape[1:]) < 250
    rng = np.random.default_rng(45)
    values = rng.standard_normal(shape)
    classes = rng.integers(0, 3, shape[0])
    got = class_logit_input_gradients(model, values, classes)
    assert got.tobytes() == _picked_logit_gradients(model, values, classes).tobytes()


def test_input_gradients_never_call_backward(monkeypatch):
    # every stack is pulled back by the layer rules alone, with no graph
    expected = {}
    for case, (build, shape) in INPUT_GRADIENT_CASES.items():
        rng = np.random.default_rng(55)
        values, classes = rng.standard_normal(shape), rng.integers(0, 3, shape[0])
        expected[case] = (values, classes, _picked_logit_gradients(build(), values, classes))
    monkeypatch.setattr(ad, "backward", lambda *a: pytest.fail("called backward"))
    for case, (values, classes, want) in expected.items():
        got = class_logit_input_gradients(INPUT_GRADIENT_CASES[case][0](), values, classes)
        assert got.tobytes() == want.tobytes(), case


@pytest.mark.parametrize("arch", ["mlp", "cnn1d"])
def test_input_gradients_of_zero_rows_are_empty(arch):
    model = build_mlp([4, 6], 3, seed=0) if arch == "mlp" else build_cnn1d([1, 4], 3, 3, seed=0)
    values = np.zeros((0, 4) if arch == "mlp" else (0, 1, 9))
    assert models.row_chunks(model, values) == []
    assert class_logit_input_gradients(model, values, []).shape == values.shape


def test_input_gradients_never_run_the_head(monkeypatch):
    model = build_mlp([4, 6], 3, seed=46)
    monkeypatch.setattr(models, "forward", lambda *a: pytest.fail("ran the head forward"))
    for op in ("take_per_row", "sum_all"):
        monkeypatch.setattr(ad, op, lambda *a: pytest.fail(f"built a {op} node"))
    grads = class_logit_input_gradients(model, np.random.default_rng(47).standard_normal((5, 4)), [0, 1, 2, 0, 1])
    assert grads.shape == (5, 4)


@pytest.mark.parametrize("arch", ["mlp", "cnn1d"])
def test_input_gradients_never_run_the_parameter_free_tail(arch, monkeypatch):
    # the walk stops at the last affine or conv1d layer: the MLP's relu and
    # the CNN's last relu and pool are pulled back, never run
    if arch == "mlp":
        model, shape, relus_per_chunk = build_mlp([18, 32], 3, seed=49), (1600, 18), 0
    else:
        model, shape, relus_per_chunk = build_cnn1d([1, 8, 16], 5, 3, seed=49), (250, 1, 64), 1
    rng = np.random.default_rng(50)
    values, classes = rng.standard_normal(shape), rng.integers(0, 3, shape[0])
    relu, calls = ad.relu, []
    monkeypatch.setattr(ad, "relu", lambda x: calls.append(1) or relu(x))
    monkeypatch.setattr(ad, "global_avg_pool", lambda *a: pytest.fail("ran the pool"))
    assert class_logit_input_gradients(model, values, classes).shape == shape
    assert len(calls) == relus_per_chunk * len(models.row_chunks(model, values))


@pytest.mark.parametrize("arch", ["mlp", "cnn1d"])
def test_load_model_rejects_a_checkpoint_without_the_affine_head(arch, tmp_path):
    model = build_mlp([4, 8], 3, seed=0) if arch == "mlp" else build_cnn1d([1, 4], 3, 3, seed=0)
    del model.layers[-1]  # now ends in relu (mlp) or gap (cnn1d); forward still runs
    forward(model, np.zeros((1, 4) if arch == "mlp" else (1, 1, 5)))
    path = tmp_path / "ckpt.json"
    save_model(model, path)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: the last layer must be the affine head$"):
        load_model(path)


@pytest.mark.parametrize("num_classes", [2, 4])
def test_load_model_rejects_a_num_classes_the_head_does_not_have(num_classes, tmp_path):
    model = build_mlp([4, 8], 3, seed=0)
    model.num_classes = num_classes
    path = tmp_path / "ckpt.json"
    save_model(model, path)
    message = f"{path}: the head has 3 outputs, but num_classes is {num_classes}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_model(path)


def test_load_model_names_the_file_of_an_unknown_layer_kind(tmp_path):
    model = build_mlp([4, 8], 3, seed=0)
    model.layers.insert(1, {"kind": "bogus"})
    path = tmp_path / "ckpt.json"
    save_model(model, path)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: unknown layer kind 'bogus'$"):
        load_model(path)
