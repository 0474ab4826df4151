import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from dglab import autodiff as ad
from dglab.autodiff import Tensor, backward, grad_check, no_grad
from dglab.errors import ContractError, DimensionError, NumericError


def test_affine_identity():
    out = ad.affine([[1.0, 2.0]], np.eye(2), [0.0, 0.0])
    assert np.array_equal(out.values, [[1.0, 2.0]])


def test_affine_hand_sum():
    out = ad.affine([[1.0, 2.0]], [[1.0], [1.0]], [3.0])
    assert np.array_equal(out.values, [[6.0]])


def test_affine_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 2))
    b = rng.standard_normal(2)
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = b[j]
            for k in range(4):
                acc += x[i, k] * w[k, j]
            expected[i, j] = acc
    out = ad.affine(x, w, b)
    np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rows", [128, 1600])
def test_affine_is_bytewise_x_at_w_plus_b(rows):
    # the bias is added in place into the product's buffer: the same IEEE add
    rng = np.random.default_rng(rows)
    x, w, b = rng.standard_normal((rows, 18)), rng.standard_normal((18, 32)), rng.standard_normal(32)
    x[0, :] = 0.0
    b[:4] = [0.0, -0.0, np.inf, -np.inf]  # signed zeros and infinities as well
    assert ad.affine(x, w, b).values.tobytes() == (x @ w + b).tobytes()


def test_affine_shape_mismatch_names_shapes():
    with pytest.raises(DimensionError) as exc:
        ad.affine(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_relu_basic():
    out = ad.relu([-1.0, 0.0, 2.0])
    assert np.array_equal(out.values, [0.0, 0.0, 2.0])


def test_relu_all_positive_unchanged():
    x = np.array([0.5, 1.5, 9.0])
    assert np.array_equal(ad.relu(x).values, x)


def test_relu_backward_zero_gradient_at_kink():
    x = Tensor([-1.0, 2.0])
    gm = backward(ad.sum_all(ad.relu(x)))
    assert np.array_equal(gm[x], [0.0, 1.0])
    # the subgradient convention at exactly 0 is 0
    x0 = Tensor([0.0, 3.0])
    gm0 = backward(ad.sum_all(ad.relu(x0)))
    assert np.array_equal(gm0[x0], [0.0, 1.0])


def test_relu_vjp_is_bitwise_np_where():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((6, 3, 8))
    x[0, 0, :4] = 0.0  # the kink passes no gradient
    x[1, 1, :4] = -0.0
    g = rng.standard_normal(x.shape)
    g[2, :, :2] = 0.0
    g[3, :, :2] = -0.0
    g[4, :, :2] = np.inf
    g[4, :, 2:4] = -np.inf
    (vjp_x,) = ad.relu(x)._vjp(g)
    expected = np.where(x > 0.0, g, 0.0)
    assert np.array_equal(vjp_x.view(np.uint64), expected.view(np.uint64))
    # a masked negative gradient becomes +0.0, never -0.0
    masked_negative = (x <= 0.0) & (g < 0.0)
    assert masked_negative.any() and not np.signbit(vjp_x[masked_negative]).any()


def _with_specials(a):
    """a with signed zeros, nan and infinities planted along its first axis."""
    a = a.copy()
    for row, value in enumerate((0.0, -0.0, np.nan, np.inf, -np.inf)):
        a[row % a.shape[0], ..., : 1 + row] = value
    return a


@pytest.mark.parametrize("shape", [(6, 3, 8), (40, 32)])
def test_relu_grad_is_bitwise_the_relu_vjp(shape):
    rng = np.random.default_rng(52)
    x = _with_specials(rng.standard_normal(shape))
    g = _with_specials(rng.standard_normal(shape))[::-1]
    (vjp_x,) = ad.relu(x)._vjp(g)
    assert ad.relu_grad(x, g).tobytes() == vjp_x.tobytes()
    # a broadcast gradient, as the input-gradient pass passes, reads as its copy
    spread = np.broadcast_to(g[:1], shape)
    assert ad.relu_grad(x, spread).tobytes() == ad.relu(x)._vjp(spread.copy())[0].tobytes()


def test_pool_grad_is_bitwise_the_pool_vjp():
    rng = np.random.default_rng(53)
    x = rng.standard_normal((6, 4, 7))
    g = _with_specials(rng.standard_normal((6, 4)))
    (vjp_x,) = ad.global_avg_pool(x)._vjp(g)
    assert ad.pool_grad(g, x.shape[2]).tobytes() == vjp_x.tobytes()
    # the op's own VJP hands backward a writable copy, never the broadcast view
    assert vjp_x.flags.writeable and vjp_x.flags.owndata


def test_softmax_symmetry():
    out = ad.softmax_rows([[0.0, 0.0, 0.0]])
    np.testing.assert_allclose(out.values, [[1 / 3] * 3], rtol=0, atol=1e-15)


def test_softmax_large_logits_no_overflow():
    out = ad.softmax_rows([[1000.0, 0.0]])
    assert np.all(np.isfinite(out.values))
    assert out.values[0, 0] > 1 - 1e-12


def test_softmax_matches_direct_formula():
    z = np.array([[1.0, 2.0, 3.0]])
    direct = np.exp(z) / np.exp(z).sum()
    np.testing.assert_allclose(ad.softmax_rows(z).values, direct, rtol=0, atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((8, 5)) * 10
    p = ad.softmax_rows(z).values
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    shifted = ad.softmax_rows(z + 7.5).values
    np.testing.assert_allclose(p, shifted, rtol=0, atol=1e-12)


def test_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        ad.softmax_rows([[np.inf, 0.0]])


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(2).standard_normal((3, 4)))
    gm = backward(ad.sum_all(x))
    assert np.array_equal(gm[x], np.ones((3, 4)))


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0])
    gm = backward(ad.sum_all(ad.mul(x, x)))
    assert np.array_equal(gm[x], [2.0, 4.0, 6.0])


def test_backward_requires_scalar_root():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ContractError):
        backward(ad.relu(x))


def test_backward_accumulates_over_two_consumers():
    # y = sum(x*x) + sum(x) + 3 sum(x): dy/dx = 2x + 1 + 3 through three distinct paths,
    # exact in floating point whatever the order of the sums
    x = Tensor([1.0, -2.0, 0.5])
    root = ad.add(ad.add(ad.sum_all(ad.mul(x, x)), ad.sum_all(x)), ad.scale(ad.sum_all(x), 3))
    gm = backward(root)
    assert np.array_equal(gm[x], [6.0, 0.0, 5.0])
    # x, mul, three sums, scale, two adds; a 0-d gradient times 3 is an array too
    assert len(gm) == 8
    assert all(type(g) is np.ndarray and g.dtype == np.float64 for _, g in gm.items())


def test_fresh_gradmap_per_backward_call():
    x = Tensor([1.0, 2.0])
    root = ad.sum_all(ad.mul(x, x))
    gm1 = backward(root)
    gm2 = backward(root)
    assert gm1 is not gm2
    assert np.array_equal(gm1[x], gm2[x])
    # backward never mutates tensors: no gradient slot, values and lineage as built
    assert not hasattr(x, "grad")
    assert np.array_equal(x.values, [1.0, 2.0]) and x.lineage is None
    assert root.lineage[0] == "sum_all" and float(root.values) == 5.0


def test_no_grad_blocks_lineage():
    with no_grad():
        out = ad.relu(Tensor([1.0, -1.0]))
    assert out.lineage is None


def test_two_layer_mlp_against_finite_differences():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        w1 = Tensor(rng.uniform(-1, 1, (3, 4)))
        b1 = Tensor(rng.uniform(-1, 1, 4))
        w2 = Tensor(rng.uniform(-1, 1, (4, 2)))
        b2 = Tensor(rng.uniform(-1, 1, 2))

        def loss(x):
            h = ad.relu(ad.affine(x, w1, b1))
            z = ad.affine(h, w2, b2)
            return ad.sum_all(ad.mul(z, z))

        err = grad_check(loss, rng.uniform(-1, 1, (2, 3)), eps=1e-5)
        assert err < 1e-4, f"seed {seed}: rel err {err}"


def test_grad_check_sum_is_exact():
    # power-of-two eps keeps both loss evaluations exact, so the error is 0
    assert grad_check(ad.sum_all, np.array([1.0, -2.0, 3.25]), eps=2.0**-10) == 0.0


def test_grad_check_sum_of_squares():
    rng = np.random.default_rng(3)
    err = grad_check(lambda t: ad.sum_all(ad.mul(t, t)), rng.uniform(-1, 1, 6), eps=1e-5)
    assert err < 1e-6


def test_grad_check_rejects_bad_eps():
    with pytest.raises(ContractError):
        grad_check(ad.sum_all, np.ones(3), eps=0.0)


def test_take_per_row_and_backward():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.take_per_row(a, [1, 0])
    assert np.array_equal(out.values, [2.0, 3.0])
    gm = backward(ad.sum_all(out))
    assert np.array_equal(gm[a], [[0.0, 1.0], [1.0, 0.0]])


def test_select_rows_duplicate_indices_accumulate():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.select_rows(a, [0, 0, 1])
    gm = backward(ad.sum_all(out))
    assert np.array_equal(gm[a], [[2.0, 2.0], [1.0, 1.0]])


def test_mean_rows_and_sub_rowvec_backward():
    rng = np.random.default_rng(4)
    a = Tensor(rng.standard_normal((5, 3)))

    def loss(t):
        mu = ad.mean_rows(t)
        d = ad.sub_rowvec(t, mu)
        return ad.sum_all(ad.mul(d, d))

    assert grad_check(loss, a.values, eps=1e-6) < 1e-6


def test_conv1d_matches_sliding_window_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 9))
    w = rng.standard_normal((4, 3, 5))
    b = rng.standard_normal(4)
    out = ad.conv1d(x, w, b).values
    pad = 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    expected = np.zeros((2, 4, 9))
    for bi in range(2):
        for o in range(4):
            for l in range(9):
                acc = b[o]
                for c in range(3):
                    for k in range(5):
                        acc += xp[bi, c, l + k] * w[o, c, k]
                expected[bi, o, l] = acc
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def _conv1d_einsum_oracle(x, w, b, g):
    """Output, dx, dw and db of a same-padded conv1d through windows and einsums."""
    k, length = w.shape[2], x.shape[2]
    pad = (k - 1) // 2
    windows = sliding_window_view(np.pad(x, ((0, 0), (0, 0), (pad, pad))), k, axis=2)
    out = np.einsum("bclk,ock->bol", windows, w) + b[None, :, None]
    dwin = np.einsum("bol,ock->bclk", g, w)
    dxp = np.zeros((x.shape[0], x.shape[1], length + 2 * pad))
    for j in range(k):
        dxp[:, :, j : j + length] += dwin[:, :, :, j]
    dw = np.einsum("bol,bclk->ock", g, windows)
    return out, dxp[:, :, pad : pad + length], dw, g.sum(axis=(0, 2))


@pytest.mark.parametrize("batch", [1, 7, 102])
@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("c_in", [1, 2, 8])
@pytest.mark.parametrize("length", [9, 2], ids=["length-9", "length-2"])
def test_conv1d_value_and_gradients_match_einsum_oracle(length, c_in, kernel, batch):
    rng = np.random.default_rng(1000 * c_in + 10 * kernel + batch)
    x = rng.standard_normal((batch, c_in, length))
    w = rng.standard_normal((4, c_in, kernel))
    b = rng.standard_normal(4)
    g = rng.standard_normal((batch, 4, length))
    out = ad.conv1d(x, w, b)
    got = (out.values, *out._vjp(g))
    for name, value, expected in zip(("out", "dx", "dw", "db"), got, _conv1d_einsum_oracle(x, w, b, g)):
        assert value.shape == expected.shape, name
        np.testing.assert_allclose(value, expected, rtol=0, atol=1e-12 * np.abs(expected).max(), err_msg=name)


def _conv1d_padded_reference(x, w, b, g):
    """Output, dx, dw and db of conv1d's column GEMM and per-tap products,
    with the columns and the gradient border built from np.pad copies."""
    batch, c_in, length = x.shape
    c_out, _, k = w.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    cols = np.empty((batch, c_in, k, length))
    for j in range(k):
        cols[:, :, j] = xp[:, :, j : j + length]
    cols = cols.reshape(batch, c_in * k, length)
    out = np.matmul(w.reshape(c_out, c_in * k), cols)
    out += b[:, None]
    dw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    db = g.sum(axis=(0, 2))
    gp = np.pad(g, ((0, 0), (0, 0), (pad, pad)))
    dx = np.matmul(w[:, :, 0].T, gp[:, :, 2 * pad : 2 * pad + length])
    for j in range(1, k):
        dx += np.matmul(w[:, :, j].T, gp[:, :, 2 * pad - j : 2 * pad - j + length])
    return out, dx, dw, db


def _signed_zeros(rng, a):
    """a with about a quarter of its entries +0.0, a quarter -0.0, and, when
    there is more than one row, the whole last row -0.0."""
    a = a.copy()
    pick = rng.random(a.shape)
    a[pick < 0.25] = 0.0
    a[pick > 0.75] = -0.0
    if a.shape[0] > 1:
        a[-1] = -0.0
    return a


@pytest.mark.parametrize("batch", [1, 102])
@pytest.mark.parametrize("c_in", [1, 8])
@pytest.mark.parametrize("kernel", [1, 3, 5, 7])
@pytest.mark.parametrize("length", [64, 5, 2, 1])
def test_conv1d_is_bitwise_padded_reference(length, kernel, c_in, batch):
    rng = np.random.default_rng(10000 * length + 100 * kernel + 10 * c_in + batch)
    x = _signed_zeros(rng, rng.standard_normal((batch, c_in, length)))
    w = rng.standard_normal((6, c_in, kernel))
    b = rng.standard_normal(6)
    g = _signed_zeros(rng, rng.standard_normal((batch, 6, length)))
    expected = _conv1d_padded_reference(x, w, b, g)
    out = ad.conv1d(x, w, b)
    for name, value, want in zip(("out", "dx", "dw", "db"), (out.values, *out._vjp(g)), expected):
        assert value.shape == want.shape and value.tobytes() == want.tobytes(), name
    # the input-gradient rule alone (a saliency pass) gives the same dx
    assert ad.conv1d_input_grad(w, g).tobytes() == expected[1].tobytes()


def test_conv1d_forward_and_backward_never_call_np_pad(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.pad called")

    monkeypatch.setattr(np, "pad", refuse)
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((4, 2, 9)))
    w = Tensor(rng.standard_normal((3, 2, 5)))
    b = Tensor(rng.standard_normal(3))
    grads = backward(ad.sum_all(ad.relu(ad.conv1d(x, w, b))))
    assert grads[x].shape == x.shape and grads[w].shape == w.shape and grads[b].shape == b.shape


def test_conv1d_output_is_c_contiguous():
    rng = np.random.default_rng(42)
    for c_in, kernel in [(1, 5), (8, 3)]:
        out = ad.conv1d(rng.standard_normal((7, c_in, 16)), rng.standard_normal((4, c_in, kernel)), np.zeros(4))
        assert out.values.flags.c_contiguous and out.shape == (7, 4, 16)


def test_conv1d_rejects_even_kernel():
    with pytest.raises(ContractError):
        ad.conv1d(np.zeros((1, 1, 8)), np.zeros((1, 1, 4)), np.zeros(1))


def test_conv1d_and_pool_finite_differences():
    rng = np.random.default_rng(6)
    w = Tensor(rng.uniform(-1, 1, (2, 1, 3)))
    b = Tensor(rng.uniform(-1, 1, 2))

    def loss(x):
        h = ad.relu(ad.conv1d(x, w, b))
        pooled = ad.global_avg_pool(h)
        return ad.sum_all(ad.mul(pooled, pooled))

    assert grad_check(loss, rng.uniform(-1, 1, (2, 1, 7)), eps=1e-5) < 1e-4


def test_gradmap_lookup_api():
    x = Tensor([1.0])
    y = Tensor([2.0])
    gm = backward(ad.sum_all(ad.mul(x, y)))
    assert x in gm and y in gm
    assert gm.get(Tensor([9.0])) is None
    with pytest.raises(KeyError):
        gm[Tensor([9.0])]


def test_every_op_the_benchmark_times_exists(monkeypatch):
    # the benchmark's per-op table looks each name up on dglab.autodiff; a
    # removed op would otherwise surface only in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "opbench.py"
    spec = importlib.util.spec_from_file_location("opbench", path)
    opbench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, opbench)  # its dataclass looks itself up there
    spec.loader.exec_module(opbench)
    assert opbench.OPS
    for name in opbench.OPS:
        assert callable(getattr(ad, name, None)), name
