"""Reverse-mode automatic differentiation over dense float64 tensors.

Every operation evaluates eagerly on numpy arrays and, while grad mode is
on, records its parents plus a vector-Jacobian closure on the output
tensor. ``backward`` replays the graph of a scalar root, seeded with 1, in
reverse topological order and returns a fresh :class:`GradMap` of every
reachable tensor; no gradient state survives between calls. Every
vector-Jacobian closure maps the output gradient ``g`` to one gradient per
parent, and gradients from multiple consumers of the same tensor
accumulate additively.

``relu_grad``, ``conv1d_input_grad`` and ``pool_grad`` are the rules of
those ops' VJPs toward their input, as plain functions of arrays: the
input-gradient pass of ``models`` pulls a gradient back through a layer
stack with them, and no graph.

Cross-entropy and the class-centroid alignment term are one node each,
``mean_nll`` and ``centroid_spread``, and cross-entropy plus alpha times
the alignment of the softmax is one node too, ``soft_label_objective``,
which shares its row exps between both terms. The three share one copy of
the NLL and of the centroid arithmetic. Their values and gradients are bit
for bit those of the graphs of small ops they replace (``log_sum_exp_rows``
and ``take_per_row``; ``select_rows`` and ``mean_rows``; ``softmax_rows``,
``scale`` and ``add`` on the other two), which stay as ops and serve the
tests as the reference.

Conventions: all values are float64; the ReLU derivative at exactly 0 is 0;
broadcasting is limited to bias-style row/column vectors; conv1d returns a
C-contiguous output, so the ops after it walk memory in order.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

Array = np.ndarray

_grad_enabled = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable lineage recording inside the block (inference-only passes)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """Dense float64 array with its lineage.

    Tensors built directly from data are leaves. Tensors produced by an
    operation carry the producing op's name, its parent tensors and a
    closure mapping an output gradient to per-parent gradients.
    """

    __slots__ = ("values", "_op", "_parents", "_vjp")

    def __init__(
        self,
        values,
        op: str | None = None,
        parents: Sequence["Tensor"] = (),
        vjp: Callable[[Array], tuple[Array, ...]] | None = None,
    ):
        self.values = np.asarray(values, dtype=np.float64)
        self._op = op
        self._parents = tuple(parents)
        self._vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def lineage(self) -> tuple[str, tuple["Tensor", ...]] | None:
        """(op name, parent tensors), or None for a leaf."""
        if self._op is None:
            return None
        return (self._op, self._parents)

    def __repr__(self) -> str:
        tag = self._op or "leaf"
        return f"Tensor(shape={self.shape}, op={tag})"


def as_tensor(x) -> Tensor:
    """Wrap array-likes as leaf tensors; pass tensors through unchanged."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(values, op: str, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """An op's output: ``Tensor(values, op, parents, vjp)`` while grad mode
    is on, else a leaf; the slots are set directly, as every op passes a
    tuple of parents."""
    out = Tensor.__new__(Tensor)
    out.values = np.asarray(values, dtype=np.float64)
    out._op, out._parents, out._vjp = (op, parents, vjp) if _grad_enabled else (None, (), None)
    return out


class GradMap:
    """Gradient buffers from one backward pass, keyed by tensor identity."""

    def __init__(self, entries: dict[int, tuple[Tensor, Array]]):
        for tensor, grad in entries.values():
            if grad.shape != tensor.values.shape:
                raise ContractError(
                    f"gradient shape {grad.shape} does not match tensor shape {tensor.shape}"
                )
        self._entries = entries

    def __contains__(self, tensor: Tensor) -> bool:
        return id(tensor) in self._entries

    def __getitem__(self, tensor: Tensor) -> Array:
        try:
            return self._entries[id(tensor)][1]
        except KeyError:
            raise KeyError(f"no gradient recorded for {tensor!r}") from None

    def get(self, tensor: Tensor, default=None):
        entry = self._entries.get(id(tensor))
        return entry[1] if entry is not None else default

    def items(self):
        return ((tensor, grad) for tensor, grad in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# operations


def affine(x, w, b) -> Tensor:
    """Batched affine map: out[i, j] = sum_k x[i, k] * w[k, j] + b[j]."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xv, wv, bv = x.values, w.values, b.values
    if xv.ndim != 2 or wv.ndim != 2 or bv.ndim != 1:
        raise DimensionError(
            f"affine expects x (batch,in), w (in,out), b (out,); got {xv.shape}, {wv.shape}, {bv.shape}"
        )
    if xv.shape[1] != wv.shape[0] or wv.shape[1] != bv.shape[0]:
        raise DimensionError(
            f"affine shapes do not chain: x {xv.shape} @ w {wv.shape} + b {bv.shape}"
        )
    out = xv @ wv
    out += bv

    def vjp(g: Array):
        return g @ wv.T, xv.T @ g, np.add.reduce(g, axis=0)

    return _record(out, "affine", (x, w, b), vjp)


def relu_grad(x: Array, g: Array) -> Array:
    """ReLU's VJP: the gradient ``g`` at the output pulled back to the input ``x``.

    np.where(x > 0, g, 0.0) bit for bit, without its per-element branch
    (which mispredicts on a random sign pattern): AND g's bits with
    all-ones where x > 0 and zero elsewhere, in one fresh buffer. ``g`` may
    be any array of x's shape, a broadcast view included.
    """
    bits = (x > 0.0).view(np.int8).astype(np.uint64)
    np.negative(bits, out=bits)
    bits &= g.view(np.uint64)
    return bits.view(np.float64)


def relu(x) -> Tensor:
    """Elementwise max(0, x). The derivative at exactly 0 is 0."""
    x = as_tensor(x)
    out = np.maximum(x.values, 0.0)

    def vjp(g: Array):
        return (relu_grad(x.values, g),)

    return _record(out, "relu", (x,), vjp)


def softmax_rows(logits) -> Tensor:
    """Row-wise softmax with max-subtraction for overflow safety."""
    z = as_tensor(logits)
    if z.values.ndim != 2 or z.shape[1] < 2:
        raise DimensionError(f"softmax_rows expects (batch, C>=2) logits, got {z.shape}")
    if not np.all(np.isfinite(z.values)):
        raise NumericError("softmax_rows: non-finite logits")
    shifted = z.values - z.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def vjp(g: Array):
        inner = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - inner),)

    return _record(p, "softmax_rows", (z,), vjp)


def log_sum_exp_rows(logits) -> Tensor:
    """Row-wise log(sum(exp(z))) computed with max-subtraction; output (batch,)."""
    z = as_tensor(logits)
    if z.values.ndim != 2:
        raise DimensionError(f"log_sum_exp_rows expects a 2-d tensor, got {z.shape}")
    m = z.values.max(axis=1, keepdims=True)
    e = np.exp(z.values - m)
    s = e.sum(axis=1, keepdims=True)
    out = (m + np.log(s)).ravel()
    p = e / s

    def vjp(g: Array):
        return (g[:, None] * p,)

    return _record(out, "log_sum_exp_rows", (z,), vjp)


def take_per_row(a, indices) -> Tensor:
    """Pick one column per row: out[i] = a[i, indices[i]]; output (batch,)."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if a.values.ndim != 2 or idx.ndim != 1 or idx.shape[0] != a.shape[0]:
        raise DimensionError(
            f"take_per_row expects a (batch,C) and one index per row; got {a.shape} and {idx.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise IndexError(f"column index out of range for {a.shape[1]} columns")
    rows = np.arange(a.shape[0])
    out = a.values[rows, idx]

    def vjp(g: Array):
        d = np.zeros_like(a.values)
        d[rows, idx] = g
        return (d,)

    return _record(out, "take_per_row", (a,), vjp)


def select_rows(a, indices) -> Tensor:
    """Gather rows by index (duplicates allowed); backward scatter-adds."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if a.values.ndim != 2 or idx.ndim != 1:
        raise DimensionError(f"select_rows expects a 2-d tensor and 1-d indices, got {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"row index out of range for {a.shape[0]} rows")
    out = a.values[idx]

    def vjp(g: Array):
        d = np.zeros_like(a.values)
        np.add.at(d, idx, g)
        return (d,)

    return _record(out, "select_rows", (a,), vjp)


def mean_rows(a) -> Tensor:
    """Mean over rows of a (n, C) tensor; output (C,).

    Evaluated anchored at the first row (same linear map, same derivative),
    so the mean of n identical rows is bitwise that row.
    """
    a = as_tensor(a)
    if a.values.ndim != 2 or a.shape[0] < 1:
        raise ContractError(f"mean_rows expects a nonempty 2-d tensor, got {a.shape}")
    n = a.shape[0]
    out = a.values[0] + (a.values - a.values[0]).mean(axis=0)

    def vjp(g: Array):
        return (np.broadcast_to(g / n, a.values.shape).copy(),)

    return _record(out, "mean_rows", (a,), vjp)


def sub_rowvec(a, v) -> Tensor:
    """Subtract a (C,) row vector from every row of a (n, C) tensor."""
    a, v = as_tensor(a), as_tensor(v)
    if a.values.ndim != 2 or v.values.ndim != 1 or a.shape[1] != v.shape[0]:
        raise DimensionError(f"sub_rowvec shapes do not agree: {a.shape} minus {v.shape}")
    out = a.values - v.values

    def vjp(g: Array):
        return g, -g.sum(axis=0)

    return _record(out, "sub_rowvec", (a, v), vjp)


def _same_shape(a: Tensor, b: Tensor, name: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{name} requires matching shapes, got {a.shape} and {b.shape}")


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _same_shape(a, b, "add")

    def vjp(g: Array):
        return g, g

    return _record(a.values + b.values, "add", (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _same_shape(a, b, "sub")

    def vjp(g: Array):
        return g, -g

    return _record(a.values - b.values, "sub", (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _same_shape(a, b, "mul")

    def vjp(g: Array):
        return g * b.values, g * a.values

    return _record(a.values * b.values, "mul", (a, b), vjp)


def scale(a, s: float) -> Tensor:
    """Multiply by a python float constant."""
    a = as_tensor(a)
    s = float(s)

    def vjp(g: Array):
        return (g * s,)

    return _record(a.values * s, "scale", (a,), vjp)


def sum_all(a) -> Tensor:
    """Sum every element into a scalar (shape ()) tensor."""
    a = as_tensor(a)
    out = np.asarray(a.values.sum())

    def vjp(g: Array):
        return (np.broadcast_to(g, a.values.shape).copy(),)

    return _record(out, "sum_all", (a,), vjp)


def conv1d(x, w, b) -> Tensor:
    """1-d convolution, stride 1, zero same-padding (odd kernel only).

    x is (batch, c_in, length), w is (c_out, c_in, kernel), b is (c_out,);
    output is a C-contiguous (batch, c_out, length) array. The forward pass
    copies x once into a buffer with a zero border of (kernel - 1) / 2 on
    each side, then fills its (batch, c_in, kernel, length) columns with one
    strided copy of that buffer: tap j's row is the buffer shifted by j, so
    the positions past either end of x read 0.0. One matmul by the
    flattened kernel gives the output. The VJP keeps the columns for the
    weight gradient and pulls the gradient back to x by
    ``conv1d_input_grad``.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.values.ndim != 3 or w.values.ndim != 3 or b.values.ndim != 1:
        raise DimensionError(
            f"conv1d expects x (b,c,l), w (o,c,k), b (o,); got {x.shape}, {w.shape}, {b.shape}"
        )
    if x.shape[1] != w.shape[1] or w.shape[0] != b.shape[0]:
        raise DimensionError(f"conv1d channel mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    batch, c_in, length = x.shape
    c_out, _, k = w.shape
    if k % 2 == 0:
        raise ContractError(f"conv1d same-padding requires an odd kernel, got {k}")
    pad = (k - 1) // 2
    # cols[:, :, j, l] = xp[:, :, l + j], xp being x inside a zero border of
    # pad on each side: one strided read of xp, one copy into the columns
    xp = np.zeros((batch, c_in, length + 2 * pad))
    xp[:, :, pad : pad + length] = x.values
    s_batch, s_chan, s_len = xp.strides
    cols = np.empty((batch, c_in, k, length))
    np.copyto(cols, np.ndarray(cols.shape, buffer=xp, strides=(s_batch, s_chan, s_len, s_len)))
    cols = cols.reshape(batch, c_in * k, length)
    out = np.matmul(w.values.reshape(c_out, c_in * k), cols)
    out += b.values[:, None]

    def vjp(g: Array):
        dw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        return conv1d_input_grad(w.values, g), dw, g.sum(axis=(0, 2))

    return _record(out, "conv1d", (x, w, b), vjp)


def conv1d_input_grad(w: Array, g: Array) -> Array:
    """conv1d's VJP toward its input: the (batch, c_out, length) gradient
    ``g`` at the output pulled back through the (c_out, c_in, kernel)
    weight ``w`` onto a (batch, c_in, length) input.

    dx[:, :, l] = sum_j w[:, :, j].T @ g[:, :, l + pad - j], one product per
    tap, each on a full-length slice of g inside a zero border of pad on each
    side (summing into sliced dx ranges instead could flip the sign of a
    zero). ``g`` may be any array of that shape, a broadcast view included.
    """
    batch, c_out, length = g.shape
    pad = (w.shape[2] - 1) // 2
    gp = np.zeros((batch, c_out, length + 2 * pad))
    gp[:, :, pad : pad + length] = g
    dx = np.matmul(w[:, :, 0].T, gp[:, :, 2 * pad : 2 * pad + length])
    for j in range(1, w.shape[2]):
        dx += np.matmul(w[:, :, j].T, gp[:, :, 2 * pad - j : 2 * pad - j + length])
    return dx


def pool_grad(g: Array, length: int) -> Array:
    """Global average pooling's VJP: the (batch, channels) gradient ``g`` at
    the output spread over an input of ``length`` positions.

    Returns a read-only (batch, channels, length) broadcast view; the op's
    VJP copies it.
    """
    return np.broadcast_to(g[:, :, None] / length, (*g.shape, length))


def global_avg_pool(x) -> Tensor:
    """Mean over the length axis of a (batch, channels, length) tensor."""
    x = as_tensor(x)
    if x.values.ndim != 3:
        raise DimensionError(f"global_avg_pool expects (batch, channels, length), got {x.shape}")
    out = x.values.mean(axis=2)

    def vjp(g: Array):
        return (pool_grad(g, x.shape[2]).copy(),)

    return _record(out, "global_avg_pool", (x,), vjp)


# ---------------------------------------------------------------------------
# fused losses: one node each, bit for bit the composed graphs they replace


def _check_row_labels(a: Tensor, labels, name: str) -> Array:
    idx = np.asarray(labels, dtype=np.intp)
    shape = a.values.shape
    if len(shape) != 2 or idx.shape != shape[:1]:
        raise DimensionError(
            f"{name} expects a (batch,C) tensor and one label per row; got {shape} and {idx.shape}"
        )
    if idx.size < 1:
        raise ContractError(f"{name}: empty batch")
    # read as unsigned, a negative label is larger than any column count
    if np.maximum.reduce(idx.view(np.uintp)) >= shape[1]:
        raise IndexError(f"label out of range for {shape[1]} columns")
    return idx


def _exp_rows(z: Array) -> tuple[Array, Array, Array]:
    """Row max m, e = exp(z - m) and the row sums s of e, m and s kept 2-d.

    The max runs down the columns of a transposed copy, one comparison per
    column over all rows at once, instead of along each short row. A max
    is exact, so the two orders can differ only in the sign of a zero max,
    which changes no bit of e, s or m + log(s), or in which NaN a row
    holding NaNs yields.
    """
    m = np.maximum.reduce(z.T.copy(), axis=0)[:, None]
    e = np.exp(z - m)
    return m, e, np.add.reduce(e, axis=1, keepdims=True)


def _label_cells(z: Array, idx: Array) -> Array:
    """Flat positions in ``z`` of each row's labelled column."""
    return np.arange(0, z.size, z.shape[1]) + idx


def _nll_value(z: Array, m: Array, s: Array, cells: Array) -> float:
    return np.add.reduce((m + np.log(s)).ravel() - z.take(cells)) * (1.0 / z.shape[0])


def _nll_vjp(p: Array, cells: Array, g: Array) -> Array:
    gn = g * (1.0 / p.shape[0])
    d = p * gn
    d.put(cells, d.take(cells) - gn)
    # the composed graph added the softmax term into take_per_row's
    # zeros, which turns every -0.0 into +0.0
    d += 0.0
    return d


def _centroid_terms(p: Array, idx: Array):
    """The spread value, and what its VJP needs.

    The rows are grouped by class once: a stable sort of the labels puts
    each class's rows, in row order, in one contiguous slice, and each
    per-class reduction runs on its slice as it ran on that class's rows
    alone. Returns (value, groups), with groups the (sorting order, each
    sorted row's class rank, the present classes' (start, end) slices and
    row counts, row - centroid in sorted order).
    """
    order = idx.argsort(kind="stable")
    counts = np.bincount(idx)
    n_c = counts[counts.nonzero()[0]]  # the classes present, ascending, as np.unique gives them
    ends = n_c.cumsum()
    starts = ends - n_c
    rank = np.arange(n_c.size).repeat(n_c)
    spans = list(zip(starts.tolist(), ends.tolist()))
    rows = p.take(order, axis=0)
    anchor = rows.take(starts, axis=0)
    off = rows - anchor.take(rank, axis=0)
    sums = np.empty_like(anchor)
    for j, (start, end) in enumerate(spans):
        np.add.reduce(off[start:end], axis=0, out=sums[j])
    diff = rows - (anchor + sums / n_c[:, None]).take(rank, axis=0)
    sq = diff * diff
    out = None
    for start, end in spans:
        term = np.add.reduce(sq[start:end], axis=None) * (1.0 / (end - start))
        out = term if out is None else out + term
    return out, (order, rank, spans, n_c, diff)


def _centroid_vjp(groups, g: Array) -> Array:
    order, rank, spans, n_c, diff = groups
    h = (g * (1.0 / n_c)).take(rank)[:, None] * diff
    h = h + h
    sums = np.empty((len(spans), h.shape[1]))
    for j, (start, end) in enumerate(spans):
        np.add.reduce(h[start:end], axis=0, out=sums[j])
    h += (-sums / n_c[:, None]).take(rank, axis=0)
    # back from sorted order: row order[i] of the input is sorted row i
    unsort = np.empty_like(order)
    unsort[order] = np.arange(order.size)
    d = h.take(unsort, axis=0)
    # select_rows scattered into zeros, which turns every -0.0 into +0.0
    d += 0.0
    return d


def mean_nll(logits, labels) -> Tensor:
    """Mean negative log-likelihood of the labelled columns, from raw logits.

    Bit for bit ``scale(sum_all(sub(log_sum_exp_rows(z), take_per_row(z,
    labels))), 1/n)``, value and gradient, as one node.
    """
    z = as_tensor(logits)
    idx = _check_row_labels(z, labels, "mean_nll")
    cells = _label_cells(z.values, idx)
    m, e, s = _exp_rows(z.values)
    out = _nll_value(z.values, m, s, cells)

    def vjp(g: Array):
        return (_nll_vjp(e / s, cells, g),)

    return _record(out, "mean_nll", (z,), vjp)


def centroid_spread(probs, labels) -> Tensor:
    """Sum over the classes present of the mean squared distance to the class centroid.

    Class c with rows P_c contributes (1/n_c) * sum ||P_c - mu_c||^2, with
    mu_c the anchored row mean (as ``mean_rows``), in ``np.unique`` order.
    The centroid is differentiated too: each row's gradient is
    h + (-sum_rows h) / n_c with h = 2 g (P_c - mu_c) / n_c. Value and
    gradient are bit for bit those of the composed graph of ``select_rows``,
    ``mean_rows``, ``sub_rowvec``, ``mul``, ``sum_all``, ``scale`` and
    ``add``, as one node.
    """
    p = as_tensor(probs)
    idx = _check_row_labels(p, labels, "centroid_spread")
    out, groups = _centroid_terms(p.values, idx)

    def vjp(g: Array):
        return (_centroid_vjp(groups, g),)

    return _record(out, "centroid_spread", (p,), vjp)


def soft_label_objective(logits, labels, alpha: float) -> tuple[Tensor, float, float]:
    """Cross-entropy plus alpha times the centroid spread of the softmax, as one node.

    Value and gradient are bit for bit ``add(mean_nll(z, labels),
    scale(centroid_spread(softmax_rows(z), labels), alpha))``. The row max,
    exp and row sums are formed once and serve the log-sum-exp and the
    softmax ``p = e / s`` alike; the labels are checked once, and ``p`` is
    not re-checked as a soft-label batch (it is a softmax of finite logits).
    The VJP runs the composed graph's steps in its order: the centroid VJP
    with ``g * alpha``, the softmax VJP, the NLL VJP, then the sum of the
    two logit gradients. Returns (objective, cross-entropy value, spread
    value).
    """
    z = as_tensor(logits)
    zv = z.values
    idx = _check_row_labels(z, labels, "soft_label_objective")
    if zv.shape[1] < 2:
        raise DimensionError(f"soft_label_objective expects (batch, C>=2) logits, got {zv.shape}")
    if not np.logical_and.reduce(np.isfinite(zv), axis=None):
        raise NumericError("soft_label_objective: non-finite logits")
    alpha = float(alpha)
    cells = _label_cells(zv, idx)
    m, e, s = _exp_rows(zv)
    p = e / s
    ce = _nll_value(zv, m, s, cells)
    align, groups = _centroid_terms(p, idx)

    def vjp(g: Array):
        dp = _centroid_vjp(groups, g * alpha)
        inner = np.add.reduce(dp * p, axis=1, keepdims=True)
        return (_nll_vjp(p, cells, g) + p * (dp - inner),)

    return _record(ce + align * alpha, "soft_label_objective", (z,), vjp), ce, align


# ---------------------------------------------------------------------------
# backward pass


def backward(root: Tensor) -> GradMap:
    """Reverse-mode gradients of a scalar root, seeded with 1.

    The map holds every tensor the root depends on, the root included.
    Returns a fresh GradMap per call; tensors are left untouched. One
    ``{id: (tensor, gradient)}`` dict is filled in reverse topological
    order and becomes the GradMap: a tensor reached over several paths
    holds ``held + new``, summed in the order its consumers are replayed.
    """
    if not isinstance(root, Tensor):
        raise ContractError("backward expects a Tensor root")
    if root.values.shape != ():
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")

    # depth-first post-order of the nodes with parents (leaves replay
    # nothing); a None on the stack marks the node below it as expanded
    topo: list[Tensor] = []
    visited: set[Tensor] = set()  # a Tensor hashes and compares by identity
    stack: list[Tensor | None] = [root]
    while stack:
        node = stack.pop()
        if node is None:
            topo.append(stack.pop())
        elif node not in visited:
            visited.add(node)
            if node._parents:
                stack += (node, None)
                stack += [parent for parent in node._parents if parent not in visited]

    grads: dict[int, tuple[Tensor, Array]] = {id(root): (root, np.array(1.0))}
    for node in reversed(topo):
        vjp = node._vjp
        if vjp is None:
            continue
        for parent, pg in zip(node._parents, vjp(grads[id(node)][1])):
            key = id(parent)
            held = grads.get(key)
            # a 0-d gradient times a float is a numpy scalar; the map holds arrays
            grads[key] = (parent, np.asarray(pg if held is None else held[1] + pg))

    return GradMap(grads)


def grad_check(f, x, eps: float = 1e-5) -> float:
    """Largest relative disagreement between reverse-mode and central differences.

    ``f`` maps a Tensor to a scalar Tensor. Per coordinate the error is
    |analytic - central| / max(1e-8, |central|) with central differences at
    x +- eps.
    """
    if eps <= 0:
        raise ContractError(f"grad_check requires eps > 0, got {eps}")
    x = as_tensor(x)
    gm = backward(f(x))
    analytic = gm.get(x)
    if analytic is None:
        analytic = np.zeros_like(x.values)

    base = x.values.copy()
    worst = 0.0
    for i in range(base.size):
        plus = base.copy()
        plus.flat[i] += eps
        minus = base.copy()
        minus.flat[i] -= eps
        with no_grad():
            f_plus = float(f(Tensor(plus)).values)
            f_minus = float(f(Tensor(minus)).values)
        central = (f_plus - f_minus) / (2.0 * eps)
        err = abs(float(analytic.flat[i]) - central) / max(1e-8, abs(central))
        worst = max(worst, err)
    return worst
