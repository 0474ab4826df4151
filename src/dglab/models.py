"""Classifier builders and forward / input-gradient entry points.

Two desk-scale backbones: an MLP (affine + relu stack) and a small 1-d CNN
(conv + relu blocks, global average pooling), both ending in a C-way affine
head. Parameters initialise uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)]
from a per-build seeded generator, so identical seeds give bit-identical
models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import read_json, write_json
from .errors import ConfigError, DimensionError

CHECKPOINT_FORMAT = "dglab-checkpoint-v1"

# Cap on rows x largest per-row intermediate in one chunk of a batch-wide
# pass: the input-gradient pass, evaluation and feature export (2**18
# float64 = 2 MiB). Unchunked, a 1600-row SmoothGrad stack through the
# default 1-d CNN raised an 8-iteration waveforms LODO run's peak RSS from
# 68 to 167 MB, and a cnn1d forward pass over a whole test domain grew with
# its rows; at this cap the CNN takes ~100 rows per chunk and the MLP takes
# 8192 rows at hidden=(32,), so a whole 1600-row stack in one pass.
ROW_CHUNK_ELEMENTS = 2**18


@dataclass
class Model:
    """Ordered layer stack with named parameter tensors.

    ``layers`` is a JSON-ready list of descriptors ({"kind": "affine",
    "name": "fc0"}, {"kind": "relu"}, ...). ``input_shape`` is the expected
    per-sample shape; a None entry matches any extent (conv length).
    """

    layers: list[dict]
    params: dict[str, Tensor]
    num_classes: int
    input_shape: tuple
    seed: int


def _init_affine(params: dict[str, Tensor], name: str, fan_in: int, fan_out: int, rng) -> None:
    bound = 1.0 / math.sqrt(fan_in)
    params[f"{name}_w"] = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    params[f"{name}_b"] = Tensor(rng.uniform(-bound, bound, size=fan_out))


def _init_conv(params: dict[str, Tensor], name: str, c_in: int, c_out: int, kernel: int, rng) -> None:
    bound = 1.0 / math.sqrt(c_in * kernel)
    params[f"{name}_w"] = Tensor(rng.uniform(-bound, bound, size=(c_out, c_in, kernel)))
    params[f"{name}_b"] = Tensor(rng.uniform(-bound, bound, size=c_out))


def build_mlp(layer_sizes: list[int], num_classes: int, seed: int) -> Model:
    """Affine+relu stack over flat inputs; layer_sizes[0] is the input width.

    A single entry builds a purely linear model (the affine head only).
    """
    if not layer_sizes:
        raise ConfigError("build_mlp: layer_sizes must be nonempty")
    if any(int(s) <= 0 for s in layer_sizes):
        raise ConfigError(f"build_mlp: layer sizes must be positive, got {layer_sizes}")
    if num_classes < 2:
        raise ConfigError(f"build_mlp: num_classes must be >= 2, got {num_classes}")

    rng = np.random.default_rng(seed)
    layers: list[dict] = []
    params: dict[str, Tensor] = {}
    sizes = [int(s) for s in layer_sizes]
    prev = sizes[0]
    for i, width in enumerate(sizes[1:]):
        name = f"fc{i}"
        _init_affine(params, name, prev, width, rng)
        layers.append({"kind": "affine", "name": name})
        layers.append({"kind": "relu"})
        prev = width
    _init_affine(params, "head", prev, num_classes, rng)
    layers.append({"kind": "affine", "name": "head"})
    return Model(layers, params, num_classes, (sizes[0],), int(seed))


def build_cnn1d(channels: list[int], kernel: int, num_classes: int, seed: int) -> Model:
    """Conv+relu blocks, global average pool, affine head.

    channels[0] is the input channel count; inputs are (batch, c_in, length)
    with any length. The kernel must be odd for symmetric same-padding.
    """
    if not channels:
        raise ConfigError("build_cnn1d: channels must be nonempty")
    if any(int(c) <= 0 for c in channels):
        raise ConfigError(f"build_cnn1d: channel counts must be positive, got {channels}")
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigError(f"build_cnn1d: kernel must be odd and positive, got {kernel}")
    if num_classes < 2:
        raise ConfigError(f"build_cnn1d: num_classes must be >= 2, got {num_classes}")

    rng = np.random.default_rng(seed)
    layers: list[dict] = []
    params: dict[str, Tensor] = {}
    chans = [int(c) for c in channels]
    c_prev = chans[0]
    for i, c_out in enumerate(chans[1:]):
        name = f"conv{i}"
        _init_conv(params, name, c_prev, c_out, int(kernel), rng)
        layers.append({"kind": "conv1d", "name": name})
        layers.append({"kind": "relu"})
        c_prev = c_out
    layers.append({"kind": "gap"})
    _init_affine(params, "head", c_prev, num_classes, rng)
    layers.append({"kind": "affine", "name": "head"})
    return Model(layers, params, num_classes, (chans[0], None), int(seed))


def _check_batch_shape(model: Model, shape: tuple) -> None:
    expected = model.input_shape
    if len(shape) != len(expected) + 1:
        raise DimensionError(
            f"input batch has shape {shape}, expected (batch, {', '.join(map(str, expected))})"
        )
    for got, want in zip(shape[1:], expected):
        if want is not None and got != want:
            raise DimensionError(f"input batch shape {shape} does not match per-sample shape {expected}")


# kind: (the layer's forward on h, and the rule of its op's VJP toward the
# layer's input h, pulling the gradient g at the output back onto h), each
# given the layer's parameter tensors after h (and g). Only relu reads h's
# values, and the pool only its length.
_LAYER_KINDS = {
    "affine": (lambda h, w, b: ad.affine(h, w, b), lambda h, g, w, b: g @ w.values.T),
    "conv1d": (lambda h, w, b: ad.conv1d(h, w, b), lambda h, g, w, b: ad.conv1d_input_grad(w.values, g)),
    "relu": (lambda h: ad.relu(h), lambda h, g: ad.relu_grad(h, g)),
    "gap": (lambda h: ad.global_avg_pool(h), lambda h, g: ad.pool_grad(g, h.shape[-1])),
}
# the kinds whose layer holds the parameters ``<name>_w`` and ``<name>_b``
_WEIGHTED = ("affine", "conv1d")


def _resolved(model: Model) -> list[tuple]:
    """Each layer's (forward, pull-back rule, parameter tensors), in layer order.

    Built from ``_LAYER_KINDS`` on every call, so each pass resolves the
    model's current layers and parameter map once, before its first layer
    runs.
    """
    steps = []
    for layer in model.layers:
        kind = layer["kind"]
        if kind not in _LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {kind!r}")
        params = ()
        if kind in _WEIGHTED:
            params = (model.params[f"{layer['name']}_w"], model.params[f"{layer['name']}_b"])
        steps.append((*_LAYER_KINDS[kind], params))
    return steps


def _walk(model: Model, x, steps: list[tuple], inputs: list | None = None) -> Tensor:
    """Run ``steps`` on a checked input batch: ``_resolved(model)`` or a
    prefix of it, resolved once per pass (for all of its chunks, too).

    With ``inputs``, each walked layer's input values are appended to it, in
    layer order, for the input-gradient pass to pull back through.
    """
    h = ad.as_tensor(x)
    _check_batch_shape(model, h.values.shape)
    for forward_rule, _, params in steps:
        if inputs is not None:
            inputs.append(h.values)
        h = forward_rule(h, *params)
    return h


def forward(model: Model, x) -> Tensor:
    """Run the layer stack; returns logits of shape (batch, num_classes)."""
    return _walk(model, x, _resolved(model))


def features(model: Model, x) -> Tensor:
    """Activations feeding the final affine head (the penultimate layer).

    For a purely linear model this is the input itself.
    """
    _check_head(model)
    return _walk(model, x, _resolved(model)[:-1])


def _check_head(model: Model) -> None:
    if not model.layers or model.layers[-1]["kind"] != "affine":
        raise ConfigError("the last layer must be the affine head")


def model_batch(model: Model, X: np.ndarray) -> np.ndarray:
    """Lay a (n, *sample_shape) array out as the model's input: an MLP takes flat rows."""
    # the width is spelled out: reshape cannot infer a -1 extent from zero rows
    return X.reshape(X.shape[0], math.prod(X.shape[1:])) if len(model.input_shape) == 1 else X


def _largest_row_intermediate(model: Model, row_shape: tuple) -> int:
    """Float64 elements per row of the widest array a batch-wide pass builds.

    conv1d counts its output and the (c_in, kernel, length) columns its
    forward pass builds and keeps for the weight gradient.
    """
    largest = math.prod(row_shape)
    for layer in model.layers:
        if layer["kind"] == "affine":
            largest = max(largest, model.params[f"{layer['name']}_w"].shape[1])
        elif layer["kind"] == "conv1d":
            c_out, c_in, kernel = model.params[f"{layer['name']}_w"].shape
            length = row_shape[-1]
            largest = max(largest, c_out * length, c_in * kernel * length)
    return largest


def row_chunks(model: Model, values: np.ndarray) -> list[slice]:
    """Consecutive row slices that cover a checked input batch ``values``.

    Each slice holds ROW_CHUNK_ELEMENTS // (largest per-row intermediate)
    rows, at least one; the last may hold fewer, and zero rows give no
    slice. Rows pass through the network independently, so a pass walked
    chunk by chunk into a preallocated output bounds its peak memory and
    computes each row as a one-pass call does: conv1d and pooling run row
    by row, but an affine layer's matrix product over another row count
    may round a row's last bit differently (the BLAS picks its kernel and
    blocking by size).
    """
    _check_batch_shape(model, values.shape)
    rows = max(1, ROW_CHUNK_ELEMENTS // _largest_row_intermediate(model, values.shape[1:]))
    return [slice(start, start + rows) for start in range(0, values.shape[0], rows)]


def head_weight(model: Model) -> np.ndarray:
    """The affine head's weight, shaped (features width, num_classes)."""
    _check_head(model)
    return model.params[f"{model.layers[-1]['name']}_w"].values


def class_logit_input_gradients(model: Model, batch_values: np.ndarray, classes) -> np.ndarray:
    """Per-row gradients d f(x_i)[c_i] / d x_i for a stacked batch.

    The class-c logit is affine in the head's input, with gradient column c
    of the head weight, so the pass starts there: row i's class column is
    pulled back through every layer below the head, in reverse, by that
    layer kind's VJP rule in ``_LAYER_KINDS`` (rows pass through the network
    independently, so one pull yields every row's own input gradient). Only
    relu reads its input's values, so the forward walk, under ``no_grad``,
    stops at the input of the last relu below the head and keeps each
    walked layer's input. The layers above it read only their weights, or,
    for the pool, the length, which every same-padded conv1d keeps: the
    walk's output stands in for their inputs. No graph is built, no
    parameter gradient is formed, and the last relu's output and the pooled
    features are never computed; the result is bit for bit the backward pass
    of the picked logits. The layers are resolved once for the pass, and
    the stack is walked in the chunks of ``row_chunks``.
    """
    values = np.asarray(batch_values, dtype=np.float64)
    chunks = row_chunks(model, values)
    classes = np.asarray(classes, dtype=np.intp)
    if classes.shape != values.shape[:1]:
        raise DimensionError(f"need one class per row: {classes.shape} for {values.shape[0]} rows")
    if classes.min(initial=0) < 0 or classes.max(initial=0) >= model.num_classes:
        raise IndexError(
            f"class index out of range: {classes} for {model.num_classes} classes"
        )
    head_w = head_weight(model)
    below_head = model.layers[:-1]
    stop = max((i for i, layer in enumerate(below_head) if layer["kind"] == "relu"), default=0)
    grads = np.empty_like(values)
    steps = _resolved(model)[:-1]
    pulls = [(pull, params) for _, pull, params in reversed(steps)]
    for rows in chunks:
        inputs: list[np.ndarray] = []
        with ad.no_grad():
            top = _walk(model, values[rows], steps[:stop], inputs).values
        inputs += [top] * (len(below_head) - stop)
        g = np.take(head_w.T, classes[rows], axis=0)
        for (pull, params), h in zip(pulls, reversed(inputs)):
            g = pull(h, g, *params)
        grads[rows] = g
    return grads


# ---------------------------------------------------------------------------
# checkpoint round-trip


def save_model(model: Model, path) -> None:
    """Write a JSON checkpoint; save -> load -> forward is bit-exact."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "layers": model.layers,
        "num_classes": model.num_classes,
        "input_shape": [d for d in model.input_shape],
        "seed": model.seed,
        "params": {
            name: {"shape": list(p.values.shape), "values": p.values.ravel().tolist()}
            for name, p in model.params.items()
        },
    }
    write_json(path, doc, separators=(",", ":"))


def load_model(path) -> Model:
    """Read a JSON checkpoint; a malformed one raises ConfigError naming the file."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: a checkpoint must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}: not a model checkpoint (format {doc.get('format')!r})")
    try:
        if not all(isinstance(layer, dict) and "kind" in layer for layer in doc["layers"]):
            raise TypeError("every layer must be an object with a kind")
        params = {}
        for name, entry in doc["params"].items():
            shape = tuple(entry["shape"])
            values = np.asarray(entry["values"], dtype=np.float64)
            if values.size != math.prod(shape):
                raise ValueError(f"parameter {name} has {values.size} values for shape {shape}")
            params[name] = Tensor(values.reshape(shape))
        input_shape = tuple(d if d is None else int(d) for d in doc["input_shape"])
        model = Model(doc["layers"], params, int(doc["num_classes"]), input_shape, int(doc["seed"]))
        # the head rule of features and input gradients, then a one-row probe,
        # which meets every layer's name and parameters as a forward pass does
        # and gives the head's width
        _check_head(model)
        with ad.no_grad():
            logits = forward(model, np.zeros((1, *(1 if d is None else d for d in input_shape)))).values
        # every class index is checked against num_classes, so it must be the head's width
        if logits.shape[-1] != model.num_classes:
            raise ConfigError(f"the head has {logits.shape[-1]} outputs, but num_classes is {model.num_classes}")
        return model
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    except KeyError as e:
        raise ConfigError(f"{path}: checkpoint has no field {e}") from e
    except (AttributeError, TypeError, ValueError) as e:
        raise ConfigError(f"{path}: malformed checkpoint: {e}") from e
