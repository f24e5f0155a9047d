"""Dense float64 engine for small sequential CNNs.

Forward and reverse passes for the layer kinds the pruning pipeline needs
(conv2d, relu, maxpool2d, flatten, linear, softmax cross-entropy head), a
Nesterov momentum SGD step and a network's FLOPs count.  Tensors are plain
numpy float64 arrays, and every activation carries a leading batch axis.

Every function here is pure: inputs are never mutated and identical inputs
produce bit-identical outputs (reductions run in a fixed order).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

CONV2D = "conv2d"
RELU = "relu"
MAXPOOL2D = "maxpool2d"
FLATTEN = "flatten"
LINEAR = "linear"
SOFTMAX_CE_HEAD = "softmax_ce_head"


class ShapeError(ValueError):
    """A tensor dimension does not match the layer contract."""


# ---------------------------------------------------------------------------
# Network description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerSpec:
    """One layer of a sequential network; only the fields for `kind` are used."""

    kind: str
    in_channels: int = 0
    out_channels: int = 0
    kernel: tuple[int, int] = (0, 0)
    stride: int = 1
    padding: int = 0
    window: tuple[int, int] = (0, 0)
    in_features: int = 0
    out_features: int = 0


def _pair(v) -> tuple[int, int]:
    return (int(v), int(v)) if np.isscalar(v) else (int(v[0]), int(v[1]))


def conv2d(in_channels: int, out_channels: int, kernel=3, stride: int = 1,
           padding: int = 0) -> LayerSpec:
    kh, kw = _pair(kernel)
    if min(in_channels, out_channels, kh, kw) < 1:
        raise ShapeError("conv2d: channel counts and kernel extents must be >= 1")
    if stride < 1 or padding < 0:
        raise ShapeError("conv2d: stride must be >= 1 and padding >= 0")
    return LayerSpec(CONV2D, in_channels=in_channels, out_channels=out_channels,
                     kernel=(kh, kw), stride=stride, padding=padding)


def relu() -> LayerSpec:
    return LayerSpec(RELU)


def maxpool2d(window=2, stride: int | None = None) -> LayerSpec:
    wh, ww = _pair(window)
    if min(wh, ww) < 1:
        raise ShapeError("maxpool2d: window extents must be >= 1")
    if stride is None:
        stride = wh
    elif stride < 1:
        raise ShapeError("maxpool2d: stride must be >= 1")
    return LayerSpec(MAXPOOL2D, window=(wh, ww), stride=int(stride))


def flatten() -> LayerSpec:
    return LayerSpec(FLATTEN)


def linear(in_features: int, out_features: int) -> LayerSpec:
    if min(in_features, out_features) < 1:
        raise ShapeError("linear: feature counts must be >= 1")
    return LayerSpec(LINEAR, in_features=in_features, out_features=out_features)


def softmax_ce_head() -> LayerSpec:
    return LayerSpec(SOFTMAX_CE_HEAD)


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layers, input dims (c, h, w) and class count.

    Construction validates the whole chain: adjacent layers must be
    shape-compatible, the last layer must be the single softmax/cross-entropy
    head, and at least one conv2d must be present.
    """

    layers: tuple[LayerSpec, ...]
    input_dims: tuple[int, int, int]
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))
        heads = [i for i, l in enumerate(self.layers) if l.kind == SOFTMAX_CE_HEAD]
        if heads != [len(self.layers) - 1]:
            raise ShapeError("network must end with exactly one softmax_ce_head")
        if not any(l.kind == CONV2D for l in self.layers):
            raise ShapeError("network must contain at least one conv2d layer")
        self.activation_dims()  # raises on any incompatibility

    def activation_dims(self) -> list[tuple[int, ...]]:
        """Output dims (without batch axis) of every layer in order."""
        dims: tuple[int, ...] = self.input_dims
        out = []
        for i, layer in enumerate(self.layers):
            dims = _layer_out_dims(layer, dims, i, self.num_classes)
            out.append(dims)
        return out

    def conv_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.kind == CONV2D]


def _layer_out_dims(layer: LayerSpec, dims: tuple[int, ...], i: int,
                    num_classes: int) -> tuple[int, ...]:
    if layer.kind == CONV2D:
        if len(dims) != 3:
            raise ShapeError(f"layer {i} (conv2d): expected (c, h, w) input, got {dims}")
        c, h, w = dims
        if c != layer.in_channels:
            raise ShapeError(f"layer {i} (conv2d): expected {layer.in_channels} input "
                             f"channels, got {c}")
        kh, kw = layer.kernel
        ho = (h + 2 * layer.padding - kh) // layer.stride + 1
        wo = (w + 2 * layer.padding - kw) // layer.stride + 1
        if ho < 1 or wo < 1:
            raise ShapeError(f"layer {i} (conv2d): kernel {layer.kernel} does not fit "
                             f"input {h}x{w} with padding {layer.padding}")
        return (layer.out_channels, ho, wo)
    if layer.kind == RELU:
        return dims
    if layer.kind == MAXPOOL2D:
        if len(dims) != 3:
            raise ShapeError(f"layer {i} (maxpool2d): expected (c, h, w) input, got {dims}")
        c, h, w = dims
        wh, ww = layer.window
        ho = (h - wh) // layer.stride + 1
        wo = (w - ww) // layer.stride + 1
        if ho < 1 or wo < 1:
            raise ShapeError(f"layer {i} (maxpool2d): window {layer.window} does not fit "
                             f"input {h}x{w}")
        return (c, ho, wo)
    if layer.kind == FLATTEN:
        return (int(np.prod(dims)),)
    if layer.kind == LINEAR:
        if len(dims) != 1 or dims[0] != layer.in_features:
            raise ShapeError(f"layer {i} (linear): expected ({layer.in_features},) input, "
                             f"got {dims}")
        return (layer.out_features,)
    if layer.kind == SOFTMAX_CE_HEAD:
        if len(dims) != 1 or dims[0] != num_classes:
            raise ShapeError(f"layer {i} (softmax_ce_head): expected ({num_classes},) "
                             f"logits, got {dims}")
        return dims
    raise ShapeError(f"layer {i}: unknown kind {layer.kind!r}")


@dataclass
class FlopsReport:
    per_layer: list[int]
    total: int


def flops_count(spec) -> FlopsReport:
    """Multiply-add FLOPs per layer (factor 2); activations and pools count 0.

    conv2d: 2 * c_out * c_in * kh * kw * h_out * w_out; linear: 2 * in * out.
    """
    dims = tuple(spec.input_dims)
    per_layer: list[int] = []
    for i, layer in enumerate(spec.layers):
        dims = _layer_out_dims(layer, dims, i, spec.num_classes)
        if layer.kind == CONV2D:
            kh, kw = layer.kernel
            _, ho, wo = dims
            per_layer.append(2 * layer.out_channels * layer.in_channels * kh * kw
                             * ho * wo)
        elif layer.kind == LINEAR:
            per_layer.append(2 * layer.in_features * layer.out_features)
        else:
            per_layer.append(0)
    return FlopsReport(per_layer=per_layer, total=sum(per_layer))


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass
class LayerParams:
    """Weight/bias pair for a conv2d or linear layer."""

    weights: np.ndarray
    bias: np.ndarray

    def copy(self) -> "LayerParams":
        return LayerParams(self.weights.copy(), self.bias.copy())


def init_params(spec: NetworkSpec, seed=0) -> list[LayerParams | None]:
    """He-initialised weights, zero biases; deterministic for a given seed."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    params: list[LayerParams | None] = []
    for layer in spec.layers:
        if layer.kind == CONV2D:
            kh, kw = layer.kernel
            fan_in = layer.in_channels * kh * kw
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                           size=(layer.out_channels, layer.in_channels, kh, kw))
            params.append(LayerParams(w, np.zeros(layer.out_channels)))
        elif layer.kind == LINEAR:
            w = rng.normal(0.0, np.sqrt(2.0 / layer.in_features),
                           size=(layer.out_features, layer.in_features))
            params.append(LayerParams(w, np.zeros(layer.out_features)))
        else:
            params.append(None)
    return params


def copy_params(params: list[LayerParams | None]) -> list[LayerParams | None]:
    return [p.copy() if p is not None else None for p in params]


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _im2col_index(c_in: int, hp: int, wp: int, kh: int, kw: int,
                  stride: int) -> np.ndarray:
    """Flat offsets into one padded (c_in, hp, wp) image of every im2col entry.

    Entry [p, t] is the offset of tap t, in (c_in, kh, kw) order, of output
    position p, in (ho, wo) order.  The cached table is read-only.
    """
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    pos = (np.arange(ho) * (stride * wp))[:, None] + np.arange(wo) * stride
    tap = ((np.arange(c_in) * (hp * wp))[:, None, None]
           + (np.arange(kh) * wp)[:, None] + np.arange(kw))
    index = pos.reshape(-1, 1) + tap.reshape(1, -1)
    index.flags.writeable = False
    return index


def _conv_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None,
                  stride: int, padding: int):
    """Output and im2col matrix of a batched conv.

    `cols` has one row per output position in (n, ho, wo) order and one
    column per (c_in, kh, kw) tap; the backward reuses it for dW.  It is a
    view of the input where the window view reshapes without a copy, and
    otherwise one gather through a cached offset table (Chellapilla, Puri &
    Simard 2006 unroll convolutions this way).
    """
    c_out, c_in, kh, kw = weights.shape
    n, _, h, w = x.shape
    if padding:
        xp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding))
        xp[:, :, padding:padding + h, padding:padding + w] = x
    else:
        xp = np.ascontiguousarray(x)
    hp, wp = xp.shape[2], xp.shape[3]
    if kh > hp or kw > wp:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    # A strided view of xp indexed (n, ho, wo, c_in, kh, kw).
    s0, s1, s2, s3 = xp.strides
    win = np.ndarray((n, ho, wo, c_in, kh, kw), xp.dtype, xp, 0,
                     (s0, s2 * stride, s3 * stride, s1, s2, s3))
    try:
        cols = win.reshape(n * ho * wo, c_in * kh * kw, copy=False)
    except ValueError:
        index = _im2col_index(c_in, hp, wp, kh, kw, stride)
        cols = np.take(xp.reshape(n, -1), index, axis=1).reshape(n * ho * wo, -1)
    y = cols @ weights.reshape(c_out, -1).T
    if bias is not None:
        y += bias
    return np.ascontiguousarray(y.reshape(n, ho, wo, c_out).transpose(0, 3, 1, 2)), cols


def _conv_backward(cols: np.ndarray, x_shape, weights: np.ndarray, stride: int,
                   padding: int, d_out: np.ndarray, need_dx: bool = True,
                   need_dw: bool = True):
    """(dx, dw, db) of a conv from its forward's im2col matrix.

    dx is accumulated channels-last, one strided add per kernel offset in
    (u, v) order, and returned as an (n, c_in, h, w) view of that buffer;
    it is None, and not computed, when `need_dx` is False.  dw and db are
    None, and not computed, when `need_dw` is False.
    """
    c_out, c_in, kh, kw = weights.shape
    n, _, h, w = x_shape
    ho, wo = d_out.shape[2], d_out.shape[3]

    dw = db = None
    if need_dw:
        dw = np.dot(d_out.transpose(1, 0, 2, 3).reshape(c_out, -1),
                    cols).reshape(weights.shape)
        db = d_out.sum(axis=(0, 2, 3))
    if not need_dx:
        return None, dw, db

    dmat = d_out.transpose(0, 2, 3, 1).reshape(n * ho * wo, c_out)
    dcols = (dmat @ weights.reshape(c_out, -1)).reshape(n, ho, wo, c_in, kh, kw)
    dxp = np.zeros((n, h + 2 * padding, w + 2 * padding, c_in))
    for u in range(kh):
        for v in range(kw):
            dxp[:, u:u + stride * ho:stride, v:v + stride * wo:stride] += \
                dcols[:, :, :, :, u, v]
    dx = dxp[:, padding:padding + h, padding:padding + w]
    return dx.transpose(0, 3, 1, 2), dw, db


# ---------------------------------------------------------------------------
# Remaining layer ops
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(y_out: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    return d_out * (y_out > 0.0)


def maxpool2d_forward(x: np.ndarray, window=(2, 2), stride: int = 2) -> np.ndarray:
    """Window maxima, as an elementwise maximum over one strided view per offset."""
    wh, ww = _pair(window)
    ho = (x.shape[2] - wh) // stride + 1
    wo = (x.shape[3] - ww) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"pool window {wh}x{ww} larger than input "
                         f"{x.shape[2]}x{x.shape[3]}")
    out = None
    for u in range(wh):
        for v in range(ww):
            view = x[:, :, u:u + stride * (ho - 1) + 1:stride,
                     v:v + stride * (wo - 1) + 1:stride]
            out = np.array(view) if out is None else np.maximum(out, view, out=out)
    return out


def maxpool2d_backward(x: np.ndarray, y: np.ndarray, window, stride: int,
                       d_out: np.ndarray) -> np.ndarray:
    """Gradient routed to each window's max, found from the forward output `y`.

    A window's winner is its first offset, in (u, v) order, whose value
    equals `y`, so ties go to the lowest flat index (a window whose max is
    NaN routes to its last offset).  Gradients are summed with `np.bincount`,
    which adds in window order starting from 0.0, so overlapping windows
    accumulate in a fixed order.
    """
    wh, ww = _pair(window)
    n, c, h, w = x.shape
    ho, wo = y.shape[2], y.shape[3]
    # Flat index into x of each window's first offset; it moves on to the
    # next offset for every window that has not yet matched its max.
    at = ((np.arange(n * c) * (h * w)).reshape(n, c, 1, 1)
          + (np.arange(ho) * (stride * w))[:, None] + np.arange(wo) * stride)
    offsets = [(u, v) for u in range(wh) for v in range(ww)]
    missed = None
    for (u, v), (nu, nv) in zip(offsets, offsets[1:]):
        view = x[:, :, u:u + stride * (ho - 1) + 1:stride,
                 v:v + stride * (wo - 1) + 1:stride]
        miss = view != y
        missed = miss if missed is None else np.logical_and(missed, miss, out=missed)
        at += missed * ((nu - u) * w + (nv - v))
    return np.bincount(at.ravel(), weights=d_out.ravel(),
                       minlength=x.size).reshape(x.shape)


def linear_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return x @ weights.T + bias


def linear_backward(x: np.ndarray, weights: np.ndarray, d_out: np.ndarray,
                    need_dw: bool = True):
    """(dx, dw, db) of a linear layer; dw and db are None when `need_dw` is False."""
    dw = db = None
    if need_dw:
        dw = d_out.T @ x
        db = d_out.sum(axis=0)
    dx = d_out @ weights
    return dx, dw, db


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean over the batch of -log(softmax(logits)[label])."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(len(labels)), labels]
    return float(np.mean(log_norm - picked))


# ---------------------------------------------------------------------------
# Whole-network passes
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    """Everything a forward pass produced: input, per-layer outputs, logits.

    outputs[i] is the (batched) output of layers[i]; the head's entry holds
    softmax probabilities and `logits` is the head's input.  A pass that
    stopped early has fewer outputs and no logits.  cols[i] is conv layer
    i's im2col matrix, kept for the backward.
    """

    x: np.ndarray
    outputs: list[np.ndarray]
    logits: np.ndarray | None
    cols: dict[int, np.ndarray]


@dataclass
class Gradients:
    """Loss gradients for every layer of a network.

    weights[i] pairs with layers[i] (None for parameterless layers);
    activations[i] is dC/d(outputs[i]) and is None for the head slot, whose
    input gradient lives at the preceding layer.  `wrt_input` is dC/d(x), or
    None when the pass stopped above the input or was asked not to compute it.
    """

    weights: list[LayerParams | None]
    activations: list[np.ndarray | None]
    wrt_input: np.ndarray | None
    loss: float


def _input_batch(spec: NetworkSpec, x) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape[1:] != tuple(spec.input_dims):
        raise ShapeError(f"input dims: expected {tuple(spec.input_dims)}, "
                         f"got {x.shape[1:]}")
    return x


def _layer_forward(layer: LayerSpec, p: LayerParams | None, x: np.ndarray):
    """One layer's output and, for a conv, its im2col matrix (else None)."""
    if layer.kind == CONV2D:
        return _conv_forward(x, p.weights, p.bias, layer.stride, layer.padding)
    if layer.kind == RELU:
        return relu_forward(x), None
    if layer.kind == MAXPOOL2D:
        return maxpool2d_forward(x, layer.window, layer.stride), None
    if layer.kind == FLATTEN:
        return x.reshape(x.shape[0], -1), None
    if layer.kind == LINEAR:
        return linear_forward(x, p.weights, p.bias), None
    return softmax(x), None


def forward_collect(spec: NetworkSpec, params: list[LayerParams | None], x,
                    upto: int | None = None) -> ForwardTrace:
    """Run the network, keeping every activation and every conv's im2col matrix.

    `upto` is the index of the last layer to run (default: all of them); the
    trace then holds outputs[0..upto], and `logits` is None unless the head
    was reached.  Everything computed is bit-identical to the full pass.
    """
    x = _input_batch(spec, x)
    num_layers = len(spec.layers)
    if upto is None:
        upto = num_layers - 1
    if not 0 <= upto < num_layers:
        raise ValueError(f"upto must be in [0, {num_layers}), got {upto}")
    cur = x
    outputs: list[np.ndarray] = []
    cols: dict[int, np.ndarray] = {}
    logits = None
    for i, layer in enumerate(spec.layers[:upto + 1]):
        if layer.kind == SOFTMAX_CE_HEAD:
            logits = cur
        cur, c = _layer_forward(layer, params[i], cur)
        if c is not None:
            cols[i] = c
        outputs.append(cur)
    return ForwardTrace(x=x, outputs=outputs, logits=logits, cols=cols)


def predict(spec: NetworkSpec, params: list[LayerParams | None], x) -> np.ndarray:
    """Logits of a full forward that keeps no activations; bit-identical to
    `forward_collect(spec, params, x).logits`."""
    cur = _input_batch(spec, x)
    for layer, p in zip(spec.layers[:-1], params):
        cur = _layer_forward(layer, p, cur)[0]
    return cur


def backward_collect(spec: NetworkSpec, params: list[LayerParams | None],
                     trace: ForwardTrace, labels, stop: int = 0,
                     wrt_input: bool = True, wrt_weights: bool = True) -> Gradients:
    """Backpropagate mean cross-entropy against `labels` through a forward trace.

    `stop` is the lowest layer index the pass visits: layers below it get
    no weight gradient, activations[i] is filled for i >= stop - 1 only, and
    `wrt_input` is None unless stop == 0.  With `wrt_input=False` a first
    conv skips its input gradient, which training never reads, and
    `Gradients.wrt_input` is None.  With `wrt_weights=False` conv and linear
    layers compute only their input gradient, as a probe that reads
    activation gradients needs, and every `Gradients.weights` entry is None.
    Everything that is filled is bit-identical to the full pass.
    """
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n = trace.x.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels: expected shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= spec.num_classes:
        bad = labels[(labels < 0) | (labels >= spec.num_classes)][0]
        raise ValueError(f"label {bad} out of range for {spec.num_classes} classes")
    num_layers = len(spec.layers)
    if not 0 <= stop < num_layers:
        raise ValueError(f"stop must be in [0, {num_layers}), got {stop}")
    if trace.logits is None:
        raise ValueError("trace stops before the head; backward needs a full forward")

    loss = cross_entropy(trace.logits, labels)
    probs = trace.outputs[-1]
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    grad = (probs - onehot) / n

    weight_grads: list[LayerParams | None] = [None] * num_layers
    act_grads: list[np.ndarray | None] = [None] * num_layers
    if num_layers >= 2:
        act_grads[num_layers - 2] = grad

    for i in range(num_layers - 2, stop - 1, -1):
        layer = spec.layers[i]
        x_in = trace.outputs[i - 1] if i > 0 else trace.x
        if layer.kind == CONV2D:
            dx, dw, db = _conv_backward(trace.cols[i], x_in.shape, params[i].weights,
                                        layer.stride, layer.padding, grad,
                                        i > 0 or wrt_input, wrt_weights)
            if wrt_weights:
                weight_grads[i] = LayerParams(dw, db)
            grad = dx
        elif layer.kind == RELU:
            grad = relu_backward(trace.outputs[i], grad)
        elif layer.kind == MAXPOOL2D:
            grad = maxpool2d_backward(x_in, trace.outputs[i], layer.window,
                                      layer.stride, grad)
        elif layer.kind == FLATTEN:
            grad = grad.reshape(x_in.shape)
        elif layer.kind == LINEAR:
            dx, dw, db = linear_backward(x_in, params[i].weights, grad, wrt_weights)
            if wrt_weights:
                weight_grads[i] = LayerParams(dw, db)
            grad = dx
        if i > 0:
            act_grads[i - 1] = grad

    return Gradients(weights=weight_grads, activations=act_grads,
                     wrt_input=grad if stop == 0 and wrt_input else None, loss=loss)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

# The one SGD rule: weight decay on the gradient, then Nesterov momentum
# (Sutskever, Martens, Dahl & Hinton 2013).
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4


def sgd_step(params: list[LayerParams | None], grads: list[LayerParams | None],
             lr: float, velocity: list[LayerParams | None] | None = None):
    """One Nesterov momentum SGD step; returns (new_params, new_velocity).

    With g' = g + WEIGHT_DECAY * w, the velocity becomes v' = MOMENTUM * v + g'
    and the weights move by -lr * (g' + MOMENTUM * v').  No velocity means
    zeros.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if velocity is None:
        velocity = [LayerParams(np.zeros_like(p.weights), np.zeros_like(p.bias))
                    if p is not None else None for p in params]
    new_params: list[LayerParams | None] = []
    new_velocity: list[LayerParams | None] = []
    for p, g, v in zip(params, grads, velocity):
        if p is None:
            new_params.append(None)
            new_velocity.append(None)
            continue
        if g.weights.shape != p.weights.shape or g.bias.shape != p.bias.shape:
            raise ShapeError("gradient shape does not match parameter shape")
        upd_w, vel_w = _sgd_update(p.weights, g.weights, v.weights, lr)
        upd_b, vel_b = _sgd_update(p.bias, g.bias, v.bias, lr)
        new_params.append(LayerParams(upd_w, upd_b))
        new_velocity.append(LayerParams(vel_w, vel_b))
    return new_params, new_velocity


def _sgd_update(w, g, v, lr):
    g = g + WEIGHT_DECAY * w
    v_new = MOMENTUM * v + g
    return w - lr * (g + MOMENTUM * v_new), v_new
