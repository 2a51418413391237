"""Differentiable layers with explicit forward caches and manual backward passes.

Every layer follows the same contract: ``forward(x, mode, rng)`` returns
``(y, cache)``, and ``backward(cache, upstream, out, input_grad)`` writes the
parameter gradients into ``out``, one array per entry of ``params``, and
returns the input gradient. With ``input_grad=False`` it returns None and
skips that work; the bytes written to ``out`` are the same either way.
Gradients are for the batch objective as-is; any L2 term is added by the
trainer, never here.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError, ShapeError, check_exact
from .ndcore import Rng

TRAIN = "train"
INFER = "infer"


def relu(x):
    return np.maximum(0.0, np.asarray(x, dtype=np.float64))


def he_init(fan_in: int, fan_out: int, rng: Rng) -> np.ndarray:
    """Gaussian(0, sqrt(2/fan_in)) weights, shaped [fan_out x fan_in]."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in and fan_out must be >= 1, got {fan_in}, {fan_out}")
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(fan_out * fan_in, 0.0, std).reshape(fan_out, fan_in)


def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood and its logit gradient.

    Rows are max-shifted before exponentiation, so arbitrarily large logits
    stay finite. Gradient is (softmax - onehot) / batch.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    b, c = z.shape
    if y.shape != (b,):
        raise ShapeError(f"labels shape {y.shape} does not match batch size {b}")
    if y.min() < 0 or y.max() >= c:
        raise ValueError(f"labels must lie in [0, {c}), got range [{y.min()}, {y.max()}]")
    shifted = z - z.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(b)
    loss = -float(log_probs[rows, y].sum() / b)
    grad = np.exp(log_probs)
    grad[rows, y] -= 1.0
    grad /= b
    return loss, grad


class Layer:
    """Base of every layer. A subclass declares what it stores: ``arrays``,
    the float arrays a checkpoint holds, in constructor order, each mapped to
    its named dimensions; ``params``, the trainable ones, each mapped to
    whether L2 applies. A checkpoint entry is ``type`` and ``shape``/``values``;
    any other number a layer uses is a constant of its class."""

    kind = ""
    arrays: dict[str, tuple[str, ...]] = {}
    params: dict[str, bool] = {}

    def __init__(self, *values):
        """Set the declared arrays, as float64, in order; TypeError unless one
        value per array, ShapeError unless every named dimension has one size,
        at least 1, across all of them, and ValueError unless all are finite."""
        if len(values) != len(self.arrays):
            raise TypeError(f"{self.kind} takes {len(self.arrays)} arrays, got {len(values)}")
        sizes: dict[str, int] = {}
        for (name, dims), value in zip(self.arrays.items(), values):
            array = np.asarray(value, dtype=np.float64)
            if array.ndim != len(dims) or any(
                    sizes.setdefault(d, n) != n or n < 1 for d, n in zip(dims, array.shape)):
                raise ShapeError(f"{self.kind} array {name!r} has shape {array.shape}, but its "
                                 f"dimensions {dims} must be >= 1 and match {sizes}")
            if not np.isfinite(array).all():
                raise ValueError(f"{self.kind} array {name!r} holds a value that is not finite")
            setattr(self, name, array)

    def to_entry(self):
        stored = [getattr(self, name) for name in self.arrays]
        return {
            "type": self.kind,
            "shape": [list(a.shape) for a in stored],
            "values": [a.tolist() for a in stored],
        }

    def rectifier_inputs(self, cache) -> tuple:
        """The arrays of a train-mode ``cache`` that a rectifier in this layer
        masks by; none for a layer without one."""
        return ()

    @classmethod
    def from_entry(cls, entry):
        """Rebuild a layer; SchemaError if the entry does not match the declaration."""
        where = f"{cls.kind} layer entry"
        check_exact(entry, {"type": str, "shape": list, "values": list}, where)
        shapes, values = entry["shape"], entry["values"]
        if not len(shapes) == len(values) == len(cls.arrays):
            raise SchemaError(f"{where} must record {len(cls.arrays)} arrays "
                              f"{list(cls.arrays)} in 'shape' and 'values'")
        stored = []
        for name, shape, value in zip(cls.arrays, shapes, values):
            try:
                array = np.array(value)
            except ValueError:  # ragged nesting
                array = np.array(None)
            if array.dtype.kind not in "iuf" or list(array.shape) != shape:
                raise SchemaError(f"{where}: {name!r} is not a numeric array of shape {shape}")
            stored.append(array)
        try:
            return cls(*stored)
        except ValueError as exc:  # arrays that disagree, or a value out of range
            raise SchemaError(f"{where}: {exc}") from None


class Dense(Layer):
    """Affine map y = x W^T + b; a rectifier after it is a ReLULayer."""

    kind = "dense"
    arrays = {"weights": ("out", "in"), "bias": ("out",)}
    params = {"weights": True, "bias": False}

    @classmethod
    def init(cls, fan_in: int, fan_out: int, rng: Rng) -> "Dense":
        return cls(he_init(fan_in, fan_out, rng), np.zeros(fan_out))

    @property
    def input_dim(self):
        return self.weights.shape[1]

    def forward(self, x, mode=INFER, rng=None):
        if x.shape[1] != self.input_dim:
            raise ShapeError(f"dense expects {self.input_dim} columns, got {x.shape[1]}")
        y = x @ self.weights.T
        y += self.bias
        return y, x

    def backward(self, cache, upstream, out, input_grad):
        grad_w, grad_b = out
        np.matmul(upstream.T, cache, out=grad_w)
        upstream.sum(axis=0, out=grad_b)
        return upstream @ self.weights if input_grad else None


class ReLULayer(Layer):
    """Rectifier y = max(0, x), the stage after every dense or conv1d layer
    but the head; the cache is its input, the pre-activation."""

    kind = "relu"

    def forward(self, x, mode=INFER, rng=None):
        return relu(x), x

    def backward(self, cache, upstream, out, input_grad):
        return upstream * (cache > 0) if input_grad else None

    def rectifier_inputs(self, cache) -> tuple:
        return (cache,)


class BatchNorm(Layer):
    """Per-column normalization with learned scale and shift.

    Training batches are normalized by their own mean and biased variance,
    and the running statistics move by ``momentum``. Inference normalizes
    by the running statistics instead, and so does a one-row training batch,
    which cannot form batch statistics; neither changes them. Running
    variance uses the same biased estimator.
    """

    kind = "batchnorm"
    arrays = {"gamma": ("d",), "beta": ("d",), "running_mean": ("d",), "running_var": ("d",)}
    params = {"gamma": False, "beta": False}
    momentum = 0.9
    epsilon = 1e-5

    def __init__(self, *values):
        super().__init__(*values)
        if (self.running_var < 0).any():
            raise ValueError("batchnorm 'running_var' must not be negative")

    @classmethod
    def init(cls, dim: int) -> "BatchNorm":
        return cls(np.ones(dim), np.zeros(dim), np.zeros(dim), np.ones(dim))

    @property
    def dim(self):
        return self.gamma.shape[0]

    def forward(self, x, mode=INFER, rng=None):
        if x.shape[1] != self.dim:
            raise ShapeError(f"batchnorm expects {self.dim} columns, got {x.shape[1]}")
        if mode == TRAIN and x.shape[0] >= 2:
            # np.mean and np.var(axis=0)'s own arithmetic, one deviation pass
            b = x.shape[0]
            mean = x.sum(axis=0) / b
            dev = x - mean
            var = (dev * dev).sum(axis=0) / b  # biased: divide by batch size
            inv_std = 1.0 / np.sqrt(var + self.epsilon)
            xhat = dev * inv_std
            self.running_mean *= self.momentum
            self.running_mean += (1.0 - self.momentum) * mean
            self.running_var *= self.momentum
            self.running_var += (1.0 - self.momentum) * var
            cache = ("batch", x, xhat, inv_std)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.epsilon)
            xhat = x - self.running_mean
            xhat *= inv_std
            cache = ("running", x, xhat, inv_std)
        y = self.gamma * xhat
        y += self.beta
        return y, cache

    def backward(self, cache, upstream, out, input_grad):
        path, x, xhat, inv_std = cache
        grad_gamma, grad_beta = out
        (upstream * xhat).sum(axis=0, out=grad_gamma)
        upstream.sum(axis=0, out=grad_beta)
        if not input_grad:
            return None
        dxhat = upstream * self.gamma
        if path == "running":
            # running stats are constants, the map is affine per column
            grad_x = dxhat * inv_std
        else:
            # gradient through batch mean and variance
            b = x.shape[0]
            grad_x = (inv_std / b) * (
                b * dxhat
                - dxhat.sum(axis=0)
                - xhat * (dxhat * xhat).sum(axis=0)
            )
        return grad_x


class Dropout(Layer):
    """Inverted dropout: a train-mode pass given an Rng masks entries at
    ``rate`` and scales the rest by 1/(1-rate); inference, and a train-mode
    pass without an Rng (the gradient check's), is the identity.

    The cache is the float mask ``keep * (1/(1-rate))``; multiplying by it is
    bit-equal to ``x * keep * scale``, signed zeros and infinities included.
    """

    kind = "dropout"
    rate = 0.5

    def forward(self, x, mode=INFER, rng=None):
        if mode != TRAIN or rng is None:
            return x, None
        keep = rng.uniform(x.size).reshape(x.shape) >= self.rate
        mask = keep * (1.0 / (1.0 - self.rate))
        return x * mask, mask

    def backward(self, cache, upstream, out, input_grad):
        if not input_grad:
            return None
        if cache is None:
            return upstream
        return upstream * cache


class ResidualBlock(Layer):
    """Two square dense maps with a rectifier each, plus the identity skip:
    y = f(W2 f(W1 x + b1) + b2) + x. Dimension is preserved by construction."""

    kind = "residual"
    arrays = {"w1": ("d", "d"), "b1": ("d",), "w2": ("d", "d"), "b2": ("d",)}
    params = {"w1": True, "b1": False, "w2": True, "b2": False}

    @classmethod
    def init(cls, dim: int, rng: Rng) -> "ResidualBlock":
        return cls(he_init(dim, dim, rng), np.zeros(dim), he_init(dim, dim, rng), np.zeros(dim))

    @property
    def dim(self):
        return self.w1.shape[0]

    def forward(self, x, mode=INFER, rng=None):
        if x.shape[1] != self.dim:
            raise ShapeError(f"residual block expects {self.dim} columns, got {x.shape[1]}")
        z1 = x @ self.w1.T
        z1 += self.b1
        a1 = relu(z1)
        z2 = a1 @ self.w2.T
        z2 += self.b2
        y = relu(z2)
        y += x
        return y, (x, z1, a1, z2)

    def backward(self, cache, upstream, out, input_grad):
        x, z1, a1, z2 = cache
        grad_w1, grad_b1, grad_w2, grad_b2 = out
        dz2 = upstream * (z2 > 0)
        np.matmul(dz2.T, a1, out=grad_w2)
        dz2.sum(axis=0, out=grad_b2)
        da1 = dz2 @ self.w2
        dz1 = da1 * (z1 > 0)
        np.matmul(dz1.T, x, out=grad_w1)
        dz1.sum(axis=0, out=grad_b1)
        # the skip path passes upstream through untouched
        return dz1 @ self.w1 + upstream if input_grad else None

    def rectifier_inputs(self, cache) -> tuple:
        _, z1, _, z2 = cache
        return z1, z2


class Conv1D(Layer):
    """Valid (no padding) cross-correlation over the feature axis, stride 1.

    Each row is treated as a length-n signal; outputs of the K kernels are
    concatenated kernel-major, giving K * L_out columns with
    L_out = n - width + 1.
    """

    kind = "conv1d"
    arrays = {"kernels": ("k", "width"), "bias": ("k",)}
    params = {"kernels": True, "bias": False}

    @classmethod
    def init(cls, n_kernels: int, width: int, rng: Rng) -> "Conv1D":
        return cls(he_init(width, n_kernels, rng), np.zeros(n_kernels))

    @property
    def width(self):
        return self.kernels.shape[1]

    @property
    def n_kernels(self):
        return self.kernels.shape[0]

    def output_length(self, n: int) -> int:
        if n < self.width:
            raise ShapeError(f"input length {n} shorter than kernel width {self.width}")
        return n - self.width + 1

    def _windows(self, x):
        self.output_length(x.shape[1])  # ShapeError if a row is shorter than a kernel
        return np.ascontiguousarray(
            np.lib.stride_tricks.sliding_window_view(x, self.width, axis=1))

    def forward(self, x, mode=INFER, rng=None):
        win = self._windows(x)  # [b, L, width]
        y = np.einsum("blw,kw->bkl", win, self.kernels) + self.bias[None, :, None]
        b, k, l = y.shape
        return y.reshape(b, k * l), (x, win, (b, k, l))

    def backward(self, cache, upstream, out, input_grad):
        x, win, (b, k, l) = cache
        grad_kern, grad_bias = out
        dy = upstream.reshape(b, k, l)
        dy.sum(axis=(0, 2), out=grad_bias)
        np.einsum("bkl,blw->kw", dy, win, out=grad_kern)
        if not input_grad:
            return None
        grad_x = np.zeros_like(x)
        dcol = np.einsum("bkl,kw->blw", dy, self.kernels)  # [b, L, width]
        for s in range(self.width):
            grad_x[:, s : s + l] += dcol[:, :, s]
        return grad_x


LAYER_TYPES = {
    cls.kind: cls for cls in (Dense, ReLULayer, BatchNorm, Dropout, ResidualBlock, Conv1D)
}


def layer_from_entry(entry: dict):
    kind = entry.get("type")
    cls = LAYER_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaError(f"unknown layer type {kind!r}")
    return cls.from_entry(entry)

