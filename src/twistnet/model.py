"""Model graphs: the feature-combination network and its baselines.

The main stack takes an already-combined (and normalized) feature block and
runs: feature-transformation dense (width ``HIDDEN1``) and relu, one
dimension-preserving residual block, batch norm, relu, dropout, a dense
refinement (width ``HIDDEN2``) and relu, and a dense head whose width is the
class count, finished by softmax cross-entropy.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import layers as L
from .errors import (
    ConfigError, DataError, SchemaError, ShapeError, StateError, check_exact, schema_of,
)
from .data import Pipeline, read_text
from .featcomb import CombinationSpec
from .ndcore import RNG_ALGORITHM, SEED_LIMIT, Rng

KIND_TCN = "tcn"
KIND_LOGISTIC = "logistic"
KIND_MLP = "mlp"
KIND_CNN1D = "cnn1d"
MODEL_KINDS = (KIND_TCN, KIND_LOGISTIC, KIND_MLP, KIND_CNN1D)

CHECKPOINT_FORMAT_KEYS = {
    "kind": str, "combination": (dict, type(None)),
    "normalization_stats": dict, "layers": list, "rng_algorithm": str, "seed": int,
    "feature_names": list, "class_names": list, "label_column": str,
}


# the reference stack's shape
HIDDEN1 = 20  # feature-transformation and residual width
HIDDEN2 = 10  # dense refinement width


@dataclass
class ModelConfig:
    """The seed every weight of a built model is drawn from."""

    seed: int = 0


@dataclass
class ModelGraph:
    """Ordered layer stack with a single forward/backward contract.

    The graph owns ``params``, one float64 vector holding every trainable
    array of every layer, in layer order and then each layer's ``params``
    order; on construction each layer's arrays become views into it.
    ``grads`` is the parallel vector ``backward`` writes into, and
    ``layer_grads[i]`` holds layer i's views of it, one per parameter array.
    ``l2_mask`` marks the entries that L2 decay applies to.
    """

    kind: str
    input_dim: int
    n_classes: int
    layers: list = field(default_factory=list)
    params: np.ndarray = field(init=False, repr=False, compare=False)
    grads: np.ndarray = field(init=False, repr=False, compare=False)
    layer_grads: list = field(init=False, repr=False, compare=False)
    l2_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        owned = [(i, layer, name) for i, layer in enumerate(self.layers) for name in layer.params]
        arrays = [getattr(layer, name) for _, layer, name in owned]
        self.params = np.concatenate([np.zeros(0), *(a.ravel() for a in arrays)])
        self.grads = np.zeros_like(self.params)
        self.layer_grads = [[] for _ in self.layers]
        self.l2_mask = np.repeat(np.array([layer.params[name] for _, layer, name in owned], bool),
                                 [a.size for a in arrays])
        start = 0
        for (i, layer, name), a in zip(owned, arrays):
            end = start + a.size
            setattr(layer, name, self.params[start:end].reshape(a.shape))
            self.layer_grads[i].append(self.grads[start:end].reshape(a.shape))
            start = end

    def parameter_count(self) -> int:
        return self.params.size


def _reference_stack(input_dim: int, n_classes: int, rng: Rng, residual: bool) -> list:
    """The TCN's layers, weights drawn in stack order; the mlp baseline is
    the same stack without its residual block."""
    if input_dim < 1:
        raise ValueError("input dimension must be >= 1")
    stack = [L.Dense.init(input_dim, HIDDEN1, rng), L.ReLULayer()]
    if residual:
        stack.append(L.ResidualBlock.init(HIDDEN1, rng))
    return stack + [L.BatchNorm.init(HIDDEN1), L.ReLULayer(), L.Dropout(),
                    L.Dense.init(HIDDEN1, HIDDEN2, rng), L.ReLULayer(),
                    L.Dense.init(HIDDEN2, n_classes, rng)]


def build_tcn(input_dim_after_combination: int, n_classes: int, cfg: ModelConfig) -> ModelGraph:
    """Assemble the reference stack, all weights drawn from ``Rng(cfg.seed)``."""
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    stack = _reference_stack(input_dim_after_combination, n_classes, Rng(cfg.seed), residual=True)
    return ModelGraph(KIND_TCN, input_dim_after_combination, n_classes, stack)


def build_baseline(kind: str, input_dim: int, n_classes: int, cfg: ModelConfig) -> ModelGraph:
    """Comparison models: plain logistic, the reference stack without its
    residual block or combination, and a small 1-D conv net; all weights
    drawn from ``Rng(cfg.seed)``."""
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    rng = Rng(cfg.seed)
    if kind == KIND_LOGISTIC:
        stack = [L.Dense.init(input_dim, n_classes, rng)]
    elif kind == KIND_MLP:
        stack = _reference_stack(input_dim, n_classes, rng, residual=False)
    elif kind == KIND_CNN1D:
        width = 3
        if input_dim < width:
            raise ConfigError(f"cnn1d needs at least {width} input features, got {input_dim}")
        conv = L.Conv1D.init(8, width, rng)
        flat = conv.n_kernels * conv.output_length(input_dim)
        stack = [conv, L.ReLULayer(), L.Dense.init(flat, HIDDEN2, rng), L.ReLULayer(),
                 L.Dense.init(HIDDEN2, n_classes, rng)]
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    return ModelGraph(kind, input_dim, n_classes, stack)


def forward(model: ModelGraph, batch, mode: str = L.INFER, rng: Rng | None = None):
    """Run the stack, returning class probabilities and a cache.

    In TRAIN mode the probabilities are None: the loss and its gradient come
    from the cache's ``logits`` (``loss_from_cache``, ``backward``). Layer
    caches are kept only in TRAIN mode; in INFER mode each is dropped before
    the next layer runs, so the cache holds only ``logits`` and only one
    layer's arrays are alive at a time."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(
            f"batch shape {x.shape} does not match model input dim {model.input_dim}"
        )
    layer_caches = []
    for layer in model.layers:
        x, cache = layer.forward(x, mode, rng)
        if mode == L.TRAIN:
            layer_caches.append(cache)
        del cache
    full_cache = {"mode": mode, "layer_caches": layer_caches, "logits": x}
    if mode == L.TRAIN:
        return None, full_cache
    shifted = x - x.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True), full_cache


def backward(model: ModelGraph, cache, labels) -> np.ndarray:
    """Gradient of mean cross-entropy, written into and returned as
    ``model.grads``, which the next call overwrites: copy it to keep it. L2
    is the trainer's business. The first layer's input gradient, the
    batch's own, is never computed."""
    if not isinstance(cache, dict) or cache.get("mode") != L.TRAIN:
        raise StateError("backward needs the cache of a train-mode forward pass")
    if len(cache.get("layer_caches", [])) != len(model.layers):
        raise StateError("cache does not match the model's layer stack")
    _, upstream = L.softmax_cross_entropy(cache["logits"], labels)
    for i in reversed(range(len(model.layers))):
        upstream = model.layers[i].backward(cache["layer_caches"][i], upstream,
                                            model.layer_grads[i], i > 0)
    return model.grads


def loss_from_cache(cache, labels) -> float:
    loss, _ = L.softmax_cross_entropy(cache["logits"], labels)
    return loss


def predict(model: ModelGraph, batch) -> np.ndarray:
    """Row-wise argmax of inference probabilities; ties go to the lowest class."""
    probs, _ = forward(model, batch, L.INFER)
    return np.argmax(probs, axis=1)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint(Pipeline):
    """A fitted pipeline and the model it feeds: everything ``eval`` needs."""

    model: ModelGraph
    config: ModelConfig | None  # what train built from; None after a load
    seed: int


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` as strict JSON, each fact once: the layer list is the
    model, and the subsets, input width and class count are derived again
    at load."""
    doc = {
        "kind": ckpt.model.kind,
        "combination": asdict(ckpt.combination) if ckpt.combination else None,
        "normalization_stats": {"mean": ckpt.norm_mean.tolist(), "std": ckpt.norm_std.tolist()},
        "layers": [layer.to_entry() for layer in ckpt.model.layers],
        "rng_algorithm": RNG_ALGORITHM,
        "seed": ckpt.seed,
        "feature_names": ckpt.feature_names,
        "class_names": ckpt.class_names,
        "label_column": ckpt.label_column,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def load_checkpoint(path) -> Checkpoint:
    """Rebuild a checkpoint; SchemaError naming the problem if a key at any
    level is unknown, missing or of the wrong type, or if keys disagree."""
    text = read_text(path)
    try:
        doc = json.loads(text)
    except ValueError as exc:  # not JSON, or an integer past int()'s digit limit
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from None
    check_exact(doc, CHECKPOINT_FORMAT_KEYS, f"checkpoint {path}")
    if doc["kind"] not in MODEL_KINDS:
        raise SchemaError(f"checkpoint 'kind' must be one of {list(MODEL_KINDS)}, "
                          f"got {doc['kind']!r}")
    comb, stats = doc["combination"], doc["normalization_stats"]
    if comb is not None:
        check_exact(comb, schema_of(CombinationSpec), "checkpoint 'combination'")
    check_exact(stats, {"mean": list, "std": list}, "checkpoint 'normalization_stats'")
    if not all(isinstance(e, dict) for e in doc["layers"]):
        raise SchemaError(f"checkpoint {path}: 'layers' must be a list of objects")
    for key in ("feature_names", "class_names"):
        names = doc[key]
        if not all(isinstance(n, str) for n in names) or len(set(names)) < len(names):
            raise SchemaError(f"checkpoint {path}: '{key}' must list distinct strings")
    if not 0 <= doc["seed"] < SEED_LIMIT:
        raise SchemaError(f"checkpoint {path}: 'seed' must be in [0, 2**64), got {doc['seed']}")
    stack = [L.layer_from_entry(e) for e in doc["layers"]]

    def numbers(values):  # NaN for a non-number or an int past float range; check() names it
        return np.array([v if type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max)
                         else np.nan for v in values], float)

    class_names = list(doc["class_names"])
    ckpt = Checkpoint(
        model=ModelGraph(doc["kind"], len(stats["mean"]), len(class_names), stack),
        config=None,
        combination=CombinationSpec(**comb) if comb is not None else None,
        subsets=None,
        norm_mean=numbers(stats["mean"]), norm_std=numbers(stats["std"]),
        feature_names=list(doc["feature_names"]), class_names=class_names,
        label_column=doc["label_column"], seed=doc["seed"],
    )
    try:
        ckpt.check()
    except DataError as exc:
        raise SchemaError(f"checkpoint {path}: {exc}") from None
    return ckpt
