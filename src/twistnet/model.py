"""Model graphs: the feature-combination network and its baselines.

The main stack takes an already-combined (and normalized) feature block and
runs: feature-transformation dense (relu, width hidden1), a run of
dimension-preserving residual blocks, batch norm, relu, dropout, a dense
refinement (relu, width hidden2), and an identity dense head whose width is
the class count, finished by softmax cross-entropy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import layers as L
from .errors import DataError, SchemaError, ShapeError, StateError
from .featcomb import CombinationSpec
from .ndcore import RNG_ALGORITHM, Rng

KIND_TCN = "tcn"
KIND_LOGISTIC = "logistic"
KIND_MLP = "mlp"
KIND_CNN1D = "cnn1d"
MODEL_KINDS = (KIND_TCN, KIND_LOGISTIC, KIND_MLP, KIND_CNN1D)

CHECKPOINT_FORMAT_KEYS = (
    "kind", "config", "combination", "subsets", "normalization_stats",
    "layers", "rng_algorithm", "seed", "input_dim", "n_classes",
    "feature_names", "class_names", "label_column",
)


@dataclass
class ModelConfig:
    """Architecture hyperparameters; defaults follow the reference stack."""

    hidden1: int = 20
    hidden2: int = 10
    n_residual_blocks: int = 1
    dropout_rate: float = 0.5
    use_batchnorm: bool = True
    seed: int = 0

    def validate(self) -> None:
        if self.hidden1 < 1 or self.hidden2 < 1:
            raise ValueError("hidden widths must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.n_residual_blocks < 0:
            raise ValueError("n_residual_blocks must be >= 0")


@dataclass
class ModelGraph:
    """Ordered layer stack with a single forward/backward contract."""

    kind: str
    input_dim: int
    n_classes: int
    layers: list = field(default_factory=list)

    def param_blocks(self) -> list[L.ParamBlock]:
        blocks = []
        for i, layer in enumerate(self.layers):
            for pb in layer.param_blocks():
                blocks.append(L.ParamBlock(f"layer{i}.{layer.kind}.{pb.name}", pb.array, pb.l2))
        return blocks

    def parameter_count(self) -> int:
        return sum(pb.array.size for pb in self.param_blocks())


def build_tcn(input_dim_after_combination: int, n_classes: int,
              cfg: ModelConfig, rng: Rng | None = None) -> ModelGraph:
    """Assemble the full stack; all weights drawn from cfg.seed by default."""
    cfg.validate()
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if input_dim_after_combination < 1:
        raise ValueError("input dimension must be >= 1")
    rng = rng if rng is not None else Rng(cfg.seed)
    stack: list = [L.Dense.init(input_dim_after_combination, cfg.hidden1, rng, "relu")]
    for _ in range(cfg.n_residual_blocks):
        stack.append(L.ResidualBlock.init(cfg.hidden1, rng))
    if cfg.use_batchnorm:
        stack.append(L.BatchNorm(cfg.hidden1))
    stack.append(L.ReLULayer())
    stack.append(L.Dropout(cfg.dropout_rate))
    stack.append(L.Dense.init(cfg.hidden1, cfg.hidden2, rng, "relu"))
    stack.append(L.Dense.init(cfg.hidden2, n_classes, rng, "identity"))
    return ModelGraph(KIND_TCN, input_dim_after_combination, n_classes, stack)


def build_baseline(kind: str, input_dim: int, n_classes: int,
                   cfg: ModelConfig, rng: Rng | None = None) -> ModelGraph:
    """Comparison models: plain logistic, the same widths without residuals
    or combination, and a small 1-D conv net."""
    cfg.validate()
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    rng = rng if rng is not None else Rng(cfg.seed)
    if kind == KIND_LOGISTIC:
        stack = [L.Dense.init(input_dim, n_classes, rng, "identity")]
    elif kind == KIND_MLP:
        stack = [L.Dense.init(input_dim, cfg.hidden1, rng, "relu")]
        if cfg.use_batchnorm:
            stack.append(L.BatchNorm(cfg.hidden1))
        stack.append(L.ReLULayer())
        stack.append(L.Dropout(cfg.dropout_rate))
        stack.append(L.Dense.init(cfg.hidden1, cfg.hidden2, rng, "relu"))
        stack.append(L.Dense.init(cfg.hidden2, n_classes, rng, "identity"))
    elif kind == KIND_CNN1D:
        width = 3
        if input_dim < width:
            raise ValueError(f"cnn1d needs at least {width} input features, got {input_dim}")
        conv = L.Conv1D.init(8, width, rng)
        flat = conv.n_kernels * conv.output_length(input_dim)
        stack = [conv, L.ReLULayer(),
                 L.Dense.init(flat, cfg.hidden2, rng, "relu"),
                 L.Dense.init(cfg.hidden2, n_classes, rng, "identity")]
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    return ModelGraph(kind, input_dim, n_classes, stack)


def forward(model: ModelGraph, batch, mode: str = L.INFER, rng: Rng | None = None):
    """Run the stack, returning class probabilities and a backward cache."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(
            f"batch shape {x.shape} does not match model input dim {model.input_dim}"
        )
    layer_caches = []
    for layer in model.layers:
        layer_mode = mode
        # single-row batches cannot form batch statistics; fall back to running stats
        if layer.kind == "batchnorm" and mode == L.TRAIN and x.shape[0] < 2:
            layer_mode = L.INFER
        x, cache = layer.forward(x, layer_mode, rng)
        layer_caches.append(cache)
    logits = x
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    full_cache = {"mode": mode, "layer_caches": layer_caches, "logits": logits}
    return probs, full_cache


def backward(model: ModelGraph, cache, labels) -> list[np.ndarray]:
    """Gradient of mean cross-entropy wrt every parameter block, aligned
    with ``model.param_blocks()``. L2 is the trainer's business."""
    if not isinstance(cache, dict) or cache.get("mode") != L.TRAIN:
        raise StateError("backward needs the cache of a train-mode forward pass")
    if len(cache.get("layer_caches", [])) != len(model.layers):
        raise StateError("cache does not match the model's layer stack")
    _, upstream = L.softmax_cross_entropy(cache["logits"], labels)
    grads_per_layer: list[list[np.ndarray]] = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        upstream, grads = model.layers[i].backward(cache["layer_caches"][i], upstream)
        grads_per_layer[i] = grads
    flat: list[np.ndarray] = []
    for grads in grads_per_layer:
        flat.extend(grads)
    return flat


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
class Checkpoint:
    """Everything needed to rebuild the inference pipeline from JSON."""

    model: ModelGraph
    config: ModelConfig
    combination: CombinationSpec | None
    subsets: list[tuple[int, ...]] | None
    norm_mean: np.ndarray | None
    norm_std: np.ndarray | None
    feature_names: list[str]
    class_names: list[str]
    label_column: str
    seed: int


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    doc = {
        "kind": ckpt.model.kind,
        "config": asdict(ckpt.config),
        "combination": asdict(ckpt.combination) if ckpt.combination else None,
        "subsets": [list(s) for s in ckpt.subsets] if ckpt.subsets is not None else None,
        "normalization_stats": (
            {"mean": ckpt.norm_mean.tolist(), "std": ckpt.norm_std.tolist()}
            if ckpt.norm_mean is not None else None
        ),
        "layers": [layer.to_entry() for layer in ckpt.model.layers],
        "rng_algorithm": RNG_ALGORITHM,
        "seed": ckpt.seed,
        "input_dim": ckpt.model.input_dim,
        "n_classes": ckpt.model.n_classes,
        "feature_names": ckpt.feature_names,
        "class_names": ckpt.class_names,
        "label_column": ckpt.label_column,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path) -> Checkpoint:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"checkpoint {path} is not a JSON object")
    missing = [key for key in CHECKPOINT_FORMAT_KEYS if key not in doc]
    if missing:
        raise SchemaError(f"checkpoint {path} is missing keys {missing}")
    stack = [L.layer_from_entry(e) for e in doc["layers"]]
    model = ModelGraph(doc["kind"], doc["input_dim"], doc["n_classes"], stack)
    cfg = ModelConfig(**doc["config"])
    comb = CombinationSpec(**doc["combination"]) if doc["combination"] else None
    subsets = [tuple(s) for s in doc["subsets"]] if doc["subsets"] is not None else None
    stats = doc["normalization_stats"]
    mean = np.array(stats["mean"], dtype=np.float64) if stats else None
    std = np.array(stats["std"], dtype=np.float64) if stats else None
    return Checkpoint(
        model=model, config=cfg, combination=comb, subsets=subsets,
        norm_mean=mean, norm_std=std,
        feature_names=list(doc["feature_names"]),
        class_names=list(doc["class_names"]),
        label_column=doc["label_column"],
        seed=doc["seed"],
    )
