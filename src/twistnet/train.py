"""Optimization and evaluation: Adam, L2 decay, the mini-batch loop with
early stopping, metrics, and an exhaustive finite-difference gradient check."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from . import model as M
from .data import Dataset, stratified_split
from .errors import CapacityError, DataError, ShapeError
from .ndcore import Rng

EARLY_STOP_MIN_DELTA = 1e-6
GRAD_CHECK_MAX_PARAMS = 5000


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 10
    max_epochs: int = 200
    l2_lambda: float = 1e-4
    early_stop_patience: int = 20
    val_fraction: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0
    shuffle_each_epoch: bool = True

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be >= 0")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")


class AdamState:
    """First/second moment accumulators, one pair per parameter block."""

    def __init__(self, params: list[np.ndarray]):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState, cfg: TrainConfig) -> tuple[list[np.ndarray], AdamState]:
    """One Adam update, in place on the parameter arrays.

    t += 1
    m = b1*m + (1-b1)*g          v = b2*v + (1-b2)*g^2
    m_hat = m/(1-b1^t)           v_hat = v/(1-b2^t)
    p -= lr * m_hat / (sqrt(v_hat) + eps)
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params, grads, and Adam state must align")
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + cfg.adam_epsilon)
    return params, state


def l2_penalty(blocks: list[L.ParamBlock], lam: float):
    """(lam/2)*sum(w^2) over weight matrices only; biases and norm scales are exempt."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    penalty = 0.0
    grad_add = []
    for pb in blocks:
        if lam > 0 and pb.l2:
            penalty += 0.5 * lam * float(np.sum(pb.array * pb.array))
            grad_add.append(lam * pb.array)
        else:
            grad_add.append(np.zeros_like(pb.array))
    return penalty, grad_add


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float | None
    val_accuracy: float | None


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0


@dataclass
class EvalResult:
    accuracy: float
    mean_loss: float
    confusion: np.ndarray

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "mean_loss": self.mean_loss,
            "confusion": self.confusion.tolist(),
        }


def evaluate(model: M.ModelGraph, ds: Dataset) -> EvalResult:
    """Inference-mode accuracy, mean cross-entropy, and confusion counts."""
    if ds.n_samples == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    probs, cache = M.forward(model, ds.features, L.INFER)
    loss = M.loss_from_cache(cache, ds.labels)
    preds = np.argmax(probs, axis=1)
    c = model.n_classes
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (ds.labels, preds), 1)
    accuracy = float(np.trace(confusion)) / ds.n_samples
    return EvalResult(accuracy=accuracy, mean_loss=loss, confusion=confusion)


def train_loop(model: M.ModelGraph, train_set: Dataset,
               cfg: TrainConfig) -> tuple[M.ModelGraph, TrainHistory]:
    """Mini-batch Adam with L2 decay and patience-based early stopping.

    A validation slice of ``val_fraction`` is carved off (stratified,
    seeded). Training stops once validation loss has failed to improve by
    at least 1e-6 for ``early_stop_patience`` consecutive epochs, and the
    parameters from the best epoch are restored.
    """
    cfg.validate()
    if train_set.n_samples == 0:
        raise ValueError("training set is empty")
    if np.unique(train_set.labels).size < 2:
        raise ValueError("training set must contain at least 2 classes")

    rng = Rng(cfg.seed)
    if cfg.val_fraction > 0:
        fit_set, val_set, _ = stratified_split(
            train_set, (1.0 - cfg.val_fraction, cfg.val_fraction, 0.0), rng
        )
    else:
        fit_set, val_set = train_set, None

    blocks = model.param_blocks()
    params = [pb.array for pb in blocks]
    state = AdamState(params)
    history = TrainHistory()
    best_val = np.inf
    best_params = [p.copy() for p in params]
    best_epoch = 0
    stale = 0
    n = fit_set.n_samples

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n) if cfg.shuffle_each_epoch else np.arange(n)
        total_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = fit_set.features[idx]
            yb = fit_set.labels[idx]
            _, cache = M.forward(model, xb, L.TRAIN, rng)
            data_loss = M.loss_from_cache(cache, yb)
            grads = M.backward(model, cache, yb)
            _, l2_grads = l2_penalty(blocks, cfg.l2_lambda)
            grads = [g + a for g, a in zip(grads, l2_grads)]
            adam_step(params, grads, state, cfg)
            total_loss += data_loss * len(idx)
        train_loss = total_loss / n

        if val_set is not None:
            val = evaluate(model, val_set)
            record = EpochRecord(epoch, train_loss, val.mean_loss, val.accuracy)
            improved = val.mean_loss < best_val - EARLY_STOP_MIN_DELTA
        else:
            record = EpochRecord(epoch, train_loss, None, None)
            improved = True  # no validation signal: latest parameters are "best"
        history.epochs.append(record)

        if improved:
            best_val = record.val_loss if val_set is not None else np.inf
            best_epoch = epoch
            best_params = [p.copy() for p in params]
            stale = 0
        else:
            stale += 1
        history.stopped_epoch = epoch
        if val_set is not None and stale >= cfg.early_stop_patience:
            break

    for p, saved in zip(params, best_params):
        p[...] = saved
    history.best_epoch = best_epoch
    return model, history


def _loss_only(model: M.ModelGraph, batch, labels) -> float:
    _, cache = M.forward(model, batch, L.TRAIN)
    return M.loss_from_cache(cache, labels)


class _FrozenStochastic:
    """Temporarily zero dropout rates and pin batch-norm running stats, so
    repeated forward passes over one batch are a deterministic function of
    the parameters."""

    def __init__(self, model: M.ModelGraph):
        self.model = model
        self.rates: list = []
        self.stats: list = []

    def __enter__(self):
        for layer in self.model.layers:
            if layer.kind == "dropout":
                self.rates.append((layer, layer.rate))
                layer.rate = 0.0
            elif layer.kind == "batchnorm":
                self.stats.append(
                    (layer, layer.running_mean.copy(), layer.running_var.copy())
                )
        return self

    def __exit__(self, *exc):
        for layer, rate in self.rates:
            layer.rate = rate
        for layer, mean, var in self.stats:
            layer.running_mean[...] = mean
            layer.running_var[...] = var
        return False


def kink_distance(model: M.ModelGraph, cache) -> float:
    """Smallest |pre-activation| over every rectifier in a forward cache.

    Central differences are only trustworthy when this clears the step size:
    a ReLU whose input sits at (or within h of) zero makes the two-sided
    slope disagree with the subgradient the backward pass uses.
    """
    dist = np.inf
    for layer, lc in zip(model.layers, cache["layer_caches"]):
        pre = []
        if layer.kind == "dense" and layer.activation == "relu":
            pre.append(lc[1])
        elif layer.kind == "relu":
            pre.append(lc)
        elif layer.kind == "residual":
            pre.extend((lc[1], lc[3]))
        for z in pre:
            if z.size:
                dist = min(dist, float(np.min(np.abs(z))))
    return dist


def find_check_batch(model: M.ModelGraph, features, labels, size: int = 8,
                     margin: float = 1e-3):
    """First run of ``size`` consecutive rows whose rectifier pre-activations
    all clear ``margin``, giving a differentiable point for grad_check."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    with _FrozenStochastic(model):
        for start in range(0, features.shape[0], size):
            batch = features[start : start + size]
            if batch.shape[0] < 2:
                break
            _, cache = M.forward(model, batch, L.TRAIN)
            if kink_distance(model, cache) > margin:
                return batch, labels[start : start + size]
    raise DataError(
        f"no batch of {size} rows keeps rectifier inputs {margin} away from zero; "
        "the gradient check has no differentiable point to test at"
    )


def grad_check_report(model: M.ModelGraph, batch, labels,
                      h: float | tuple = (1e-5, 1e-4),
                      corruption: float = 0.0):
    """Central-difference check of every parameter against the analytic
    gradient; returns (max_relative_error, per-layer-kind maxima).

    Dropout is disabled for the duration and batch-norm runs in train mode
    on the fixed batch, so both loss evaluations see the same deterministic
    path. Relative error is |a-n| / max(|a|, |n|, 1e-8), or 0 when |a-n|
    is within 4 ulps of the larger loss over 2h: an exactly-zero gradient
    (a bias that a following batch norm cancels) leaves only rounding of
    the loss in n, which the 1e-8 floor would inflate to about 1e-4.

    The difference error is U-shaped in the step size (truncation grows with
    h, cancellation noise with 1/h), and no single h covers both large and
    near-zero gradient entries; when ``h`` is a tuple each entry scores its
    best step. A wrong analytic gradient fails at every step, so detection
    power is kept. ``corruption`` is a test hook that offsets the first
    analytic gradient entry.
    """
    steps = (h,) if isinstance(h, (int, float)) else tuple(h)
    if not steps or any(s <= 0 for s in steps):
        raise ValueError("finite-difference steps must be > 0")
    n_params = model.parameter_count()
    if n_params > GRAD_CHECK_MAX_PARAMS:
        raise CapacityError(
            f"model has {n_params} parameters, gradient check caps at {GRAD_CHECK_MAX_PARAMS}"
        )
    batch = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(labels)

    with _FrozenStochastic(model):
        _, cache = M.forward(model, batch, L.TRAIN)
        analytic = M.backward(model, cache, labels)
        if corruption != 0.0 and analytic:
            analytic[0] = analytic[0].copy()
            analytic[0].flat[0] += corruption

        per_kind: dict[str, float | None] = {layer.kind: None for layer in model.layers}
        overall = 0.0
        block_idx = 0
        for layer in model.layers:
            for pb in layer.param_blocks():
                a = analytic[block_idx].ravel()
                flat = pb.array.ravel()
                worst = 0.0
                for j in range(flat.size):
                    orig = flat[j]
                    err = np.inf
                    for step in steps:
                        flat[j] = orig + step
                        up = _loss_only(model, batch, labels)
                        flat[j] = orig - step
                        down = _loss_only(model, batch, labels)
                        flat[j] = orig
                        numeric = (up - down) / (2.0 * step)
                        diff = abs(a[j] - numeric)
                        if diff <= 4.0 * np.spacing(max(abs(up), abs(down))) / (2.0 * step):
                            rel = 0.0
                        else:
                            rel = diff / max(abs(a[j]), abs(numeric), 1e-8)
                        err = min(err, rel)
                    worst = max(worst, err)
                prev = per_kind[layer.kind]
                per_kind[layer.kind] = worst if prev is None else max(prev, worst)
                overall = max(overall, worst)
                block_idx += 1
        return overall, per_kind
