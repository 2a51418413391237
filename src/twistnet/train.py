"""Optimization and evaluation: Adam, L2 decay, the mini-batch loop with
early stopping, metrics, and an exhaustive finite-difference gradient check."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from . import model as M
# stratified_split is unused here; perfbench's binding-site test asserts that
# it is bound in this module (ROADMAP item 1 cuts perfbench loose from that)
from .data import Dataset, split_rows, stratified_split
from .errors import CapacityError, ConfigError, DataError, ShapeError
from .ndcore import Rng

# Adam's moment decays and denominator floor (Kingma & Ba's defaults), the
# L2 strength, and the share of the training rows held out for early stopping
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPSILON = 1e-8
L2_LAMBDA = 1e-4
VAL_FRACTION = 0.1
EARLY_STOP_MIN_DELTA = 1e-6
GRAD_CHECK_MAX_PARAMS = 5000
GRAD_CHECK_STEPS = (1e-5, 1e-4)  # each entry scores its best step; see grad_check_report
CHECK_BATCH_ROWS = 8  # find_check_batch's batch size
CHECK_BATCH_MARGIN = 1e-3  # and the least |rectifier input| it accepts


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 10
    max_epochs: int = 200
    early_stop_patience: int = 20
    seed: int = 0

    def problems(self) -> list[str]:
        """One message per broken range rule."""
        rules = (
            # a Python float bound: only that compares exactly with an int past
            # float range (10**400 < np.inf holds; vs np.finfo's max, it overflows)
            (0 < self.learning_rate <= sys.float_info.max,
             f"learning_rate must be finite and > 0, got {self.learning_rate}"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.max_epochs >= 1, "max_epochs must be >= 1"),
            (self.early_stop_patience >= 1, "early_stop_patience must be >= 1"),
        )
        return [message for ok, message in rules if not ok]

    def validate(self) -> None:
        if problems := self.problems():
            raise ConfigError("; ".join(problems))


class AdamState:
    """First and second moment vectors, aligned with the parameter vector."""

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update, in place on the parameter vector.

    t += 1
    m = b1*m + (1-b1)*g          v = b2*v + (1-b2)*g^2
    m_hat = m/(1-b1^t)           v_hat = v/(1-b2^t)
    p -= lr * m_hat / (sqrt(v_hat) + eps)

    with b1, b2 and eps the module's BETA1, BETA2 and ADAM_EPSILON.
    """
    if not params.shape == grads.shape == state.m.shape:
        raise ShapeError(f"params {params.shape}, grads {grads.shape} and Adam state "
                         f"{state.m.shape} must align")
    state.t += 1
    b1, b2, m, v = BETA1, BETA2, state.m, state.v
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads * grads
    params -= (cfg.learning_rate * (m / (1.0 - b1 ** state.t))
               / (np.sqrt(v / (1.0 - b2 ** state.t)) + ADAM_EPSILON))


def l2_penalty(params: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Gradient of (L2_LAMBDA/2)*sum(w^2) over the entries ``mask`` marks
    (weight matrices; biases and norm scales are exempt), exactly +0.0 on
    the exempt entries."""
    return L2_LAMBDA * np.where(mask, params, 0.0)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float


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
    c = model.n_classes
    if probs.shape[1] != c:
        raise ShapeError(f"model outputs {probs.shape[1]} class scores for {c} classes")
    loss = M.loss_from_cache(cache, ds.labels)
    preds = np.argmax(probs, axis=1)
    confusion = np.bincount(ds.labels * c + preds, minlength=c * c).reshape(c, c)
    accuracy = float(np.trace(confusion)) / ds.n_samples
    return EvalResult(accuracy=accuracy, mean_loss=loss, confusion=confusion)


def train_loop(model: M.ModelGraph, train_set: Dataset,
               cfg: TrainConfig) -> tuple[M.ModelGraph, TrainHistory]:
    """Mini-batch Adam with L2 decay and patience-based early stopping.

    A stratified, seeded validation slice of VAL_FRACTION of the rows is
    held out by index. Nothing is copied up front: each batch is gathered
    from ``train_set`` by its fit-row indices and freed, with its cache,
    before the next is gathered, and the validation rows are gathered at
    each epoch's end for that epoch's evaluation. So at most one batch or
    one validation block sits beside ``train_set``. Training stops once
    validation loss has failed to improve by at least EARLY_STOP_MIN_DELTA
    for ``early_stop_patience`` consecutive epochs, and the parameters from
    the best epoch are restored.
    """
    cfg.validate()
    if np.unique(train_set.labels).size < 2:
        raise ValueError("training set must contain at least 2 classes")

    rng = Rng(cfg.seed)
    fit_rows, val_rows, _ = split_rows(train_set, (1.0 - VAL_FRACTION, VAL_FRACTION, 0.0), rng)
    if val_rows.size == 0:
        raise DataError(f"{train_set.n_samples} training rows leave no validation rows "
                        f"at VAL_FRACTION {VAL_FRACTION}")

    params = model.params
    state = AdamState(params)
    history = TrainHistory()
    best_val = np.inf
    best_params = params.copy()
    best_epoch = 0
    stale = 0
    n = fit_rows.size

    # a diverging run overflows inside the pass; the loss check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            order = rng.permutation(n)
            total_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = fit_rows[order[start : start + cfg.batch_size]]
                xb = train_set.features[idx]
                yb = train_set.labels[idx]
                _, cache = M.forward(model, xb, L.TRAIN, rng)
                data_loss = M.loss_from_cache(cache, yb)
                grads = M.backward(model, cache, yb)
                grads += l2_penalty(params, model.l2_mask)
                adam_step(params, grads, state, cfg)
                total_loss += data_loss * len(idx)
                del xb, cache  # the cache holds the batch too
            train_loss = total_loss / n

            val = evaluate(model, train_set.take(val_rows))
            if not np.isfinite(train_loss) or not np.isfinite(val.mean_loss):
                raise ConfigError(f"training diverged at epoch {epoch}: the loss is not finite "
                                  f"(learning_rate {cfg.learning_rate:g})")
            history.epochs.append(EpochRecord(epoch, train_loss, val.mean_loss, val.accuracy))

            if val.mean_loss < best_val - EARLY_STOP_MIN_DELTA:
                best_val = val.mean_loss
                best_epoch = epoch
                best_params = params.copy()
                stale = 0
            else:
                stale += 1
            history.stopped_epoch = epoch
            if stale >= cfg.early_stop_patience:
                break

    params[...] = best_params
    history.best_epoch = best_epoch
    return model, history


def _loss_only(model: M.ModelGraph, batch, labels) -> float:
    _, cache = M.forward(model, batch, L.TRAIN)
    return M.loss_from_cache(cache, labels)


@contextmanager
def _pinned_running_stats(model: M.ModelGraph):
    """Pin every stored array that is not a parameter (batch-norm running
    stats), so repeated forward passes over one batch are a deterministic
    function of the parameters. Dropout needs no pinning: the passes run
    without an Rng, which makes it the identity."""
    stored = [(getattr(layer, name), getattr(layer, name).copy())
              for layer in model.layers for name in layer.arrays if name not in layer.params]
    try:
        yield
    finally:
        for array, saved in stored:
            array[...] = saved


def kink_distance(model: M.ModelGraph, cache) -> float:
    """Smallest |pre-activation| over every rectifier in a forward cache.

    Central differences are only trustworthy when this clears the step size:
    a ReLU whose input sits at (or within h of) zero makes the two-sided
    slope disagree with the subgradient the backward pass uses.
    """
    dist = np.inf
    for layer, lc in zip(model.layers, cache["layer_caches"]):
        pre = []
        if layer.kind == "relu":
            pre.append(lc)
        elif layer.kind == "residual":
            pre.extend((lc[1], lc[3]))
        for z in pre:
            if z.size:
                dist = min(dist, float(np.min(np.abs(z))))
    return dist


def find_check_batch(model: M.ModelGraph, features, labels):
    """First run of ``CHECK_BATCH_ROWS`` consecutive rows whose rectifier
    pre-activations all clear ``CHECK_BATCH_MARGIN``: a differentiable point."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    size, margin = CHECK_BATCH_ROWS, CHECK_BATCH_MARGIN
    with _pinned_running_stats(model):
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


def grad_check_report(model: M.ModelGraph, batch, labels, corruption: float = 0.0):
    """Central-difference check of every parameter against the analytic
    gradient; returns (max_relative_error, per-layer-kind maxima).

    Every pass runs in train mode without an Rng, so dropout is the identity
    and batch norm runs on the fixed batch, and both loss evaluations see the
    same deterministic path. Relative error is |a-n| / max(|a|, |n|, 1e-8),
    or 0 when |a-n| is within 4 ulps of the larger loss over 2h: an
    exactly-zero gradient (a bias that a following batch norm cancels)
    leaves only rounding of the loss in n, which the 1e-8 floor would
    inflate to about 1e-4.

    The difference error is U-shaped in the step size (truncation grows with
    h, cancellation noise with 1/h), and no single h covers both large and
    near-zero gradient entries, so each entry scores its best step of
    ``GRAD_CHECK_STEPS``. A wrong analytic gradient fails at every step, so
    detection power is kept. ``corruption`` is a test hook that offsets the
    first analytic gradient entry.
    """
    n_params = model.parameter_count()
    if n_params > GRAD_CHECK_MAX_PARAMS:
        raise CapacityError(
            f"model has {n_params} parameters, gradient check caps at {GRAD_CHECK_MAX_PARAMS}"
        )
    batch = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(labels)

    with _pinned_running_stats(model):
        _, cache = M.forward(model, batch, L.TRAIN)
        analytic = M.backward(model, cache, labels)
        if corruption != 0.0 and analytic.size:
            analytic[0] += corruption

        params = model.params
        owners = [layer.kind for layer in model.layers
                  for name in layer.params for _ in range(getattr(layer, name).size)]
        per_kind: dict[str, float | None] = {layer.kind: None for layer in model.layers}
        for j, kind in enumerate(owners):
            orig = params[j]
            err = np.inf
            for step in GRAD_CHECK_STEPS:
                params[j] = orig + step
                up = _loss_only(model, batch, labels)
                params[j] = orig - step
                down = _loss_only(model, batch, labels)
                params[j] = orig
                numeric = (up - down) / (2.0 * step)
                diff = abs(analytic[j] - numeric)
                if diff <= 4.0 * np.spacing(max(abs(up), abs(down))) / (2.0 * step):
                    rel = 0.0
                else:
                    rel = diff / max(abs(analytic[j]), abs(numeric), 1e-8)
                err = min(err, rel)
            per_kind[kind] = max(per_kind[kind] or 0.0, err)
        overall = max((e for e in per_kind.values() if e is not None), default=0.0)
        return overall, per_kind
