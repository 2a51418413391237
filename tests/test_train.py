"""Adam, L2, the training loop, metrics, and the gradient-check harness."""

from dataclasses import asdict, fields

import numpy as np
import pytest

from twistnet.data import Dataset, PRODUCT_SIGN, stratified_split, synth_interaction
from twistnet.errors import CapacityError, ConfigError, DataError, ShapeError
from twistnet.featcomb import CombinationSpec, transform_dataset
from twistnet.layers import Dense, ReLULayer
from twistnet.model import (
    HIDDEN1,
    KIND_LOGISTIC,
    ModelConfig,
    ModelGraph,
    build_baseline,
    build_tcn,
    forward,
)
from twistnet.ndcore import Rng
from twistnet.train import (
    ADAM_EPSILON,
    BETA1,
    BETA2,
    CHECK_BATCH_MARGIN,
    CHECK_BATCH_ROWS,
    EARLY_STOP_MIN_DELTA,
    GRAD_CHECK_MAX_PARAMS,
    L2_LAMBDA,
    VAL_FRACTION,
    AdamState,
    TrainConfig,
    adam_step,
    evaluate,
    find_check_batch,
    grad_check_report,
    kink_distance,
    l2_penalty,
    train_loop,
)
from twistnet.layers import TRAIN

from helpers import traced_peak


# ---------------------------------------------------------------------------
# TrainConfig
# ---------------------------------------------------------------------------

def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.learning_rate == 0.001
    assert cfg.batch_size == 10
    assert cfg.max_epochs == 200
    assert cfg.early_stop_patience == 20
    assert [f.name for f in fields(TrainConfig)] == [
        "learning_rate", "batch_size", "max_epochs", "early_stop_patience", "seed"]
    assert L2_LAMBDA == 1e-4
    assert VAL_FRACTION == 0.1
    assert (BETA1, BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)
    cfg.validate()


def test_train_config_validation():
    for bad in (
        TrainConfig(learning_rate=0.0),
        TrainConfig(batch_size=0),
        TrainConfig(max_epochs=0),
        TrainConfig(early_stop_patience=0),
    ):
        with pytest.raises(ValueError):
            bad.validate()


def test_train_config_problems_name_each_broken_rule():
    cfg = TrainConfig(learning_rate=10**400, batch_size=0, early_stop_patience=0)
    assert [p.split(" must")[0] for p in cfg.problems()] == [
        "learning_rate", "batch_size", "early_stop_patience"]
    with pytest.raises(ConfigError, match="; batch_size must be >= 1; early_stop_patience"):
        cfg.validate()
    assert TrainConfig(learning_rate=1).problems() == []


def test_train_config_to_dict_round_trip():
    cfg = TrainConfig(learning_rate=0.01, seed=5)
    d = asdict(cfg)
    assert d["learning_rate"] == 0.01 and d["seed"] == 5
    assert TrainConfig(**d) == cfg


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_first_step_pinned():
    # w=1, g=2, defaults: mhat=2, vhat=4, w <- 1 - 0.001*2/(2+1e-8)
    p = np.array([1.0])
    state = AdamState(p)
    adam_step(p, np.array([2.0]), state, TrainConfig())
    assert abs(p[0] - 0.9990) < 1e-6
    assert state.t == 1


def test_adam_zero_gradient_is_noop():
    p = np.array([3.0, -4.0])
    state = AdamState(p)
    adam_step(p, np.zeros(2), state, TrainConfig())
    assert p.tolist() == [3.0, -4.0]


def test_adam_constant_gradient_step_magnitude_is_lr():
    # with m and v both warmed by the same constant g, the step is
    # lr * g / (|g| + eps), i.e. lr in magnitude, toward lower loss
    cfg = TrainConfig(learning_rate=0.01)
    for g0 in (2.0, -3.0, 0.5):
        p = np.array([1.0])
        state = AdamState(p)
        prev = 1.0
        for _ in range(5):
            adam_step(p, np.array([g0]), state, cfg)
            step = p[0] - prev
            prev = float(p[0])
            assert abs(abs(step) - cfg.learning_rate) < 1e-6
            assert np.sign(step) == -np.sign(g0)


def test_adam_updates_in_place():
    p = np.ones(3)
    state = AdamState(p)
    assert adam_step(p, np.ones(3), state, TrainConfig()) is None
    assert state.t == 1
    assert not np.array_equal(p, np.ones(3))


def test_adam_shape_errors():
    p = np.ones(2)
    state = AdamState(p)
    with pytest.raises(ShapeError):
        adam_step(p, np.ones(4), state, TrainConfig())
    with pytest.raises(ShapeError):
        adam_step(p, np.ones(3), state, TrainConfig())
    with pytest.raises(ShapeError):
        adam_step(np.ones(3), np.ones(3), state, TrainConfig())


def test_adam_bias_correction_matters_early():
    # without correction the first step would be far smaller than lr
    cfg = TrainConfig(learning_rate=0.001)
    p = np.array([0.0])
    adam_step(p, np.array([1e-3]), AdamState(p), cfg)
    # mhat/sqrt(vhat) = g/|g| = 1 regardless of g's tiny size
    assert abs(abs(p[0]) - cfg.learning_rate) < 1e-6


# ---------------------------------------------------------------------------
# L2 penalty
# ---------------------------------------------------------------------------

def test_l2_penalty_weights_only():
    params = np.array([3.0, 4.0, 10.0])  # a 1x2 weight matrix, then a bias
    mask = np.array([True, True, False])
    grad_add = l2_penalty(params, mask)
    assert np.allclose(grad_add[:2], L2_LAMBDA * params[:2])
    assert np.array_equal(grad_add[2:], np.zeros(1))
    assert not np.signbit(l2_penalty(-params, mask)[2])  # exactly +0.0


def test_l2_penalty_zero_lambda(monkeypatch):
    # the strength is read from the module constant at each call
    params, mask = np.ones(4), np.ones(4, dtype=bool)
    monkeypatch.setattr("twistnet.train.L2_LAMBDA", 0.0)
    assert np.array_equal(l2_penalty(params, mask), np.zeros(4))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def sign_dataset(n=40, seed=0):
    r = np.random.default_rng(seed)
    x = (r.uniform(0.5, 1.5, size=n) * r.choice([-1.0, 1.0], size=n)).reshape(n, 1)
    labels = (x[:, 0] > 0).astype(int)
    return Dataset(x, labels, ["neg", "pos"], ["x"])


def test_evaluate_perfect_predictor():
    ds = sign_dataset()
    model = ModelGraph(KIND_LOGISTIC, 1, 2, [Dense([[-100.0], [100.0]], [0.0, 0.0])])
    res = evaluate(model, ds)
    assert res.accuracy == 1.0
    assert res.confusion[0, 1] == 0 and res.confusion[1, 0] == 0
    assert res.confusion.sum() == ds.n_samples


def test_evaluate_trace_identity_and_loss():
    r = np.random.default_rng(1)
    x = np.asarray(r.normal(size=(30, 3)))
    labels = r.integers(0, 2, size=30)
    ds = Dataset(x, labels, ["a", "b"], ["f0", "f1", "f2"])
    model = build_baseline(KIND_LOGISTIC, 3, 2, ModelConfig(seed=1))
    res = evaluate(model, ds)
    assert res.accuracy == np.trace(res.confusion) / res.confusion.sum()
    # independent loss computation
    head = model.layers[0]
    logits = x @ head.weights.T + head.bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    want = -float(np.mean(logp[np.arange(30), labels]))
    assert abs(res.mean_loss - want) < 1e-12


def test_evaluate_uninformative_labels_near_chance():
    r = np.random.default_rng(2)
    x = np.asarray(r.normal(size=(1000, 4)))
    labels = np.asarray(np.repeat(np.arange(4), 250))
    ds = Dataset(x, labels, ["a", "b", "c", "d"], [f"f{i}" for i in range(4)])
    model = build_baseline(KIND_LOGISTIC, 4, 4, ModelConfig(seed=3))
    res = evaluate(model, ds)
    assert abs(res.accuracy - 0.25) < 0.05


def test_evaluate_confusion_counts_each_label_prediction_pair():
    r = np.random.default_rng(4)
    x = np.asarray(r.normal(size=(200, 3)))
    labels = r.integers(0, 3, size=200)
    ds = Dataset(x, labels, ["a", "b", "c"], ["f0", "f1", "f2"])
    model = build_baseline(KIND_LOGISTIC, 3, 3, ModelConfig(seed=2))
    res = evaluate(model, ds)
    preds = np.argmax(x @ model.layers[0].weights.T + model.layers[0].bias, axis=1)
    want = np.zeros((3, 3), dtype=np.int64)
    for label, pred in zip(labels, preds):
        want[label, pred] += 1
    assert res.confusion.dtype == np.int64
    assert np.array_equal(res.confusion, want)


def test_evaluate_holds_only_a_few_activations():
    # no layer cache outlives its layer, so beside the caller's block the
    # pass holds a few hidden-width activations (the residual block's), not
    # one per layer
    n = 5000
    x = np.random.default_rng(6).normal(size=(n, 66))
    ds = Dataset(x, (x[:, 0] > 0).astype(np.int64), ["neg", "pos"],
                 [f"c{i}" for i in range(66)])
    model = build_tcn(66, 2, ModelConfig(seed=0))
    res, peak = traced_peak(evaluate, model, ds)
    assert peak <= 6 * n * HIDDEN1 * 8
    assert res.confusion.sum() == n


def test_evaluate_empty_rejected():
    ds = sign_dataset().take([])
    model = build_baseline(KIND_LOGISTIC, 1, 2, ModelConfig())
    with pytest.raises(ValueError):
        evaluate(model, ds)


# ---------------------------------------------------------------------------
# train_loop
# ---------------------------------------------------------------------------

def test_train_loop_fits_separable_task():
    ds = sign_dataset(80, seed=3)
    model = build_baseline(KIND_LOGISTIC, 1, 2, ModelConfig(seed=0))
    cfg = TrainConfig(learning_rate=0.05, max_epochs=60, batch_size=10, seed=0)
    model, history = train_loop(model, ds, cfg)
    assert evaluate(model, ds).accuracy == 1.0
    assert history.best_epoch >= 1
    assert history.stopped_epoch == len(history.epochs)


def test_train_loop_deterministic():
    ds = sign_dataset(60, seed=4)
    runs = []
    for _ in range(2):
        model = build_baseline(KIND_LOGISTIC, 1, 2, ModelConfig(seed=2))
        model, history = train_loop(model, ds, TrainConfig(max_epochs=8, seed=2))
        runs.append((history.epochs, model.params.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_train_loop_early_stops_without_signal():
    r = np.random.default_rng(5)
    x = np.asarray(r.normal(size=(100, 2)))
    labels = np.asarray(r.integers(0, 2, size=100))  # pure noise
    ds = Dataset(x, labels, ["a", "b"], ["f0", "f1"])
    model = build_baseline(KIND_LOGISTIC, 2, 2, ModelConfig(seed=5))
    cfg = TrainConfig(max_epochs=200, early_stop_patience=3, seed=5)
    model, history = train_loop(model, ds, cfg)
    assert history.stopped_epoch < 200
    assert len(history.epochs) == history.stopped_epoch


def test_train_loop_restores_best_epoch_parameters():
    r = np.random.default_rng(6)
    x = np.asarray(r.normal(size=(100, 2)))
    labels = np.asarray(r.integers(0, 2, size=100))
    ds = Dataset(x, labels, ["a", "b"], ["f0", "f1"])
    model = build_baseline(KIND_LOGISTIC, 2, 2, ModelConfig(seed=6))
    cfg = TrainConfig(learning_rate=0.01, max_epochs=40, early_stop_patience=5, seed=6)
    model, history = train_loop(model, ds, cfg)
    # an early stop, so the restored parameters are not the last epoch's
    assert history.best_epoch < history.stopped_epoch < cfg.max_epochs
    # rebuild the exact validation slice train_loop carved off
    _, val_set, _ = stratified_split(ds, (1.0 - VAL_FRACTION, VAL_FRACTION, 0.0),
                                     Rng(cfg.seed))
    recorded = history.epochs[history.best_epoch - 1].val_loss
    assert abs(evaluate(model, val_set).mean_loss - recorded) < 1e-12
    best = min(e.val_loss for e in history.epochs)
    assert recorded <= best + EARLY_STOP_MIN_DELTA


def test_train_loop_copies_only_the_validation_slice():
    # batches are gathered from the caller's block by index, never from a fit copy
    x = transform_dataset(np.random.default_rng(7).normal(size=(3000, 20)),
                          CombinationSpec(m=3)).values
    labels = (x[:, 0] > 0).astype(np.int64)
    ds = Dataset(x, labels, ["neg", "pos"], [f"c{i}" for i in range(x.shape[1])])
    model = build_tcn(ds.n_features, 2, ModelConfig(seed=0))
    cfg = TrainConfig(batch_size=500, max_epochs=1, seed=0)
    _, peak = traced_peak(train_loop, model, ds, cfg)
    assert peak < 0.75 * x.nbytes


def test_train_loop_holds_one_batch_or_validation_block_at_a_time():
    # each step's batch and cache are freed before the next gather, and the
    # validation rows (300 here, one batch's worth) are gathered only for
    # each epoch's evaluation
    x = np.random.default_rng(7).normal(size=(3000, 1000))
    ds = Dataset(x, (x[:, 0] > 0).astype(np.int64), ["neg", "pos"],
                 [f"c{i}" for i in range(1000)])
    model = build_tcn(ds.n_features, 2, ModelConfig(seed=0))
    cfg = TrainConfig(batch_size=300, max_epochs=2, seed=0)
    _, peak = traced_peak(train_loop, model, ds, cfg)
    assert peak < 3 * cfg.batch_size * x.shape[1] * 8


def test_train_loop_losses_decrease_early():
    ok = 0
    for seed in range(5):
        ds = sign_dataset(80, seed=10 + seed)
        model = build_baseline(KIND_LOGISTIC, 1, 2, ModelConfig(seed=seed))
        cfg = TrainConfig(learning_rate=0.05, max_epochs=5, seed=seed)
        _, history = train_loop(model, ds, cfg)
        losses = [e.train_loss for e in history.epochs]
        if all(b <= a for a, b in zip(losses, losses[1:])):
            ok += 1
    assert ok >= 4


def test_train_loop_input_validation():
    model = build_baseline(KIND_LOGISTIC, 1, 2, ModelConfig())
    with pytest.raises(ValueError):
        train_loop(model, sign_dataset().take([]), TrainConfig())
    one_class = Dataset(np.ones((6, 1)), np.zeros(6, dtype=int), ["only"], ["x"])
    with pytest.raises(ValueError):
        train_loop(model, one_class, TrainConfig())


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def tcn_check_setup(seed=0):
    raw = synth_interaction(200, 6, PRODUCT_SIGN, 0.1, Rng(seed))
    combined = transform_dataset(raw.features, CombinationSpec(m=2)).values
    feats = (combined - combined.mean(axis=0)) / combined.std(axis=0)
    model = build_tcn(feats.shape[1], 2, ModelConfig(seed=seed))
    batch, labels = find_check_batch(model, feats, raw.labels)
    return model, batch, labels


def test_grad_check_logistic_toy_tight():
    r = np.random.default_rng(8)
    model = build_baseline(KIND_LOGISTIC, 4, 3, ModelConfig(seed=8))
    batch = np.asarray(r.normal(size=(8, 4)))
    labels = np.asarray(r.integers(0, 3, size=8))
    overall, _ = grad_check_report(model, batch, labels)
    assert overall < 1e-6


def test_grad_check_full_stack():
    model, batch, labels = tcn_check_setup()
    overall, per_kind = grad_check_report(model, batch, labels)
    assert overall < 1e-4
    assert set(per_kind) == {"dense", "residual", "batchnorm", "relu", "dropout"}
    assert per_kind["relu"] is None and per_kind["dropout"] is None
    for kind in ("dense", "residual", "batchnorm"):
        assert per_kind[kind] is not None and per_kind[kind] < 1e-4


def test_grad_check_detects_corruption():
    model, batch, labels = tcn_check_setup()
    overall, _ = grad_check_report(model, batch, labels, corruption=0.5)
    assert overall > 1e-2


def test_grad_check_leaves_model_untouched():
    model, batch, labels = tcn_check_setup()
    before = model.params.copy()
    stats = [(l.running_mean.copy(), l.running_var.copy())
             for l in model.layers if l.kind == "batchnorm"]
    grad_check_report(model, batch, labels)
    assert np.array_equal(model.params, before)
    for l, (m, v) in zip([l for l in model.layers if l.kind == "batchnorm"], stats):
        assert np.array_equal(l.running_mean, m) and np.array_equal(l.running_var, v)


def test_grad_check_capacity_limit():
    model = build_baseline(KIND_LOGISTIC, 2600, 2, ModelConfig())
    assert model.parameter_count() > GRAD_CHECK_MAX_PARAMS
    with pytest.raises(CapacityError):
        grad_check_report(model, np.ones((2, 2600)), np.array([0, 1]))


def test_kink_distance_reads_preactivations():
    model = ModelGraph("tcn", 1, 1, [Dense([[1.0]], [-2.0]), ReLULayer()])
    _, cache = forward(model, np.array([[2.0], [5.0]]), TRAIN)
    assert kink_distance(model, cache) == 0.0  # 2 - 2 lands exactly on the kink
    model = ModelGraph("tcn", 1, 1, [Dense([[1.0]], [-2.5]), ReLULayer()])
    _, cache = forward(model, np.array([[2.0], [5.0]]), TRAIN)
    assert kink_distance(model, cache) == 0.5


def test_find_check_batch_contract():
    model, _, _ = tcn_check_setup(seed=1)
    raw = synth_interaction(200, 6, PRODUCT_SIGN, 0.1, Rng(1))
    combined = transform_dataset(raw.features, CombinationSpec(m=2)).values
    feats = (combined - combined.mean(axis=0)) / combined.std(axis=0)
    batch, labels = find_check_batch(model, feats, raw.labels)
    assert batch.shape == (CHECK_BATCH_ROWS, feats.shape[1])
    assert labels.shape == (CHECK_BATCH_ROWS,)
    # zero rows through zero biases put every first-layer rectifier input on the kink
    with pytest.raises(DataError, match=f"no batch of {CHECK_BATCH_ROWS} rows keeps "
                                        f"rectifier inputs {CHECK_BATCH_MARGIN} away"):
        find_check_batch(model, np.zeros_like(feats), raw.labels)
