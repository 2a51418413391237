"""Model assembly, forward/backward, prediction, and checkpoint round trips."""

import json

import numpy as np
import pytest

from twistnet.data import PRODUCT_SIGN, synth_interaction
from twistnet.errors import ShapeError, StateError
from twistnet.featcomb import (
    MULTIPLICATIVE,
    PAIRWISE_SUM,
    CombinationSpec,
    transform_dataset,
)
from twistnet.layers import (
    INFER,
    TRAIN,
    BatchNorm,
    Dense,
    Dropout,
    ReLULayer,
    ResidualBlock,
    softmax_cross_entropy,
)
from twistnet.model import (
    CHECKPOINT_FORMAT_KEYS,
    HIDDEN1,
    HIDDEN2,
    KIND_CNN1D,
    KIND_LOGISTIC,
    KIND_MLP,
    KIND_TCN,
    MODEL_KINDS,
    Checkpoint,
    ModelConfig,
    ModelGraph,
    backward,
    build_baseline,
    build_tcn,
    forward,
    load_checkpoint,
    loss_from_cache,
    predict,
    save_checkpoint,
)
from twistnet.ndcore import Rng
from twistnet.train import TrainConfig, train_loop

from helpers import grad_buffers, rel_err, softmax_rows


def toy_model(input_dim=3, n_classes=2, seed=0):
    """The reference stack's layers at widths 4 and 3, small enough for an
    exhaustive finite-difference check; a train-mode pass without an Rng
    runs it without dropout."""
    rng = Rng(seed)
    return ModelGraph(KIND_TCN, input_dim, n_classes, [
        Dense.init(input_dim, 4, rng), ReLULayer(), ResidualBlock.init(4, rng),
        BatchNorm.init(4), ReLULayer(), Dropout(), Dense.init(4, 3, rng), ReLULayer(),
        Dense.init(3, n_classes, rng),
    ])


# ---------------------------------------------------------------------------
# assembly and parameter accounting
# ---------------------------------------------------------------------------

def test_default_stack_parameter_count():
    # 6*20+20 dense, 2*(20*20+20) residual, 2*20 batchnorm, 20*10+10, 10*3+3
    model = build_tcn(6, 3, ModelConfig())
    want = (6 * 20 + 20) + 2 * (20 * 20 + 20) + 2 * 20 + (20 * 10 + 10) + (10 * 3 + 3)
    assert want == 1263
    assert model.parameter_count() == want


def test_default_stack_layer_order():
    model = build_tcn(6, 3, ModelConfig())
    kinds = [layer.kind for layer in model.layers]
    assert kinds == ["dense", "relu", "residual", "batchnorm", "relu", "dropout",
                     "dense", "relu", "dense"]
    assert model.layers[0].weights.shape == (HIDDEN1, 6)
    assert model.layers[2].w1.shape == (HIDDEN1, HIDDEN1)
    assert model.layers[6].weights.shape == (HIDDEN2, HIDDEN1)
    assert model.layers[-1].weights.shape == (3, HIDDEN2)
    # no layer stores a setting: the rectifiers are layers, the rate a constant
    assert all(set(layer.to_entry()) == {"type", "shape", "values"} for layer in model.layers)


def test_same_seed_builds_identical_parameters():
    a = build_tcn(6, 3, ModelConfig(seed=11))
    b = build_tcn(6, 3, ModelConfig(seed=11))
    assert np.array_equal(a.l2_mask, b.l2_mask)
    assert np.array_equal(a.params, b.params)
    c = build_tcn(6, 3, ModelConfig(seed=12))
    assert not np.array_equal(a.params, c.params)


def test_logistic_baseline_parameter_count():
    model = build_baseline(KIND_LOGISTIC, 4, 3, ModelConfig())
    assert model.parameter_count() == 4 * 3 + 3
    assert [layer.kind for layer in model.layers] == ["dense"]


def test_cnn1d_baseline():
    model = build_baseline(KIND_CNN1D, 10, 2, ModelConfig())
    assert model.layers[0].kind == "conv1d"
    probs, _ = forward(model, np.zeros((3, 10)))
    assert probs.shape == (3, 2)
    with pytest.raises(ValueError):
        build_baseline(KIND_CNN1D, 2, 2, ModelConfig())


def test_mlp_baseline_and_unknown_kind():
    model = build_baseline(KIND_MLP, 5, 2, ModelConfig())
    kinds = [layer.kind for layer in model.layers]
    assert kinds == ["dense", "relu", "batchnorm", "relu", "dropout", "dense", "relu", "dense"]
    with pytest.raises(ValueError):
        build_baseline("forest", 5, 2, ModelConfig())
    assert set(MODEL_KINDS) == {KIND_TCN, KIND_LOGISTIC, KIND_MLP, KIND_CNN1D}


def test_config_validation():
    with pytest.raises(ValueError):
        build_tcn(5, 1, ModelConfig())
    with pytest.raises(ValueError):
        build_tcn(0, 2, ModelConfig())


L2_ARRAYS = ("weights", "w1", "w2", "kernels")


def expected_l2_mask(model):
    return np.concatenate([np.full(getattr(layer, name).size, name in L2_ARRAYS)
                           for layer in model.layers for name in layer.params])


def test_param_block_names_are_addressable():
    model = toy_model()
    first = model.layers[0].weights
    assert np.shares_memory(model.params[: first.size], first)
    # weight matrices carry L2, biases and norm parameters do not
    assert np.array_equal(model.l2_mask, expected_l2_mask(model))


def every_graph(tmp_path):
    """Each way a ModelGraph is made: both builders, every baseline kind, a load."""
    cfg = ModelConfig(seed=0)
    graphs = [build_tcn(6, 3, cfg)]
    graphs += [build_baseline(kind, 6, 3, cfg) for kind in (KIND_LOGISTIC, KIND_MLP, KIND_CNN1D)]
    _, path = make_checkpoint(tmp_path)
    return graphs + [load_checkpoint(path).model]


def test_every_param_array_is_a_view_of_model_params(tmp_path):
    for model in every_graph(tmp_path):
        arrays = [getattr(layer, name) for layer in model.layers for name in layer.params]
        assert all(np.shares_memory(a, model.params) for a in arrays)
        assert model.params.size == sum(a.size for a in arrays) == model.parameter_count()
        assert np.array_equal(model.l2_mask, expected_l2_mask(model))
        model.params[:] = np.arange(model.params.size)
        written = []
        for layer in model.layers:
            entry = layer.to_entry()
            names = list(layer.arrays)
            written += [np.ravel(entry["values"][names.index(n)]) for n in layer.params]
        assert np.array_equal(np.concatenate(written), np.arange(model.params.size))


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def test_forward_probability_rows():
    model = toy_model()
    x = np.asarray(np.random.default_rng(0).normal(size=(7, 3)))
    probs, cache = forward(model, x, INFER)
    assert probs.shape == (7, 2)
    assert np.all(probs > 0)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
    again, _ = forward(model, x, INFER)
    assert np.array_equal(probs, again)


def test_forward_train_differs_from_infer():
    model = toy_model()
    x = np.asarray(np.random.default_rng(1).normal(size=(6, 3)))
    infer_probs, _ = forward(model, x, INFER)
    train_probs, cache = forward(model, x, TRAIN, Rng(0))
    assert train_probs is None  # train mode computes no probabilities
    assert not np.allclose(infer_probs, softmax_rows(cache["logits"]))


def test_forward_single_row_train_falls_back_to_running_stats():
    model = toy_model()
    probs, cache = forward(model, np.ones((1, 3)), TRAIN, Rng(0))
    assert probs is None and softmax_rows(cache["logits"]).shape == (1, 2)


def test_forward_shape_check():
    model = toy_model()
    with pytest.raises(ShapeError):
        forward(model, np.ones((2, 5)))


def test_backward_requires_train_cache():
    model = toy_model()
    x = np.ones((4, 3))
    probs, cache = forward(model, x, INFER)
    # an inference cache keeps no layer's cache, only the logits
    assert cache["layer_caches"] == []
    assert np.array_equal(probs, softmax_rows(cache["logits"]))
    with pytest.raises(StateError):
        backward(model, cache, np.zeros(4, dtype=int))
    _, cache = forward(model, x, TRAIN, Rng(0))
    cache["layer_caches"] = cache["layer_caches"][:-1]
    with pytest.raises(StateError):
        backward(model, cache, np.zeros(4, dtype=int))


def test_backward_grads_align_with_param_blocks():
    model = toy_model()
    x = np.asarray(np.random.default_rng(2).normal(size=(5, 3)))
    y = np.array([0, 1, 0, 1, 1])
    _, cache = forward(model, x, TRAIN, Rng(0))
    grads = backward(model, cache, y)
    assert grads.shape == model.params.shape
    # the head's bias comes last in the vector and its gradient sums to zero
    head = model.layers[-1]
    assert np.shares_memory(model.params[-head.bias.size :], head.bias)
    assert abs(grads[-head.bias.size :].sum()) < 1e-12


def test_backward_invariant_to_batch_duplication():
    # mean loss over [x; x] equals mean loss over x, so gradients match too
    model = toy_model()
    r = np.random.default_rng(3)
    x = np.asarray(r.normal(size=(4, 3)))
    y = np.array([0, 1, 1, 0])
    _, cache1 = forward(model, x, TRAIN)
    g1 = backward(model, cache1, y).copy()  # the next backward overwrites model.grads
    loss1 = loss_from_cache(cache1, y)
    x2 = np.vstack([x, x])
    y2 = np.concatenate([y, y])
    _, cache2 = forward(model, x2, TRAIN)
    g2 = backward(model, cache2, y2)
    loss2 = loss_from_cache(cache2, y2)
    assert abs(loss1 - loss2) < 1e-12
    assert np.max(np.abs(g1 - g2)) < 1e-12


@pytest.mark.parametrize("kind", [KIND_TCN, KIND_CNN1D])
def test_backward_skips_only_the_first_input_gradient(kind, monkeypatch):
    # the first layer's input gradient is d(loss)/d(batch), which nothing reads
    model = (toy_model(input_dim=6) if kind == KIND_TCN
             else build_baseline(KIND_CNN1D, 6, 2, ModelConfig()))
    r = np.random.default_rng(7)
    x = np.asarray(r.normal(size=(5, 6)))
    y = np.array([0, 1, 0, 1, 1])
    _, cache = forward(model, x, TRAIN, Rng(0))
    _, upstream = softmax_cross_entropy(cache["logits"], y)
    pieces = []
    for layer, layer_cache in reversed(list(zip(model.layers, cache["layer_caches"]))):
        grads = grad_buffers(layer)
        upstream = layer.backward(layer_cache, upstream, grads, True)
        pieces[:0] = [g.ravel() for g in grads]
    seen = []
    for cls in {type(layer) for layer in model.layers}:
        def record(self, layer_cache, upstream, out, input_grad, _orig=cls.backward):
            seen.append((self, input_grad))
            return _orig(self, layer_cache, upstream, out, input_grad)
        monkeypatch.setattr(cls, "backward", record)
    got = backward(model, cache, y)
    assert seen == [(layer, i > 0) for i, layer in reversed(list(enumerate(model.layers)))]
    assert np.array_equal(got, np.concatenate(pieces))


def layerwise_gradients(model, cache, labels):
    """Each layer's own backward, into fresh arrays, joined in params order."""
    _, upstream = softmax_cross_entropy(cache["logits"], labels)
    pieces = []
    for layer, layer_cache in reversed(list(zip(model.layers, cache["layer_caches"]))):
        grads = grad_buffers(layer)
        upstream = layer.backward(layer_cache, upstream, grads, True)
        pieces[:0] = [g.ravel() for g in grads]
    return np.concatenate(pieces)


@pytest.mark.parametrize("kind", [KIND_TCN, KIND_MLP, KIND_LOGISTIC, KIND_CNN1D])
def test_backward_writes_model_grads_in_place(kind):
    model = (toy_model(input_dim=6) if kind == KIND_TCN
             else build_baseline(kind, 6, 2, ModelConfig(seed=0)))
    r = np.random.default_rng(8)
    y = np.array([0, 1, 0, 1, 1])
    _, cache = forward(model, r.normal(size=(5, 6)), TRAIN, Rng(0))
    first = layerwise_gradients(model, cache, y)
    assert backward(model, cache, y) is model.grads
    assert model.grads.tobytes() == first.tobytes()
    # a second call overwrites every entry of the same buffer
    _, cache = forward(model, r.normal(size=(5, 6)), TRAIN, Rng(1))
    second = layerwise_gradients(model, cache, y)
    assert not np.array_equal(first, second)
    model.grads.fill(np.nan)
    assert backward(model, cache, y) is model.grads
    assert model.grads.tobytes() == second.tobytes()


def test_full_stack_gradient_matches_finite_differences():
    # exhaustive slope check over every parameter of a small complete stack
    model = toy_model(input_dim=3, n_classes=2, seed=4)
    r = np.random.default_rng(4)
    # nudge every parameter off the zero-init point: fresh biases put some
    # pre-activations exactly on the relu kink, where slopes are one-sided
    model.params += 0.05 * r.normal(size=model.params.size)
    x = np.asarray(r.normal(size=(6, 3)))
    y = np.array([0, 1, 0, 1, 1, 0])

    _, cache = forward(model, x, TRAIN)
    analytic = backward(model, cache, y)

    h = 1e-5
    worst = 0.0
    flat = model.params
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        _, cp = forward(model, x, TRAIN)
        lp = loss_from_cache(cp, y)
        flat[i] = orig - h
        _, cm = forward(model, x, TRAIN)
        lm = loss_from_cache(cm, y)
        flat[i] = orig
        numeric = (lp - lm) / (2.0 * h)
        worst = max(worst, abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8))
    assert worst < 1e-4


def test_predict_tie_breaks_to_lowest_class():
    model = build_baseline(KIND_LOGISTIC, 2, 3, ModelConfig())
    head = model.layers[0]
    head.weights[...] = 0.0
    head.bias[...] = 0.0
    preds = predict(model, np.asarray(np.random.default_rng(5).normal(size=(6, 2))))
    assert preds.tolist() == [0] * 6


def test_predict_invariant_to_uniform_logit_shift():
    model = build_baseline(KIND_LOGISTIC, 3, 3, ModelConfig(seed=6))
    x = np.asarray(np.random.default_rng(6).normal(size=(20, 3)))
    before = predict(model, x)
    model.layers[0].bias += 42.0  # same shift for every class
    after = predict(model, x)
    assert np.array_equal(before, after)


# ---------------------------------------------------------------------------
# the two m=2 approaches train to the same model
# ---------------------------------------------------------------------------

def test_m2_approaches_train_bit_identical_models():
    raw = synth_interaction(60, 4, PRODUCT_SIGN, 0.1, Rng(0))
    cfg = TrainConfig(max_epochs=3, batch_size=10, seed=0)
    results = []
    for approach in (MULTIPLICATIVE, PAIRWISE_SUM):
        combined = transform_dataset(raw.features, CombinationSpec(m=2, approach=approach))
        ds = type(raw)(combined.values, raw.labels, raw.class_names,
                       [f"c{i}" for i in range(combined.values.shape[1])])
        model = toy_model(input_dim=combined.values.shape[1], seed=1)
        model, _ = train_loop(model, ds, cfg)
        results.append(model.params.copy())
    assert np.array_equal(results[0], results[1])


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def make_checkpoint(tmp_path):
    comb = CombinationSpec(m=2)
    model = toy_model(input_dim=6, n_classes=2, seed=7)
    ckpt = Checkpoint(
        model=model,
        config=ModelConfig(seed=7),
        combination=comb,
        subsets=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        norm_mean=np.array([0.5, -0.5, 0.0, 1.0, 0.25, -1.0]),
        norm_std=np.array([1.0, 2.0, 0.5, 1.5, 0.75, 3.0]),
        feature_names=["x0", "x1", "x2", "x3"],
        class_names=["neg", "pos"],
        label_column="label",
        seed=7,
    )
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, ckpt)
    return ckpt, path


def test_checkpoint_schema_keys(tmp_path):
    _, path = make_checkpoint(tmp_path)
    doc = json.loads(path.read_text())
    for key in CHECKPOINT_FORMAT_KEYS:
        assert key in doc
    assert doc["rng_algorithm"] == "splitmix64"
    assert doc["kind"] == "tcn"


def test_checkpoint_roundtrip_bit_stable_inference(tmp_path):
    ckpt, path = make_checkpoint(tmp_path)
    back = load_checkpoint(path)
    x = np.asarray(np.random.default_rng(8).normal(size=(5, 6)))
    a, _ = forward(ckpt.model, x, INFER)
    b, _ = forward(back.model, x, INFER)
    assert np.array_equal(a, b)


def test_checkpoint_roundtrip_metadata(tmp_path):
    ckpt, path = make_checkpoint(tmp_path)
    back = load_checkpoint(path)
    assert back.combination == ckpt.combination
    assert back.subsets is None  # derived from the combination, never stored
    assert np.array_equal(back.norm_mean, ckpt.norm_mean)
    assert np.array_equal(back.norm_std, ckpt.norm_std)
    assert back.feature_names == ckpt.feature_names
    assert back.class_names == ckpt.class_names
    assert back.label_column == "label"
    assert back.seed == 7
    assert back.config is None  # the layer list is the model; no config copy is stored
    assert back.model.parameter_count() == ckpt.model.parameter_count()


def test_checkpoint_double_roundtrip_identical_bytes(tmp_path):
    ckpt, path = make_checkpoint(tmp_path)
    back = load_checkpoint(path)
    path2 = tmp_path / "again.ckpt.json"
    save_checkpoint(path2, back)
    assert path2.read_text() == path.read_text()


def test_save_checkpoint_writes_only_strict_json(tmp_path):
    ckpt, _ = make_checkpoint(tmp_path)
    ckpt.norm_std[0] = np.inf
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "never.json", ckpt)
    assert not (tmp_path / "never.json").exists()
