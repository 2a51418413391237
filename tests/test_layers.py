"""Layer forward/backward contracts, checked against pinned values and slopes."""

import numpy as np
import pytest

from twistnet.errors import SchemaError, ShapeError
from twistnet.layers import (
    INFER,
    LAYER_TYPES,
    TRAIN,
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    ReLULayer,
    ResidualBlock,
    he_init,
    layer_from_entry,
    relu,
    relu_backward,
    softmax_cross_entropy,
)
from twistnet.ndcore import Rng

from helpers import (
    batchnorm_moments_reference,
    dropout_reference,
    fd_wrt,
    rel_err,
    softmax_cross_entropy_reference,
)


# ---------------------------------------------------------------------------
# relu and he initialization
# ---------------------------------------------------------------------------

def test_relu_values():
    assert relu(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]


def test_relu_backward_subgradient_zero_at_kink():
    x = np.array([-1.0, 0.0, 2.0])
    up = np.array([5.0, 5.0, 5.0])
    assert relu_backward(x, up).tolist() == [0.0, 0.0, 5.0]


def test_he_init_shape_and_stats():
    w = he_init(100, 200, Rng(0))
    assert w.shape == (200, 100)
    assert abs(w.mean()) < 0.01
    assert abs(w.std() - np.sqrt(2.0 / 100)) < 0.01


def test_he_init_deterministic():
    assert np.array_equal(he_init(5, 4, Rng(3)), he_init(5, 4, Rng(3)))


def test_he_init_rejects_bad_fans():
    with pytest.raises(ValueError):
        he_init(0, 3, Rng(0))
    with pytest.raises(ValueError):
        he_init(3, 0, Rng(0))


# ---------------------------------------------------------------------------
# Dense
# ---------------------------------------------------------------------------

def test_dense_identity_matches_matmul():
    layer = Dense(np.array([[3.0, 4.0]]), np.array([0.0]), "identity")
    y, _ = layer.forward(np.array([[1.0, 2.0]]))
    assert y.tolist() == [[11.0]]


def test_dense_relu_clamps():
    layer = Dense(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, -5.0]), "relu")
    y, _ = layer.forward(np.array([[2.0, 3.0]]))
    assert y.tolist() == [[2.0, 0.0]]


def test_dense_matches_numpy_affine():
    r = np.random.default_rng(0)
    w = r.normal(size=(4, 6))
    b = r.normal(size=4)
    x = r.normal(size=(7, 6))
    layer = Dense(w, b, "identity")
    y, _ = layer.forward(x)
    assert np.max(np.abs(y - (x @ w.T + b))) < 1e-12


def test_dense_validation():
    with pytest.raises(ValueError):
        Dense(np.ones((2, 3)), np.zeros(2), "softplus")
    with pytest.raises(ShapeError):
        Dense(np.ones((2, 3)), np.zeros(3), "relu")
    layer = Dense(np.ones((2, 3)), np.zeros(2), "relu")
    with pytest.raises(ShapeError):
        layer.forward(np.ones((1, 4)))


def test_dense_gradients_match_finite_differences():
    r = np.random.default_rng(1)
    for activation in ("relu", "identity"):
        layer = Dense(r.normal(size=(3, 5)), r.normal(size=3), activation)
        x = np.asarray(r.normal(size=(4, 5)))
        c = r.normal(size=(4, 3))

        def loss():
            y, _ = layer.forward(x)
            return float(np.sum(c * y))

        y, cache = layer.forward(x)
        grad_x, (grad_w, grad_b) = layer.backward(cache, c)
        assert rel_err(grad_w, fd_wrt(layer.weights, loss)) < 1e-7
        assert rel_err(grad_b, fd_wrt(layer.bias, loss)) < 1e-7
        assert rel_err(grad_x, fd_wrt(x, loss)) < 1e-7


def test_dense_entry_roundtrip():
    layer = Dense(np.array([[1.5, -2.0]]), np.array([0.25]), "identity")
    clone = Dense.from_entry(layer.to_entry())
    assert np.array_equal(clone.weights, layer.weights)
    assert np.array_equal(clone.bias, layer.bias)
    assert clone.activation == "identity"


def test_relu_layer_forward_backward():
    layer = ReLULayer()
    x = np.array([[-1.0, 2.0]])
    y, cache = layer.forward(x)
    assert y.tolist() == [[0.0, 2.0]]
    grad_x, grads = layer.backward(cache, np.array([[3.0, 3.0]]))
    assert grad_x.tolist() == [[0.0, 3.0]]
    assert grads == []
    assert layer.params == {}


# ---------------------------------------------------------------------------
# BatchNorm
# ---------------------------------------------------------------------------

def test_batchnorm_two_point_column():
    bn = BatchNorm.init(1)
    y, _ = bn.forward(np.array([[1.0], [3.0]]), TRAIN)
    assert np.allclose(y, [[-1.0], [1.0]], atol=1e-4)


def test_batchnorm_constant_column_maps_to_beta():
    bn = BatchNorm.init(1)
    y, _ = bn.forward(np.array([[5.0], [5.0], [5.0]]), TRAIN)
    assert np.allclose(y, 0.0, atol=1e-12)


def test_batchnorm_output_statistics():
    # columns scaled well above epsilon so normalization is essentially exact
    x = np.asarray(np.random.default_rng(2).normal(size=(64, 5))) * 10.0
    bn = BatchNorm.init(5)
    y, _ = bn.forward(x, TRAIN)
    assert np.max(np.abs(y.mean(axis=0))) < 1e-12
    assert np.max(np.abs(y.var(axis=0) - 1.0)) < 1e-6


def test_batchnorm_train_needs_two_rows():
    # one row cannot form batch statistics: TRAIN falls back to the running
    # stats, bit for bit the INFER output, and leaves them untouched
    bn = BatchNorm(np.array([1.5, 0.5]), np.array([0.1, -0.2]),
                   np.array([0.3, -1.0]), np.array([2.0, 0.7]))
    x = np.array([[1.25, -0.75]])
    y_train, cache = bn.forward(x, TRAIN)
    assert cache[0] == "running"
    assert np.array_equal(y_train, bn.forward(x, INFER)[0])
    assert bn.running_mean.tolist() == [0.3, -1.0]
    assert bn.running_var.tolist() == [2.0, 0.7]


def test_batchnorm_running_stat_update():
    x = np.array([[1.0, 10.0], [3.0, 30.0]])
    bn = BatchNorm.init(2)  # momentum 0.9
    bn.forward(x, TRAIN)
    assert np.allclose(bn.running_mean, 0.1 * x.mean(axis=0), atol=1e-12)
    assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0), atol=1e-12)


def test_batchnorm_infer_uses_running_stats():
    bn = BatchNorm.init(2)
    bn.running_mean = np.array([1.0, 2.0])
    bn.running_var = np.array([4.0, 9.0])
    y, _ = bn.forward(np.array([[3.0, 8.0]]), INFER)
    assert np.allclose(y, [[1.0, 2.0]], atol=1e-5)


def test_batchnorm_infer_ignores_batch_size_one():
    # single rows are fine outside training
    bn = BatchNorm.init(3)
    y, _ = bn.forward(np.ones((1, 3)), INFER)
    assert y.shape == (1, 3)


def test_batchnorm_scale_shift_gradients():
    r = np.random.default_rng(4)
    bn = BatchNorm.init(3)
    x = np.asarray(r.normal(size=(8, 3)))
    up = r.normal(size=(8, 3))
    y, cache = bn.forward(x, TRAIN)
    _, (grad_gamma, grad_beta) = bn.backward(cache, up)
    xhat = cache[2]
    assert np.allclose(grad_gamma, (up * xhat).sum(axis=0), atol=1e-12)
    assert np.allclose(grad_beta, up.sum(axis=0), atol=1e-12)


def test_batchnorm_batch_grad_columns_sum_to_zero():
    # the batch path is invariant to a constant shift of any column, so the
    # input gradient must have zero column sums
    r = np.random.default_rng(5)
    bn = BatchNorm.init(4)
    x = np.asarray(r.normal(size=(10, 4)))
    y, cache = bn.forward(x, TRAIN)
    grad_x, _ = bn.backward(cache, r.normal(size=(10, 4)))
    assert np.max(np.abs(grad_x.sum(axis=0))) < 1e-10


def test_batchnorm_gradients_match_finite_differences():
    r = np.random.default_rng(6)
    bn = BatchNorm.init(3)
    bn.gamma = r.normal(size=3) + 2.0
    bn.beta = r.normal(size=3)
    x = np.asarray(r.normal(size=(6, 3)))
    c = r.normal(size=(6, 3))

    def loss_batch():
        y, _ = bn.forward(x, TRAIN)
        return float(np.sum(c * y))

    y, cache = bn.forward(x, TRAIN)
    grad_x, (grad_gamma, grad_beta) = bn.backward(cache, c)
    assert rel_err(grad_x, fd_wrt(x, loss_batch)) < 1e-6
    assert rel_err(grad_gamma, fd_wrt(bn.gamma, loss_batch)) < 1e-6
    assert rel_err(grad_beta, fd_wrt(bn.beta, loss_batch)) < 1e-6

    def loss_running():
        y, _ = bn.forward(x, INFER)
        return float(np.sum(c * y))

    y, cache = bn.forward(x, INFER)
    grad_x, _ = bn.backward(cache, c)
    assert rel_err(grad_x, fd_wrt(x, loss_running)) < 1e-6


@pytest.mark.parametrize("rows", [2, 3, 10, 500])
def test_batchnorm_batch_moments_match_numpy_bytes(rows):
    # mean, variance and xhat equal np.mean/np.var(axis=0)'s, byte for byte;
    # with momentum 0 the running statistics become the batch's own
    r = np.random.default_rng(rows)
    scales = np.logspace(-5, 5, 11)
    x = np.column_stack([r.normal(size=(rows, 11)) * scales + r.normal(size=11) * scales,
                         np.full(rows, 3.0), np.zeros(rows), np.full(rows, -1e5)])
    bn = BatchNorm.init(x.shape[1])
    bn.momentum = 0.0
    y, (_, _, xhat, inv_std) = bn.forward(x, TRAIN)
    mean, var, want_xhat = batchnorm_moments_reference(x, BatchNorm.epsilon)
    assert bn.running_mean.tobytes() == mean.tobytes()
    assert bn.running_var.tobytes() == var.tobytes()
    assert inv_std.tobytes() == (1.0 / np.sqrt(var + BatchNorm.epsilon)).tobytes()
    assert xhat.tobytes() == want_xhat.tobytes()
    assert y.tobytes() == (bn.gamma * want_xhat + bn.beta).tobytes()


def test_batchnorm_entry_roundtrip():
    bn = BatchNorm.init(2)
    bn.forward(np.array([[1.0, 2.0], [3.0, 4.0]]), TRAIN)
    entry = bn.to_entry()
    assert set(entry) == {"type", "shape", "values"}  # momentum and epsilon are constants
    clone = BatchNorm.from_entry(entry)
    assert np.array_equal(clone.running_mean, bn.running_mean)
    assert np.array_equal(clone.running_var, bn.running_var)


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------

def test_dropout_identity_paths():
    x = np.arange(6.0).reshape(2, 3)
    layer = Dropout(0.5)
    y, cache = layer.forward(x, INFER)
    assert np.array_equal(y, x) and cache is None
    y, cache = Dropout(0.0).forward(x, TRAIN, Rng(0))
    assert np.array_equal(y, x) and cache is None


def test_dropout_needs_rng_in_train():
    with pytest.raises(ValueError):
        Dropout(0.5).forward(np.ones((2, 2)), TRAIN)


def test_dropout_rate_validation():
    with pytest.raises(ValueError):
        Dropout(1.0)
    with pytest.raises(ValueError):
        Dropout(-0.1)


def test_dropout_mask_statistics_and_scaling():
    x = np.ones((100, 100))
    layer = Dropout(0.5)
    y, cache = layer.forward(x, TRAIN, Rng(9))
    kept = y != 0.0
    # survivors carry exactly 1/(1-rate), everything else is zeroed
    assert set(np.unique(y)) == {0.0, 2.0}
    assert abs(kept.mean() - 0.5) < 0.03
    assert abs(y.mean() - 1.0) < 0.05


def test_dropout_backward_masks_like_forward():
    x = np.ones((4, 5))
    layer = Dropout(0.5)
    y, cache = layer.forward(x, TRAIN, Rng(1))
    up = np.full((4, 5), 3.0)
    grad_x, grads = layer.backward(cache, up)
    assert grads == []
    assert np.array_equal(grad_x != 0.0, y != 0.0)
    assert np.allclose(grad_x[y != 0.0], 6.0)


@pytest.mark.parametrize("rate", [0.25, 0.5, 0.9])
def test_dropout_matches_mask_times_scale_bytes(rate):
    # one cached float mask is bit-equal to applying keep and scale in turn
    specials = [-0.0, 0.0, np.inf, -np.inf, 1e-308, -3.5, 1e308]
    x = np.array(specials * 6).reshape(6, 7)
    up = np.array(specials[::-1] * 6).reshape(6, 7)
    keep = Rng(5).uniform(x.size).reshape(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    assert keep.any() and not keep.all()
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and 1e308 * scale
        y, cache = Dropout(rate).forward(x, TRAIN, Rng(5))
        assert y.tobytes() == dropout_reference(x, keep, scale).tobytes()
        grad_x, _ = Dropout(rate).backward(cache, up)
        assert grad_x.tobytes() == dropout_reference(up, keep, scale).tobytes()


def test_dropout_deterministic_mask():
    x = np.ones((3, 3))
    a, _ = Dropout(0.5).forward(x, TRAIN, Rng(42))
    b, _ = Dropout(0.5).forward(x, TRAIN, Rng(42))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# ResidualBlock
# ---------------------------------------------------------------------------

def test_residual_scalar_example():
    block = ResidualBlock([[1.0]], [0.0], [[1.0]], [0.0])
    y, _ = block.forward(np.array([[2.0]]))
    assert y.tolist() == [[4.0]]


def test_residual_zero_block_is_exact_identity():
    block = ResidualBlock(np.zeros((3, 3)), np.zeros(3), np.zeros((3, 3)), np.zeros(3))
    x = np.asarray(np.random.default_rng(0).normal(size=(5, 3)))
    y, cache = block.forward(x)
    assert np.array_equal(y, x)  # bit-for-bit, not just close
    up = np.asarray(np.random.default_rng(1).normal(size=(5, 3)))
    grad_x, grads = block.backward(cache, up)
    assert np.array_equal(grad_x, up)
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)


def test_residual_shape_validation():
    with pytest.raises(ShapeError):
        ResidualBlock(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        ResidualBlock(np.zeros((2, 2)), np.zeros(2), np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ShapeError):
        ResidualBlock(np.zeros((2, 2)), np.zeros(1), np.zeros((2, 2)), np.zeros(2))
    block = ResidualBlock.init(3, Rng(0))
    with pytest.raises(ShapeError):
        block.forward(np.ones((1, 4)))


def test_residual_gradients_match_finite_differences():
    r = np.random.default_rng(8)
    block = ResidualBlock.init(3, Rng(8))
    block.b1[:] = r.normal(size=3) * 0.1
    block.b2[:] = r.normal(size=3) * 0.1
    x = np.asarray(r.normal(size=(4, 3)))
    c = r.normal(size=(4, 3))

    def loss():
        y, _ = block.forward(x)
        return float(np.sum(c * y))

    y, cache = block.forward(x)
    grad_x, (g_w1, g_b1, g_w2, g_b2) = block.backward(cache, c)
    assert rel_err(g_w1, fd_wrt(block.w1, loss)) < 1e-6
    assert rel_err(g_b1, fd_wrt(block.b1, loss)) < 1e-6
    assert rel_err(g_w2, fd_wrt(block.w2, loss)) < 1e-6
    assert rel_err(g_b2, fd_wrt(block.b2, loss)) < 1e-6
    assert rel_err(grad_x, fd_wrt(x, loss)) < 1e-6


def test_residual_entry_roundtrip():
    block = ResidualBlock.init(2, Rng(5))
    clone = ResidualBlock.from_entry(block.to_entry())
    x = np.asarray(np.random.default_rng(2).normal(size=(3, 2)))
    assert np.array_equal(clone.forward(x)[0], block.forward(x)[0])


# ---------------------------------------------------------------------------
# Conv1D
# ---------------------------------------------------------------------------

def test_conv1d_ones_kernel_sums_neighbours():
    conv = Conv1D([[1.0, 1.0]], [0.0])
    y, _ = conv.forward(np.array([[1.0, 2.0, 3.0]]))
    assert y.tolist() == [[3.0, 5.0]]


def test_conv1d_matches_bruteforce():
    r = np.random.default_rng(10)
    x = np.asarray(r.normal(size=(3, 10)))
    kernels = r.normal(size=(2, 3))
    bias = r.normal(size=2)
    conv = Conv1D(kernels, bias)
    l_out = conv.output_length(10)
    y, _ = conv.forward(x)
    assert y.shape == (3, 2 * l_out)
    for b in range(3):
        for k in range(2):
            for pos in range(l_out):
                want = float(np.dot(x[b, pos : pos + 3], kernels[k]) + bias[k])
                # kernel-major layout: column index is k * l_out + pos
                assert abs(y[b, k * l_out + pos] - want) < 1e-12


def test_conv1d_output_length():
    conv = Conv1D(np.ones((1, 3)), [0.0])
    assert conv.output_length(10) == 8
    assert conv.output_length(3) == 1
    with pytest.raises(ShapeError):
        conv.output_length(2)


def test_conv1d_validation():
    with pytest.raises(ShapeError):
        Conv1D(np.ones(3), [0.0])
    with pytest.raises(ShapeError):
        Conv1D(np.ones((2, 3)), [0.0])
    with pytest.raises(TypeError):  # stride is always 1, not a setting
        Conv1D(np.ones((1, 3)), [0.0], 1)
    with pytest.raises(TypeError):
        Conv1D.init(1, 3, Rng(0), 1)


def test_conv1d_gradients_match_finite_differences():
    r = np.random.default_rng(11)
    conv = Conv1D(r.normal(size=(2, 3)), r.normal(size=2))
    x = np.asarray(r.normal(size=(3, 8)))
    l_out = conv.output_length(8)
    c = r.normal(size=(3, 2 * l_out))

    def loss():
        y, _ = conv.forward(x)
        return float(np.sum(c * y))

    y, cache = conv.forward(x)
    grad_x, (g_kern, g_bias) = conv.backward(cache, c)
    assert rel_err(g_kern, fd_wrt(conv.kernels, loss)) < 1e-6
    assert rel_err(g_bias, fd_wrt(conv.bias, loss)) < 1e-6
    assert rel_err(grad_x, fd_wrt(x, loss)) < 1e-6
    # reference: scatter each tap's column gradients with np.add.at
    want = np.zeros_like(x)
    dcol = np.einsum("bkl,kw->blw", c.reshape(3, 2, l_out), conv.kernels)
    for s in range(conv.width):
        np.add.at(want, (slice(None), s + np.arange(l_out)), dcol[:, :, s])
    assert np.array_equal(grad_x, want)


def test_conv1d_entry_roundtrip():
    conv = Conv1D([[1.0, -1.0, 0.5]], [0.25])
    entry = conv.to_entry()
    assert set(entry) == {"type", "shape", "values"}
    clone = Conv1D.from_entry(entry)
    x = np.asarray(np.random.default_rng(3).normal(size=(2, 7)))
    assert np.array_equal(clone.forward(x)[0], conv.forward(x)[0])


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------

def test_softmax_uniform_logits():
    loss, grad = softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
    assert abs(loss - np.log(2.0)) < 1e-12
    assert np.allclose(grad, [[-0.5, 0.5]], atol=1e-12)
    loss, _ = softmax_cross_entropy(np.zeros((1, 7)), np.array([3]))
    assert abs(loss - np.log(7.0)) < 1e-12


def test_softmax_extreme_logits_stay_finite():
    loss, grad = softmax_cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))
    assert np.isfinite(loss) and loss < 1e-12
    assert np.all(np.isfinite(grad))
    loss, _ = softmax_cross_entropy(np.array([[1000.0, 0.0]]), np.array([1]))
    assert abs(loss - 1000.0) < 1e-9


def test_softmax_grad_rows_sum_to_zero():
    r = np.random.default_rng(12)
    logits = r.normal(size=(6, 4)) * 3.0
    labels = r.integers(0, 4, size=6)
    _, grad = softmax_cross_entropy(logits, labels)
    assert np.max(np.abs(grad.sum(axis=1))) < 1e-12


def test_softmax_shift_invariance():
    r = np.random.default_rng(13)
    logits = np.asarray(r.normal(size=(4, 3)))
    labels = np.array([0, 2, 1, 1])
    base, _ = softmax_cross_entropy(logits, labels)
    shifted, _ = softmax_cross_entropy(logits + 7.5, labels)
    assert abs(base - shifted) < 1e-12


def test_softmax_gradient_matches_finite_differences():
    r = np.random.default_rng(14)
    logits = np.asarray(r.normal(size=(5, 3)))
    labels = np.array([0, 1, 2, 1, 0])
    _, grad = softmax_cross_entropy(logits, labels)
    numeric = fd_wrt(logits, lambda: softmax_cross_entropy(logits, labels)[0])
    assert rel_err(grad, numeric) < 1e-6


@pytest.mark.parametrize("rows", [1, 2, 7, 300])
def test_softmax_matches_reference_bytes(rows):
    # the loss as sum / b and the gradient divided in place equal np.mean and
    # a fresh division, byte for byte, out to logits near +-1e300
    r = np.random.default_rng(rows)
    logits = r.normal(size=(rows, 4)) * 10.0 ** r.integers(-3, 4, size=(rows, 1))
    logits[::3, 0] = 1e300
    logits[1::3, 2] = -1e300
    logits[2::3] = [1e300, -1e300, 0.99e300, -0.0]
    labels = r.integers(0, 4, size=rows)
    loss, grad = softmax_cross_entropy(logits, labels)
    want_loss, want_grad = softmax_cross_entropy_reference(logits, labels)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_softmax_label_validation():
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))
    with pytest.raises(ShapeError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0]))


# ---------------------------------------------------------------------------
# registry and wrappers
# ---------------------------------------------------------------------------

def test_layer_registry_covers_all_kinds():
    assert set(LAYER_TYPES) == {"dense", "relu", "batchnorm", "dropout", "residual", "conv1d"}
    with pytest.raises(ValueError):
        layer_from_entry({"type": "pooling"})


def test_layer_from_entry_rebuilds_dense():
    layer = Dense(np.array([[2.0, 0.0]]), np.array([1.0]), "identity")
    clone = layer_from_entry(layer.to_entry())
    assert isinstance(clone, Dense)
    x = np.array([[3.0, 4.0]])
    assert np.array_equal(clone.forward(x)[0], layer.forward(x)[0])


def test_from_entry_checks_settings_and_cells():
    rate = Dropout(0.25).to_entry()
    assert Dropout.from_entry({**rate, "rate": 0}).rate == 0  # an int is a float setting
    for bad in ("half", True, None):
        with pytest.raises(SchemaError, match="'rate' must be float"):
            Dropout.from_entry({**rate, "rate": bad})
    conv = Conv1D.init(2, 3, Rng(0)).to_entry()
    with pytest.raises(SchemaError, match="unknown key 'stride'"):
        Conv1D.from_entry({**conv, "stride": 1})
    norm = BatchNorm.init(2).to_entry()
    for key, value in (("momentum", 0.9), ("epsilon", 1e-5)):
        with pytest.raises(SchemaError, match=f"unknown key '{key}'"):
            BatchNorm.from_entry({**norm, key: value})
    dense = Dense.init(2, 1, Rng(0)).to_entry()
    dense["values"][0][0][1] = "0.5"
    with pytest.raises(SchemaError, match="'weights' is not a numeric array"):
        Dense.from_entry(dense)
    for bad in (np.nan, np.inf, -np.inf):  # all three parse from checkpoint JSON
        dense["values"][0][0][1] = bad
        with pytest.raises(SchemaError, match="'weights' holds a value that is not finite"):
            Dense.from_entry(dense)


def test_batchnorm_arrays_must_be_equal_length_vectors():
    with pytest.raises(ShapeError):
        BatchNorm(np.ones(3), np.zeros(3), np.zeros(4), np.ones(3))
    with pytest.raises(ShapeError):
        BatchNorm(np.ones((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2)))


def test_batchnorm_epsilon_and_running_var_ranges():
    # epsilon is a positive constant of the class, not a setting to range-check
    assert BatchNorm.epsilon > 0
    with pytest.raises(TypeError):
        BatchNorm(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), 0.9, 1e-5)
    with pytest.raises(TypeError):
        BatchNorm.init(2, 0.9)
    with pytest.raises(ValueError, match="'running_var'"):
        BatchNorm(np.ones(2), np.zeros(2), np.zeros(2), np.array([1.0, -1e-3]))
    BatchNorm(np.ones(2), np.zeros(2), np.zeros(2), np.zeros(2))  # zero variance is allowed


def test_functional_wrappers_agree_with_methods():
    # the layer methods are the whole API: inference forward passes and
    # backward passes are pure functions of their inputs and cache
    r = np.random.default_rng(15)
    x = np.asarray(r.normal(size=(4, 3)))
    up = r.normal(size=(4, 3))

    bn = BatchNorm.init(3)
    assert np.array_equal(bn.forward(x, INFER)[0], bn.forward(x, INFER)[0])
    _, cache = bn.forward(x, TRAIN)
    gx, (gg, gb) = bn.backward(cache, up)
    gx2, (gg2, gb2) = bn.backward(cache, up)
    assert np.array_equal(gx, gx2) and np.array_equal(gg, gg2) and np.array_equal(gb, gb2)

    assert np.array_equal(Dropout(0.5).forward(x, INFER)[0], x)

    block = ResidualBlock.init(3, Rng(2))
    y, cache = block.forward(x)
    assert np.array_equal(block.forward(x)[0], y)
    gx, grads = block.backward(cache, up)
    gx2, grads2 = block.backward(cache, up)
    assert np.array_equal(gx, gx2)
    assert all(np.array_equal(a, b) for a, b in zip(grads, grads2))


# (layer, forward mode, forward rng seed, input columns) for every layer kind;
# batchnorm runs both its batch-statistics and running-statistics paths
INPUT_GRAD_CASES = {
    "dense": (lambda: Dense.init(5, 3, Rng(20)), TRAIN, None, 5),
    "relu": (lambda: ReLULayer(), TRAIN, None, 4),
    "batchnorm-batch": (lambda: BatchNorm.init(4), TRAIN, None, 4),
    "batchnorm-running": (lambda: BatchNorm.init(4), INFER, None, 4),
    "dropout": (lambda: Dropout(0.5), TRAIN, 21, 4),
    "residual": (lambda: ResidualBlock.init(4, Rng(22)), TRAIN, None, 4),
    "conv1d": (lambda: Conv1D.init(2, 3, Rng(23)), TRAIN, None, 7),
}


@pytest.mark.parametrize("case", INPUT_GRAD_CASES)
def test_backward_writes_into_out(case):
    # given out, the parameter gradients land there, bit-equal to fresh ones
    make, mode, seed, cols = INPUT_GRAD_CASES[case]
    layer = make()
    r = np.random.default_rng(25)
    x = np.asarray(r.normal(size=(6, cols)))
    y, cache = layer.forward(x, mode, None if seed is None else Rng(seed))
    up = r.normal(size=y.shape)
    grad_x, fresh = layer.backward(cache, up)
    out = [np.full_like(g, np.nan) for g in fresh]
    for input_grad in (True, False):
        got_x, grads = layer.backward(cache, up, input_grad=input_grad, out=out)
        assert grads is out if layer.params else grads == []
        assert all(a.tobytes() == b.tobytes() for a, b in zip(out, fresh))
        assert got_x is None if not input_grad else got_x.tobytes() == grad_x.tobytes()


@pytest.mark.parametrize("case", INPUT_GRAD_CASES)
def test_backward_without_input_grad(case):
    make, mode, seed, cols = INPUT_GRAD_CASES[case]
    layer = make()
    r = np.random.default_rng(24)
    x = np.asarray(r.normal(size=(6, cols)))
    y, cache = layer.forward(x, mode, None if seed is None else Rng(seed))
    up = r.normal(size=y.shape)
    grad_x, grads = layer.backward(cache, up)
    skipped, same = layer.backward(cache, up, input_grad=False)
    assert grad_x is not None and grad_x.shape == x.shape
    assert skipped is None
    assert len(same) == len(grads) == len(layer.params)
    assert all(np.array_equal(a, b) for a, b in zip(same, grads))
