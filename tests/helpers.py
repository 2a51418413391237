"""Shared test utilities: a scalar reference RNG, finite-difference slopes,
gradient buffers for a layer's backward, the combined vector of one feature
row, a scalar reference combiner and a traced allocation peak.

The reference generator is written as the plain sequential algorithm from the
published splitmix64 description, deliberately sharing no code with the
vectorized implementation under test.
"""

import tracemalloc
from itertools import combinations

import numpy as np

from twistnet.featcomb import MULTIPLICATIVE, CombinationSpec, transform_dataset

MASK64 = (1 << 64) - 1

# filled by test_acceptance, echoed by the conftest terminal-summary hook
ACCEPTANCE_LINES = []


def splitmix64_reference(seed, n):
    """Scalar splitmix64: state += golden gamma, then two xor-multiply mixes."""
    out = []
    state = seed & MASK64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def central_diff(f, x, h=1e-5):
    """Entrywise central differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def rel_err(a, b):
    """Max entrywise |a-b| / max(|a|, |b|, 1e-8)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def fd_wrt(arr, f, h=1e-5):
    """Central differences of the no-arg scalar f with respect to ``arr``,
    perturbing the (live) array in place and restoring it."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = f()
        flat[i] = orig - h
        lm = f()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2.0 * h)
    return grad


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes that tracemalloc saw allocated
    during the call; what existed before it is not counted."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def grad_buffers(layer):
    """The ``out`` a layer's ``backward`` writes into: one NaN-filled array
    per entry of ``params``, shaped like it, so an entry left unwritten
    shows."""
    return [np.full_like(getattr(layer, name), np.nan) for name in layer.params]


def combine_row(x, m, approach):
    """The combined vector of one feature row: a one-row batch transform,
    one entry per m-subset in ``enumerate_subsets(len(x), m)`` order."""
    row = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return transform_dataset(row, CombinationSpec(m=m, approach=approach)).values[0]


def combine_reference(x, subsets, approach):
    """The combined block of ``x`` in plain Python floats, one cell at a time:
    multiplicative folds the subset's members from the left; pairwise_sum
    starts at 0.0 and adds each pair's product in ``combinations`` order."""
    rows = np.asarray(x, dtype=np.float64).tolist()
    out = []
    for row in rows:
        for s in subsets:
            if approach == MULTIPLICATIVE:
                v = row[s[0]]
                for j in s[1:]:
                    v *= row[j]
            else:
                v = 0.0
                for a, b in combinations(s, 2):
                    v += row[a] * row[b]
            out.append(v)
    return np.array(out, dtype=np.float64).reshape(len(rows), len(subsets))


# The expressions the layers and save_csv computed before their rewrites, kept
# as byte-for-byte references.

def save_csv_reference(ds):
    """The text of ``ds`` as save_csv built it in one buffer: the header, then
    each row's features as repr(float(v)) and its label string."""
    lines = [",".join(ds.feature_names + [ds.label_name])]
    for i in range(ds.n_samples):
        cells = [repr(float(v)) for v in ds.features[i]]
        cells.append(ds.class_names[ds.labels[i]])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def batchnorm_moments_reference(x, epsilon):
    """Batch-path mean, biased variance and normalised block, by np.mean and
    np.var over axis 0."""
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    return mean, var, (x - mean) * (1.0 / np.sqrt(var + epsilon))


def dropout_reference(x, keep, scale):
    """Inverted dropout as the boolean mask and the scale applied in turn."""
    return x * keep * scale


def softmax_cross_entropy_reference(logits, labels):
    """Mean cross-entropy and its logit gradient, by np.mean and a fresh
    division."""
    b = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -float(np.mean(log_probs[np.arange(b), labels]))
    grad = np.exp(log_probs)
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


def softmax_rows(logits):
    """Row-wise probabilities as an inference-mode forward pass computes them."""
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)
