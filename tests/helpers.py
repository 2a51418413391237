"""Shared test utilities: a scalar reference RNG, finite-difference slopes
and the combined vector of one feature row.

The reference generator is written as the plain sequential algorithm from the
published splitmix64 description, deliberately sharing no code with the
vectorized implementation under test.
"""

import numpy as np

from twistnet.featcomb import CombinationSpec, transform_dataset

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


def combine_row(x, m, approach):
    """The combined vector of one feature row: a one-row batch transform,
    one entry per m-subset in ``enumerate_subsets(len(x), m)`` order."""
    row = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return transform_dataset(row, CombinationSpec(m=m, approach=approach)).values[0]
