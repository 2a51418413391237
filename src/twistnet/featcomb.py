"""Combinatorial feature combination.

Given an input vector of n features and a subset size m, every m-subset is
enumerated in lexicographic order and collapsed to a single combined value:

* multiplicative:   z_k = prod of the subset's features
* pairwise_sum:     z_k = sum of products over all pairs inside the subset
                    (for features A, B, C this is AB + AC + BC)

Both operators are symmetric in the subset members, so reordering the input
features permutes the combined columns but never changes their multiset.
A separate global interaction reduces the whole vector to one scalar,
f(sum over all i<j of x_i*x_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import CapacityError, ShapeError
from .ndcore import as_matrix, check_finite

MULTIPLICATIVE = "multiplicative"
PAIRWISE_SUM = "pairwise_sum"
APPROACHES = (MULTIPLICATIVE, PAIRWISE_SUM)


@dataclass
class CombinationSpec:
    """How to expand raw features into combined features."""

    m: int = 2
    approach: str = MULTIPLICATIVE
    max_combined: int = 100000
    augment_original: bool = False
    append_global_interaction: bool = False

    def validate(self) -> None:
        if self.m < 1:
            raise ValueError(f"subset size m must be >= 1, got {self.m}")
        if self.approach not in APPROACHES:
            raise ValueError(f"unknown approach {self.approach!r}, expected one of {APPROACHES}")
        if self.approach == PAIRWISE_SUM and self.m < 2:
            raise ValueError("pairwise_sum needs m >= 2: a 1-subset has no pairs")
        if self.max_combined < 1:
            raise ValueError("max_combined must be >= 1")


@dataclass
class CombinedFeatures:
    """Row-wise combined feature block plus the subsets that produced it."""

    values: np.ndarray
    subsets: list[tuple[int, ...]] = field(default_factory=list)


def enumerate_subsets(n: int, m: int, max_combined: int = 100000) -> list[tuple[int, ...]]:
    """All m-subsets of range(n) in lexicographic order."""
    if m < 1:
        raise ValueError(f"subset size m must be >= 1, got {m}")
    if m > n:
        raise ValueError(f"m exceeds feature count: m={m}, n={n}")
    n_comb = math.comb(n, m)
    if n_comb > max_combined:
        raise CapacityError(f"C({n},{m}) = {n_comb} subsets exceeds cap {max_combined}")
    return list(combinations(range(n), m))


def _combine_rows(x: np.ndarray, subsets, approach: str) -> np.ndarray:
    """Apply one combiner to every row of a 2-D block."""
    out = np.empty((x.shape[0], len(subsets)))
    if approach == MULTIPLICATIVE:
        for k, s in enumerate(subsets):
            out[:, k] = np.prod(x[:, list(s)], axis=1)
    elif approach == PAIRWISE_SUM:
        for k, s in enumerate(subsets):
            acc = np.zeros(x.shape[0])
            for a, b in combinations(s, 2):
                acc += x[:, a] * x[:, b]
            out[:, k] = acc
    else:
        raise ValueError(f"unknown approach {approach!r}")
    return out


def combine_multiplicative(x, subsets) -> np.ndarray:
    """z_k = product of x over subset k."""
    x = np.asarray(x, dtype=np.float64)
    return _combine_rows(x.reshape(1, -1), subsets, MULTIPLICATIVE)[0]


def combine_pairwise_sum(x, subsets) -> np.ndarray:
    """z_k = sum of x_i*x_j over pairs i<j inside subset k."""
    x = np.asarray(x, dtype=np.float64)
    for s in subsets:
        if len(s) < 2:
            raise ValueError("pairwise_sum needs subsets of size >= 2")
    return _combine_rows(x.reshape(1, -1), subsets, PAIRWISE_SUM)[0]


def combine_backward(x, subsets, approach: str, upstream) -> np.ndarray:
    """Gradient of the combined vector wrt x, contracted with ``upstream``.

    Multiplicative partials re-multiply the remaining subset members instead
    of dividing out x_i, so entries at zero stay correct.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    upstream = np.asarray(upstream, dtype=np.float64).ravel()
    if len(upstream) != len(subsets):
        raise ShapeError(
            f"upstream length {len(upstream)} does not match subset count {len(subsets)}"
        )
    grad = np.zeros_like(x)
    if approach == MULTIPLICATIVE:
        for k, s in enumerate(subsets):
            u = upstream[k]
            for i in s:
                others = [j for j in s if j != i]
                grad[i] += u * (np.prod(x[others]) if others else 1.0)
    elif approach == PAIRWISE_SUM:
        for k, s in enumerate(subsets):
            u = upstream[k]
            total = float(np.sum(x[list(s)]))
            for i in s:
                grad[i] += u * (total - x[i])
    else:
        raise ValueError(f"unknown approach {approach!r}")
    return grad


def _global_pair_sum_rows(x: np.ndarray) -> np.ndarray:
    # sum_{i<j} x_i x_j accumulated with running prefix sums, one pass
    prefix = np.cumsum(x, axis=1)
    return np.sum(x[:, 1:] * prefix[:, :-1], axis=1)


def global_interaction(x, activation: str = "identity") -> float:
    """Whole-vector pair interaction: f(sum over all i<j of x_i*x_j)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError(f"global interaction needs at least 2 features, got {x.size}")
    s = float(_global_pair_sum_rows(x.reshape(1, -1))[0])
    if activation == "identity":
        return s
    if activation == "relu":
        return max(0.0, s)
    raise ValueError(f"unknown activation {activation!r}")


def transform_dataset(X, spec: CombinationSpec) -> CombinedFeatures:
    """Expand a batch row-wise: combined columns, then originals, then the
    global-interaction column, honoring the flags on ``spec``."""
    X = check_finite(as_matrix(X, "features"), "features")
    spec.validate()
    subsets = enumerate_subsets(X.shape[1], spec.m, spec.max_combined)
    blocks = [_combine_rows(X, subsets, spec.approach)]
    if spec.augment_original:
        blocks.append(X)
    if spec.append_global_interaction:
        blocks.append(_global_pair_sum_rows(X).reshape(-1, 1))
    values = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
    return CombinedFeatures(values=values, subsets=subsets)


def combined_feature_names(
    subsets, spec: CombinationSpec, original_names: list[str] | None = None
) -> list[str]:
    """Generated headers: comb_<i>_<j>[_<k>], then originals, then interaction."""
    names = ["comb_" + "_".join(str(i) for i in s) for s in subsets]
    if spec.augment_original:
        if original_names is None:
            raise ValueError("augment_original requires the original feature names")
        names.extend(original_names)
    if spec.append_global_interaction:
        names.append("interaction")
    return names
