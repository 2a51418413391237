"""Combinatorial feature combination.

Given a row of n features and a subset size m, every m-subset is
enumerated in lexicographic order and collapsed to a single combined value:

* multiplicative:   z_k = prod of the subset's features
* pairwise_sum:     z_k = sum of products over all pairs inside the subset
                    (for features A, B, C this is AB + AC + BC)

Both operators are symmetric in the subset members, so reordering the input
features permutes the combined columns but never changes their multiset.
:func:`transform_dataset` applies one of them to every row of a batch, and
can append the original features. It allocates the whole output once and
fills the combined columns a block of rows at a time, each block about
BLOCK_BYTES, so every member of every subset is folded into cells that are
still in cache. The sum over all i<j of x_i*x_j, a global interaction term,
is the pairwise_sum column at m = n. No expansion may enumerate more than
MAX_COMBINED subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import CapacityError, ShapeError

MULTIPLICATIVE = "multiplicative"
PAIRWISE_SUM = "pairwise_sum"
APPROACHES = (MULTIPLICATIVE, PAIRWISE_SUM)
MAX_COMBINED = 100000


@dataclass
class CombinationSpec:
    """How to expand raw features into combined features."""

    m: int = 2
    approach: str = MULTIPLICATIVE
    augment_original: bool = False

    def validate(self) -> None:
        if self.m < 1:
            raise ValueError(f"subset size m must be >= 1, got {self.m}")
        if self.approach not in APPROACHES:
            raise ValueError(f"unknown approach {self.approach!r}, expected one of {APPROACHES}")
        if self.approach == PAIRWISE_SUM and self.m < 2:
            raise ValueError("pairwise_sum needs m >= 2: a 1-subset has no pairs")


@dataclass
class CombinedFeatures:
    """Row-wise combined feature block plus the subsets that produced it."""

    values: np.ndarray
    subsets: list[tuple[int, ...]] = field(default_factory=list)


def enumerate_subsets(n: int, m: int) -> list[tuple[int, ...]]:
    """All m-subsets of range(n) in lexicographic order; CapacityError past
    MAX_COMBINED of them."""
    if m < 1:
        raise ValueError(f"subset size m must be >= 1, got {m}")
    if m > n:
        raise ValueError(f"m exceeds feature count: m={m}, n={n}")
    n_comb = math.comb(n, m)
    if n_comb > MAX_COMBINED:
        raise CapacityError(f"C({n},{m}) = {n_comb} subsets exceeds cap {MAX_COMBINED}")
    return list(combinations(range(n), m))


# Rows per block are chosen so that one block of combined columns is about
# this many bytes and stays in cache while every subset member is folded in.
BLOCK_BYTES = 1 << 18


def _combine_rows(x: np.ndarray, subsets, approach: str, out: np.ndarray) -> None:
    """Write one combiner's value of every row of ``x`` into ``out``, a block
    of rows at a time; the caller has validated ``approach``."""
    # [m, n_sub]: member i of each subset; every index is in range, so "clip"
    # only spares take its bounds check and the buffered copy into ``out``
    cols = np.array(subsets, dtype=np.intp).T
    height = max(1, BLOCK_BYTES // (out.itemsize * len(subsets)))
    for start in range(0, x.shape[0], height):
        xb = x[start : start + height]
        ob = out[start : start + height]
        if approach == MULTIPLICATIVE:
            np.take(xb, cols[0], axis=1, out=ob, mode="clip")
            for c in cols[1:]:
                ob *= np.take(xb, c, axis=1, mode="clip")
        else:
            members = [np.take(xb, c, axis=1, mode="clip") for c in cols]
            ob.fill(0.0)
            for a, b in combinations(range(len(cols)), 2):
                ob += members[a] * members[b]


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


def transform_dataset(X, spec: CombinationSpec) -> CombinedFeatures:
    """Expand a batch row-wise: combined columns, then the originals if
    ``spec.augment_original``. ShapeError unless ``X`` is 2-D, ValueError if
    an entry is not finite."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"features must be 2-D, got ndim={X.ndim}")
    if not np.isfinite(X).all():
        raise ValueError("features contain non-finite entries")
    spec.validate()
    subsets = enumerate_subsets(X.shape[1], spec.m)
    n_sub = len(subsets)
    values = np.empty((X.shape[0], n_sub + X.shape[1] * spec.augment_original))
    _combine_rows(X, subsets, spec.approach, values[:, :n_sub])
    if spec.augment_original:
        values[:, n_sub:] = X
    return CombinedFeatures(values=values, subsets=subsets)


def combined_feature_names(
    subsets, spec: CombinationSpec, original_names: list[str] | None = None
) -> list[str]:
    """Generated headers: comb_<i>_<j>[_<k>], then the originals."""
    names = ["comb_" + "_".join(str(i) for i in s) for s in subsets]
    if spec.augment_original:
        if original_names is None:
            raise ValueError("augment_original requires the original feature names")
        names.extend(original_names)
    return names
