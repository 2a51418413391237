#!/usr/bin/env python3
"""A tour of the feature-combination operators on small batches."""

import numpy as np

from twistnet.featcomb import (
    MULTIPLICATIVE,
    PAIRWISE_SUM,
    CombinationSpec,
    combined_feature_names,
    enumerate_subsets,
    transform_dataset,
)

# Every m-subset of the feature indices, in lexicographic order.
subsets = enumerate_subsets(4, 2)
print("2-subsets of 4 features:", subsets)


def combine(X, m, approach):
    return transform_dataset(X, CombinationSpec(m=m, approach=approach)).values


# The multiplicative operator collapses each subset to the product of its
# members, so the row [1, 2, 3, 4] with m=2 gives every pairwise product.
x = np.array([[1.0, 2.0, 3.0, 4.0]])
print("multiplicative m=2:", combine(x, 2, MULTIPLICATIVE)[0])

# The pairwise-sum operator adds the products of all pairs inside a subset.
# For a 3-subset {A, B, C} that is AB + AC + BC.
print("pairwise_sum m=3:  ", combine(x, 3, PAIRWISE_SUM)[0])

# With m=2 a subset holds exactly one pair, so the two operators coincide.
pair_mult = combine(x, 2, MULTIPLICATIVE)
pair_sum = combine(x, 2, PAIRWISE_SUM)
print("m=2 coincidence, max difference:", np.max(np.abs(pair_mult - pair_sum)))

# Over the full feature set the pairwise sum is the global interaction term,
# with a closed form: sum_{i<j} x_i x_j = ((sum x)^2 - sum x^2) / 2.
full = combine(x, 4, PAIRWISE_SUM)[0, 0]
closed = (x.sum() ** 2 - (x**2).sum()) / 2.0
print(f"full-set pairwise {full} vs closed form {closed}")

# transform_dataset also hands back the subsets, and can append the untouched
# originals after the combined columns.
X = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
spec = CombinationSpec(m=2, augment_original=True)
out = transform_dataset(X, spec)
names = combined_feature_names(out.subsets, spec, ["a", "b", "c"])
print("columns:", names)
print(out.values)

# Reordering input features permutes the combined columns but the multiset
# of values is untouched; sorted rows are identical.
perm = [2, 0, 1]
base = np.sort(combine(X, 2, MULTIPLICATIVE), axis=1)
moved = np.sort(combine(X[:, perm], 2, MULTIPLICATIVE), axis=1)
print("permutation invariance, max difference:", np.max(np.abs(base - moved)))
