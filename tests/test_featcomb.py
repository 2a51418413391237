"""Combinatorial feature combination: combiners, gradients, transforms.

The combiners are reached through transform_dataset on one-row batches."""

import math
from dataclasses import asdict, fields
from itertools import combinations

import numpy as np
import pytest

from twistnet.errors import CapacityError, ConfigError, ShapeError
from twistnet.featcomb import (
    APPROACHES,
    BLOCK_BYTES,
    MAX_COMBINED,
    MULTIPLICATIVE,
    PAIRWISE_SUM,
    CombinationSpec,
    combine_backward,
    combined_feature_names,
    enumerate_subsets,
    transform_dataset,
)

from helpers import central_diff, combine_reference, combine_row, rel_err, traced_peak


# ---------------------------------------------------------------------------
# subset enumeration
# ---------------------------------------------------------------------------

def test_enumerate_subsets_4_choose_2():
    assert enumerate_subsets(4, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_enumerate_subsets_edge_sizes():
    assert enumerate_subsets(3, 3) == [(0, 1, 2)]
    assert enumerate_subsets(3, 1) == [(0,), (1,), (2,)]


def test_enumerate_subsets_lexicographic_and_counted():
    subs = enumerate_subsets(7, 3)
    assert len(subs) == math.comb(7, 3)
    assert subs == sorted(subs)
    assert len(set(subs)) == len(subs)


def test_enumerate_subsets_errors():
    with pytest.raises(ValueError):
        enumerate_subsets(4, 0)
    with pytest.raises(ValueError):
        enumerate_subsets(3, 4)
    assert MAX_COMBINED == 100000
    with pytest.raises(CapacityError, match=r"C\(20,10\) = 184756 subsets exceeds cap 100000"):
        enumerate_subsets(20, 10)
    with pytest.raises(CapacityError):
        enumerate_subsets(30, 15)


# ---------------------------------------------------------------------------
# combiners: pinned values
# ---------------------------------------------------------------------------

def test_multiplicative_single_triple():
    assert combine_row([2.0, 3.0, 4.0], 3, MULTIPLICATIVE).tolist() == [24.0]


def test_multiplicative_pairs_of_four():
    out = combine_row([1.0, 2.0, 3.0, 4.0], 2, MULTIPLICATIVE)
    assert out.tolist() == [2.0, 3.0, 4.0, 6.0, 8.0, 12.0]


def test_multiplicative_zero_absorbs():
    assert combine_row([0.0, 2.0, 3.0], 3, MULTIPLICATIVE).tolist() == [0.0]


def test_pairwise_sum_single_triple():
    assert combine_row([1.0, 2.0, 3.0], 3, PAIRWISE_SUM).tolist() == [11.0]


def test_pairwise_sum_triples_of_four():
    out = combine_row([1.0, 2.0, 3.0, 4.0], 3, PAIRWISE_SUM)
    assert out.tolist() == [11.0, 14.0, 19.0, 26.0]


def test_pairwise_sum_rejects_singletons():
    with pytest.raises(ValueError):
        transform_dataset(np.ones((1, 2)), CombinationSpec(m=1, approach=PAIRWISE_SUM))


# ---------------------------------------------------------------------------
# dual-route algebra
# ---------------------------------------------------------------------------

def test_global_interaction_matches_pair_sum():
    # the global interaction term sum_{i<j} x_i x_j is the pairwise_sum
    # column of the full feature set (m = n)
    for seed in range(8):
        r = np.random.default_rng(seed)
        x = r.normal(size=int(r.integers(2, 15)))
        want = sum(x[i] * x[j] for i, j in combinations(range(len(x)), 2))
        assert rel_err(combine_row(x, len(x), PAIRWISE_SUM)[0], want) < 1e-12


def test_full_set_pairwise_equals_square_identity():
    # one subset covering everything: sum_{i<j} x_i x_j == ((sum x)^2 - sum x^2) / 2
    for seed in range(10):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 12))
        x = r.normal(size=n) * 3.0
        got = combine_row(x, n, PAIRWISE_SUM)[0]
        want = (x.sum() ** 2 - (x**2).sum()) / 2.0
        assert rel_err(got, want) < 1e-9


def test_m2_approaches_coincide():
    # a 2-subset has exactly one pair, so both operators compute x_i * x_j
    for seed in range(10):
        r = np.random.default_rng(100 + seed)
        n = int(r.integers(2, 9))
        x = r.normal(size=n)
        a = combine_row(x, 2, MULTIPLICATIVE)
        b = combine_row(x, 2, PAIRWISE_SUM)
        assert np.max(np.abs(a - b)) < 1e-12


def test_permutation_invariance_of_combined_multiset():
    # reordering input features permutes combined columns but keeps the multiset
    r = np.random.default_rng(7)
    x = r.normal(size=7)
    for m, approach in ((2, MULTIPLICATIVE), (3, MULTIPLICATIVE), (2, PAIRWISE_SUM), (3, PAIRWISE_SUM)):
        base = np.sort(combine_row(x, m, approach))
        for t in range(100):
            perm = np.random.default_rng(1000 + t).permutation(7)
            shuffled = np.sort(combine_row(x[perm], m, approach))
            assert np.max(np.abs(base - shuffled)) < 1e-12


def test_scaling_laws():
    # scaling inputs by c scales m-products by c^m and pair sums by c^2
    r = np.random.default_rng(3)
    x = r.normal(size=6)
    c = 1.7
    for m in (2, 3, 4):
        mult = combine_row(x, m, MULTIPLICATIVE)
        mult_scaled = combine_row(c * x, m, MULTIPLICATIVE)
        assert rel_err(mult_scaled, (c**m) * mult) < 1e-9
        pair = combine_row(x, m, PAIRWISE_SUM)
        pair_scaled = combine_row(c * x, m, PAIRWISE_SUM)
        assert rel_err(pair_scaled, (c**2) * pair) < 1e-9


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_backward_multiplicative_pinned():
    subs = enumerate_subsets(3, 3)
    g = combine_backward([2.0, 3.0, 4.0], subs, MULTIPLICATIVE, [1.0])
    assert g.tolist() == [12.0, 8.0, 6.0]


def test_backward_pairwise_pinned():
    subs = enumerate_subsets(3, 3)
    g = combine_backward([1.0, 2.0, 3.0], subs, PAIRWISE_SUM, [1.0])
    assert g.tolist() == [5.0, 4.0, 3.0]


def test_backward_zero_entries_stay_finite():
    # partials at a zero feature must multiply the others, not divide by zero
    subs = enumerate_subsets(3, 3)
    g = combine_backward([0.0, 2.0, 3.0], subs, MULTIPLICATIVE, [1.0])
    assert g.tolist() == [6.0, 0.0, 0.0]


def test_backward_upstream_length_checked():
    subs = enumerate_subsets(4, 2)
    with pytest.raises(ShapeError):
        combine_backward([1.0, 2.0, 3.0, 4.0], subs, MULTIPLICATIVE, [1.0, 2.0])


def test_backward_matches_finite_differences():
    # independent slope oracle over a grid of sizes, both approaches
    for seed, (n, m) in enumerate((n, m) for n in range(3, 9) for m in (2, 3, 4) if m <= n):
        r = np.random.default_rng(seed)
        x = r.normal(size=n) + 0.1
        subs = enumerate_subsets(n, m)
        upstream = r.normal(size=len(subs))
        for approach in (MULTIPLICATIVE, PAIRWISE_SUM):
            analytic = combine_backward(x, subs, approach, upstream)
            numeric = central_diff(
                lambda v: float(np.dot(upstream, combine_row(v, m, approach))), x)
            assert rel_err(analytic, numeric) < 1e-6


# ---------------------------------------------------------------------------
# CombinationSpec and batch transform
# ---------------------------------------------------------------------------

def test_spec_defaults_and_roundtrip():
    spec = CombinationSpec()
    assert spec.m == 2
    assert spec.approach == MULTIPLICATIVE
    assert not spec.augment_original
    assert [f.name for f in fields(CombinationSpec)] == ["m", "approach", "augment_original"]
    assert CombinationSpec(**asdict(spec)) == spec


def test_spec_problems_name_each_broken_rule():
    assert CombinationSpec(m=0, approach=PAIRWISE_SUM).problems() == [
        "subset size m must be >= 1, got 0", "pairwise_sum needs m >= 2: a 1-subset has no pairs"]
    with pytest.raises(ConfigError, match="unknown approach 'mult'"):
        CombinationSpec(approach="mult").validate()
    with pytest.raises(ConfigError, match=r"m must be in \[1, n\]: m=5, n=4"):
        enumerate_subsets(4, 5)


def test_spec_validate_errors():
    with pytest.raises(ValueError):
        CombinationSpec(m=0).validate()
    with pytest.raises(ValueError):
        CombinationSpec(approach="weird").validate()
    with pytest.raises(ValueError):
        CombinationSpec(m=1, approach=PAIRWISE_SUM).validate()
    with pytest.raises(ValueError):
        transform_dataset(np.ones((1, 4)), CombinationSpec(m=5))
    with pytest.raises(CapacityError):
        transform_dataset(np.ones((1, 25)), CombinationSpec(m=10))


def test_output_dim_accounting():
    X = np.arange(15.0).reshape(3, 5)

    def width(spec):
        return transform_dataset(X, spec).values.shape[1]

    assert width(CombinationSpec(m=2)) == 10
    assert width(CombinationSpec(m=2, augment_original=True)) == 15


def test_transform_shapes():
    X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = transform_dataset(X, CombinationSpec(m=2))
    assert out.values.shape == (2, 3)
    out = transform_dataset(X, CombinationSpec(m=2, augment_original=True))
    assert out.values.shape == (2, 6)
    # originals sit to the right of the combined block
    assert np.array_equal(out.values[:, 3:], X)


def test_transform_wide_input_dimension():
    X = np.ones((1, 20))
    out = transform_dataset(X, CombinationSpec(m=3))
    assert out.values.shape == (1, 1140)
    assert len(out.subsets) == math.comb(20, 3)


def test_transform_rows_match_single_vector_combiner():
    r = np.random.default_rng(11)
    X = r.normal(size=(5, 6))
    for spec in (CombinationSpec(m=3), CombinationSpec(m=3, approach=PAIRWISE_SUM)):
        out = transform_dataset(X, spec)
        for i in range(5):
            assert np.array_equal(out.values[i], transform_dataset(X[i : i + 1], spec).values[0])


def signed_zero_rows(r, rows, n):
    """Normal draws with about a third of the cells replaced by 0.0, -0.0 or
    +-1e-200, whose products underflow to a signed zero, or by +-1e200, whose
    products overflow to +-inf and whose pairwise sums can be inf - inf = nan."""
    X = r.normal(size=(rows, n))
    mask = r.random(size=X.shape) < 0.35
    X[mask] = r.choice([0.0, -0.0, 1e-200, -1e-200, 1e200, -1e200], size=int(mask.sum()))
    return X


@pytest.mark.parametrize("m,approach,n", [
    # every m at n = 8: the pair table for m <= 6, member gathers for m >= 7
    *((m, approach, 8) for m in range(1, 9) for approach in APPROACHES
      if approach == MULTIPLICATIVE or m >= 2),
    *((3, approach, 30) for approach in APPROACHES),  # 4060 columns, 8 rows a block
])
def test_transform_matches_reference_bytes(m, approach, n):
    # every cell goes through the reference's IEEE operations in its order,
    # signed zeros, infinities and nans included, across block boundaries
    # and partial last blocks
    subsets = enumerate_subsets(n, m)
    height = max(1, BLOCK_BYTES // (8 * len(subsets)))
    r = np.random.default_rng(1000 * m + n)
    row_counts = [0, 1, height - 1, height + 1, 3 * height + 2] if n < 30 else [12 * height + 5]
    for rows in row_counts:
        X = signed_zero_rows(r, rows, n)
        with np.errstate(over="ignore", invalid="ignore"):
            got = transform_dataset(X, CombinationSpec(m=m, approach=approach)).values
        want = combine_reference(X, subsets, approach)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (rows, m, approach)


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("flags", [{}, {"augment_original": True}],
                         ids=["combined_only", "augment"])
def test_transform_allocates_one_block(approach, flags):
    # the originals go into a slice of the one output block; the row
    # blocks' temporaries stay small beside it. At m = 2 the pair table is
    # the output itself (about 13 row blocks here, each 0.075x of it), so a
    # whole-array table, a full-size copy or two live row-block temporaries
    # would break the bound
    X = np.random.default_rng(5).normal(size=(1000, 30))
    for m in (2, 3):
        spec = CombinationSpec(m=m, approach=approach, **flags)
        out, peak = traced_peak(transform_dataset, X, spec)
        assert peak < 1.1 * out.values.nbytes, m


def test_transform_rejects_non_finite():
    with pytest.raises(ValueError):
        transform_dataset(np.array([[1.0, np.nan, 2.0]]), CombinationSpec(m=2))


def test_transform_checks_rank_and_finiteness():
    with pytest.raises(ShapeError):
        transform_dataset(np.zeros((2, 2, 2)), CombinationSpec(m=2))
    with pytest.raises(ValueError):
        transform_dataset(np.array([[1.0, np.inf]]), CombinationSpec(m=2))
    with pytest.raises(ValueError):
        transform_dataset(np.array([[np.nan, 1.0]]), CombinationSpec(m=2))


def test_combined_feature_names():
    subs = enumerate_subsets(3, 2)
    spec = CombinationSpec(m=2)
    assert combined_feature_names(subs, spec) == ["comb_0_1", "comb_0_2", "comb_1_2"]
    spec = CombinationSpec(m=2, augment_original=True)
    names = combined_feature_names(subs, spec, original_names=["a", "b", "c"])
    assert names == ["comb_0_1", "comb_0_2", "comb_1_2", "a", "b", "c"]
    with pytest.raises(ValueError):
        combined_feature_names(subs, CombinationSpec(m=2, augment_original=True))


def test_approaches_constant():
    assert APPROACHES == (MULTIPLICATIVE, PAIRWISE_SUM)
