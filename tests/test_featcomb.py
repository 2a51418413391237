"""Combinatorial feature combination: combiners, gradients, transforms."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from twistnet.errors import CapacityError, ShapeError
from twistnet.featcomb import (
    APPROACHES,
    MULTIPLICATIVE,
    PAIRWISE_SUM,
    CombinationSpec,
    combine_backward,
    combine_multiplicative,
    combine_pairwise_sum,
    combined_feature_names,
    enumerate_subsets,
    global_interaction,
    transform_dataset,
)

from helpers import central_diff, rel_err


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
    with pytest.raises(CapacityError):
        enumerate_subsets(30, 15, max_combined=1000)


# ---------------------------------------------------------------------------
# combiners: pinned values
# ---------------------------------------------------------------------------

def test_multiplicative_single_triple():
    subs = enumerate_subsets(3, 3)
    assert combine_multiplicative([2.0, 3.0, 4.0], subs).tolist() == [24.0]


def test_multiplicative_pairs_of_four():
    subs = enumerate_subsets(4, 2)
    out = combine_multiplicative([1.0, 2.0, 3.0, 4.0], subs)
    assert out.tolist() == [2.0, 3.0, 4.0, 6.0, 8.0, 12.0]


def test_multiplicative_zero_absorbs():
    subs = enumerate_subsets(3, 3)
    assert combine_multiplicative([0.0, 2.0, 3.0], subs).tolist() == [0.0]


def test_pairwise_sum_single_triple():
    subs = enumerate_subsets(3, 3)
    assert combine_pairwise_sum([1.0, 2.0, 3.0], subs).tolist() == [11.0]


def test_pairwise_sum_triples_of_four():
    subs = enumerate_subsets(4, 3)
    out = combine_pairwise_sum([1.0, 2.0, 3.0, 4.0], subs)
    assert out.tolist() == [11.0, 14.0, 19.0, 26.0]


def test_pairwise_sum_rejects_singletons():
    with pytest.raises(ValueError):
        combine_pairwise_sum([1.0, 2.0], [(0,), (1,)])


# ---------------------------------------------------------------------------
# dual-route algebra
# ---------------------------------------------------------------------------

def test_full_set_pairwise_equals_square_identity():
    # one subset covering everything: sum_{i<j} x_i x_j == ((sum x)^2 - sum x^2) / 2
    for seed in range(10):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 12))
        x = r.normal(size=n) * 3.0
        got = combine_pairwise_sum(x, [tuple(range(n))])[0]
        want = (x.sum() ** 2 - (x**2).sum()) / 2.0
        assert rel_err(got, want) < 1e-9


def test_m2_approaches_coincide():
    # a 2-subset has exactly one pair, so both operators compute x_i * x_j
    for seed in range(10):
        r = np.random.default_rng(100 + seed)
        n = int(r.integers(2, 9))
        x = r.normal(size=n)
        subs = enumerate_subsets(n, 2)
        a = combine_multiplicative(x, subs)
        b = combine_pairwise_sum(x, subs)
        assert np.max(np.abs(a - b)) < 1e-12


def test_permutation_invariance_of_combined_multiset():
    # reordering input features permutes combined columns but keeps the multiset
    r = np.random.default_rng(7)
    x = r.normal(size=7)
    for m, approach in ((2, MULTIPLICATIVE), (3, MULTIPLICATIVE), (2, PAIRWISE_SUM), (3, PAIRWISE_SUM)):
        subs = enumerate_subsets(7, m)
        combine = combine_multiplicative if approach == MULTIPLICATIVE else combine_pairwise_sum
        base = np.sort(combine(x, subs))
        for t in range(100):
            perm = np.random.default_rng(1000 + t).permutation(7)
            shuffled = np.sort(combine(x[perm], subs))
            assert np.max(np.abs(base - shuffled)) < 1e-12


def test_scaling_laws():
    # scaling inputs by c scales m-products by c^m and pair sums by c^2
    r = np.random.default_rng(3)
    x = r.normal(size=6)
    c = 1.7
    for m in (2, 3, 4):
        subs = enumerate_subsets(6, m)
        mult = combine_multiplicative(x, subs)
        mult_scaled = combine_multiplicative(c * x, subs)
        assert rel_err(mult_scaled, (c**m) * mult) < 1e-9
        pair = combine_pairwise_sum(x, subs)
        pair_scaled = combine_pairwise_sum(c * x, subs)
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
        for approach, combine in (
            (MULTIPLICATIVE, combine_multiplicative),
            (PAIRWISE_SUM, combine_pairwise_sum),
        ):
            analytic = combine_backward(x, subs, approach, upstream)
            numeric = central_diff(lambda v: float(np.dot(upstream, combine(v, subs))), x)
            assert rel_err(analytic, numeric) < 1e-6


# ---------------------------------------------------------------------------
# global interaction
# ---------------------------------------------------------------------------

def test_global_interaction_pinned():
    assert global_interaction([1.0, 2.0, 3.0], "relu") == 11.0
    assert global_interaction([1.0, -2.0, 0.5], "relu") == 0.0
    assert global_interaction([1.0, -2.0, 0.5], "identity") == -2.5


def test_global_interaction_matches_pair_sum():
    for seed in range(8):
        r = np.random.default_rng(seed)
        x = r.normal(size=int(r.integers(2, 15)))
        want = combine_pairwise_sum(x, [tuple(range(len(x)))])[0]
        assert rel_err(global_interaction(x, "identity"), want) < 1e-12


def test_global_interaction_errors():
    with pytest.raises(ValueError):
        global_interaction([1.0])
    with pytest.raises(ValueError):
        global_interaction([1.0, 2.0], "tanh")


# ---------------------------------------------------------------------------
# CombinationSpec and batch transform
# ---------------------------------------------------------------------------

def test_spec_defaults_and_roundtrip():
    spec = CombinationSpec()
    assert spec.m == 2
    assert spec.approach == MULTIPLICATIVE
    assert not spec.augment_original
    assert not spec.append_global_interaction
    assert CombinationSpec(**asdict(spec)) == spec


def test_spec_validate_errors():
    with pytest.raises(ValueError):
        CombinationSpec(m=0).validate()
    with pytest.raises(ValueError):
        CombinationSpec(approach="weird").validate()
    with pytest.raises(ValueError):
        CombinationSpec(m=1, approach=PAIRWISE_SUM).validate()
    with pytest.raises(ValueError):
        CombinationSpec(max_combined=0).validate()
    with pytest.raises(ValueError):
        transform_dataset(np.ones((1, 4)), CombinationSpec(m=5))
    with pytest.raises(CapacityError):
        transform_dataset(np.ones((1, 25)), CombinationSpec(m=10, max_combined=100))


def test_output_dim_accounting():
    X = np.arange(15.0).reshape(3, 5)

    def width(spec):
        return transform_dataset(X, spec).values.shape[1]

    assert width(CombinationSpec(m=2)) == 10
    assert width(CombinationSpec(m=2, augment_original=True)) == 15
    assert width(CombinationSpec(m=2, augment_original=True,
                                 append_global_interaction=True)) == 16


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
        combine = combine_multiplicative if spec.approach == MULTIPLICATIVE else combine_pairwise_sum
        for i in range(5):
            assert np.array_equal(out.values[i], combine(X[i], out.subsets))


def test_transform_interaction_column():
    X = np.array([[1.0, 2.0, 3.0], [1.0, -2.0, 0.5]])
    spec = CombinationSpec(m=2, append_global_interaction=True)
    out = transform_dataset(X, spec)
    assert out.values.shape == (2, 4)
    assert out.values[0, 3] == 11.0
    assert out.values[1, 3] == -2.5


def test_transform_rejects_non_finite():
    with pytest.raises(ValueError):
        transform_dataset(np.array([[1.0, np.nan, 2.0]]), CombinationSpec(m=2))


def test_combined_feature_names():
    subs = enumerate_subsets(3, 2)
    spec = CombinationSpec(m=2)
    assert combined_feature_names(subs, spec) == ["comb_0_1", "comb_0_2", "comb_1_2"]
    spec = CombinationSpec(m=2, augment_original=True, append_global_interaction=True)
    names = combined_feature_names(subs, spec, original_names=["a", "b", "c"])
    assert names == ["comb_0_1", "comb_0_2", "comb_1_2", "a", "b", "c", "interaction"]
    with pytest.raises(ValueError):
        combined_feature_names(subs, CombinationSpec(m=2, augment_original=True))


def test_approaches_constant():
    assert APPROACHES == (MULTIPLICATIVE, PAIRWISE_SUM)
