"""The deterministic random stream."""

import numpy as np
import pytest

from twistnet.ndcore import RNG_ALGORITHM, Rng

from helpers import splitmix64_reference


# ---------------------------------------------------------------------------
# Rng
# ---------------------------------------------------------------------------

def test_algorithm_name():
    assert RNG_ALGORITHM == "splitmix64"
    assert Rng(0).algorithm == "splitmix64"


def test_raw_matches_scalar_reference():
    for seed in (0, 1, 42, 12345, 2**63, 2**64 - 1):
        expected = splitmix64_reference(seed, 64)
        got = Rng(seed).raw(64)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == expected


def test_raw_known_first_output():
    # first output for seed 0, from the published reference implementation
    assert int(Rng(0).raw(1)[0]) == 0xE220A8397B1DCDAF


def test_raw_counter_continues_across_calls():
    r = Rng(7)
    first = [int(v) for v in r.raw(5)]
    second = [int(v) for v in r.raw(5)]
    assert first + second == splitmix64_reference(7, 10)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # masked to 64 bits, -1 would alias 2**64 - 1 and 2**64 would alias 0
    with pytest.raises(ValueError, match=rf"\[0, 2\*\*64\), got {seed}"):
        Rng(seed)


@pytest.mark.parametrize("seed", [3.7, True])
def test_seed_not_an_integer_rejected(seed):
    # int() would read 3.7 as seed 3 and True as seed 1
    with pytest.raises(ValueError, match=rf"seed must be an integer, got {seed}"):
        Rng(seed)


def test_numpy_integer_seed_is_that_seed():
    assert np.array_equal(Rng(np.uint64(7)).raw(3), Rng(7).raw(3))


def test_raw_negative_count_rejected():
    with pytest.raises(ValueError):
        Rng(0).raw(-1)


def test_uniform_deterministic_and_in_range():
    a = Rng(42).uniform(1000)
    b = Rng(42).uniform(1000)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(a < 1.0)
    assert Rng(42).uniform(0).shape == (0,)


def test_uniform_matches_reference_scaling():
    raw = splitmix64_reference(9, 8)
    expected = [(v >> 11) * 2.0**-53 for v in raw]
    assert np.allclose(Rng(9).uniform(8), expected, rtol=0, atol=0)


def test_uniform_mean():
    u = Rng(3).uniform(100_000)
    assert abs(u.mean() - 0.5) < 0.01


def test_normal_statistics():
    z = Rng(5).normal(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.05


def test_normal_zero_std_and_mean_shift():
    z = Rng(1).normal(10, 4.5, 0.0)
    assert np.array_equal(z, np.full(10, 4.5))
    shifted = Rng(2).normal(100, 3.0, 2.0)
    base = Rng(2).normal(100, 0.0, 1.0)
    assert np.allclose(shifted, 3.0 + 2.0 * base)


def test_normal_negative_std_rejected():
    with pytest.raises(ValueError):
        Rng(0).normal(4, 0.0, -1.0)


def test_normal_reproducible():
    assert np.array_equal(Rng(11).normal(101), Rng(11).normal(101))


def test_permutation_properties():
    for seed in range(5):
        p = Rng(seed).permutation(40)
        assert sorted(p.tolist()) == list(range(40))
    assert np.array_equal(Rng(0).permutation(17), Rng(0).permutation(17))
    assert Rng(0).permutation(0).shape == (0,)
    assert Rng(0).permutation(1).tolist() == [0]


def test_module_level_wrappers():
    # mean and std rescale the same standard-normal draws
    assert np.array_equal(Rng(8).normal(5, 1.0, 2.0), 1.0 + 2.0 * Rng(8).normal(5))

