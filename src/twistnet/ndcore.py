"""The deterministic random stream.

All randomness in this package comes from :class:`Rng`, a counter-based
splitmix64 stream, so a fixed seed yields the same values on every platform
and run.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

RNG_ALGORITHM = "splitmix64"
SEED_LIMIT = 1 << 64  # a seed is an integer in [0, SEED_LIMIT), so each names one stream

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_U53 = 2.0 ** -53


class Rng:
    """splitmix64 stream with an explicit draw counter.

    Output i is a pure function of (seed, i), which lets whole blocks of the
    stream be produced with vectorized uint64 arithmetic while staying
    bit-identical to the scalar reference algorithm.
    """

    algorithm = RNG_ALGORITHM

    def __init__(self, seed: int):
        # int() would truncate 3.7 to seed 3 and read True as seed 1
        if isinstance(seed, bool) or not isinstance(seed, Integral):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        self._counter = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs; advances the counter."""
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        start = self._counter
        self._counter += n
        # state after k increments is seed + k*gamma; output = mix(state)
        idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        z = np.uint64(self.seed) + idx * _GAMMA
        z = (z ^ (z >> _S30)) * _MIX1
        z = (z ^ (z >> _S27)) * _MIX2
        return z ^ (z >> _S31)

    def uniform(self, n: int) -> np.ndarray:
        """Next ``n`` doubles in [0, 1) with 53-bit resolution."""
        return (self.raw(n) >> _S11).astype(np.float64) * _U53

    def normal(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Next ``n`` Gaussian variates via the Box-Muller transform."""
        if std < 0:
            raise ValueError(f"std must be >= 0, got {std}")
        pairs = (n + 1) // 2
        u = self.uniform(2 * pairs)
        r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))  # 1-u keeps log away from 0
        theta = (2.0 * np.pi) * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return mean + std * z[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic random permutation of range(n)."""
        return np.argsort(self.uniform(n), kind="stable")
