"""Seeded, platform-independent PRNG used for every stochastic choice.

Counter-mode splitmix64 (xorshift family): the i-th output is a pure
function of (seed, stream, i), so streams can be vectorized with numpy
and reproduced bit-exactly on any platform regardless of draw batching.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _mix(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer
    x = (x ^ (x >> _U64(30))) * _MIX1
    x = (x ^ (x >> _U64(27))) * _MIX2
    return x ^ (x >> _U64(31))


class Rng:
    """Deterministic random stream identified by (seed, stream)."""

    def __init__(self, seed: int, stream: int = 0):
        with np.errstate(over="ignore"):
            key = _mix(_U64(seed & 0xFFFFFFFFFFFFFFFF) * _GOLDEN + _U64(stream & 0xFFFFFFFFFFFFFFFF))
        self._key = _U64(key)
        self._counter = 0

    def _block(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix(self._key + (idx + _U64(1)) * _GOLDEN)

    def uniform(self, size=None) -> np.ndarray | float:
        """float64 in [0, 1)."""
        n = int(np.prod(size)) if size is not None else 1
        u = (self._block(n) >> _U64(11)).astype(np.float64) * (2.0 ** -53)
        if size is None:
            return float(u[0])
        return u.reshape(size)

    def normal(self, size=None, scale: float = 1.0) -> np.ndarray | float:
        """Standard normals via Box-Muller."""
        n = int(np.prod(size)) if size is not None else 1
        m = (n + 1) // 2
        u1 = np.maximum((self._block(m) >> _U64(11)).astype(np.float64) * (2.0 ** -53), 2.0 ** -53)
        u2 = (self._block(m) >> _U64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
        z = z * scale
        if size is None:
            return float(z[0])
        return z.reshape(size)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Uses 64-bit multiply-shift reduction."""
        if n <= 0:
            raise ValueError("n must be positive")
        x = int(self._block(1)[0])
        return (x * n) >> 64

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) via random sort keys."""
        keys = self._block(n)
        return np.argsort(keys, kind="stable")

    def shuffle(self, items: list) -> list:
        """Shuffled copy (the input list is not mutated)."""
        return [items[i] for i in self.permutation(len(items))]
