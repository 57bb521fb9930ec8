"""Seeded, platform-independent PRNG used for every stochastic choice.

Counter-mode splitmix64 (xorshift family): the i-th output is a pure
function of (seed, stream, i), so streams can be vectorized with numpy
and reproduced bit-exactly on any platform regardless of draw batching.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(x):
    # splitmix64 finalizer, on a uint64 array or on a Python int
    x = (x ^ (x >> 30)) * _MIX1 & _MASK
    x = (x ^ (x >> 27)) * _MIX2 & _MASK
    return x ^ (x >> 31)


class Rng:
    """Deterministic random stream identified by (seed, stream)."""

    def __init__(self, seed: int, stream: int = 0):
        self._key = _mix(((seed & _MASK) * _GOLDEN + (stream & _MASK)) & _MASK)
        self._counter = 0

    def _block(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix(self._key + idx * _GOLDEN)  # uint64 arrays wrap silently

    def _next(self) -> int:
        """The next output on Python ints, equal to ``_block(1)[0]``."""
        self._counter += 1
        return _mix((self._key + self._counter * _GOLDEN) & _MASK)

    def uniform(self, size=None) -> np.ndarray | float:
        """float64 in [0, 1)."""
        if size is None:
            return (self._next() >> 11) * 2.0 ** -53
        u = (self._block(int(np.prod(size))) >> 11).astype(np.float64) * (2.0 ** -53)
        return u.reshape(size)

    def normal(self, size=None, scale: float = 1.0) -> np.ndarray | float:
        """Standard normals via Box-Muller."""
        n = int(np.prod(size)) if size is not None else 1
        m = (n + 1) // 2
        u1 = np.maximum((self._block(m) >> 11).astype(np.float64) * (2.0 ** -53), 2.0 ** -53)
        u2 = (self._block(m) >> 11).astype(np.float64) * (2.0 ** -53)
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
        return (self._next() * n) >> 64

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) via random sort keys."""
        keys = self._block(n)
        return np.argsort(keys, kind="stable")

    def shuffle(self, items: list) -> list:
        """Shuffled copy (the input list is not mutated)."""
        return [items[i] for i in self.permutation(len(items))]
