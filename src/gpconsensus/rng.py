"""Deterministic random number generation for reproducible runs.

The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit Weyl
counter followed by a fixed bit-mixing permutation. Gaussian variates
are produced from it with the Box-Muller transform. Both algorithms are
implemented here in full so the byte stream of every simulation depends
only on the seed, not on the random-number internals of any third-party
library. Streams for Monte Carlo run k are derived as seed + k.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / (1 << 53)


class SplitMix64:
    """SplitMix64 stream with uniform and Gaussian draw methods.

    Parameters
    ----------
    seed : int
        Any integer; taken modulo 2**64.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._cached_normal: float | None = None

    def next_uint64(self) -> int:
        """Advance the Weyl counter and return the next mixed 64-bit word."""
        self._state = (self._state + _WEYL) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.next_uint64() >> 11) * _INV_2_53

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform double in [lo, hi)."""
        return lo + (hi - lo) * self.random()

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Gaussian draw via Box-Muller; second variate of each pair is cached."""
        if self._cached_normal is not None:
            z = self._cached_normal
            self._cached_normal = None
        else:
            # u1 in (0, 1] so log(u1) is finite.
            u1 = ((self.next_uint64() >> 11) + 1) * _INV_2_53
            u2 = (self.next_uint64() >> 11) * _INV_2_53
            r = math.sqrt(-2.0 * math.log(u1))
            theta = 2.0 * math.pi * u2
            z = r * math.cos(theta)
            self._cached_normal = r * math.sin(theta)
        return mu + sigma * z
