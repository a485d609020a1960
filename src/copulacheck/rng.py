"""Deterministic pseudo-random generator for reproducible verification runs.

splitmix64: the 64-bit state advances by the golden-ratio constant and each
output is finalized by two xorshift-multiply rounds (Steele, Lea & Flood).
The whole algorithm is a dozen lines, so its output for a given seed is
identical on every platform and interpreter version, which the byte-identical
report contract requires.  It draws only the random boxes, a whole batch in
one ``below_many`` loop.  Draws in ``[0, n)`` use the remainder of a 64-bit
output; the modulo bias (negligible for the box lattice, n <= 1001) is
irrelevant because the generator serves determinism, not statistics.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Seeded 64-bit generator; same seed, same stream, everywhere."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def below(self, n: int) -> int:
        """Draw an integer in ``[0, n)``."""
        return self.below_many(n, 1)[0]

    def below_many(self, n: int, count: int) -> list[int]:
        """``count`` draws in ``[0, n)``, the stream of ``count`` calls to ``below``."""
        if n <= 0:
            raise ValueError(f"below() needs a positive bound, got {n}")
        state, out = self._state, []
        for _ in range(count):
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            out.append((z ^ (z >> 31)) % n)
        self._state = state
        return out
