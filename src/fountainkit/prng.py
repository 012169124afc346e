"""Deterministic pseudo-random generator used by all randomized codecs.

splitmix64 with the published constants, so coefficient streams, degree
draws and neighbor sets replay bit-identically from a 64-bit seed on any
platform.  Not cryptographic; statistical quality is ample for coding
coefficients.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Stateful splitmix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def below_many(self, n: int, count: int) -> list[int]:
        """`count` draws from [0, n): the values, and the end state, of
        `count` calls of `next_below(n)`, with its rejection loop and the
        splitmix64 step inlined."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        gamma, mask, mix1, mix2 = _GAMMA, _MASK64, _MIX1, _MIX2
        state = self._state
        out: list[int] = []
        append = out.append
        for _ in range(count):
            while True:
                state = (state + gamma) & mask
                z = ((state ^ (state >> 30)) * mix1) & mask
                z = ((z ^ (z >> 27)) * mix2) & mask
                v = z ^ (z >> 31)
                if v < limit:
                    break
            append(v % n)
        self._state = state
        return out

    def sample_distinct(self, n: int, count: int) -> list[int]:
        """`count` distinct integers from [0, n), by rejection of duplicates.

        Order of first appearance is kept, so the result is a deterministic
        function of the stream state.
        """
        if count > n:
            raise ValueError(f"cannot draw {count} distinct values from range({n})")
        picked: list[int] = []
        if count <= 0:
            return picked
        # The `next_below` rejection loop with the splitmix64 step inlined:
        # this is the hottest call of every seed-and-degree codec.
        seen: set[int] = set()
        limit = (1 << 64) - ((1 << 64) % n)
        gamma, mask, mix1, mix2 = _GAMMA, _MASK64, _MIX1, _MIX2
        state = self._state
        while len(picked) < count:
            state = (state + gamma) & mask
            z = ((state ^ (state >> 30)) * mix1) & mask
            z = ((z ^ (z >> 27)) * mix2) & mask
            v = z ^ (z >> 31)
            if v < limit:
                v %= n
                if v not in seen:
                    seen.add(v)
                    picked.append(v)
        self._state = state
        return picked

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates using this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
