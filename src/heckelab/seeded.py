"""Seeded integer draws, bit for bit those of numpy.random.default_rng(seed).

PCG64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation", 2014), a 128-bit LCG with
XSL-RR output, seeded by SeedSequence (her seed_seq_fe).  integers(low, high)
is Lemire's method (ACM TOMACS 29, 2019) on 32-bit draws, each the low half
of a 64-bit output whose high half serves the next draw.  numpy draws ranges
below 2^32 this way, and only those are supported.
"""

from __future__ import annotations

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64), as ints."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> s & M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        hash_a, value = hash_a * 0x931E8875 & M32, value ^ hash_a
        value = value * hash_a & M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = 0xCA01F9DD * x - 0x4973F715 * y & M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        pool = [mix(x, hashmix(word)) for x in pool]
    hash_b, halves = 0x8B51F9DD, []
    for i in range(8):
        hash_b, value = hash_b * 0x58F38DED & M32, pool[i % 4] ^ hash_b
        value = value * hash_b & M32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """numpy.random.default_rng(seed), for its integers() draws below 2^32."""

    def __init__(self, seed: int):
        w = _seed_words(seed)
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & M128
        # from state 0: one step, add the initial state, one step
        self._state = (self._inc + (w[0] << 64 | w[1])) * PCG_MULT + self._inc & M128
        self._half: int | None = None

    def _next32(self) -> int:
        if self._half is not None:
            out, self._half = self._half, None
            return out
        s = self._state = self._state * PCG_MULT + self._inc & M128
        x, rot = (s >> 64 ^ s) & M64, s >> 122
        x = (x >> rot | x << (64 - rot)) & M64
        self._half = x >> 32
        return x & M32

    def integers(self, low: int, high: int, size: int | None = None):
        """One draw in [low, high), or a list of size draws, as numpy's."""
        span = high - low
        if not 0 < span <= M32:
            raise ValueError(f"need 0 < high - low < 2^32, got [{low}, {high})")
        draws = []
        for _ in range(1 if size is None else size):
            m = 0  # span 1 draws nothing
            if span > 1:
                m = self._next32() * span
                while m & M32 < (1 << 32) % span:  # low words below 2^32 mod span bias
                    m = self._next32() * span
            draws.append(low + (m >> 32))
        return draws[0] if size is None else draws
