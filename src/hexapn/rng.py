"""Seedable 64-bit generator used by the random search.

The generator is a counter-mode mixer: stream j of a run with seed s starts
from state0 = mix(s ^ mix((j + 1) * GOLDEN)), and the k-th draw is
mix(state0 + k * GOLDEN), where mix is two xor-multiply rounds:

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

with GOLDEN = 0x9E3779B97F4A7C15 and all arithmetic mod 2^64. mix is a
bijection on 64-bit words, so distinct counters never collide. Streams are
addressed by sample index, which makes sharded runs produce byte-identical
output for any shard count. mix64 also runs on numpy uint64 arrays and never
writes into its argument; below never rejects a power-of-two bound.
"""

from __future__ import annotations

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z):
    z = z & MASK  # a copy: the in-place steps below never touch the caller's array
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


class Stream64:
    """Draw-by-counter stream; stream j is independent of all other streams."""

    def __init__(self, seed: int, stream: int = 0):
        self.state0 = mix64((seed & MASK) ^ mix64(((stream + 1) * GOLDEN) & MASK))
        self.counter = 0

    def next64(self) -> int:
        v = mix64((self.state0 + self.counter * GOLDEN) & MASK)
        self.counter += 1
        return v

    def below(self, bound: int) -> int:
        """Uniform draw in [0, bound) by rejecting the biased tail."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (MASK + 1) - (MASK + 1) % bound
        while True:
            v = self.next64()
            if v < limit:
                return v % bound
