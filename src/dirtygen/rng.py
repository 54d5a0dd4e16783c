"""Deterministic pseudorandom substreams addressed by (seed, stage, tuple, attribute).

Every random decision in the pipeline draws from a stream whose entire state
is a pure 64-bit function of its address. Streams with distinct addresses are
independent, so changing one part of a run (say, adding an error spec of a
new type) cannot shift the draws of an unrelated part.

Derivation, documented for reproducibility across platforms:

    h0     = mix64(seed XOR GOLDEN)
    h1     = mix64(h0 XOR blake2b_64(stage))
    h2     = mix64(h1 XOR blake2b_64(attribute))
    key(i) = mix64(h2 XOR (i * GOLDEN mod 2^64))

where mix64 is the SplitMix64 finalizer, GOLDEN = 0x9E3779B97F4A7C15, and
blake2b_64 is the first 8 bytes (big-endian) of BLAKE2b over the UTF-8 label.
A stream then emits SplitMix64 outputs seeded at key(i). All arithmetic is
unsigned 64-bit, so results are identical on every platform.

Keys and words may be computed for any sequence of tuple indices at once
(TupleBlock): the same arithmetic runs on every tuple of a block together
and gives identical numbers, so a cell's value does not depend on the block
it was generated in. A block of one tuple reads that tuple's Stream.
"""

from __future__ import annotations

import hashlib
import math
import sys
from array import array
from functools import lru_cache

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

TWO53_INV = 1.0 / (1 << 53)

# Stream.normal's |z| is at most sqrt(-2 ln 2^-53) = sqrt(106 ln 2) ~ 8.5717,
# since random_open() is at least 2^-53: every draw lies within
# NORMAL_Z_BOUND standard deviations of its mean.
NORMAL_Z_BOUND = 9


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed, well-mixed permutation of 64-bit ints."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@lru_cache(maxsize=4096)
def _label_hash(label: str) -> int:
    return int.from_bytes(hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "big")


@lru_cache(maxsize=4096)
def stage_key(seed: int, stage: str, attribute: str = "") -> int:
    """Partially applied address: everything except the tuple index."""
    h = mix64((seed & _MASK64) ^ GOLDEN)
    h = mix64(h ^ _label_hash(stage))
    return mix64(h ^ _label_hash(attribute))


def tuple_key(base: int, tuple_index: int) -> int:
    """key(i) from a partially applied address, base = stage_key(seed, stage, attribute)."""
    return mix64(base ^ ((tuple_index * GOLDEN) & _MASK64))


def address_key(seed: int, stage: str, tuple_index: int = 0, attribute: str = "") -> int:
    return tuple_key(stage_key(seed, stage, attribute), tuple_index)


class Stream:
    """SplitMix64 sequence seeded at a derived address key."""

    __slots__ = ("_state",)

    def __init__(self, key: int) -> None:
        self._state = key & _MASK64

    def u64(self) -> int:
        # mix64 of the advanced state, inlined: this is the innermost call of every draw.
        x = self._state = (self._state + GOLDEN) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        return x ^ (x >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.u64() >> 11) * TWO53_INV

    def random_open(self) -> float:
        """Uniform float in (0, 1], safe as a log() argument."""
        return ((self.u64() >> 11) + 1) * TWO53_INV

    def randrange(self, n: int) -> int:
        """Uniform int in [0, n). Multiply-shift; bias is < n / 2^64."""
        if n <= 0:
            raise ValueError("randrange requires n >= 1")
        return (self.u64() * n) >> 64

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """One Box-Muller draw; consumes exactly two uniforms."""
        return mu + sigma * gaussian(self.random_open(), self.random())

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), drawn via partial Fisher-Yates."""
        if k > n:
            raise ValueError("sample larger than population")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def gaussian(u1: float, u2: float) -> float:
    """Box-Muller: a standard normal value from u1 in (0, 1] and u2 in [0, 1)."""
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def stream_after(base: int, tuple_index: int, words: int) -> Stream:
    """Stream(tuple_key(base, tuple_index)) once it has emitted its first `words` words."""
    return Stream(tuple_key(base, tuple_index) + words * GOLDEN)


# A lane is a 64-bit value held in 128 bits of a packed int: a product of two
# 64-bit values fits its lane, so no carry reaches the next one before the
# mask cuts each lane back to 64 bits.
_LANE_BITS = 128
# The words of the lanes, lane 0 first, in an array('Q') of the packed int's
# bytes in native order: the low half of each 16-byte lane.
_LANE_WORDS = slice(0, None, 2) if sys.byteorder == "little" else slice(-1, None, -2)


def _mix_lanes(x: int, mask: int) -> int:
    """mix64 of every lane; mask keeps the low 64 bits of each lane."""
    x = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    x = ((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (x ^ (x >> 31)) & mask


class TupleBlock:
    """Tuples at any indices, whose streams under one base are drawn at once.

    Each index, in order and repeats included, is one lane of a packed int,
    so a few big-int operations run the SplitMix64 arithmetic of every tuple
    together. The (i * GOLDEN) lanes are packed once per block and shared by
    every base. A block of one tuple reads its Stream instead: packing a
    single lane costs more than it saves.
    """

    __slots__ = ("rows", "_ones", "_mask", "_golden", "_bytes")

    def __init__(self, rows: range | list[int]) -> None:
        self.rows = rows
        if len(rows) == 1:
            return
        self._bytes = len(rows) * _LANE_BITS // 8
        self._ones = self._pack([1] * len(rows))
        self._mask = self._ones * _MASK64
        self._golden = self._pack([(i * GOLDEN) & _MASK64 for i in rows])

    def _pack(self, values: list[int]) -> int:
        lanes = array("Q", bytes(self._bytes))
        lanes[_LANE_WORDS] = array("Q", values)
        return int.from_bytes(lanes, sys.byteorder)

    def words(self, base: int, k: int) -> list[list[int]]:
        """The first k words of Stream(tuple_key(base, i)) for every index i of
        the block: k lists, the j-th holding word j of each index in order."""
        if k == 0:
            return []
        if len(self.rows) == 1:
            stream = Stream(tuple_key(base, self.rows[0]))
            return [[stream.u64()] for _ in range(k)]
        mask, ones = self._mask, self._ones
        state = _mix_lanes(((base & _MASK64) * ones) ^ self._golden, mask)  # tuple_key of every lane
        step = GOLDEN * ones
        out = []
        for _ in range(k):
            state = (state + step) & mask
            lanes = memoryview(_mix_lanes(state, mask).to_bytes(self._bytes, sys.byteorder)).cast("Q")
            out.append(lanes[_LANE_WORDS].tolist())
        return out


def derive_stream(seed: int, stage: str, tuple_index: int = 0, attribute: str = "") -> Stream:
    """The addressed substream for one (stage, tuple, attribute) decision point."""
    return Stream(address_key(seed, stage, tuple_index, attribute))


class IndexPermutation:
    """Seeded bijection of range(size) with O(1) memory and O(1) lookups.

    A four-round Feistel network over the smallest even-bit-width power of
    two >= size, cycle-walking until the image lands inside the domain.
    Used for collision-free unique-value assignment and for exhaustive,
    deterministic target selection in the error planner.
    """

    __slots__ = ("size", "_key", "_half_bits", "_half_mask", "_span")

    def __init__(self, key: int, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self.size = size
        self._key = key & _MASK64
        bits = max(2, (max(size - 1, 1)).bit_length())
        if bits % 2:
            bits += 1
        self._half_bits = bits // 2
        self._half_mask = (1 << self._half_bits) - 1
        self._span = 1 << bits

    def __call__(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside permutation domain of size {self.size}")
        x = index
        while True:
            left = x >> self._half_bits
            right = x & self._half_mask
            for rnd in range(4):
                left, right = right, left ^ (
                    mix64(self._key + (right << 3) + rnd) & self._half_mask
                )
            x = (left << self._half_bits) | right
            if x < self.size:
                return x
