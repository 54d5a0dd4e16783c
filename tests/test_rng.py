import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirtygen.rng import (
    IndexPermutation,
    Stream,
    TupleBlock,
    address_key,
    derive_stream,
    mix64,
    stream_after,
    tuple_key,
)


def test_same_address_same_draws():
    a = derive_stream(7, "clean", 0, "age")
    b = derive_stream(7, "clean", 0, "age")
    assert [a.u64() for _ in range(100)] == [b.u64() for _ in range(100)]


def test_distinct_tuple_indices_differ():
    a = derive_stream(7, "clean", 0, "age")
    b = derive_stream(7, "clean", 1, "age")
    assert a.u64() != b.u64()


def test_distinct_seeds_differ():
    a = derive_stream(7, "plan", 0, "age")
    b = derive_stream(8, "plan", 0, "age")
    assert a.u64() != b.u64()


def test_distinct_stages_and_attributes_differ():
    draws = {
        derive_stream(7, stage, 3, attr).u64()
        for stage in ("clean", "plan", "inject")
        for attr in ("age", "city", "")
    }
    assert len(draws) == 9


def test_mix64_is_stable():
    # Frozen reference values; the derivation is a documented contract.
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(0x9E3779B97F4A7C15) == 16294208416658607535


def test_stream_matches_published_splitmix64_sequence():
    # SplitMix64 seeded at 0 famously opens with 0xE220A8397B1DCDAF,
    # 0x6E789E6AA1B965F4, 0x06C45D188009454F.
    s = Stream(0)
    assert s.u64() == 0xE220A8397B1DCDAF
    assert s.u64() == 0x6E789E6AA1B965F4
    assert s.u64() == 0x06C45D188009454F


def test_address_key_is_pure():
    assert address_key(7, "clean", 5, "x") == address_key(7, "clean", 5, "x")
    assert address_key(7, "clean", 5, "x") != address_key(7, "clean", 5, "y")


@pytest.mark.parametrize("length", [1, 2, 255, 256, 257])
def test_block_words_equal_successive_stream_words(length):
    # Contiguous blocks, and sparse ones: unordered lists with repeats, and
    # indices near 2^64. Each lane draws its own tuple's stream.
    rng = random.Random(length)
    starts = (0, rng.randrange(1 << 32), (1 << 32) + rng.randrange(1 << 40), (1 << 64) - length)
    pool = [rng.randrange(1 << 40) for _ in range(max(1, length // 2))]
    scattered = rng.choices(pool, k=length)
    near_top = rng.choices(range((1 << 64) - 2 * length, 1 << 64), k=length)
    if length > 2:
        assert len(set(scattered)) < length and scattered != sorted(scattered)
    for rows in [*(range(lo, lo + length) for lo in starts), scattered, near_top]:
        base = rng.getrandbits(64)
        block = TupleBlock(rows)
        streams = [Stream(tuple_key(base, i)) for i in rows]
        expected = [[stream.u64() for stream in streams] for _ in range(7)]
        for k in range(8):
            assert block.words(base, k) == expected[:k], (rows[0], k)
        # A stream placed after k words continues with word k + 1.
        j = rng.randrange(length)
        for k in (0, 3, 6):
            assert stream_after(base, rows[j], k).u64() == expected[k][j], (rows[0], k)


def test_random_in_unit_interval():
    s = derive_stream(1, "t")
    values = [s.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(sum(values) / len(values) - 0.5) < 0.05


def test_randrange_bounds():
    s = derive_stream(2, "t")
    values = [s.randrange(7) for _ in range(2000)]
    assert set(values) == set(range(7))


def test_normal_moments():
    s = derive_stream(3, "t")
    values = [s.normal(10.0, 2.0) for _ in range(20000)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert abs(mean - 10.0) < 0.05
    assert abs(math.sqrt(var) - 2.0) < 0.05


@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_index_permutation_is_bijective(size, key):
    perm = IndexPermutation(key, size)
    image = {perm(i) for i in range(size)}
    assert image == set(range(size))


def test_index_permutation_deterministic():
    a = IndexPermutation(42, 1000)
    b = IndexPermutation(42, 1000)
    assert [a(i) for i in range(50)] == [b(i) for i in range(50)]


def test_sample_indices_distinct():
    s = Stream(99)
    sample = s.sample_indices(10, 7)
    assert len(sample) == 7
    assert len(set(sample)) == 7
    assert all(0 <= v < 10 for v in sample)
