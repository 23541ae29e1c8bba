"""Tests for the deterministic randomness utilities (repro.net.rng)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.net.rng import DeterministicRNG, derive_rng, random_bitstring, stable_hash


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("a", 1, 2) == stable_hash("a", 1, 2)

    def test_different_inputs_differ(self):
        assert stable_hash("a") != stable_hash("b")

    def test_type_sensitive(self):
        # The string "1" and the integer 1 must not collide.
        assert stable_hash(1) != stable_hash("1")

    def test_order_sensitive(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_returns_nonnegative_int(self):
        value = stable_hash("x", 42)
        assert isinstance(value, int)
        assert value >= 0

    def test_128_bit_range(self):
        assert stable_hash("anything") < 2**128

    @given(st.lists(st.integers(), min_size=1, max_size=5))
    def test_hypothesis_deterministic(self, parts):
        assert stable_hash(*parts) == stable_hash(*parts)

    @given(st.integers(), st.integers())
    def test_hypothesis_concat_vs_tuple(self, a, b):
        # Hashing two parts is not the same as hashing their concatenation as one part.
        assert stable_hash(a, b) == stable_hash(a, b)
        if a != b:
            assert stable_hash(a, b) != stable_hash(b, a)


class TestDeriveRng:
    def test_same_scope_same_stream(self):
        a = derive_rng(3, "node", 1)
        b = derive_rng(3, "node", 1)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_scopes_differ(self):
        a = derive_rng(3, "node", 1)
        b = derive_rng(3, "node", 2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_master_seeds_differ(self):
        a = derive_rng(3, "node", 1)
        b = derive_rng(4, "node", 1)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_is_random_instance(self):
        rng = derive_rng(0, "x")
        assert isinstance(rng, random.Random)
        assert isinstance(rng, DeterministicRNG)

    def test_label_records_scope(self):
        rng = derive_rng(0, "node", 17)
        assert "node" in rng.label
        assert "17" in rng.label


class TestVecLabelDraws:
    """The vectorized backend's label draws replay each node's private stream."""

    @pytest.mark.parametrize("space", [96**2, 20_000**2, 10**12, 1 << 16])
    def test_first_second_and_third_draws(self, space):
        import numpy as np

        from repro.vec.engine import draw_labels

        seed, nodes = 5, [3, 11, 3, 0, 3, 11]
        counts = np.zeros(12, dtype=np.int32)
        streams = {x: derive_rng(seed, "node", x) for x in set(nodes)}
        expected = [streams[x].randrange(space) for x in nodes]
        assert draw_labels(seed, nodes, counts, space) == expected
        assert counts[3] == 3 and counts[11] == 2 and counts[0] == 1
        # a later batch resumes every stream where the counter left it
        assert draw_labels(seed, [11], counts, space) == [streams[11].randrange(space)]


class TestRandomBitstring:
    def test_length(self):
        rng = derive_rng(1, "bits")
        assert len(random_bitstring(rng, 40)) == 40

    def test_only_binary_characters(self):
        rng = derive_rng(1, "bits")
        assert set(random_bitstring(rng, 200)) <= {"0", "1"}

    def test_zero_length(self):
        rng = derive_rng(1, "bits")
        assert random_bitstring(rng, 0) == ""

    def test_deterministic_given_rng_state(self):
        assert random_bitstring(derive_rng(5, "s"), 32) == random_bitstring(
            derive_rng(5, "s"), 32
        )

    def test_roughly_balanced(self):
        rng = derive_rng(9, "balance")
        bits = random_bitstring(rng, 4000)
        ones = bits.count("1")
        assert 1700 < ones < 2300

    @given(st.integers(min_value=0, max_value=256), st.integers())
    def test_hypothesis_length_and_alphabet(self, length, seed):
        bits = random_bitstring(random.Random(seed), length)
        assert len(bits) == length
        assert set(bits) <= {"0", "1"}
