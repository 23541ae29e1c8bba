"""Tests for the deterministic randomness utilities (repro.net.rng)."""

from __future__ import annotations

import contextlib
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.rng import (
    _CACHED_COUNTERS,
    DeterministicRNG,
    absorb,
    derive_rng,
    encode_parts,
    first_distinct,
    hash_prefix,
    keyed_draws,
    random_bitstring,
    stable_hash,
)


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


class TestEncodeParts:
    def test_matches_stable_hash_encoding(self):
        # encode_parts must be the same length-prefixed repr encoding that
        # stable_hash absorbs — checked indirectly via a digest round-trip.
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(encode_parts(11, "name", 3))
        assert int.from_bytes(hasher.digest(), "big") == stable_hash(11, "name", 3)


#: sampler-shaped keys: a seed, a family name, then string and integer parts
keys = st.tuples(
    st.integers(0, 10**6),
    st.sampled_from(["I", "H", "J", "ae-committee"]),
    st.lists(st.one_of(st.text("01", max_size=40), st.integers(0, 10**9)), max_size=3),
).map(lambda key: (key[0], key[1], *key[2]))


class TestFirstDistinct:
    @given(keys, st.integers(1, 12), st.one_of(st.integers(0, 4), st.integers(0, 10**6)))
    @settings(max_examples=80, deadline=None)
    def test_is_the_sorted_first_distinct_stable_hash_draws(self, key, size, slack):
        # the reference is the committees' former loop, written out
        n = size + slack
        members, seen, counter = [], set(), 0
        while len(members) < size:
            candidate = stable_hash(*key, counter) % n
            counter += 1
            if candidate not in seen:
                seen.add(candidate)
                members.append(candidate)
        assert first_distinct(hash_prefix(*key), size, n) == tuple(sorted(members))

    @given(keys, st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_size_n_draws_every_value(self, key, n):
        assert first_distinct(hash_prefix(*key), n, n) == tuple(range(n))

    @pytest.mark.parametrize("size", [290, 300])
    def test_draws_past_the_encoded_counters(self, size):
        # ~1 000 (290 of 300) and ~1 900 (all 300) counters: far past the
        # pre-encoded ones, and the 290 kept depend on every draw's value
        key, n = (5, "H", "0110", 9), 300
        members, counter = set(), 0
        while len(members) < size:
            members.add(stable_hash(*key, counter) % n)
            counter += 1
        assert counter > 2 * _CACHED_COUNTERS
        assert first_distinct(hash_prefix(*key), size, n) == tuple(sorted(members))

    def test_leaves_the_keyed_hasher_unchanged(self):
        hasher = hash_prefix(7, "I", "0110")
        before = hasher.digest()
        first_distinct(hasher, 5, 9)
        assert hasher.digest() == before


class TestKeyedDraws:
    def test_are_the_stable_hash_draws_past_the_encoded_counters(self):
        key, n = (3, "I", "1001", 4), 1000
        draws = keyed_draws(hash_prefix(*key), n)
        got = [next(draws) for _ in range(_CACHED_COUNTERS + 20)]
        assert got == [stable_hash(*key, c) % n for c in range(_CACHED_COUNTERS + 20)]

    @given(keys, st.integers(1, 12), st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_first_distinct_keeps_their_first_distinct_values(self, key, size, slack):
        n = size + slack
        seen = set()
        for value in keyed_draws(hash_prefix(*key), n):
            seen.add(value)
            if len(seen) == size:
                break
        assert first_distinct(hash_prefix(*key), size, n) == tuple(sorted(seen))


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


#: around the replay's word boundaries (k = 32, 33, 64, 65 bits) and the
#: backends' own spaces (n² at n = 96 and 20 000)
LABEL_SPACES = [
    2, 16, 2**32 - 1, 2**32, 2**32 + 1, 96**2, 20_000**2, 10**12,
    2**64 - 1, 2**64, 2**64 + 1,
]


@contextlib.contextmanager
def forced_replay():
    """Every ``draw_labels`` batch takes the numpy replay; yields its kernel calls."""
    import repro.vec.labels as labels

    calls = []
    kernel = labels.first_outputs

    def spy(keys, count):
        calls.append(keys.shape[1])
        return kernel(keys, count)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(labels, "MIN_BATCH", 1)
        patch.setattr(labels, "first_outputs", spy)
        yield calls


def stream_draws(seed, nodes, prior, space):
    """What each node's open ``derive_rng`` stream draws next, after ``prior``."""
    streams = {}
    for x in sorted(set(nodes)):
        streams[x] = derive_rng(seed, "node", x)
        for _ in range(prior[x]):
            streams[x].randrange(space)
    return [streams[x].randrange(space) for x in nodes]


class _TopWordZeroed:
    """A node-key hasher whose digest loses its top word for even node ids."""

    def __init__(self, hasher, short=False):
        self.hasher, self.short = hasher, short

    def copy(self):
        return _TopWordZeroed(self.hasher.copy(), self.short)

    def update(self, data):
        self.hasher.update(data)
        self.short = data[-1] % 2 == 0  # the id's last ASCII digit

    def digest(self):
        digest = self.hasher.digest()
        return bytes(4) + digest[4:] if self.short else digest


class TestLabelReplay:
    """The numpy replay of ``draw_labels`` against the real ``random.Random`` streams."""

    @pytest.mark.parametrize(
        "key", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96, 2**128 - 1]
    )
    def test_kernel_outputs_are_getrandbits_32(self, key):
        from repro.vec.labels import first_outputs

        length = max(1, -(-key.bit_length() // 32))  # the words Random.seed keys on
        words = np.array([[(key >> 32 * w) & 0xFFFFFFFF] for w in range(length)], dtype=np.uint32)
        rng = random.Random(key)
        assert first_outputs(words, 227)[:, 0].tolist() == [rng.getrandbits(32) for _ in range(227)]

    @given(st.lists(st.integers(2**96, 2**128 - 1), min_size=1, max_size=8), st.integers(1, 227))
    @settings(max_examples=40, deadline=None)
    def test_kernel_columns_are_independent_generators(self, keys, count):
        from repro.vec.labels import first_outputs

        words = np.array([[(k >> 32 * w) & 0xFFFFFFFF for k in keys] for w in range(4)], dtype=np.uint32)
        out = first_outputs(words, count)
        for column, key in enumerate(keys):
            rng = random.Random(key)
            assert out[:, column].tolist() == [rng.getrandbits(32) for _ in range(count)]

    @pytest.mark.parametrize("space", LABEL_SPACES)
    @given(
        st.integers(0, 10**6),
        st.lists(st.integers(0, 40), min_size=1, max_size=60),
        st.lists(st.integers(0, 10), min_size=41, max_size=41),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_the_node_streams(self, space, seed, nodes, prior):
        from repro.vec.labels import draw_labels

        counts = np.array(prior, dtype=np.int32)
        expected = stream_draws(seed, nodes, prior, space)
        with forced_replay() as calls:
            assert draw_labels(seed, nodes, counts, space) == expected
        assert counts.tolist() == [p + nodes.count(x) for x, p in enumerate(prior)]
        assert bool(calls) == (space.bit_length() <= 64)

    def test_draws_past_the_computed_words_take_the_node_loop(self):
        from repro.vec.labels import draw_labels

        nodes, prior = [0, 1, 2, 1], [0, 300, 2]
        counts = np.array(prior, dtype=np.int32)
        with forced_replay() as calls:
            assert draw_labels(4, nodes, counts, 2) == stream_draws(4, nodes, prior, 2)
        assert calls

    def test_keys_under_four_words_take_the_node_loop(self, monkeypatch):
        import repro.vec.labels as labels

        monkeypatch.setattr(labels, "hash_prefix", lambda *parts: _TopWordZeroed(hash_prefix(*parts)))
        nodes, space = list(range(40)) + [2, 3], 20_000**2

        def key(x):
            hasher = _TopWordZeroed(hash_prefix(9, "node")).copy()
            absorb(hasher, x)
            return int.from_bytes(hasher.digest(), "big")

        assert key(2) < 2**96 <= key(3)
        streams = {x: random.Random(key(x)) for x in set(nodes)}
        expected = [streams[x].randrange(space) for x in nodes]
        with forced_replay() as calls:
            assert labels.draw_labels(9, nodes, np.zeros(40, dtype=np.int32), space) == expected
        assert calls

    def test_one_chunk_and_many_chunks_draw_the_same_labels(self):
        from repro.vec.labels import draw_labels

        nodes = list(range(3000)) + list(range(0, 3000, 7))
        results = []
        with forced_replay() as calls:
            for budget in (None, 1):
                counts = np.zeros(3000, dtype=np.int32)
                results.append((draw_labels(2, nodes, counts, 20_000**2, budget), counts.tolist()))
        assert results[0] == results[1]
        assert calls[0] == 3000 and len(calls) > 2  # one chunk, then many
        assert results[0][0][:5] == stream_draws(2, range(5), [0] * 5, 20_000**2)


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

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(),
        st.sampled_from([random.Random, lambda seed: DeterministicRNG(seed, "bits")]),
    )
    @settings(max_examples=150, deadline=None)
    def test_is_the_per_bit_random_loop(self, length, seed, make):
        # one getrandbits call against one random() call per bit: the same
        # string, and the generator left in the same state
        rng, reference = make(seed), make(seed)
        expected = "".join("1" if reference.random() < 0.5 else "0" for _ in range(length))
        assert random_bitstring(rng, length) == expected
        assert rng.getstate() == reference.getstate()
