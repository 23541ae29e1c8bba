"""The batched draws must match ``stable_hash`` and the samplers bit-for-bit.

The vectorized engine's exactness guarantee bottoms out here: every quorum
and poll-list membership it computes comes from
:func:`repro.vec.hashing.batch_digest_mod` /
:func:`repro.vec.hashing.first_distinct_rows`, which make the samplers'
``hashlib`` draws a table at a time and select the members in numpy.
These tests check them against :func:`repro.net.rng.stable_hash` and against
the Python samplers' member loops, including prefixes beyond one blake2b
block and collision-heavy rows.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import AERConfig
from repro.net.rng import stable_hash
from repro.vec.hashing import (
    batch_digest_mod,
    encode_parts,
    first_distinct_rows,
)


class TestBatchDigestMod:
    def test_matches_stable_hash(self):
        n = 997
        prefix = encode_parts(12345, "H", "0110")
        xs = np.arange(200, dtype=np.int64)
        counters = np.arange(200, dtype=np.int64) % 7
        got = batch_digest_mod(prefix, [xs, counters], n)
        expected = [
            stable_hash(12345, "H", "0110", int(x), int(c)) % n
            for x, c in zip(xs, counters)
        ]
        assert got.tolist() == expected

    def test_mixed_digit_lengths(self):
        # Values spanning 1-7 decimal digits land in different shape buckets;
        # every bucket must still match the reference encoding.
        n = 101
        prefix = encode_parts(7, "J")
        values = np.array([0, 9, 10, 99, 100, 123456, 9999999], dtype=np.int64)
        got = batch_digest_mod(prefix, [values], n)
        expected = [stable_hash(7, "J", int(v)) % n for v in values]
        assert got.tolist() == expected

    def test_oversized_message_falls_back_to_hashlib(self):
        # A prefix near the 128-byte block boundary forces the per-row path.
        long_string = "x" * 150
        prefix = encode_parts(1, long_string)
        assert len(prefix) > 128
        values = np.array([3, 14, 159], dtype=np.int64)
        got = batch_digest_mod(prefix, [values], 271)
        expected = [stable_hash(1, long_string, int(v)) % 271 for v in values]
        assert got.tolist() == expected


class TestFirstDistinctRows:
    def test_matches_sampler_member_loop(self):
        n, size = 211, 9
        prefix = encode_parts(42, "H", "1010")
        xs = np.arange(64, dtype=np.int64)
        got = first_distinct_rows(prefix, [xs], size, n)
        for i, x in enumerate(xs):
            members, seen, counter = [], set(), 0
            while len(members) < size:
                candidate = stable_hash(42, "H", "1010", int(x), counter) % n
                counter += 1
                if candidate not in seen:
                    seen.add(candidate)
                    members.append(candidate)
            assert got[i].tolist() == sorted(members)

    def test_collision_heavy_rows_resolve_exactly(self):
        # n barely above size guarantees duplicate draws, exercising the
        # per-row exact fallback behind the batched extra_draws window.
        n, size = 5, 4
        prefix = encode_parts(0, "J")
        xs = np.arange(20, dtype=np.int64)
        got = first_distinct_rows(prefix, [xs], size, n, extra_draws=0)
        for i, x in enumerate(xs):
            members, seen, counter = [], set(), 0
            while len(members) < size:
                candidate = stable_hash(0, "J", int(x), counter) % n
                counter += 1
                if candidate not in seen:
                    seen.add(candidate)
                    members.append(candidate)
            assert got[i].tolist() == sorted(members)

    def test_matches_quorum_sampler(self):
        config = AERConfig.for_system(256, sampler_seed=3)
        samplers = config.shared_samplers()
        s = "1" * config.string_length
        table = samplers.pull.table(s)
        xs = np.arange(256, dtype=np.int64)
        prefix = encode_parts(samplers.pull.spec.seed, samplers.pull.name, s)
        got = first_distinct_rows(prefix, [xs], samplers.pull.quorum_size, 256)
        for x in range(256):
            assert got[x].tolist() == list(table.quorum(x))

    def test_matches_poll_sampler(self):
        config = AERConfig.for_system(128, sampler_seed=5)
        samplers = config.shared_samplers()
        poll = samplers.poll
        rows = [(x, r) for x in range(16) for r in (0, 1, poll.label_space - 1)]
        xs = np.array([x for x, _ in rows], dtype=np.int64)
        rs = np.array([r for _, r in rows], dtype=np.int64)
        prefix = encode_parts(poll.spec.seed, poll.name)
        got = first_distinct_rows(prefix, [xs, rs], poll.list_size, 128)
        for i, (x, r) in enumerate(rows):
            assert got[i].tolist() == sorted(poll.entry(x, r).members)


@given(
    prefix_parts=st.one_of(
        st.just(()), st.tuples(st.integers(0, 10**6), st.text("01", max_size=180))
    ),
    table=st.lists(st.tuples(*[st.integers(0, 10**12)] * 3), min_size=1, max_size=6),
    width=st.integers(1, 3),
    size=st.integers(1, 10),
    slack=st.one_of(st.integers(0, 8), st.integers(0, 10**7 - 10)),
    extra_draws=st.sampled_from([0, 4]),
)
@settings(max_examples=60, deadline=None)
def test_draws_match_the_stable_hash_loop(prefix_parts, table, width, size, slack, extra_draws):
    # prefixes of 0-197 bytes (one blake2b block is 128), n from size upward
    n = size + slack
    prefix = encode_parts(*prefix_parts)
    rows = [row[:width] for row in table]
    columns = [np.array(column, dtype=np.int64) for column in zip(*rows)]
    digests = batch_digest_mod(prefix, columns, n)
    assert digests.tolist() == [stable_hash(*prefix_parts, *row) % n for row in rows]
    members = first_distinct_rows(prefix, columns, size, n, extra_draws=extra_draws)
    for row, got in zip(rows, members.tolist()):
        drawn, counter = [], 0
        while len(drawn) < size:
            draw = stable_hash(*prefix_parts, *row, counter) % n
            counter += 1
            if draw not in drawn:
                drawn.append(draw)
        assert got == sorted(drawn)


class TestEncodeParts:
    def test_matches_stable_hash_encoding(self):
        # encode_parts must be the same length-prefixed repr encoding that
        # stable_hash absorbs — checked indirectly via a digest round-trip.
        import hashlib

        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(encode_parts(11, "name", 3))
        assert int.from_bytes(hasher.digest(), "big") == stable_hash(11, "name", 3)
