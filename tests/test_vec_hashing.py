"""The batched draws must match ``stable_hash`` and the samplers bit-for-bit.

The vectorized engine's exactness guarantee bottoms out here: every quorum
and poll-list membership it computes comes from
:func:`repro.vec.hashing.batch_digest_mod` /
:func:`repro.vec.hashing.first_distinct_rows`, which make the samplers'
``hashlib`` draws a table at a time and select the members in numpy.
These tests check them against :func:`repro.net.rng.stable_hash` and against
the Python samplers' member loops, including prefixes beyond one blake2b
block and collision-heavy rows, and check that a call split across forked
children returns exactly the serial result (and stays serial where forking
is unsafe).
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import AERConfig
from repro.net.rng import stable_hash
from repro.vec import hashing
from repro.vec.hashing import (
    MIN_BLOCK_ROWS,
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


#: random tables: prefixes of 0-197 bytes (one blake2b block is 128), n
#: from size upward, rows of one to three parts
random_tables = given(
    prefix_parts=st.one_of(
        st.just(()), st.tuples(st.integers(0, 10**6), st.text("01", max_size=180))
    ),
    table=st.lists(st.tuples(*[st.integers(0, 10**12)] * 3), min_size=1, max_size=6),
    width=st.integers(1, 3),
    size=st.integers(1, 10),
    slack=st.one_of(st.integers(0, 8), st.integers(0, 10**7 - 10)),
    extra_draws=st.sampled_from([0, 4]),
)


@random_tables
@settings(max_examples=60, deadline=None)
def test_draws_match_the_stable_hash_loop(prefix_parts, table, width, size, slack, extra_draws):
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


@random_tables
@settings(max_examples=60, deadline=None)
def test_two_stage_draws_match_drawing_every_counter(
    prefix_parts, table, width, size, slack, extra_draws
):
    # Reference: hash all size + extra_draws counters of every row, then
    # select.  The rows it resolves get the same members from the
    # two-stage draws; the rest get the samplers' own loop.
    n = size + slack
    prefix = encode_parts(*prefix_parts)
    rows = [row[:width] for row in table]
    columns = [np.array(column, dtype=np.int64) for column in zip(*rows)]
    values = batch_digest_mod(prefix, columns, n, size + extra_draws)
    resolved, picked = hashing._select_first_distinct(values, size)
    got = first_distinct_rows(prefix, columns, size, n, extra_draws=extra_draws)
    assert got[resolved].tolist() == picked.tolist()
    for row, members in zip(np.array(rows)[~resolved].tolist(), got[~resolved].tolist()):
        assert members == hashing._py_first_distinct(prefix, row, size, n)


def test_only_rows_with_a_repeat_hash_extra_counters(monkeypatch):
    # d counters per row, extra_draws more only for a row repeating a draw
    # among its first d, and the samplers' loop only for rows that the
    # d + extra_draws counters leave short
    n, size, extra_draws = 211, 9, 4
    prefix = encode_parts(42, "H", "1010")
    xs = np.arange(512, dtype=np.int64)
    first = batch_digest_mod(prefix, [xs], n, size)
    repeats = sum(len(set(row)) < size for row in first.tolist())
    resolved, _ = hashing._select_first_distinct(
        batch_digest_mod(prefix, [xs], n, size + extra_draws), size
    )
    hashed, fallbacks = [], []
    real_digest, real_fallback = hashing.batch_digest_mod, hashing._py_first_distinct

    def digest(prefix, columns, n, draws=None, first=0):
        hashed.append(len(columns[0]) * draws)
        return real_digest(prefix, columns, n, draws, first)

    def fallback(*args):
        fallbacks.append(args)
        return real_fallback(*args)

    monkeypatch.setattr(hashing, "batch_digest_mod", digest)
    monkeypatch.setattr(hashing, "_py_first_distinct", fallback)
    first_distinct_rows(prefix, [xs], size, n, extra_draws=extra_draws)
    assert 0 < repeats < len(xs)
    assert sum(hashed) == len(xs) * size + repeats * extra_draws
    assert len(fallbacks) == int((~resolved).sum())


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _count_forks(monkeypatch):
    """Wrap ``os.fork``; returns the list of child pids it handed out."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _refuse_forks(monkeypatch):
    def fork():
        raise AssertionError("first_distinct_rows forked where it must stay serial")

    monkeypatch.setattr(os, "fork", fork)


def _reaped(pid):
    """True once ``pid`` is no child of ours any more (waited for already)."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


# three blocks at three CPUs: two children and the parent's own block
FORKED_ROWS = 3 * MIN_BLOCK_ROWS + 17


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedBlocks:
    def _serial(self, monkeypatch, *args, **kwargs):
        with monkeypatch.context() as patch:
            _cpus(patch, 1)
            _refuse_forks(patch)
            return first_distinct_rows(*args, **kwargs)

    def _forked(self, monkeypatch, *args, **kwargs):
        with monkeypatch.context() as patch:
            _cpus(patch, 3)
            pids = _count_forks(patch)
            got = first_distinct_rows(*args, **kwargs)
        assert len(pids) == 2 and all(_reaped(pid) for pid in pids)
        return got

    def test_push_shaped_rows_match_serial(self, monkeypatch):
        # I(s, x): one column, every node of the table
        args = (encode_parts(7, "I", "0110"), [np.arange(FORKED_ROWS)], 9, 40_009)
        forked = self._forked(monkeypatch, *args, dtype=np.int32)
        assert forked.dtype == np.int32
        assert np.array_equal(forked, self._serial(monkeypatch, *args, dtype=np.int32))

    def test_poll_shaped_rows_match_serial(self, monkeypatch):
        # J(x, r): two columns, pairs in arbitrary order
        rng = np.random.default_rng(3)
        xs = rng.integers(0, 10**5, FORKED_ROWS)
        labels = rng.integers(0, 10**6, FORKED_ROWS)
        args = (encode_parts(7, "J"), [xs, labels], 11, 10**5)
        forked = self._forked(monkeypatch, *args)
        assert np.array_equal(forked, self._serial(monkeypatch, *args))

    def test_fallback_rows_in_children_match_serial(self, monkeypatch):
        # n = size + 1: nearly every row collides, so with no extra draws
        # the children resolve theirs with the samplers' own loop
        args = (encode_parts(0, "J"), [np.arange(FORKED_ROWS)], 4, 5)
        forked = self._forked(monkeypatch, *args, extra_draws=0)
        assert np.array_equal(forked, self._serial(monkeypatch, *args, extra_draws=0))
        tail = FORKED_ROWS - 1
        assert forked[tail].tolist() == hashing._py_first_distinct(args[0], [tail], 4, 5)

    def test_small_call_stays_serial(self, monkeypatch):
        _cpus(monkeypatch, 8)
        _refuse_forks(monkeypatch)
        first_distinct_rows(encode_parts(1, "H"), [np.arange(2 * MIN_BLOCK_ROWS - 1)], 3, 997)

    def test_one_cpu_stays_serial(self, monkeypatch):
        _cpus(monkeypatch, 1)
        _refuse_forks(monkeypatch)
        first_distinct_rows(encode_parts(1, "H"), [np.arange(FORKED_ROWS)], 3, 997)

    def test_multiprocessing_child_stays_serial(self, monkeypatch):
        # a sweep-pool worker: its siblings already share the cores
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        _cpus(monkeypatch, 3)
        _refuse_forks(monkeypatch)
        first_distinct_rows(encode_parts(1, "H"), [np.arange(FORKED_ROWS)], 3, 997)

    def test_call_from_a_second_thread_stays_serial(self, monkeypatch):
        _cpus(monkeypatch, 3)
        _refuse_forks(monkeypatch)
        outcome = {}

        def call():
            try:
                rows = first_distinct_rows(encode_parts(1, "H"), [np.arange(FORKED_ROWS)], 3, 997)
                outcome["rows"] = len(rows)
            except BaseException as exc:  # reported by the assertion below
                outcome["error"] = exc

        worker = threading.Thread(target=call)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert outcome == {"rows": FORKED_ROWS}

    def test_failing_child_raises_and_is_reaped(self, monkeypatch):
        parent = os.getpid()
        real_fill = hashing._fill_rows

        def fill(*args):
            if os.getpid() != parent:
                raise RuntimeError("child block fails")
            real_fill(*args)

        monkeypatch.setattr(hashing, "_fill_rows", fill)
        _cpus(monkeypatch, 3)
        pids = _count_forks(monkeypatch)
        with pytest.raises(RuntimeError, match="exited with status 1"):
            first_distinct_rows(encode_parts(1, "H"), [np.arange(FORKED_ROWS)], 3, 997)
        assert len(pids) == 2 and all(_reaped(pid) for pid in pids)

    def test_failing_parent_kills_and_reaps_children(self, monkeypatch):
        # the children would take a minute; the parent's interrupt must not
        # wait for them
        parent = os.getpid()

        def fill(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(hashing, "_fill_rows", fill)
        _cpus(monkeypatch, 3)
        pids = _count_forks(monkeypatch)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            first_distinct_rows(encode_parts(1, "H"), [np.arange(FORKED_ROWS)], 3, 997)
        assert time.monotonic() - start < 30
        assert len(pids) == 2 and all(_reaped(pid) for pid in pids)


class TestEncodeParts:
    def test_matches_stable_hash_encoding(self):
        # encode_parts must be the same length-prefixed repr encoding that
        # stable_hash absorbs — checked indirectly via a digest round-trip.
        import hashlib

        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(encode_parts(11, "name", 3))
        assert int.from_bytes(hasher.digest(), "big") == stable_hash(11, "name", 3)
