"""Tests for the precomputed sampler tables and the bounded LRU cache.

The eviction tests are a regression guard for the old behaviour where a full
cache was *cleared wholesale* on overflow, thrashing mid-run: eviction must
be incremental (one coldest entry at a time) and must never drop entries in
active use.
"""

from __future__ import annotations

import pytest

from repro.samplers.base import SamplerSpec
from repro.samplers.hash_sampler import QuorumSampler
from repro.samplers.poll_sampler import PollSampler
from repro.samplers.tables import LRUCache, PollEntry, QuorumTable

SPEC = SamplerSpec(n=48, quorum_size=9, label_space=48 * 48, seed=5)


class TestLRUCache:
    def test_capacity_is_enforced(self):
        cache = LRUCache(capacity=3)
        for i in range(10):
            cache.put(i, str(i))
        assert len(cache) == 3

    def test_eviction_is_incremental_not_clear_all(self):
        # Regression: overflowing by one must evict exactly one entry.
        cache = LRUCache(capacity=3)
        for i in range(3):
            cache.put(i, str(i))
        cache.put(3, "3")
        assert len(cache) == 3
        assert cache.evictions == 1
        assert 0 not in cache  # the coldest entry went
        assert all(i in cache for i in (1, 2, 3))  # everything else survived

    def test_get_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "a" becomes most-recently-used
        cache.put("c", 3)
        assert "a" in cache  # survived because it was touched
        assert "b" not in cache  # "b" was the coldest

    def test_get_or_create_only_calls_factory_on_miss(self):
        cache = LRUCache(capacity=4)
        calls = []

        def factory(key):
            calls.append(key)
            return key * 2

        assert cache.get_or_create(3, factory) == 6
        assert cache.get_or_create(3, factory) == 6
        assert calls == [3]
        assert cache.hits == 1 and cache.misses == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestQuorumTable:
    def setup_method(self):
        self.sampler = QuorumSampler(SPEC, name="T")

    def test_table_matches_sampler_api(self):
        table = self.sampler.table("s")
        for x in range(SPEC.n):
            quorum = self.sampler.quorum("s", x)
            assert table.quorum(x) == quorum
            assert table.members(x) == frozenset(quorum)
            assert table.threshold(x) == len(quorum) // 2 + 1
            assert all(table.contains(x, member) for member in quorum)
            outsider = next(i for i in range(SPEC.n) if i not in quorum)
            assert not table.contains(x, outsider)

    def test_inverse_triggers_one_pass_full_build(self):
        table = self.sampler.table("s")
        assert not table.fully_built
        inverse = table.inverse_of(0)
        assert table.fully_built
        for x in inverse:
            assert table.contains(x, 0)
        # total memberships equal n quorums of d members each
        total = sum(len(table.inverse_of(y)) for y in range(SPEC.n))
        assert total == SPEC.n * SPEC.quorum_size


class TestQuorumSamplerEviction:
    def test_eviction_keeps_recent_strings(self):
        # Regression for the old clear-all eviction: with capacity 2, touching
        # a third string must evict only the coldest one.
        sampler = QuorumSampler(SPEC, name="I", max_cached_strings=2)
        quorum_a = sampler.quorum("a", 0)
        sampler.quorum("b", 0)
        sampler.quorum("a", 1)  # refresh "a"
        sampler.quorum("c", 0)  # evicts "b", the coldest
        cache = sampler.cache_info
        assert len(cache) == 2
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_results_identical_after_eviction(self):
        sampler = QuorumSampler(SPEC, name="I", max_cached_strings=1)
        before = {x: sampler.quorum("s1", x) for x in range(8)}
        sampler.quorum("s2", 0)  # evicts the s1 table
        after = {x: sampler.quorum("s1", x) for x in range(8)}
        assert before == after

    def test_hot_memo_does_not_leak_across_strings(self):
        sampler = QuorumSampler(SPEC, name="I", max_cached_strings=4)
        q1 = sampler.quorum("s1", 3)
        q2 = sampler.quorum("s2", 3)
        assert sampler.quorum("s1", 3) == q1
        assert sampler.quorum("s2", 3) == q2
        assert q1 != q2  # (w.h.p. for distinct strings)


class TestPollSamplerEntries:
    def setup_method(self):
        self.sampler = PollSampler(SPEC)

    def test_entry_matches_poll_list(self):
        entry = self.sampler.entry(3, 17)
        assert entry.members == self.sampler.poll_list(3, 17)
        assert entry.member_set == frozenset(entry.members)
        assert self.sampler.majority_threshold(3, 17) == len(entry.members) // 2 + 1

    def test_contains_and_threshold_consistency(self):
        members = self.sampler.poll_list(1, 2)
        assert all(self.sampler.contains(1, 2, member) for member in members)
        outsider = next(i for i in range(SPEC.n) if i not in members)
        assert not self.sampler.contains(1, 2, outsider)

    def test_hot_memo_alternation(self):
        a = self.sampler.poll_list(0, 1)
        b = self.sampler.poll_list(0, 2)
        assert self.sampler.poll_list(0, 1) == a
        assert self.sampler.poll_list(0, 2) == b

    def test_bounded_eviction(self):
        sampler = PollSampler(SPEC, max_cached_entries=4)
        lists = {r: sampler.poll_list(0, r) for r in range(10)}
        assert len(sampler.cache_info) == 4
        # evicted entries recompute identically
        assert all(sampler.poll_list(0, r) == lists[r] for r in range(10))

    def test_label_out_of_range_still_rejected(self):
        with pytest.raises(ValueError):
            self.sampler.entry(0, SPEC.label_space)


class TestPollEntry:
    def test_slots_and_fields(self):
        entry = PollEntry((1, 2, 3))
        assert entry.members == (1, 2, 3)
        assert entry.member_set == frozenset((1, 2, 3))
        assert not hasattr(entry, "threshold")  # one threshold per sampler
