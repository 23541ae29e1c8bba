"""Tests for the quorum and poll-list samplers (repro.samplers)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.samplers.base import SamplerSpec, default_label_space, default_quorum_size, default_string_length
from repro.samplers.hash_sampler import QuorumSampler
from repro.samplers.poll_sampler import PollSampler


SPEC = SamplerSpec(n=64, quorum_size=9, label_space=64 * 64, seed=3)


class TestSamplerSpec:
    def test_for_system_quorum_size_is_odd(self):
        for n in (16, 64, 100, 500):
            assert SamplerSpec.for_system(n).quorum_size % 2 == 1

    def test_for_system_quorum_size_grows_logarithmically(self):
        small = SamplerSpec.for_system(32).quorum_size
        big = SamplerSpec.for_system(1024).quorum_size
        assert big > small
        assert big <= 4 * small  # log-like growth, not linear

    def test_default_quorum_size_capped_by_n(self):
        assert default_quorum_size(4) <= 4

    def test_default_label_space_polynomial(self):
        assert default_label_space(100) == 100 * 100

    def test_default_string_length_scales_with_log(self):
        assert default_string_length(256) == 4 * 8

    def test_default_quorum_minimum(self):
        assert default_quorum_size(8, multiplier=0.1) >= 7


class TestQuorumSampler:
    @pytest.fixture(scope="class")
    def sampler(self):
        return QuorumSampler(SPEC, name="I")

    def test_quorum_size(self, sampler):
        assert len(sampler.quorum("0101", 7)) == SPEC.quorum_size

    def test_members_distinct(self, sampler):
        quorum = sampler.quorum("0101", 7)
        assert len(set(quorum)) == len(quorum)

    def test_members_in_range(self, sampler):
        assert all(0 <= member < SPEC.n for member in sampler.quorum("x", 0))

    def test_deterministic(self, sampler):
        assert sampler.quorum("abc", 5) == sampler.quorum("abc", 5)

    def test_deterministic_across_instances(self):
        a = QuorumSampler(SPEC, name="I")
        b = QuorumSampler(SPEC, name="I")
        assert a.quorum("s", 3) == b.quorum("s", 3)

    def test_different_names_give_different_families(self):
        push = QuorumSampler(SPEC, name="I")
        pull = QuorumSampler(SPEC, name="H")
        diffs = sum(
            1 for x in range(SPEC.n) if push.quorum("s", x) != pull.quorum("s", x)
        )
        assert diffs > SPEC.n // 2

    def test_different_strings_give_different_quorums(self, sampler):
        diffs = sum(
            1 for x in range(SPEC.n) if sampler.quorum("s1", x) != sampler.quorum("s2", x)
        )
        assert diffs > SPEC.n // 2

    def test_sorted_output(self, sampler):
        quorum = sampler.quorum("sorted", 1)
        assert list(quorum) == sorted(quorum)

    def test_contains(self, sampler):
        quorum = sampler.quorum("c", 2)
        assert sampler.contains("c", 2, quorum[0])
        outsider = next(i for i in range(SPEC.n) if i not in quorum)
        assert not sampler.contains("c", 2, outsider)

    def test_majority_threshold(self, sampler):
        assert sampler.majority_threshold("m", 0) == SPEC.quorum_size // 2 + 1

    def test_inverse_consistency(self, sampler):
        s = "inverse-check"
        for y in range(0, SPEC.n, 7):
            for x in sampler.inverse(s, y):
                assert y in sampler.quorum(s, x)

    def test_inverse_covers_all_memberships(self, sampler):
        s = "coverage"
        memberships = sum(len(sampler.inverse(s, y)) for y in range(SPEC.n))
        assert memberships == SPEC.n * SPEC.quorum_size

    def test_quorum_size_capped_at_n(self):
        tiny = SamplerSpec(n=5, quorum_size=20, label_space=16, seed=0)
        sampler = QuorumSampler(tiny, name="I")
        assert len(sampler.quorum("s", 0)) == 5

    @given(st.text(alphabet="01", min_size=1, max_size=32), st.integers(0, 63))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_size_and_determinism(self, s, x):
        sampler = QuorumSampler(SPEC, name="I")
        quorum = sampler.quorum(s, x)
        assert len(quorum) == SPEC.quorum_size
        assert quorum == sampler.quorum(s, x)


class TestPollSampler:
    @pytest.fixture(scope="class")
    def sampler(self):
        return PollSampler(SPEC)

    def test_list_size(self, sampler):
        assert len(sampler.poll_list(3, 17)) == SPEC.quorum_size

    def test_members_distinct_and_in_range(self, sampler):
        members = sampler.poll_list(3, 17)
        assert len(set(members)) == len(members)
        assert all(0 <= m < SPEC.n for m in members)

    def test_deterministic(self, sampler):
        assert sampler.poll_list(4, 99) == sampler.poll_list(4, 99)

    def test_label_out_of_range_rejected(self, sampler):
        with pytest.raises(ValueError):
            sampler.poll_list(0, SPEC.label_space)
        with pytest.raises(ValueError):
            sampler.poll_list(0, -1)

    def test_different_labels_different_lists(self, sampler):
        diffs = sum(
            1 for r in range(50) if sampler.poll_list(0, r) != sampler.poll_list(0, r + 50)
        )
        assert diffs > 40

    def test_different_nodes_different_lists(self, sampler):
        diffs = sum(1 for x in range(20) if sampler.poll_list(x, 5) != sampler.poll_list(x + 20, 5))
        assert diffs > 15

    def test_contains_and_threshold(self, sampler):
        members = sampler.poll_list(1, 2)
        assert sampler.contains(1, 2, members[0])
        assert sampler.majority_threshold(1, 2) == len(members) // 2 + 1

    @given(st.integers(0, 63), st.integers(0, 64 * 64 - 1))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_determinism(self, x, r):
        sampler = PollSampler(SPEC)
        assert sampler.poll_list(x, r) == sampler.poll_list(x, r)
