"""Tests for the sampler property checkers and the Section 4.1 digraph model."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.samplers.base import SamplerSpec
from repro.samplers.hash_sampler import QuorumSampler
from repro.samplers.poll_sampler import PollSampler
from repro.samplers.properties import (
    border_size,
    check_no_overload,
    estimate_minority_fraction,
    estimate_sampler_deviation,
    overload_counts,
    property2_holds,
    worst_family_border_ratio,
)
from repro.samplers.random_graph import (
    LabelledDigraph,
    estimate_border_probability,
    random_family,
)

SPEC = SamplerSpec(n=48, quorum_size=9, label_space=48 * 48, seed=5)


@pytest.fixture(scope="module")
def push_sampler():
    return QuorumSampler(SPEC, name="I")


@pytest.fixture(scope="module")
def poll_sampler():
    return PollSampler(SPEC)


class TestOverload:
    def test_counts_sum_to_n_times_d(self, push_sampler):
        counts = overload_counts(push_sampler, "s")
        assert sum(counts.values()) == SPEC.n * SPEC.quorum_size

    def test_no_overload_for_reasonable_factor(self, push_sampler):
        # Lemma 1: a constant factor exists; factor 4 holds comfortably at this size.
        assert check_no_overload(push_sampler, "gstring-like", factor=4.0)

    def test_overload_detected_with_tiny_factor(self, push_sampler):
        assert not check_no_overload(push_sampler, "s", factor=0.5)


class TestDeviation:
    def test_empty_strings_give_zero(self, push_sampler):
        assert estimate_sampler_deviation(push_sampler, {1, 2}, [], theta=0.1) == 0.0

    def test_small_bad_set_rarely_overrepresented(self, push_sampler):
        bad = set(range(8))  # 1/6 of the nodes
        deviation = estimate_sampler_deviation(push_sampler, bad, ["x", "y"], theta=0.34)
        assert deviation < 0.05

    def test_full_bad_set_always_overrepresented_is_impossible(self, push_sampler):
        # if every node is bad, no quorum can over-represent it beyond base + theta
        bad = set(range(SPEC.n))
        assert estimate_sampler_deviation(push_sampler, bad, ["x"], theta=0.01) == 0.0

    def test_larger_theta_means_fewer_violations(self, push_sampler):
        bad = set(range(16))
        loose = estimate_sampler_deviation(push_sampler, bad, ["x", "y", "z"], theta=0.4)
        tight = estimate_sampler_deviation(push_sampler, bad, ["x", "y", "z"], theta=0.05)
        assert loose <= tight


class TestProperty1:
    def test_good_majority_almost_everywhere(self, poll_sampler):
        rng = random.Random(0)
        good = set(range(36))  # 75% good nodes
        fraction = estimate_minority_fraction(poll_sampler, good, samples=400, rng=rng)
        assert fraction < 0.05

    def test_bad_majority_when_good_set_small(self, poll_sampler):
        rng = random.Random(0)
        good = set(range(10))  # only ~20% good
        fraction = estimate_minority_fraction(poll_sampler, good, samples=200, rng=rng)
        assert fraction > 0.9

    def test_zero_samples(self, poll_sampler):
        assert estimate_minority_fraction(poll_sampler, set(), samples=0, rng=random.Random(0)) == 0.0


class TestProperty2:
    def test_border_size_empty_family(self, poll_sampler):
        assert border_size(poll_sampler, []) == 0

    def test_border_counts_edges_leaving_family(self, poll_sampler):
        family = [(0, 1), (1, 2)]
        border = border_size(poll_sampler, family)
        assert 0 <= border <= 2 * poll_sampler.list_size

    def test_property2_trivially_true_for_empty_family(self, poll_sampler):
        assert property2_holds(poll_sampler, [])

    def test_property2_rejects_duplicate_nodes(self, poll_sampler):
        with pytest.raises(ValueError):
            property2_holds(poll_sampler, [(0, 1), (0, 2)])

    def test_property2_holds_for_random_small_families(self, poll_sampler):
        rng = random.Random(1)
        for _ in range(20):
            size = rng.randint(1, SPEC.n // 6)
            nodes = rng.sample(range(SPEC.n), size)
            family = [(x, rng.randrange(SPEC.label_space)) for x in nodes]
            assert property2_holds(poll_sampler, family)

    def test_worst_family_ratio_random_exceeds_two_thirds(self, poll_sampler):
        rng = random.Random(2)
        ratio = worst_family_border_ratio(poll_sampler, family_size=6, trials=10, rng=rng, greedy=False)
        assert ratio > 2 / 3

    def test_worst_family_ratio_greedy_still_exceeds_two_thirds(self, poll_sampler):
        rng = random.Random(3)
        ratio = worst_family_border_ratio(poll_sampler, family_size=6, trials=3, rng=rng, greedy=True)
        assert ratio > 2 / 3

    def test_worst_family_ratio_zero_size(self, poll_sampler):
        assert worst_family_border_ratio(poll_sampler, 0, 3, random.Random(0)) == 1.0


class TestRandomDigraph:
    def test_out_neighbours_count_with_multiplicity(self):
        graph = LabelledDigraph(n=20, d=7, label_space=100, rng=random.Random(0))
        assert len(graph.out_neighbours(3, 5)) == 7

    def test_out_neighbours_cached(self):
        graph = LabelledDigraph(n=20, d=7, label_space=100, rng=random.Random(0))
        assert graph.out_neighbours(3, 5) == graph.out_neighbours(3, 5)

    def test_border_of_singleton_family(self):
        graph = LabelledDigraph(n=20, d=7, label_space=100, rng=random.Random(1))
        family = [(4, 9)]
        border = graph.border(family)
        # only edges back to node 4 itself stay inside the family
        self_loops = sum(1 for y in graph.out_neighbours(4, 9) if y == 4)
        assert border == 7 - self_loops

    def test_expansion_ratio_empty(self):
        graph = LabelledDigraph(n=10, d=3, label_space=10, rng=random.Random(0))
        assert graph.expansion_ratio([]) == 1.0

    def test_random_family_has_distinct_nodes(self):
        family = random_family(30, 100, 10, random.Random(0))
        nodes = [x for x, _ in family]
        assert len(set(nodes)) == len(nodes) == 10

    def test_estimate_border_probability_shape(self):
        failures = estimate_border_probability(n=64, trials=20, seed=1)
        assert failures
        assert all(0.0 <= p <= 1.0 for p in failures.values())

    def test_estimate_border_probability_is_near_zero(self):
        # The paper's bound is o(2^-n); Monte-Carlo should see no failures at all.
        failures = estimate_border_probability(n=64, trials=30, seed=2)
        assert max(failures.values()) == 0.0

    @given(st.integers(min_value=8, max_value=40), st.integers(min_value=1, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_hypothesis_border_bounded_by_total_degree(self, n, size):
        rng = random.Random(n * 31 + size)
        graph = LabelledDigraph(n=n, d=5, label_space=50, rng=rng)
        family = random_family(n, 50, min(size, n), rng)
        assert 0 <= graph.border(family) <= 5 * len(family)
