"""Tests for the almost-everywhere agreement substrate (repro.ae)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ae.coin import combine_contributions, majority_string, xor_strings
from repro.ae.committees import CommitteeTree
from repro.ae.config import AEConfig
from repro.ae.protocol import (
    FINALIZE_ROUND,
    build_ae_nodes,
    run_ae_stage,
    scenario_from_ae_run,
)
from repro.net.messages import SizeModel
from repro.net.rng import derive_rng
from repro.net.sync import SynchronousSimulator


class TestCoinHelpers:
    def test_xor_basic(self):
        assert xor_strings("1100", "1010") == "0110"

    def test_xor_identity(self):
        assert xor_strings("1011", "0000") == "1011"

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_strings("10", "100")

    def test_combine_skips_garbled_contributions(self):
        contributions = {0: "1100", 1: "not-bits", 2: "11"}
        assert combine_contributions(contributions, 4) == "1100"

    def test_combine_is_xor_of_valid_entries(self):
        contributions = {0: "1100", 1: "1010"}
        assert combine_contributions(contributions, 4) == "0110"

    def test_combine_empty(self):
        assert combine_contributions({}, 5) == "00000"

    def test_majority_string_plurality(self):
        assert majority_string(["a", "b", "a"]) == "a"

    def test_majority_string_threshold_not_met(self):
        assert majority_string(["a", "b", "a"], threshold=3) is None

    def test_majority_string_tie_is_deterministic(self):
        assert majority_string(["b", "a"]) == "a"

    def test_majority_string_empty(self):
        assert majority_string([]) is None

    @given(st.text(alphabet="01", min_size=1, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_xor_involution(self, bits):
        other = "1" * len(bits)
        assert xor_strings(xor_strings(bits, other), other) == bits


class TestCommitteeTree:
    @pytest.fixture(scope="class")
    def tree(self):
        return CommitteeTree(AEConfig.for_system(96, seed=3))

    def test_leaves_partition_population(self, tree):
        members = []
        for index in range(tree.total_committees):
            if tree.is_leaf(index):
                members.extend(tree.committee(index).members)
        assert sorted(members) == list(range(96))

    def test_internal_committee_size(self, tree):
        for index in range(tree.leaf_count - 1):
            assert tree.committee(index).size == tree.config.committee_size

    def test_children_and_parent_consistent(self, tree):
        for index in range(tree.total_committees):
            for child in tree.children(index):
                assert tree.parent(child) == index

    def test_root_has_no_parent(self, tree):
        assert tree.parent(0) is None
        assert tree.root.index == 0

    def test_depth_monotone_along_children(self, tree):
        for index in range(tree.leaf_count - 1):
            for child in tree.children(index):
                assert tree.depth(child) == tree.depth(index) + 1

    def test_height_is_logarithmic(self, tree):
        assert tree.height <= 8

    def test_memberships_cover_every_committee(self, tree):
        # every seat of every committee is held by a node of the population
        memberships = {node: [] for node in range(96)}
        for index in range(tree.total_committees):
            for member in tree.committee(index).members:
                memberships[member].append(index)
        total = sum(len(indices) for indices in memberships.values())
        expected = sum(tree.committee(i).size for i in range(tree.total_committees))
        assert total == expected
        assert all(
            sum(tree.is_leaf(index) for index in indices) == 1
            for indices in memberships.values()
        )

    def test_leaf_of_contains_node(self, tree):
        # the leaves are consecutive slices of committee_size ids
        k = tree.config.committee_size
        for node in range(0, 96, 11):
            leaf = (tree.leaf_count - 1) + min(node // k, tree.leaf_count - 1)
            assert tree.is_leaf(leaf)
            assert node in tree.committee(leaf).members

    def test_out_of_range_committee_rejected(self, tree):
        with pytest.raises(ValueError):
            tree.committee(tree.total_committees)

    def test_majority_threshold(self, tree):
        committee = tree.root
        assert committee.majority_threshold() == committee.size // 2 + 1

    def test_deterministic_given_seed(self):
        a = CommitteeTree(AEConfig.for_system(64, seed=5))
        b = CommitteeTree(AEConfig.for_system(64, seed=5))
        assert a.committee(0).members == b.committee(0).members


class TestAEProtocol:
    def _run(self, n=96, byz=None, seed=2):
        config = AEConfig.for_system(n, seed=seed)
        byz = frozenset(byz or [])
        nodes = build_ae_nodes(config, byz)
        sim = SynchronousSimulator(
            nodes=nodes,
            n=n,
            seed=seed,
            max_rounds=40,
            min_rounds=FINALIZE_ROUND + 1,
            size_model=SizeModel(n=n),
        )
        result = sim.run()
        return config, nodes, result

    def test_all_nodes_learn_without_faults(self):
        config, nodes, result = self._run()
        learned = [node.learned for node in nodes]
        assert all(value is not None for value in learned)
        assert len(set(learned)) == 1

    def test_learned_string_has_right_length(self):
        config, nodes, _ = self._run()
        assert all(len(node.learned) == config.string_length for node in nodes)

    def test_learned_string_is_not_degenerate(self):
        # The coin protocol XORs private randomness; all-zeros is essentially impossible.
        config, nodes, _ = self._run()
        assert set(nodes[0].learned) == {"0", "1"}

    def test_most_nodes_learn_with_random_corruption(self):
        n = 96
        rng = derive_rng(4, "test-ae-byz")
        byz = rng.sample(range(n), n // 6)
        config, nodes, _ = self._run(n=n, byz=byz, seed=4)
        learned = [node.learned for node in nodes if node.learned is not None]
        assert len(learned) >= 0.8 * len(nodes)
        # and the learners agree on a single value
        assert len(set(learned)) == 1

    def test_round_count_scales_with_tree_height(self):
        config, nodes, result = self._run()
        tree = CommitteeTree(config)
        assert result.rounds <= FINALIZE_ROUND + tree.height + 3

    def test_per_node_cost_is_polylog(self):
        _, _, result = self._run()
        # committee-size ~ 2 log n, string ~ 4 log n: per-node bits stay in the low thousands
        assert result.metrics.max_node_bits < 60_000

    def test_scenario_from_ae_run(self):
        n = 96
        rng = derive_rng(5, "test-ae-scn")
        byz = rng.sample(range(n), n // 6)
        config, nodes, _ = self._run(n=n, byz=byz, seed=5)
        scenario = scenario_from_ae_run(nodes, n, byz, config.string_length)
        assert scenario.n == n
        assert set(scenario.byzantine_ids) == set(byz)
        assert set(scenario.candidates) == {node.node_id for node in nodes}
        assert len(scenario.gstring) == config.string_length
        # the plurality value becomes gstring and most nodes hold it
        assert scenario.knowledge_fraction_of_all > 0.5

    def test_scenario_from_empty_learning_defaults_to_zeros(self):
        config = AEConfig.for_system(16, seed=1)
        nodes = build_ae_nodes(config, byzantine_ids=[])
        # never run: nobody learned anything
        scenario = scenario_from_ae_run(nodes, 16, [], config.string_length)
        assert scenario.gstring == "0" * config.string_length


class TestAEConfig:
    def test_committee_size_odd(self):
        for n in (16, 64, 256):
            assert AEConfig.for_system(n).committee_size % 2 == 1

    def test_committee_size_capped_by_n(self):
        assert AEConfig.for_system(4).committee_size <= 4

    def test_string_length_matches_default(self):
        assert AEConfig.for_system(256).string_length == 32


def test_run_ae_stage_refuses_an_empty_correct_population():
    with pytest.raises(ValueError, match="at least one correct node"):
        run_ae_stage(16, range(16), 16, seed=0, size_model=SizeModel(n=16))
