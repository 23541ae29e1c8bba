"""Tests for the communication/time accounting (repro.net.metrics)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.messages import PushMessage
from repro.net.messages import Message, SizeModel
from repro.net.metrics import MetricsCollector, NodeTraffic


def make_collector(n: int = 8) -> MetricsCollector:
    return MetricsCollector(SizeModel(n=n))


class TestNodeTraffic:
    def test_total_bits_sums_both_directions(self):
        traffic = NodeTraffic(sent_bits=10, received_bits=7)
        assert traffic.total_bits == 17

    def test_defaults_are_zero(self):
        traffic = NodeTraffic()
        assert traffic.sent_messages == 0
        assert traffic.total_bits == 0


class TestRecording:
    def test_record_send_returns_bit_cost(self):
        collector = make_collector()
        bits = collector.record_send(0, PushMessage(candidate="0" * 12))
        assert bits == PushMessage(candidate="0" * 12).bits(collector.size_model)

    def test_send_counts_attributed_to_sender(self):
        collector = make_collector()
        collector.record_send(2, Message())
        assert collector.traffic_of(2).sent_messages == 1
        assert collector.traffic_of(3).sent_messages == 0

    def test_delivery_counts_attributed_to_destination(self):
        collector = make_collector()
        collector.record_delivery(5, bits=9)
        assert collector.traffic_of(5).received_messages == 1
        assert collector.traffic_of(5).received_bits == 9

    def test_unknown_node_has_zero_traffic(self):
        collector = make_collector()
        assert collector.traffic_of(7).total_bits == 0

    def test_grouped_records_equal_one_record_send_per_destination(self):
        grouped, single = make_collector(n=5), make_collector(n=5)
        message = PushMessage(candidate="0" * 12)
        bits = grouped.record_send_many(2, [0, 1, 3, 4], message)
        grouped.record_sends(4, 3, 3 * bits)
        for _ in range(4):
            assert single.record_send(2, message) == bits
        for _ in range(3):
            single.record_send(4, message)
        assert grouped.summary() == single.summary()
        assert grouped.traffic_of(2) == single.traffic_of(2)

    def test_decision_time_first_call_wins(self):
        collector = make_collector()
        collector.record_decision(1, 3.0)
        collector.record_decision(1, 9.0)
        assert collector.summary().decision_times[1] == 3.0


class TestSummary:
    def test_total_bits_counts_each_message_once(self):
        collector = make_collector()
        bits = collector.record_send(0, Message())
        collector.record_delivery(1, bits)
        summary = collector.summary()
        assert summary.total_bits == bits
        assert summary.total_messages == 1

    def test_amortized_is_total_over_n(self):
        collector = make_collector(n=4)
        for _ in range(8):
            collector.record_send(0, Message())
        summary = collector.summary()
        assert summary.amortized_bits == pytest.approx(summary.total_bits / 4)

    def test_restrict_to_excludes_other_nodes_loads(self):
        collector = make_collector(n=4)
        big = PushMessage(candidate="0" * 100)
        collector.record_send(3, big)  # node 3 is "Byzantine"
        collector.record_send(0, Message())
        full = collector.summary()
        correct_only = collector.summary(restrict_to=[0, 1, 2])
        assert full.max_node_bits >= 100
        assert correct_only.max_node_bits < 100
        # totals remain system-wide in both summaries
        assert correct_only.total_bits == full.total_bits

    def test_per_node_bits_present(self):
        collector = make_collector(n=3)
        collector.record_send(1, Message())
        summary = collector.summary()
        assert set(summary.per_node_bits) == {0, 1, 2}
        assert summary.per_node_bits[1] > 0

    def test_load_imbalance_at_least_one_when_uniform(self):
        collector = make_collector(n=4)
        for node in range(4):
            collector.record_send(node, Message())
        summary = collector.summary()
        assert summary.load_imbalance == pytest.approx(1.0)

    def test_rounds_and_span_pass_through(self):
        collector = make_collector()
        collector.record_rounds(6)
        collector.record_span(3.5)
        summary = collector.summary()
        assert summary.rounds == 6
        assert summary.span == 3.5

    def test_max_decision_time(self):
        collector = make_collector()
        collector.record_decision(0, 1.0)
        collector.record_decision(1, 4.0)
        assert collector.summary().max_decision_time == 4.0

    def test_max_decision_time_none_when_no_decisions(self):
        assert make_collector().summary().max_decision_time is None

    def test_row_is_flat_and_json_friendly(self):
        collector = make_collector()
        collector.record_rounds(3)
        row = collector.summary().row()
        assert row["rounds"] == 3
        assert all(isinstance(v, (int, float)) for v in row.values())

    @given(st.lists(st.integers(0, 7), max_size=40))
    def test_hypothesis_totals_match_event_count(self, sends):
        collector = make_collector(n=8)
        for sender in sends:
            collector.record_send(sender, Message())
        summary = collector.summary()
        assert summary.total_messages == len(sends)
        assert summary.total_bits == len(sends) * Message().bits(collector.size_model)


class TestBitsCacheEviction:
    """The memoised message-cost cache must stay bounded under floods."""

    def test_cache_never_exceeds_limit_under_distinct_message_flood(self):
        collector = MetricsCollector(SizeModel(n=8), bits_cache_limit=64)
        # A "millions of distinct messages" flood, scaled down: far more
        # distinct messages than the cache limit, in one streaming pass.
        for i in range(5_000):
            collector.record_send(0, PushMessage(candidate=format(i, "013b")))
            assert collector.bits_cache_size <= 64
        assert collector.bits_cache_size == 64

    def test_eviction_drops_oldest_insertion_first(self):
        collector = MetricsCollector(SizeModel(n=8), bits_cache_limit=2)
        first = PushMessage(candidate="000")
        second = PushMessage(candidate="001")
        third = PushMessage(candidate="010")
        collector.bits_of(first)
        collector.bits_of(second)
        collector.bits_of(third)  # cache full: evicts `first`
        assert collector.bits_cache_size == 2
        assert first not in collector._bits_cache
        assert second in collector._bits_cache
        assert third in collector._bits_cache

    def test_values_stay_correct_across_evictions(self):
        collector = MetricsCollector(SizeModel(n=8), bits_cache_limit=4)
        messages = [PushMessage(candidate=format(i, "09b")) for i in range(32)]
        expected = {m: m.bits(collector.size_model) for m in messages}
        # Two interleaved passes so evicted entries are recomputed.
        for _ in range(2):
            for message in messages:
                assert collector.bits_of(message) == expected[message]
        assert collector.bits_cache_size <= 4

    def test_default_limit_unchanged(self):
        from repro.net.metrics import _BITS_CACHE_LIMIT

        assert MetricsCollector(SizeModel(n=8))._bits_cache_limit == _BITS_CACHE_LIMIT
