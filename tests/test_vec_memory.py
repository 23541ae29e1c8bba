"""Tests for the vectorized backend's memory layer: bit-packed tables
and the ``vec_memory_mb`` budget contract.

The load-bearing properties:

* packing is lossless — every packed row, drawn by the batched hash,
  decodes bit-for-bit to the Python samplers' draws, including where a
  quorum is the whole population;
* the budget knob changes *memory only* — an absurdly undersized budget
  must produce byte-identical results to the default.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.vec.tables as vec_tables
from repro.core.config import AERConfig
from repro.experiments.plan import ExperimentSpec
from repro.experiments.sweep import execute_spec
from repro.runner import run_aer
from repro.samplers.tables import LRUCache
from repro.vec.bitpack import BitMatrix, bits_for, pack_rows, packed_width, unpack_rows
from repro.vec.tables import VecSamplerTables


# ----------------------------------------------------------------------
# bitpack primitives
# ----------------------------------------------------------------------
def bit_plane_unpack(packed, d, bits):
    """Reference decoder: every value bit as a uint8 plane, one pass per bit."""
    rows = len(packed)
    out = np.zeros((rows, d), dtype=np.int64)
    bit_matrix = np.unpackbits(packed, axis=1, count=d * bits).reshape(rows, d, bits)
    for j in range(bits):  # most-significant bit first
        out <<= 1
        out |= bit_matrix[:, :, j]
    return out


class TestBitpack:
    @pytest.mark.parametrize("bits", [1, 2, 3, 7, 8, 11, 15, 17, 20, 24, 25, 26, 31])
    # (37, 8): d·bits is a multiple of 8, so the last value ends on the last
    # byte and the byte gathers clip at the row end
    @pytest.mark.parametrize("rows, d", [(100, 13), (0, 13), (37, 8)])
    def test_pack_unpack_roundtrip(self, rows, d, bits):
        rng = np.random.default_rng(bits)
        values = rng.integers(0, 1 << bits, size=(rows, d), dtype=np.int64)
        packed = pack_rows(values, bits)
        assert packed.shape == (rows, packed_width(d, bits))
        out = unpack_rows(packed, d, bits, dtype=np.int64)
        assert (out == values).all()
        assert (unpack_rows(packed, d, bits) == values).all()  # int32 default
        # arbitrary bytes, pad bits included, decode like the bit planes do
        noise = rng.integers(0, 256, size=packed.shape, dtype=np.uint8)
        assert (unpack_rows(noise, d, bits, np.int64) == bit_plane_unpack(noise, d, bits)).all()

    def test_roundtrip_extremes(self):
        bits = 10
        values = np.array([[0, (1 << bits) - 1, 1, (1 << bits) - 2]], dtype=np.int64)
        assert (unpack_rows(pack_rows(values, bits), 4, bits, np.int64) == values).all()

    def test_unpack_chunking_matches_whole(self):
        # roundtrip across the internal _UNPACK_STEP boundary
        import repro.vec.bitpack as bitpack

        rng = np.random.default_rng(0)
        rows = bitpack._UNPACK_STEP + 17
        values = rng.integers(0, 1 << 9, size=(rows, 5), dtype=np.int64)
        out = unpack_rows(pack_rows(values, 9), 5, 9, np.int64)
        assert (out == values).all()

    def test_bits_for(self):
        assert bits_for(1) == 1
        assert bits_for(2) == 1
        assert bits_for(1024) == 10
        assert bits_for(1025) == 11
        assert bits_for(1_000_000) == 20

    def test_pack_rows_never_widens_to_input_dtype(self):
        # regression: the packed transient must be uint8 bit planes, not a
        # (rows, d, bits) matrix at the input width (the n=10⁵ RSS spike)
        values = np.arange(12, dtype=np.int64).reshape(3, 4)
        packed = pack_rows(values, 4)
        assert packed.dtype == np.uint8
        assert (unpack_rows(packed, 4, 4, np.int64) == values).all()


class TestBincountRows:
    """The engine's block ``bincount`` equals the per-column loop it replaced."""

    @staticmethod
    def per_column(ids, weights, n, mask=None):
        total = np.zeros(n, dtype=np.float64)
        for j in range(ids.shape[1]):
            keep = slice(None) if mask is None else mask[:, j]
            total += np.bincount(ids[keep, j], weights=weights[keep], minlength=n)
        return total

    @pytest.mark.parametrize(
        "n, k, d",
        [(50, 0, 7), (50, 37, 1), (100, 23, 7), (100, 28, 7), (5, 9, 7), (1000, 500, 41)],
    )
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_matches_per_column_loop(self, n, k, d, masked, dtype):
        from repro.vec.engine import bincount_rows

        rng = np.random.default_rng(n + k + d)
        ids = rng.integers(0, n, size=(k, d)).astype(np.int32)
        weights = rng.integers(0, 1000, size=k).astype(dtype)
        mask = rng.random((k, d)) < 0.6 if masked else None
        before = rng.integers(0, 1000, size=n).astype(dtype)
        out = before.copy()
        bincount_rows(ids, weights, out, mask)  # adds into out
        assert out.dtype == dtype
        assert (out == before + self.per_column(ids, weights, n, mask)).all()


class TestScatterAdd:
    """``scatter_add`` equals ``np.add.at`` on both of its paths."""

    @pytest.mark.parametrize("m", [0, 1, 7, 49, 50, 51, 400])  # 2·m vs len(out) = 100
    @pytest.mark.parametrize("scalar", [False, True])
    def test_matches_add_at(self, m, scalar):
        from repro.vec.engine import scatter_add

        rng = np.random.default_rng(m)
        ids = rng.integers(0, 100, size=m).astype(np.int32)
        weights = 3 if scalar else rng.integers(0, 1000, size=m)
        out = rng.integers(0, 1000, size=100)
        expected = out.copy()
        np.add.at(expected, ids, weights)
        scatter_add(out, ids, weights)
        assert out.dtype == np.int64
        assert (out == expected).all()


class TestBitMatrix:
    def test_against_bool_reference(self):
        rng = np.random.default_rng(7)
        ref = rng.random((50, 19)) < 0.3
        bm = BitMatrix(50, 19)
        bm.set_rows(slice(0, 50), ref)
        assert (bm.rows_bool(np.arange(50)) == ref).all()

    def test_fill_and_scatter(self):
        bm = BitMatrix(8, 11)
        ref = np.zeros((8, 11), dtype=bool)
        bm.fill_rows(slice(2, 4))
        ref[2:4] = True
        rows_idx = np.array([0, 5, 5, 7, 0])  # duplicates must be fine
        cols_idx = np.array([10, 3, 3, 0, 10])
        bm.set_true(rows_idx, cols_idx)
        ref[rows_idx, cols_idx] = True
        assert (bm.rows_bool(np.arange(8)) == ref).all()


# ----------------------------------------------------------------------
# packed sampler tables decode bit-for-bit
# ----------------------------------------------------------------------
def _reference_rows(config, family, s, xs):
    suite = config.shared_samplers()
    sampler = suite.push if family == "I" else suite.pull
    quorum = sampler.table(s).quorum
    return np.asarray([quorum(int(x)) for x in xs], dtype=np.int64)


# n=7 and n=12 put the quorum size d at n and 3n/4: the collision-heavy
# cases of the hash path's first-distinct draw
@pytest.mark.parametrize("n", [7, 12, 192])
def test_table_rows_match_samplers(n):
    config = AERConfig.for_system(n, sampler_seed=3)
    tables = VecSamplerTables(config)
    xs = np.array([0, 1, 17, 191, 90]) % n
    for family in ("I", "H"):
        for s in ("alpha", "beta"):
            got = tables.rows(family, s, xs)
            assert (got == _reference_rows(config, family, s, xs)).all()


@pytest.mark.parametrize("n", [7, 12, 192])
def test_poll_rows_match_samplers(n):
    config = AERConfig.for_system(n, sampler_seed=3)
    tables = VecSamplerTables(config)
    xs = [0, 5, 191 % n, 5]
    labels = [9, 1, 7, 1]
    poll_list = config.shared_samplers().poll.poll_list
    expected = np.asarray([poll_list(x, r) for x, r in zip(xs, labels)])
    assert (tables.poll_rows(xs, labels) == expected).all()
    assert (tables.poll_rows([xs[2]], [7]) == expected[2:3]).all()  # the engine's scalar call


# ----------------------------------------------------------------------
# the poll table: each (x, r) is drawn once per provider
# ----------------------------------------------------------------------
def _poll_reference(config, xs, labels):
    poll_list = config.shared_samplers().poll.poll_list
    return np.asarray([poll_list(int(x), int(r)) for x, r in zip(xs, labels)])


def _count_draws(monkeypatch):
    """Record the number of poll rows every provider draws (not decodes)."""
    drawn = []
    draw = VecSamplerTables._draw_poll_rows

    def counting(self, xs, labels):
        drawn.append(len(xs))
        return draw(self, xs, labels)

    monkeypatch.setattr(VecSamplerTables, "_draw_poll_rows", counting)
    return drawn


class TestPollTable:
    def test_decoded_rows_equal_the_draws(self, monkeypatch):
        config = AERConfig.for_system(192, sampler_seed=5)
        tables = VecSamplerTables(config)
        drawn = _count_draws(monkeypatch)
        xs = np.array([3, 0, 191, 3, 77, 3])
        labels = np.array([8, 1, 400, 8, 36863, 9])
        assert (tables.poll_rows(xs, labels) == _poll_reference(config, xs, labels)).all()
        assert drawn == [5]  # (3, 8) twice in one call: drawn once
        # a mix of kept and new pairs: only the new ones are drawn
        more_xs = np.array([77, 5, 3, 5, 0])
        more_labels = np.array([36863, 2, 9, 2, 1])
        got = tables.poll_rows(more_xs, more_labels)
        assert got.dtype == np.int32
        assert (got == _poll_reference(config, more_xs, more_labels)).all()
        assert drawn == [5, 1]
        assert (tables.poll_rows(xs, labels) == _poll_reference(config, xs, labels)).all()
        assert drawn == [5, 1]
        # one kept pair and one new one, neither repeated
        got = tables.poll_rows([6, 3], [6, 8])
        assert got.shape == (2, tables.size)
        assert (got == _poll_reference(config, [6, 3], [6, 8])).all()
        assert drawn == [5, 1, 1]

    def test_overflow_empties_the_table(self, monkeypatch):
        config = AERConfig.for_system(24, sampler_seed=1)
        tables = VecSamplerTables(config)
        capacity = vec_tables._POLL_ROWS_PER_NODE * config.n
        assert tables._poll.capacity == capacity
        drawn = _count_draws(monkeypatch)
        first = np.arange(capacity - 3) % config.n, np.arange(capacity - 3)
        tables.poll_rows(*first)
        assert tables._poll.rows == capacity - 3
        second = np.arange(5), np.full(5, 500)
        assert (tables.poll_rows(*second) == _poll_reference(config, *second)).all()
        assert tables._poll.rows == 5  # emptied, then the new batch kept
        assert len(tables._poll.packed) <= capacity
        tables.poll_rows(*second)
        tables.poll_rows(*first)
        assert drawn == [capacity - 3, 5, capacity - 3]

    def test_a_batch_beyond_capacity_is_drawn_and_not_kept(self):
        config = AERConfig.for_system(24, sampler_seed=1)
        tables = VecSamplerTables(config)
        size = tables._poll.capacity + 1
        xs, labels = np.arange(size) % config.n, np.arange(size)
        assert (tables.poll_rows(xs, labels) == _poll_reference(config, xs, labels)).all()
        assert tables._poll.rows == 0

    def test_pairs_outside_the_key_domain_are_rejected(self):
        config = AERConfig.for_system(64, sampler_seed=2)
        tables = VecSamplerTables(config)
        # x · label_space + r would collide with (1, 0), (0, space - 1), ...
        for x, label in ((0, config.label_space), (1, -1), (64, 0), (-1, 5)):
            with pytest.raises(ValueError, match="poll pairs must lie in"):
                tables.poll_rows([0, x], [4, label])
        assert tables._poll.rows == 0

    def test_keys_that_overflow_int64_disable_the_table(self):
        config = dataclasses.replace(AERConfig.for_system(64, sampler_seed=2), label_space=1 << 60)
        tables = VecSamplerTables(config)
        assert tables._poll is None
        xs, labels = np.array([0, 63]), np.array([(1 << 60) - 1, 12])
        assert (tables.poll_rows(xs, labels) == _poll_reference(config, xs, labels)).all()

    def test_packed_nbytes_counts_the_poll_table(self):
        config = AERConfig.for_system(192, sampler_seed=0)
        tables = VecSamplerTables(config)
        assert tables.packed_nbytes() == 0
        tables.poll_rows(np.arange(10), np.arange(10))
        assert tables.packed_nbytes() == tables._poll.packed.nbytes > 0


def test_iter_rows_streams_the_full_table():
    config = AERConfig.for_system(192, sampler_seed=1)
    tables = VecSamplerTables(config)
    full = tables.full("H", "s")
    chunks = [rows for _, rows in tables.iter_rows("H", "s", 37)]
    assert (np.concatenate(chunks) == full).all()


def test_packed_tables_are_smaller_than_int32():
    config = AERConfig.for_system(2048, sampler_seed=0)
    tables = VecSamplerTables(config)
    tables.ensure_all("I", "s")
    int32_bytes = config.n * tables.size * 4
    # 11 bits/id at n=2048 vs 32: packed must be well under half the size
    assert tables.packed_nbytes() < int32_bytes / 2


# ----------------------------------------------------------------------
# the provider cache: warmth changes time, never results
# ----------------------------------------------------------------------
def _record(spec):
    """The spec's record as a dict, without its wall-clock ``seconds``."""
    data = execute_spec(spec).to_dict()
    data.pop("seconds")
    return data


def test_warm_provider_record_equals_cold(monkeypatch):
    spec = ExperimentSpec(
        n=1536, adversary="quorum_flood", seed=4, backend="vectorized",
        wrong_candidate_mode="common_wrong",
    )
    drawn = _count_draws(monkeypatch)
    monkeypatch.setattr(vec_tables, "_PROVIDER_CACHE", LRUCache(4))
    cold = _record(spec)
    monkeypatch.setattr(vec_tables, "_PROVIDER_CACHE", LRUCache(4))
    _record(spec.with_(adversary="none"))  # same seed: builds the tables this run reuses
    assert sum(drawn) > 0
    drawn.clear()
    assert _record(spec) == cold
    _record(spec.with_(params={"vec_memory_mb": 1}))  # minimal chunks on the same provider
    assert _record(spec) == cold
    assert drawn == []  # every warm run decoded its poll rows, none was re-hashed


def _count_replays(monkeypatch):
    """Record the label replays: node keys hashed and numpy kernel columns."""
    import repro.vec.labels as labels

    replays = []
    node_key, kernel = labels._node_key, labels.first_outputs

    def key_spy(prefix, x):
        replays.append(("key", x))
        return node_key(prefix, x)

    def kernel_spy(keys, count):
        replays.append(("kernel", keys.shape[1]))
        return kernel(keys, count)

    monkeypatch.setattr(labels, "_node_key", key_spy)
    monkeypatch.setattr(labels, "first_outputs", kernel_spy)
    return replays


class TestKeptLabels:
    """The provider keeps each node's label draws; later runs replay none."""

    def test_a_second_run_at_the_same_seed_replays_no_label(self, monkeypatch):
        # n = 2560: round 0's 2134 correct nodes take the numpy replay
        monkeypatch.setattr(vec_tables, "_PROVIDER_CACHE", LRUCache(4))
        replays = _count_replays(monkeypatch)
        spec = ExperimentSpec(
            n=2560, adversary="quorum_flood", seed=6, backend="vectorized",
            wrong_candidate_mode="common_wrong",
        )
        first = _record(spec)
        assert ("kernel", 2134) in replays
        replays.clear()
        assert _record(spec) == first
        assert replays == []

    def test_a_provider_shared_across_node_seeds_draws_each_seeds_labels(self, monkeypatch):
        from repro.core.scenario import make_scenario

        n = 1024
        config = AERConfig.for_system(n)
        scenario = make_scenario(
            n, config=config, t=n // 6, knowledge_fraction=0.78,
            wrong_candidate_mode="random", seed=0,
        )

        def run(seed):
            return run_aer(scenario, config=config, adversary_name="none", seed=seed,
                           backend="vectorized")

        fresh = {}
        for seed in (1, 2):
            monkeypatch.setattr(vec_tables, "_PROVIDER_CACHE", LRUCache(4))
            fresh[seed] = run(seed)
        assert fresh[1] != fresh[2]
        monkeypatch.setattr(vec_tables, "_PROVIDER_CACHE", LRUCache(4))
        shared = [run(seed) for seed in (1, 2, 1)]
        assert shared == [fresh[1], fresh[2], fresh[1]]

    def test_a_budget_bound_run_after_a_default_run_is_byte_identical(self, monkeypatch):
        spec = ExperimentSpec(
            n=1024, adversary="push_flood", seed=3, backend="vectorized",
            wrong_candidate_mode="common_wrong",
        )
        starved = spec.with_(params={"vec_memory_mb": 1})
        monkeypatch.setattr(vec_tables, "_PROVIDER_CACHE", LRUCache(4))
        cold = _record(starved)
        monkeypatch.setattr(vec_tables, "_PROVIDER_CACHE", LRUCache(4))
        default = _record(spec)
        replays = _count_replays(monkeypatch)
        assert _record(starved) == cold
        assert replays == []
        assert default.pop("spec") != cold.pop("spec")
        assert default == cold


def test_vectorized_cornering_is_pinned():
    # the cornering pull requests draw their poll rows in one batch; these
    # are the per-key draws' totals (statistical-only against the kernel)
    cases = {
        (96, 0): (6, 958_233, 56_911_902),
        (96, 1): (8, 978_629, 58_136_068),
        (1100, 1): (6, 24_235_785, 2_189_894_529),
    }
    for (n, seed), expected in cases.items():
        for adversary in ("cornering", "cornering_nodelay"):
            result = ExperimentSpec(
                n=n, adversary=adversary, seed=seed, backend="vectorized",
                wrong_candidate_mode="common_wrong",
            ).run()
            assert (result.raw.rounds, result.total_messages, result.total_bits) == expected


# ----------------------------------------------------------------------
# the vec_memory_mb contract: budget changes memory, never results
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, wrong_candidate_mode",
    # "random" gives ~5 % of the nodes their own string, so the push phase
    # streams 59 packed I tables, each in two 1 MB chunks
    [(2048, "common_wrong"), (1100, "random")],
)
# quorum_flood forces acceptances of a string no correct node holds: dead polls
@pytest.mark.parametrize("adversary", ["push_flood", "quorum_flood"])
def test_undersized_budget_is_byte_identical(n, wrong_candidate_mode, adversary):
    # 1 MB forces minimal chunks and maximal streaming — and must still
    # reproduce the default run's whole record exactly
    spec = ExperimentSpec(
        n=n, adversary=adversary, seed=0, backend="vectorized",
        wrong_candidate_mode=wrong_candidate_mode,
    )
    default, starved = _record(spec), _record(spec.with_(params={"vec_memory_mb": 1}))
    assert default.pop("spec") != starved.pop("spec")  # vec_memory_mb only
    assert default == starved


def test_undersized_budget_serves_both_windows_in_several_chunks(monkeypatch):
    # the case above whose per-string serve sums span chunks in both
    # windows: arrivals (rows launched the round before, rounds 1-2) and
    # the flush by late deciders (from the first decisions, round 5)
    from repro.vec.engine import _VecRun

    chunks = {}  # (round, sid, window) -> gather chunks with a server
    serves = _VecRun._phase_serves

    def spy(run, rnd, new_deciders):
        staged = len(run._stage_sv)
        serves(run, rnd, new_deciders)
        for rows, _counts in run._stage_sv[staged:]:
            window = "arrivals" if run.r_start[rows[0]] == rnd - 1 else "flush"
            key = (rnd, int(run.r_sid[rows[0]]), window)
            chunks[key] = chunks.get(key, 0) + 1

    monkeypatch.setattr(_VecRun, "_phase_serves", spy)
    ExperimentSpec(
        n=2048, adversary="quorum_flood", seed=0, backend="vectorized",
        wrong_candidate_mode="common_wrong", params={"vec_memory_mb": 1},
    ).run()
    for window in ("arrivals", "flush"):
        assert max(k for (_r, _s, w), k in chunks.items() if w == window) >= 2


@pytest.mark.parametrize("adversary", ["push_flood", "quorum_flood"])
def test_budget_does_not_multiply_pull_quorum_decodes(monkeypatch, adversary):
    # the serve phase sums every chunk before it decodes the poll targets'
    # H rows, so a starved budget decodes exactly the default run's rows
    decoded = []
    rows = VecSamplerTables.rows

    def counting(tables, family, s, xs):
        if family == "H":
            decoded.append(len(xs))
        return rows(tables, family, s, xs)

    monkeypatch.setattr(VecSamplerTables, "rows", counting)
    spec = ExperimentSpec(
        n=2048, adversary=adversary, seed=0, backend="vectorized",
        wrong_candidate_mode="common_wrong",
    )
    spec.run()
    default = sum(decoded)
    decoded.clear()
    spec.with_(params={"vec_memory_mb": 1}).run()
    assert default > 0
    assert sum(decoded) == default


def test_vec_memory_mb_rejected_on_message_backend(small_scenario, small_config):
    with pytest.raises(ValueError, match="vec_memory_mb"):
        run_aer(small_scenario, config=small_config, backend="message", vec_memory_mb=64)


def test_vec_memory_mb_must_be_positive():
    spec = ExperimentSpec(n=2048, backend="vectorized", params={"vec_memory_mb": 0})
    with pytest.raises(ValueError, match="positive"):
        spec.run()


def test_spec_params_plumb_the_budget():
    base = ExperimentSpec(n=2048, adversary="none", mode="sync", seed=0,
                          wrong_candidate_mode="common_wrong",
                          backend="vectorized")
    budgeted = ExperimentSpec(n=2048, adversary="none", mode="sync", seed=0,
                              wrong_candidate_mode="common_wrong",
                              backend="vectorized",
                              params={"vec_memory_mb": 2})
    a, b = base.run(), budgeted.run()
    assert (a.total_messages, a.total_bits) == (b.total_messages, b.total_bits)


def test_spec_rejects_budget_on_message_backend():
    spec = ExperimentSpec(n=64, adversary="none", mode="sync", seed=0,
                          params={"vec_memory_mb": 64})
    with pytest.raises(ValueError, match="vec_memory_mb"):
        spec.run()
