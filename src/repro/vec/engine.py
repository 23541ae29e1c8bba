"""Vectorized whole-round AER engine (``backend="vectorized"``).

The message kernel simulates AER one Python dispatch per message; this
module simulates the same synchronous execution as a handful of numpy array
passes per round.  The unit of state is not the node but the **poll row** —
one launched poll ``(origin, candidate, label)`` with its poll list
``J(origin, label)`` as a ``(rows, d)`` integer matrix (the pull quorum
``H(candidate, origin)`` is re-gathered from the packed tables when a phase
needs it).  Everything the pull phase does (serving, the two
forwarding hops, answering, deciding) is expressible as gathers, masked
sums and ``bincount`` scatter-adds over those matrices, because of one
structural fact: all recipients of one poll's Fw1 stream observe the *same*
set of forwarding senders, so the first-hop vote count is a per-row scalar
rather than per-(row, member) state.

Memory model (ARCHITECTURE.md "vec memory model") — the ``n = 10⁶``
contract.  Per distinct pushed string nothing scales worse than ``O(n·d)``,
and every super-constant temporary is chunked under an explicit byte budget
(``vec_memory_mb``).  The push phase streams a full ``I(s, ·)`` table for
every string a correct node holds, so its hashing (and the packed tables
the provider keeps) grows as ``O(strings · n · d)``: one or two strings
under ``wrong_candidate_mode="common_wrong"``, but ≈5 % of ``n`` under the
default ``"random"``, where every uninformed correct node holds its own —
``O(n² log n)`` in all, which is why the ``n = 10⁶`` runs use
``common_wrong``:

* member tables are bit-packed (:mod:`repro.vec.bitpack`), and that is
  their only form: every gather decodes its rows from the packed bytes,
  and a whole-table pass decodes budget-sized chunks;
* the Fw1/Fw2 fan-outs never materialise ``(rows, d, d)`` gathers: because
  every recipient set ``H(s, t)`` depends only on the target ``t``, both
  hops reduce to per-target weights (scatter-adds over flattened target
  indices) gathered once per *unique* active target — for the serves, once
  per string and round, however many chunks the rows take;
* a chunk loop does ``O(chunk)`` work per chunk (:func:`scatter_add` into
  ``n``-length accumulators, applied once per phase), so a smaller budget
  means more, smaller chunks, not more total work;
* per-node RNG streams are replayed from a draw counter instead of holding
  ``n`` ``random.Random`` objects (the old dominant term): a round's label
  draws re-run CPython's Mersenne Twister seeding for the whole batch as
  uint32 array passes (:mod:`repro.vec.labels`), keeping ``O(attempts)``
  words per node in budget-sized node chunks, and only a small batch or a
  rare row re-seeds one ``random.Random`` per node;
* poll-row state is int32/bit-packed and built in batch blocks, not one
  Python array per row; pull-quorum rows are never duplicated into the row
  state — they stay bit-packed in the tables and are re-gathered per serve
  chunk.

Equivalence contract (ARCHITECTURE.md "engine backends"):

* on the draw-order-compatible subset — adversaries in
  :data:`VEC_ADVERSARIES` minus ``cornering*``, synchronous, non-rushing,
  ``eager_pull``, no trace — results are **bit-identical** to
  :func:`repro.runner.run_aer` (same ``SimulationResult``, same metrics,
  same decision rounds), pinned by the golden backend tests; the bits are
  also invariant to ``vec_memory_mb`` (chunk sizes change, sums do not);
* ``cornering``/``cornering_nodelay`` are supported **statistically** only:
  the message kernel merges second-hop votes for one ``(origin,
  candidate)`` across poll labels, while rows here are per-label, so
  per-bit metrics may differ slightly (agreement/decisions still hold) —
  pinned by the ``python -m repro equivalence --mode statistical``
  CI-overlap harness;
* everything else (async mode, rushing, tracing, the remaining adversary
  strategies) is rejected loudly with ``ValueError``.

The deterministic RNG streams are replayed exactly: each correct node's
private ``derive_rng(seed, "node", i)`` stream is consumed in the same
order as in the kernel (one ``randrange`` per launched poll, in delivery
order of the push crossings), and the adversary's strategy object is driven
through a capture context so its own RNG usage is identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

# Importing the package registers every built-in adversary strategy.
import repro.adversary  # noqa: F401
from repro.adversary.base import AdversaryKnowledge
from repro.adversary.registry import resolve_adversary
from repro.backends import VEC_ADVERSARIES
from repro.core.config import AERConfig
from repro.core.messages import (
    AnswerMessage,
    Fw1Message,
    Fw2Message,
    PollMessage,
    PullMessage,
    PushMessage,
)
from repro.core.scenario import AERScenario
from repro.net.metrics import MetricsSummary
from repro.net.results import SimulationResult
from repro.net.rng import derive_rng
from repro.vec.bitpack import BitMatrix
from repro.vec.labels import draw_labels
from repro.vec.tables import VecSamplerTables, tables_for

#: default per-run temporary-memory budget (MB) when ``vec_memory_mb`` is not
#: given.  It sizes the gather and table-decode chunks only; the packed
#: tables the provider keeps are outside it.
DEFAULT_VEC_MEMORY_MB = 512.0


class _CaptureContext:
    """Adversary-facing stand-in for :class:`repro.net.kernel.AdversaryContext`.

    The built-in strategies act only at round 0 of a synchronous run (their
    ``on_start`` / non-rushing ``on_round(0, None)`` hooks) and depend only
    on their :class:`AdversaryKnowledge` and their RNG.  Driving the *real*
    strategy object against this context therefore reproduces its message
    records and RNG consumption exactly; the engine then folds the records
    into its array state instead of delivering them one by one.
    """

    def __init__(self, n: int, byzantine_ids: frozenset, seed: int) -> None:
        self.n = n
        self.rng = derive_rng(seed, "adversary")
        self._byzantine_ids = byzantine_ids
        #: captured ``(byz_id, dest, message)`` sends, in dispatch order
        self.records: List[tuple] = []

    def now(self) -> float:
        return 0.0

    def send_as(self, byz_id: int, dest: int, message) -> None:
        if byz_id not in self._byzantine_ids:
            raise PermissionError(
                f"adversary tried to forge sender id {byz_id}, which it does not control"
            )
        self.records.append((byz_id, dest, message))


def _capture_adversary_records(
    adversary_name: str,
    scenario: AERScenario,
    config: AERConfig,
    seed: int,
) -> List[tuple]:
    """Round-0 message records of the named adversary, in dispatch order."""
    if adversary_name == "none":
        return []
    samplers = config.shared_samplers()
    knowledge = AdversaryKnowledge(config=config, samplers=samplers, scenario=scenario)
    adversary = resolve_adversary(adversary_name, scenario.byzantine_ids, knowledge)
    if adversary is None:
        return []
    context = _CaptureContext(scenario.n, frozenset(adversary.byzantine_ids), seed)
    adversary.bind(context)
    adversary.on_start()
    adversary.on_round(0, None)  # non-rushing synchronous turn
    return context.records


def scatter_add(out: np.ndarray, ids: np.ndarray, weights) -> None:
    """``out[ids] += weights`` (one scalar or one weight per id), repeats summed.

    The work is ``O(len(ids))``, never ``O(len(out))``, so a chunk loop that
    adds into an ``n``-length accumulator costs what its chunk costs:
    ``np.add.at`` for ids few against ``len(out)``, one ``bincount`` —
    faster per id — once they are at least half as many.  Every value is an
    integer far below 2**53, so both are exact.
    """
    if 2 * len(ids) < len(out):
        # weights of another dtype would send add.at down numpy's slow path
        np.add.at(out, ids, np.asarray(weights, dtype=out.dtype))
    elif np.ndim(weights) == 0:
        out += np.bincount(ids, minlength=len(out)) * weights
    else:
        out += np.bincount(ids, weights, minlength=len(out)).astype(out.dtype, copy=False)


def bincount_rows(
    ids: np.ndarray, weights: np.ndarray, out: np.ndarray, mask: Optional[np.ndarray] = None
) -> None:
    """Add ``weights[i]`` to ``out`` at every cell ``ids[i, j]`` (where ``mask``).

    One :func:`scatter_add` per block of ``max(1, len(out) // d)`` rows
    instead of one ``bincount`` per column: the block's row weights repeated
    ``d``-fold never exceed one ``len(out)``-length array, and a few rows
    cost a few rows, not a pass over ``out``.
    """
    k, d = ids.shape
    step = max(1, len(out) // d)
    for lo in range(0, k, step):
        block = ids[lo : lo + step].ravel()
        repeated = np.repeat(weights[lo : lo + step], d)
        if mask is not None:
            keep = mask[lo : lo + step].ravel()
            block, repeated = block[keep], repeated[keep]
        scatter_add(out, block, repeated)


def _summary_from_arrays(
    n: int,
    sent_msgs: np.ndarray,
    sent_bits: np.ndarray,
    recv_bits: np.ndarray,
    decision_times: Dict[int, float],
    rounds: int,
    restrict_to: Optional[List[int]],
) -> MetricsSummary:
    """:meth:`repro.net.metrics.MetricsCollector.summary` from the engine's arrays.

    Same selection as the collector — totals cover every sender, per-node
    statistics cover ``restrict_to`` (or all of ``[0, n)``) — with every value
    converted to Python ints/floats so the summary serialises identically to
    the message backend's.
    """
    loads = (sent_bits + recv_bits).tolist()
    if restrict_to is None:
        per_node = dict(enumerate(loads))
        decisions = dict(decision_times)
    else:
        per_node = {i: loads[i] for i in restrict_to}
        decisions = {i: t for i, t in decision_times.items() if i in per_node}
    return MetricsSummary.from_loads(
        n,
        total_messages=int(sent_msgs.sum()),
        total_bits=int(sent_bits.sum()),
        per_node_bits=per_node,
        decision_times=decisions,
        rounds=rounds,
        span=None,
    )


class _RowBatch:
    """One contiguous block of poll rows staged before the round-1 freeze."""

    __slots__ = ("origins", "sid", "start", "jmem", "polled")

    def __init__(self, origins, sid, start, jmem, polled) -> None:
        self.origins = origins      # (k,) int
        self.sid = sid              # one sid per batch
        self.start = start
        self.jmem = jmem            # (k, d) int32
        self.polled = polled        # None (all True) or (k, d) bool


class _VecRun:
    """Array state of one vectorized synchronous AER execution."""

    def __init__(
        self,
        scenario: AERScenario,
        config: AERConfig,
        adversary_name: str,
        seed: int,
        max_rounds: int,
        tables: VecSamplerTables,
        memory_mb: Optional[float] = None,
    ) -> None:
        self.scenario = scenario
        self.config = config
        self.adversary_name = adversary_name
        self.seed = seed
        self.max_rounds = max_rounds
        self.tables = tables

        n = scenario.n
        self.n = n
        self.size = min(config.quorum_size, n)
        self.thr = self.size // 2 + 1
        #: prices every message kind through its class's own ``bits``
        self.size_model = config.size_model()

        # ---- memory budget ----------------------------------------------
        # All super-constant temporaries are chunked under this budget; the
        # chunk sizes change with it, the bits never do (sums commute).
        if memory_mb is not None and float(memory_mb) <= 0:
            raise ValueError(f"vec_memory_mb must be positive, got {memory_mb!r}")
        self.memory_mb = float(memory_mb) if memory_mb is not None else DEFAULT_VEC_MEMORY_MB
        budget = int(self.memory_mb * (1 << 20))
        d = self.size
        # (k, d) row-state gathers: ~48 bytes per (row, member) across the
        # simultaneous temporaries of the serve/fw2/answer phases
        self._gather_chunk = max(1024, budget // (4 * 48 * d))
        # table decodes: budgeted at ~(bits + 8) bytes/member.  The byte-gather
        # decode itself leaves only its int32 rows (4 bytes/member; its
        # accumulator spans a fixed 2¹² rows), so the rest is headroom for the
        # gathers and block bincounts made on those rows
        self._table_chunk = max(1024, budget // (4 * (tables.bits + 8) * d))
        # label replays: draw_labels sizes its node chunks from the bytes
        self._label_budget = budget

        # ---- population -------------------------------------------------
        self.is_correct = np.zeros(n, dtype=bool)
        self.is_correct[scenario.correct_ids] = True
        self.correct = np.asarray(scenario.correct_ids, dtype=np.int64)

        # ---- candidate strings as small integers ("sids") ---------------
        self.sid_of: Dict[str, int] = {}
        self.strings: List[str] = []
        self.initial_sid = np.full(n, -1, dtype=np.int32)
        for node_id in scenario.correct_ids:
            candidate = scenario.candidates[node_id]
            sid = self.sid_of.get(candidate)
            if sid is None:
                sid = self.sid_of[candidate] = len(self.strings)
                self.strings.append(candidate)
            self.initial_sid[node_id] = sid
        #: per-sid boolean holder masks (correct initial holders)
        self.holders = [self.initial_sid == sid for sid in range(len(self.strings))]

        # ---- per-node protocol state ------------------------------------
        self.D = np.full(n, -1, dtype=np.int32)          # decision round
        self.dec_sid = np.full(n, -1, dtype=np.int32)    # decided sid
        self.answers_sent = np.zeros(n, dtype=np.int64)  # pre-decision answers

        # ---- metrics ----------------------------------------------------
        self.sent_msgs = np.zeros(n, dtype=np.int64)
        self.sent_bits = np.zeros(n, dtype=np.int64)
        self.recv_bits = np.zeros(n, dtype=np.int64)
        # deliveries staged for the *next* round (discarded if the run ends
        # first, exactly as the kernel never counts undelivered outbox sends)
        self.stage_recv_bits = np.zeros(n, dtype=np.int64)
        self._dispatched = False  # any send accepted in the current round

        # ---- poll rows (batch blocks until round-1 finalization) --------
        self._batches: List[_RowBatch] = []

        # staged per-row arrival effects, applied at the start of the next
        # round (phase A); all built after the round-1 finalization
        self.rows = 0
        self._stage_sv: List[tuple] = []    # (row_indices, counts)
        self._stage_fw2: List[tuple] = []   # (row_indices, (k, d) occ)
        self._stage_ans: List[np.ndarray] = []  # row_indices, one per answer

        #: per-node private draw counters — :func:`draw_labels` replays draw
        #: number ``_draw_count[x]`` of node ``x``'s ``derive_rng(seed, "node",
        #: x)`` stream, replacing the old dict of n live ``random.Random`` objects
        self._draw_count = np.zeros(n, dtype=np.int32)
        #: per-sid push votes at every node, kept from round 0 for round 1
        self._push_votes: List[np.ndarray] = []
        #: adversary push records grouped as {(dest, candidate): [(idx, byz)]}
        self._adv_pushes: Dict[tuple, List[tuple]] = {}

    # ------------------------------------------------------------------
    # round 0: on_start of every correct node + the adversary's turn
    # ------------------------------------------------------------------
    def _make_row(
        self,
        origin: int,
        sid: int,
        start: int,
        jmem: np.ndarray,
        polled: np.ndarray,
    ) -> None:
        """Append one adversary-shaped row as a single-row batch."""
        self._batches.append(
            _RowBatch(
                np.asarray([origin], dtype=np.int32),
                int(sid),
                start,
                jmem.astype(np.int32, copy=False).reshape(1, -1),
                polled.reshape(1, -1),
            )
        )

    def _launch_polls(self, xs: np.ndarray, sids: np.ndarray, labels: np.ndarray, start: int) -> None:
        """Create live rows for polls launched by ``xs`` and account their sends."""
        if len(xs) == 0:
            return
        # decoded from the provider's poll table where an earlier run at
        # this (n, seed) drew the same (x, label) pairs, hashed otherwise
        jmem_all = self.tables.poll_rows(xs, labels)
        for sid in np.unique(sids):
            s = self.strings[int(sid)]
            sel = np.nonzero(sids == sid)[0]
            jmem = jmem_all[sel]
            # the pull-quorum rows are *not* stored: H(s, origin) lives in
            # the packed tables and the serve phase re-gathers it from there
            hmem = self.tables.rows("H", s, xs[sel])
            self._batches.append(
                _RowBatch(xs[sel].astype(np.int32), int(sid), start, jmem, None)
            )
            # a label costs its fixed width whatever its value
            poll_bits = PollMessage(s, 0).bits(self.size_model)
            pull_bits = PullMessage(s, 0).bits(self.size_model)
            self.sent_msgs[xs[sel]] += 2 * self.size
            self.sent_bits[xs[sel]] += self.size * (poll_bits + pull_bits)
            scatter_add(self.stage_recv_bits, jmem.ravel(), poll_bits)
            scatter_add(self.stage_recv_bits, hmem.ravel(), pull_bits)
        self._dispatched = True

    def _round0(self) -> None:
        n = self.n
        # Push diffusion: every correct holder of s pushes to I⁻¹(s, ·); the
        # votes gathered at each node double as the staged push deliveries.
        # The I table streams through in budget-sized chunks — the full
        # (n, d) matrix is never resident.
        for sid, s in enumerate(self.strings):
            holders = self.holders[sid]
            push_bits = PushMessage(s).bits(self.size_model)
            votes = np.zeros(n, dtype=np.int64)
            targets_per_sender = np.zeros(n, dtype=np.int64)
            for start, rows in self.tables.iter_rows("I", s, self._table_chunk):
                votes[start : start + len(rows)] = holders[rows].sum(axis=1)
                scatter_add(targets_per_sender, rows.ravel(), 1)
            self.sent_msgs[holders] += targets_per_sender[holders]
            self.sent_bits[holders] += targets_per_sender[holders] * push_bits
            self.stage_recv_bits += votes * push_bits
            self._push_votes.append(votes)

        # Eager pull: every correct node polls its own candidate.  The label
        # is the node's first private RNG draw, exactly as in the kernel.
        labels = np.asarray(
            draw_labels(self.seed, self.correct, self._draw_count,
                        self.config.label_space, self._label_budget, self.tables.labels),
            dtype=np.int64,
        )
        self._launch_polls(self.correct, self.initial_sid[self.correct], labels, start=0)

        self._adversary_round0()

    def _adversary_round0(self) -> None:
        records = _capture_adversary_records(
            self.adversary_name, self.scenario, self.config, self.seed
        )
        if not records:
            return
        # cornering bookkeeping: Poll records mark polled victims, Pull
        # records trigger (deduplicated) proxy serves
        poll_marks: Dict[tuple, List[int]] = {}
        pull_keys: Dict[tuple, None] = {}  # insertion-ordered set
        for idx, (byz_id, dest, message) in enumerate(records):
            if isinstance(message, PushMessage):
                key = (dest, message.candidate)
                self._adv_pushes.setdefault(key, []).append((idx, byz_id))
            elif isinstance(message, PollMessage):
                poll_marks.setdefault((byz_id, message.label, message.candidate), []).append(dest)
            elif isinstance(message, PullMessage):
                pull_keys[(byz_id, message.label, message.candidate)] = None
            else:  # pragma: no cover - no built-in strategy sends other kinds
                raise NotImplementedError(
                    f"vectorized backend cannot replay {type(message).__name__}"
                )
            bits = message.bits(self.size_model)
            self.sent_msgs[byz_id] += 1
            self.sent_bits[byz_id] += bits
            self.stage_recv_bits[dest] += bits
        self._dispatched = True

        # One row per distinct (origin, label, candidate) pull request: the
        # proxies in H(candidate, origin) serve each such key exactly once.
        # A request for a string no correct node believes is inert.
        live = [key for key in pull_keys if key[2] in self.sid_of]
        if not live:
            return
        jmems = self.tables.poll_rows([key[0] for key in live], [key[1] for key in live])
        for (byz_id, label, candidate), jmem in zip(live, jmems):
            sid = self.sid_of[candidate]
            polled = np.zeros(self.size, dtype=bool)
            for victim in poll_marks.get((byz_id, label, candidate), ()):
                polled |= jmem == victim
            self._make_row(int(byz_id), int(sid), 0, jmem, polled)

    # ------------------------------------------------------------------
    # round 1: push deliveries, acceptances, new polls
    # ------------------------------------------------------------------
    def _round1_acceptances(self) -> None:
        """Replay round 1's push crossings in the kernel's delivery order.

        At each node the pushes arrive sender-ascending (the round-0 dispatch
        order), so an acceptance of string ``s`` happens at the arrival of
        the ``thr``-th correct holder in ``I(s, x)`` — and the node's label
        draws for its newly started polls follow that per-node order, with
        adversary-forced acceptances (whose records were dispatched after
        every correct multicast) strictly last, in record order.
        """
        events: List[tuple] = []  # (node, phase, order key, sid-or-candidate)
        for sid, s in enumerate(self.strings):
            votes = self._push_votes[sid]
            acc = (votes >= self.thr) & self.is_correct & (self.initial_sid != sid)
            xs = np.nonzero(acc)[0]
            if len(xs) == 0:
                continue
            rows_xs = self.tables.rows("I", s, xs)
            arrival = self.holders[sid][rows_xs]  # (k, d): senders ascending
            cum = np.cumsum(arrival, axis=1)
            pos = np.argmax(cum == self.thr, axis=1)
            crossing_sender = rows_xs[np.arange(len(xs)), pos]
            for x, y in zip(xs.tolist(), crossing_sender.tolist()):
                events.append((x, 0, int(y), sid))

        if self._adv_pushes:
            push_sampler = self.config.shared_samplers().push
            for (dest, candidate), recs in self._adv_pushes.items():
                if candidate in self.sid_of:
                    raise NotImplementedError(
                        "vectorized backend: adversary pushed a string also held "
                        "by correct nodes; use backend='message' for this case"
                    )
                if not self.is_correct[dest]:
                    continue
                seen = set()
                crossing_idx = None
                for idx, byz_id in recs:
                    if byz_id in seen:
                        continue
                    if push_sampler.contains(candidate, dest, byz_id):
                        seen.add(byz_id)
                        if len(seen) == self.thr:
                            crossing_idx = idx
                            break
                if crossing_idx is not None:
                    events.append((int(dest), 1, crossing_idx, candidate))

        events.sort(key=lambda event: (event[0], event[1], event[2]))
        live_xs: List[int] = []
        live_sids: List[int] = []
        live_labels: List[int] = []
        labels = draw_labels(
            self.seed, [event[0] for event in events], self._draw_count,
            self.config.label_space, self._label_budget, self.tables.labels,
        )
        for (x, phase, _key, payload), label in zip(events, labels):
            if phase == 0:
                live_xs.append(x)
                live_sids.append(payload)
                live_labels.append(label)
            else:
                self._dead_poll(x, payload, label)
        self._launch_polls(
            np.asarray(live_xs, dtype=np.int64),
            np.asarray(live_sids, dtype=np.int64),
            np.asarray(live_labels, dtype=np.int64),
            start=1,
        )

    def _dead_poll(self, x: int, candidate: str, label: int) -> None:
        """A poll for an adversary-forced string no correct node will ever believe.

        The poll's own sends and next-round deliveries are accounted, but no
        row is created: without believers in ``H(candidate, ·)`` the request
        is never served, so it generates no further traffic — the kernel
        leaves exactly the same inert pending state behind.
        """
        suite = self.config.shared_samplers()
        jmem = np.asarray(suite.poll.poll_list(x, label), dtype=np.int64)
        hmem = np.asarray(suite.pull.quorum(candidate, x), dtype=np.int64)
        poll_bits = PollMessage(candidate, label).bits(self.size_model)
        pull_bits = PullMessage(candidate, label).bits(self.size_model)
        self.sent_msgs[x] += 2 * self.size
        self.sent_bits[x] += self.size * (poll_bits + pull_bits)
        # next-round deliveries of the poll's Poll and Pull multicasts
        np.add.at(self.stage_recv_bits, jmem, poll_bits)
        np.add.at(self.stage_recv_bits, hmem, pull_bits)
        self._dispatched = True

    def _finalize_rows(self) -> None:
        """Freeze the poll-row SoA; no further rows appear after round 1."""
        rows = sum(len(batch.origins) for batch in self._batches)
        self.rows = rows
        d = self.size
        self.r_origin = np.zeros(rows, dtype=np.int32)
        self.r_sid = np.zeros(rows, dtype=np.int32)
        self.r_start = np.zeros(rows, dtype=np.int32)
        self.r_jmem = np.zeros((rows, d), dtype=np.int32)
        self.r_polled = BitMatrix(rows, d)
        pos = 0
        for batch in self._batches:
            block = slice(pos, pos + len(batch.origins))
            self.r_origin[block] = batch.origins
            self.r_sid[block] = batch.sid
            self.r_start[block] = batch.start
            self.r_jmem[block] = batch.jmem
            if batch.polled is None:
                self.r_polled.fill_rows(block)
            else:
                self.r_polled.set_rows(block, batch.polled)
            pos += len(batch.origins)
        self._batches = None  # type: ignore[assignment]
        self.r_sv = np.zeros(rows, dtype=np.int64)
        self.r_crossed = np.full(rows, -1, dtype=np.int32)
        self.r_fw2 = np.zeros((rows, d), dtype=np.int32)
        self.r_answered = BitMatrix(rows, d)
        self.r_ans = np.zeros(rows, dtype=np.int64)
        #: answer bit cost per sid, for the mixed-sid answer phase
        self._ans_bits_by_sid = np.asarray(
            [AnswerMessage(s).bits(self.size_model) for s in self.strings], dtype=np.int64
        )

    # ------------------------------------------------------------------
    # shared predicates
    # ------------------------------------------------------------------
    def _bel(self, sid: int) -> np.ndarray:
        """Who currently believes string ``sid`` (undecided holders + deciders)."""
        return ((self.initial_sid == sid) & (self.D == -1)) | (self.dec_sid == sid)

    def _all_decided(self) -> bool:
        return bool((self.D[self.correct] != -1).all())

    # ------------------------------------------------------------------
    # the round loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        self._round0()
        rnd = 0
        decided_round: Optional[int] = None
        stopped_by = "max_rounds"
        while not self._all_decided() and rnd < self.max_rounds:
            if not self._dispatched and rnd > 0:
                stopped_by = "quiescent"  # exactly like the kernel's empty-outbox exit
                break
            rnd += 1
            self._advance(rnd)
            if decided_round is None and self._all_decided():
                decided_round = rnd
        if self._all_decided():
            stopped_by = "decided"
        rounds = decided_round if decided_round is not None else rnd
        return self._result(rounds, stopped_by)

    def _advance(self, rnd: int) -> None:
        self._dispatched = False
        # -- phase A: deliver everything staged during the previous round --
        self.recv_bits += self.stage_recv_bits
        self.stage_recv_bits.fill(0)
        if rnd == 1:
            self._round1_acceptances()
            self._finalize_rows()
        for rows_idx, counts in self._stage_sv:
            self.r_sv[rows_idx] += counts
        self._stage_sv = []
        for rows_idx, occ in self._stage_fw2:
            self.r_fw2[rows_idx] += occ
        self._stage_fw2 = []
        for rows_idx in self._stage_ans:
            scatter_add(self.r_ans, rows_idx, 1)
        self._stage_ans = []
        newly_crossed = (self.r_crossed == -1) & (self.r_sv >= self.thr)
        self.r_crossed[newly_crossed] = rnd

        new_deciders = self._phase_decide(rnd)
        self._phase_serves(rnd, new_deciders)
        self._phase_fw2(rnd, new_deciders)
        self._phase_answers(rnd)

    def _phase_decide(self, rnd: int) -> np.ndarray:
        """Answer majorities reached this round become decisions (first poll wins)."""
        new_deciders = np.zeros(self.n, dtype=bool)
        eligible = self.r_ans >= self.thr
        if not eligible.any():
            return new_deciders
        origins = self.r_origin
        rows = np.nonzero(
            eligible & self.is_correct[origins] & (self.D[origins] == -1)
        )[0]
        if len(rows) == 0:
            return new_deciders
        deciders, first = np.unique(origins[rows], return_index=True)
        picked = rows[first]
        self.D[deciders] = rnd
        self.dec_sid[deciders] = self.r_sid[picked]
        new_deciders[deciders] = True
        return new_deciders

    def _phase_serves(self, rnd: int, new_deciders: np.ndarray) -> None:
        """Pull serving: believers at arrival, plus deciders flushing pending pulls.

        A proxy in ``H(s, origin)`` serves a pull request the round it
        arrives if it believes ``s`` by the end of that round (same-round
        deciders flush their pending list within the round in the kernel),
        and otherwise the round it later decides ``s``.  Each server of a
        row dispatches the full first-hop fan-out: d Fw1 multicasts of d
        copies each.

        Rows are gathered in budget-sized chunks (``H(s, origin)`` decoded
        per chunk), but a chunk only adds to two per-string sums — the
        serves each proxy dispatches and the server fan-outs that reach
        each poll target — taken over every chunk of both windows, the
        arrivals (served by believers) and the flush (served by this
        round's late deciders).  :meth:`_emit_serves` then decodes each
        active target's ``H(s, t)`` once per string and round, whatever the
        budget.
        """
        arrivals = self.r_start == rnd - 1
        flush = self.r_start <= rnd - 2
        for sid in np.unique(self.r_sid):
            s = self.strings[int(sid)]
            bel = self._bel(sid)
            late = new_deciders & (self.dec_sid == sid) & (self.initial_sid != sid)
            per_server = np.zeros(self.n, dtype=np.int64)
            weight = np.zeros(self.n, dtype=np.float64)
            for window, servers_mask in ((arrivals, bel), (flush, late)):
                if not servers_mask.any():
                    continue
                rsel = np.nonzero(window & (self.r_sid == sid))[0]
                for lo in range(0, len(rsel), self._gather_chunk):
                    rchunk = rsel[lo : lo + self._gather_chunk]
                    # H(s, origin) is re-gathered from the packed tables —
                    # the engine never keeps a (rows, d) pull-quorum matrix
                    hmem = self.tables.rows("H", s, self.r_origin[rchunk])
                    member_mask = servers_mask[hmem]       # (k, d)
                    counts = member_mask.sum(axis=1).astype(np.int64)
                    active = counts > 0
                    if not active.any():
                        continue
                    rows_idx, counts = rchunk[active], counts[active]
                    scatter_add(per_server, hmem[member_mask], 1)
                    self._stage_sv.append((rows_idx, counts))
                    bincount_rows(self.r_jmem[rows_idx], counts.astype(np.float64), weight)
            if per_server.any():
                self._emit_serves(int(sid), per_server, weight)

    def _emit_serves(self, sid: int, per_server: np.ndarray, weight: np.ndarray) -> None:
        """Account one string's pull serves of a round and stage their Fw1 deliveries.

        ``per_server[y]`` counts the rows proxy ``y`` serves, ``weight[t]``
        the server fan-outs that reach poll target ``t``, both summed over
        the round's chunks and windows.  The Fw1 fan-out is streamed per
        *target*: every member of ``H(s, t)`` receives ``weight[t]``
        copies, so the delivered counts are one gather over the unique
        active targets, decoded once, in table-budget chunks — no ``(rows,
        d, d)`` staging matrix.
        """
        s = self.strings[sid]
        fw1_bits = Fw1Message(0, s, 0, 0).bits(self.size_model)  # ids, label: fixed widths
        fanout = self.size * self.size
        self.sent_msgs += per_server * fanout
        self.sent_bits += per_server * (fanout * fw1_bits)
        self._dispatched = True
        active = np.nonzero(weight)[0]
        delivered = np.zeros(self.n, dtype=np.float64)
        for lo in range(0, len(active), self._table_chunk):
            tchunk = active[lo : lo + self._table_chunk]
            bincount_rows(self.tables.rows("H", s, tchunk), weight[tchunk], delivered)
        # exact: every accumulated value is an integer far below 2**53
        self.stage_recv_bits += delivered.astype(np.int64) * fw1_bits

    def _phase_fw2(self, rnd: int, new_deciders: np.ndarray) -> None:
        """Second-hop forwards: crossing rows fan Fw2 votes out to poll targets.

        For each row whose secondary-vote count reached the threshold this
        round (``crossed == rnd``), every believing member of ``H(s, t)``
        sends one Fw2 to each target ``t`` of the row; rows that crossed
        earlier pick up late votes only from nodes that decided ``s`` this
        round without initially believing it (the kernel's ``on_decided``
        flush of fw1 state).
        """
        for sid in np.unique(self.r_sid):
            bel = self._bel(sid)
            late = new_deciders & (self.dec_sid == sid) & (self.initial_sid != sid)
            batches = (
                ((self.r_crossed == rnd), bel),
                ((self.r_crossed != -1) & (self.r_crossed < rnd), late),
            )
            for window, senders_mask in batches:
                if not senders_mask.any():
                    continue
                rsel = np.nonzero(window & (self.r_sid == sid))[0]
                if len(rsel) == 0:
                    continue
                self._emit_fw2(int(sid), rsel, senders_mask)

    def _emit_fw2(self, sid: int, rows_idx: np.ndarray, senders_mask: np.ndarray) -> None:
        """Stream one Fw2 batch by unique target instead of per-(row, target).

        ``H(s, t)`` depends only on ``t``, so the per-(row, member)
        occupancy is ``cnt[t]`` — the believing-member count of the target's
        pull quorum — gathered once per unique target; and a sender's total
        is its target multiplicity across the batch.
        """
        s = self.strings[sid]
        n = self.n
        fw2_bits = Fw2Message(0, s, 0).bits(self.size_model)  # id, label: fixed widths
        # target multiplicity over the whole batch (chunked row gathers)
        mult = np.zeros(n, dtype=np.int64)
        for lo in range(0, len(rows_idx), self._gather_chunk):
            chunk_rows = rows_idx[lo : lo + self._gather_chunk]
            scatter_add(mult, self.r_jmem[chunk_rows].ravel(), 1)
        active = np.nonzero(mult)[0]
        cnt = np.zeros(n, dtype=np.int32)       # believing members of H(s, t)
        per_sender = np.zeros(n, dtype=np.float64)
        for lo in range(0, len(active), self._table_chunk):
            tchunk = active[lo : lo + self._table_chunk]
            h_rows = self.tables.rows("H", s, tchunk)  # (c, d)
            mask = senders_mask[h_rows]
            cnt[tchunk] = mask.sum(axis=1)
            bincount_rows(h_rows, mult[tchunk].astype(np.float64), per_sender, mask)
        if not cnt[active].any():
            return  # no believing proxy anywhere: nothing sent, nothing staged
        sender_counts = per_sender.astype(np.int64)  # exact integer values
        self.sent_msgs += sender_counts
        self.sent_bits += sender_counts * fw2_bits
        self._dispatched = True
        recv = np.zeros(n, dtype=np.int64)
        for lo in range(0, len(rows_idx), self._gather_chunk):
            chunk_rows = rows_idx[lo : lo + self._gather_chunk]
            targets = self.r_jmem[chunk_rows]  # (k, d)
            occ = cnt[targets]                 # (k, d) int32
            if not occ.any():
                continue
            self._stage_fw2.append((chunk_rows, occ))
            scatter_add(recv, targets.ravel(), occ.ravel())
        self.stage_recv_bits += recv * fw2_bits

    def _answer_cells(self, rchunk: np.ndarray, bel: np.ndarray) -> Optional[tuple]:
        """``(rows, cols)`` of the cells of ``rchunk`` that may answer now, or ``None``.

        A call per chunk, so the chunk's ``(k, d)`` temporaries are freed
        when it returns rather than held through the rest of the phase.
        """
        tallied = self.r_fw2[rchunk] >= self.thr
        if not tallied.any():
            return None  # e.g. rounds 1-2: the first Fw2 votes land in round 3
        rr, cc = np.nonzero(
            tallied
            & self.r_polled.rows_bool(rchunk)
            & ~self.r_answered.rows_bool(rchunk)
            & bel[self.r_jmem[rchunk]]
        )
        if len(rr) == 0:
            return None
        return rchunk[rr].astype(np.int32), cc.astype(np.int16)

    def _phase_answers(self, rnd: int) -> None:
        """Polled nodes whose Fw2 tally crossed the threshold answer their poll.

        An answer for row ``(origin, s, label)`` fires at target ``t`` once
        ``t`` is polled, believes ``s``, has enough Fw2 votes, and has not
        answered that poll yet — subject to the per-node answer budget while
        undecided.  Budget contention is resolved in the kernel's delivery
        order: polls are served per origin in row-creation order.
        """
        grows_parts = []
        gcols_parts = []
        for sid in np.unique(self.r_sid):
            bel = self._bel(sid)
            rsel = np.nonzero((self.r_sid == sid) & (self.r_start <= rnd - 1))[0]
            for lo in range(0, len(rsel), self._gather_chunk):
                cells = self._answer_cells(rsel[lo : lo + self._gather_chunk], bel)
                if cells is not None:
                    grows_parts.append(cells[0])
                    gcols_parts.append(cells[1])
        if not grows_parts:
            return
        grows = np.concatenate(grows_parts)
        gcols = np.concatenate(gcols_parts)
        answerers = self.r_jmem[grows, gcols]
        undecided = self.D[answerers] == -1
        budget = self.config.answer_budget
        counts = np.bincount(answerers[undecided], minlength=self.n)
        if not (self.answers_sent + counts > budget).any():
            # Fast path: every candidate answer fits the budget, so which
            # order they spend it in is irrelevant — everything downstream
            # (flag sets, bincount accounting) is order-independent, and the
            # delivery-order lexsort (the peak-memory term of this phase at
            # large n) is skipped entirely.
            self.answers_sent += counts
        else:
            # slow path: walk candidate answers in the kernel's delivery
            # order (per origin, polls in row-creation order), spending the
            # budget answer by answer (exhausted answers are deferred until
            # the node decides, exactly like the kernel)
            order = np.lexsort((grows, self.r_origin[grows]))
            grows = grows[order]
            gcols = gcols[order]
            answerers = answerers[order]
            undecided = undecided[order]
            keep = np.zeros(len(grows), dtype=bool)
            for i in range(len(grows)):
                t = int(answerers[i])
                if not undecided[i]:
                    keep[i] = True
                elif self.answers_sent[t] < budget:
                    keep[i] = True
                    self.answers_sent[t] += 1
            if not keep.any():
                return
            grows = grows[keep]
            gcols = gcols[keep]
            answerers = answerers[keep]
        self.r_answered.set_true(grows, gcols)
        scatter_add(self.sent_msgs, answerers, 1)
        origins = self.r_origin[grows]
        row_sids = self.r_sid[grows]
        for sid in np.unique(row_sids):
            mask = row_sids == sid
            bits = int(self._ans_bits_by_sid[sid])
            scatter_add(self.sent_bits, answerers[mask], bits)
            scatter_add(self.stage_recv_bits, origins[mask], bits)
        self._stage_ans.append(grows)
        self._dispatched = True

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------
    def _result(self, rounds: int, stopped_by: str) -> SimulationResult:
        decided = np.nonzero(self.D != -1)[0]
        decisions = {
            int(x): self.strings[int(self.dec_sid[x])] for x in decided
        }
        decision_times = {int(x): float(self.D[x]) for x in decided}
        correct_ids = list(self.scenario.correct_ids)
        # With adversary "none" the kernel is built with no byzantine ids at
        # all, so the result reports an empty list rather than the scenario's.
        byz_ids = [] if self.adversary_name == "none" else sorted(self.scenario.byzantine_ids)
        metrics = _summary_from_arrays(
            self.n, self.sent_msgs, self.sent_bits, self.recv_bits,
            decision_times, rounds, restrict_to=correct_ids,
        )
        metrics_all = _summary_from_arrays(
            self.n, self.sent_msgs, self.sent_bits, self.recv_bits,
            decision_times, rounds, restrict_to=None,
        )
        return SimulationResult(
            n=self.n,
            correct_ids=correct_ids,
            byzantine_ids=byz_ids,
            decisions=decisions,
            rounds=rounds,
            span=None,
            metrics=metrics,
            metrics_all=metrics_all,
            stopped_by=stopped_by,
        )


def run_aer_vectorized(
    scenario: AERScenario,
    config: Optional[AERConfig] = None,
    adversary_name: str = "none",
    seed: int = 0,
    max_rounds: int = 64,
    tables: Optional[VecSamplerTables] = None,
    memory_mb: Optional[float] = None,
) -> SimulationResult:
    """Run one synchronous AER execution on the vectorized backend.

    Mirrors the message kernel's ``run_aer`` execution semantics
    (synchronous, non-rushing, eager pull, no trace) for the adversaries in
    :data:`VEC_ADVERSARIES`; any other combination raises ``ValueError``.

    ``memory_mb`` bounds the engine's temporary working set (the
    ``vec_memory_mb`` spec knob): gather and table-decode chunk sizes
    scale with it, the result bits never depend on it.  ``None`` uses
    :data:`DEFAULT_VEC_MEMORY_MB`.
    """
    if adversary_name not in VEC_ADVERSARIES:
        raise ValueError(
            f"vectorized backend does not support adversary {adversary_name!r}; "
            f"supported: {', '.join(VEC_ADVERSARIES)}"
        )
    if config is None:
        config = AERConfig.for_system(scenario.n)
    if tables is None:
        tables = tables_for(config)
    run = _VecRun(scenario, config, adversary_name, seed, max_rounds, tables,
                  memory_mb=memory_mb)
    return run.run()
