"""Asynchronous event-queue scheduler.

In the asynchronous model the adversary controls message scheduling: it may
delay any message arbitrarily, subject only to *reliability* — a message sent
to a non-faulty node is eventually delivered (Section 2.1).  The standard way
to give "time complexity" a meaning in this model (and the one the paper's
``O(log n / log log n)`` bound uses) is to normalize: after the fact, the
longest delay experienced by any correct-to-correct message is defined to be
one time unit, and the protocol's running time is measured in those units.

Concretely, this simulator draws every message's delay from ``(0, 1]``:

* by default from a :class:`DelayPolicy` (uniform at random, or constant);
* the adversary may override the delay of any message it observes, again
  within ``(0, 1]`` — this models the full scheduling power of an
  asynchronous adversary without having to renormalize afterwards.

The adversary in this model is inherently *rushing*: it observes every
message at the moment it is sent, before deciding on its own messages and on
the delays.

The class is a thin scheduling policy over
:class:`~repro.net.kernel.EventKernel`: it decides *when* dispatched messages
are delivered (heap order of their delay-adjusted times); all delivery,
metrics and decision machinery is the kernel's.

Event-queue layout (the columnar fast path): the pending-event store is a
**delay-bucketed calendar queue**, not a binary heap.  Arrival times are
quantized into fixed-width buckets (``bucket = int(time * _BUCKET_RATE)``);
dispatching appends an event tuple to its bucket (O(1), no sift), and the
consumer walks buckets in increasing order, sorting each bucket by ``(time,
seq)`` once when it is opened.  Because bucket boundaries are monotone in
time and ``seq`` is unique, the resulting delivery order is *identical* to a
flat per-message heap — ``tests/test_engine_golden.py`` pins this byte-for-
byte — while the per-message cost drops from an O(log n) heap sift to a
list append plus an O(log b) share of one C-level bucket sort.  An event
dispatched into the bucket currently being consumed (possible only for
delays within one bucket width, e.g. an adversary choosing ``MIN_DELAY``)
is placed by ``bisect.insort`` into the bucket's unconsumed tail, which
preserves exactness for arbitrarily small delays.

A multicast is one grouped dispatch record (metrics, trace and payload
interning happen once per record), with or without an adversary; its
per-destination delays are chosen at dispatch time **in destination order**
— exactly the RNG consumption order of per-message scheduling — and queued
immediately.  Who chooses them depends on the adversary's *class*: one that
overrides neither ``observe_send`` nor ``delay_for`` (``watches_sends`` is
false) cannot tell the difference, so the scheduler draws from the delay
policy directly, as in a failure-free run; one that does is shown a
:class:`SendRecord` per destination and asked for each delay, between the
same sequence numbers as if the multicast had been sent message by message.
Only where per-message *entries* are observable — the trace events of a run
with an adversary — is a multicast dispatched one destination at a time.

A multicast whose destinations all get one arrival time, under consecutive
sequence numbers, is queued as one **delay run** ``(arrival, first_seq,
sender, dests, message, bits)`` instead of one event per destination: under
the ``constant`` policy, a delay class rescaling a constant delay, or an
adversary giving every destination one delay (Lemma 6's cornering holds
honest traffic at 1.0 and sends its own at ``MIN_DELAY``).  The consumer
takes a run one destination per pass, making every per-event check (the
caps, the decision count, fault advance and drop) before each, and its
cursor steps past the run only once the last destination is taken.  The
order stays exact: the run's sequence numbers are contiguous and unique, so
under ``(time, seq)`` order it occupies exactly the slice its members would;
a new arrival is strictly later than now (delay ≥ ``MIN_DELAY``), so
``insort`` never places one before a partly delivered run; and events whose
delays are chosen one by one may be placed after the loop that chooses them,
since a bucket is sorted when it is opened.  A multicast during which the
adversary sends from ``observe_send`` has split sequence numbers, and one
with distinct arrivals (the ``random``, ``pareto`` and ``lognormal``
policies) is queued per destination.
"""

from __future__ import annotations

from bisect import insort
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

from repro.net.kernel import AdversaryProtocol, EventKernel, SendRecord, paused_gc
from repro.net.messages import Message, SizeModel
from repro.net.node import Node
from repro.net.results import SimulationResult
from repro.net.rng import derive_rng
from repro.registry import Registry

#: smallest delay any message may have; keeps event times strictly increasing
MIN_DELAY = 1e-3

#: calendar-queue resolution: events are binned by ``int(time * _BUCKET_RATE)``.
#: The width (1/1024 ≈ 1e-3 time units) is of the order of MIN_DELAY, so a
#: bucket holds a small slice of the in-flight window and the per-bucket sort
#: stays short; exactness does not depend on the choice (same-bucket events
#: are sorted, cross-bucket order follows from monotonicity).
_BUCKET_RATE = 1024.0

#: named delay-policy registry; values are ``factory(**params) -> DelayPolicy``
DELAY_POLICIES = Registry("delay policy")


def register_delay_policy(name: str, *, replace: bool = False):
    """Decorator registering a delay-policy factory (usually the class itself)."""
    return DELAY_POLICIES.register(name, replace=replace)


def make_delay_policy(name: str, **params) -> "DelayPolicy":
    """Instantiate the delay policy registered under ``name``.

    ``params`` are passed to the registered factory, e.g.
    ``make_delay_policy("constant", value=0.5)``.
    """
    factory = DELAY_POLICIES.get(name)
    return factory(**params)  # type: ignore[operator]


class DelayPolicy:
    """Default delay selection for messages the adversary does not touch."""

    def delay(self, record: SendRecord, rng) -> float:
        """Return the delay (in normalized units) for ``record``."""
        raise NotImplementedError


@register_delay_policy("constant")
class ConstantDelayPolicy(DelayPolicy):
    """Every message takes exactly ``value`` time units (default: the maximum, 1.0)."""

    def __init__(self, value: float = 1.0) -> None:
        if not MIN_DELAY <= value <= 1.0:
            raise ValueError("delay must lie in [MIN_DELAY, 1.0]")
        self.value = value

    def delay(self, record: SendRecord, rng) -> float:
        return self.value


@register_delay_policy("random")
class RandomDelayPolicy(DelayPolicy):
    """Delays drawn uniformly from ``[low, high] ⊆ (0, 1]`` — a benign network."""

    def __init__(self, low: float = 0.1, high: float = 1.0) -> None:
        if not MIN_DELAY <= low <= high <= 1.0:
            raise ValueError("require MIN_DELAY <= low <= high <= 1.0")
        self.low = low
        self.high = high

    def delay(self, record: SendRecord, rng) -> float:
        return rng.uniform(self.low, self.high)


@register_delay_policy("pareto")
class ParetoDelayPolicy(DelayPolicy):
    """Heavy-tailed delays: ``scale · (1-u)^(-1/alpha)``, truncated into ``(0, 1]``.

    A Pareto(α) tail with minimum ``scale`` — most messages arrive around
    ``scale`` but a polynomial tail straggles, and (with the defaults) about
    ``scale^alpha`` of the mass saturates the model's normalized maximum of
    1.0.  Smaller ``alpha`` means a heavier tail.
    """

    def __init__(self, alpha: float = 1.5, scale: float = 0.05) -> None:
        if alpha <= 0.0:
            raise ValueError("pareto alpha must be > 0")
        if not MIN_DELAY <= scale <= 1.0:
            raise ValueError("pareto scale must lie in [MIN_DELAY, 1.0]")
        self.alpha = alpha
        self.scale = scale

    def delay(self, record: SendRecord, rng) -> float:
        # inverse-CDF draw; 1 - random() is in (0, 1] so the power is finite
        return min(1.0, self.scale * (1.0 - rng.random()) ** (-1.0 / self.alpha))


@register_delay_policy("lognormal")
class LogNormalDelayPolicy(DelayPolicy):
    """Heavy-tailed delays: ``exp(N(mu, sigma))``, truncated into ``(0, 1]``.

    The classic long-tailed latency model (median ``e^mu``, tail weight set
    by ``sigma``); the defaults put the median near 0.14 with a few percent
    of the mass saturating the normalized maximum of 1.0.
    """

    def __init__(self, mu: float = -2.0, sigma: float = 1.0) -> None:
        if sigma <= 0.0:
            raise ValueError("lognormal sigma must be > 0")
        self.mu = mu
        self.sigma = sigma

    def delay(self, record: SendRecord, rng) -> float:
        return min(1.0, max(MIN_DELAY, rng.lognormvariate(self.mu, self.sigma)))


class AsynchronousSimulator(EventKernel):
    """Event-driven execution with adversary-controlled, bounded delays.

    Parameters (in addition to :class:`~repro.net.kernel.EventKernel`)
    ----------
    delay_policy:
        Delay selection for messages the adversary leaves alone.
    max_time:
        Safety cap on simulated (normalized) time.
    max_events:
        Safety cap on the number of delivered messages, protecting against
        runaway protocols or adversaries.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        n: int,
        adversary: Optional[AdversaryProtocol] = None,
        seed: int = 0,
        delay_policy: Optional[DelayPolicy] = None,
        max_time: float = 200.0,
        max_events: int = 2_000_000,
        size_model: Optional[SizeModel] = None,
        trace=None,
        faults=None,
    ) -> None:
        super().__init__(
            nodes, n, adversary=adversary, seed=seed, size_model=size_model,
            trace=trace, faults=faults,
        )
        self.delay_policy = delay_policy or RandomDelayPolicy()
        self.max_time = max_time
        self.max_events = max_events
        self._time = 0.0
        self._seq = 0
        # Calendar queue: bucket id -> list of (time, seq, sender, dest,
        # message, bits) event tuples, where ``dest`` is a tuple of
        # destinations for a delay run.  ``_cur_*`` track the bucket being
        # consumed (already sorted; ``_cur_idx`` is the read cursor) and
        # ``_pending`` counts undelivered destinations across all buckets.
        self._buckets: dict = {}
        self._cur_bucket: int = -1
        self._cur_list: list = []
        self._cur_idx: int = 0
        self._pending: int = 0
        self._scheduler_rng = derive_rng(seed, "scheduler")
        #: the adversary when it watches sends (overrides ``observe_send`` or
        #: ``delay_for``; a stand-in that does not say is assumed to), else
        #: ``None``: only a watcher is shown each message and asked for its delay
        self._watcher = (
            adversary
            if adversary is not None and getattr(adversary, "watches_sends", True)
            else None
        )
        #: per-sender delay rescaling (mixed populations)
        has_delay_classes = faults is not None and faults.has_delay_classes
        self._delay_classes = faults if has_delay_classes else None
        # Fast-path delay selection: when nobody overrides the delay (no
        # watching adversary, no fault delay classes) and the policy is one
        # of the two built-in ones, the per-message SendRecord (observation
        # payload) and the clamp are provably redundant, so the hot path
        # skips them — under a send-blind adversary exactly as with none.
        # The draws are bit-identical to the policy's (`uniform(a, b)` is
        # exactly ``a + (b - a) * random()``).
        self._uniform_fast = None
        self._constant_fast = None
        if self._watcher is None and not has_delay_classes:
            policy = self.delay_policy
            if type(policy) is RandomDelayPolicy:
                self._uniform_fast = (policy.low, policy.high - policy.low)
            elif type(policy) is ConstantDelayPolicy:
                self._constant_fast = policy.value
        #: a traced run with an adversary reports one ``message_dispatched``
        #: event per message, and the count is part of the run's record (the
        #: trace summary), so this is the one configuration that still
        #: un-groups multicasts
        self._trace_each_message = trace is not None and adversary is not None

    # ------------------------------------------------------------------
    # EventKernel interface (the scheduling policy)
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self._time

    def dispatch_send(self, sender: int, dest: int, message: Message) -> None:
        bits = self.metrics.record_send(sender, message)
        if self.trace is not None:
            self.trace.on_dispatch(sender, 1, message.kind, bits)
        self._schedule(sender, (dest,), message, bits)

    def dispatch_send_many(self, sender: int, dests: Sequence[int], message: Message) -> None:
        if not dests:
            return
        if self._trace_each_message:
            # Per-message *entries* are observable here: keep their exact
            # interleaving with the entries of whatever the adversary sends
            # while it observes.
            for dest in dests:
                self.dispatch_send(sender, dest, message)
            return
        # One record per multicast, adversary or not: metrics are commutative
        # sums, so charging them before the per-destination observations is
        # exact.
        message = self.intern_payload(message)
        bits = self.metrics.record_send_many(sender, dests, message)
        if self.trace is not None:
            self.trace.on_dispatch(sender, len(dests), message.kind, bits)
        self._schedule(sender, dests, message, bits)

    def _schedule(self, sender: int, dests: Sequence[int], message: Message, bits: int) -> None:
        """Choose each destination's delay, in destination order, and queue the events.

        A multicast whose destinations all arrive at one time, under
        consecutive sequence numbers, is queued as one delay run.
        """
        time = self._time
        buckets = self._buckets
        buckets_get = buckets.get
        cur_bucket = self._cur_bucket
        uniform = self._uniform_fast
        if uniform is not None:
            low, span = uniform
            rand = self._scheduler_rng.random
            seq = self._seq
            for dest in dests:
                seq += 1
                # parenthesised so the delay is rounded exactly as uniform() does
                arrival = time + (low + span * rand())
                event = (arrival, seq, sender, dest, message, bits)
                bucket = int(arrival * _BUCKET_RATE)
                if bucket != cur_bucket:
                    lst = buckets_get(bucket)
                    if lst is None:
                        buckets[bucket] = [event]
                    else:
                        lst.append(event)
                else:
                    # an arrival within the bucket being consumed (delay of the
                    # order of one bucket width): exact placement into the
                    # unconsumed tail
                    insort(self._cur_list, event, self._cur_idx)
            self._seq = seq
            self._pending += len(dests)
            return
        count = len(dests)
        if self._constant_fast is not None:
            arrival = time + self._constant_fast
            first_seq = self._seq + 1
            self._seq += count
            one_run = True
        else:
            arrivals, seqs = self._choose_arrivals(sender, dests, message, time)
            arrival = arrivals[0]
            first_seq = seqs[0]
            one_run = seqs[-1] - first_seq == count - 1 and arrivals.count(arrival) == count
        if one_run:
            run = dests[0] if count == 1 else tuple(dests)
            events = ((arrival, first_seq, sender, run, message, bits),)
        else:
            # distinct arrivals, or the adversary sent in between
            events = zip(arrivals, seqs, repeat(sender), dests, repeat(message), repeat(bits))
        # Placement after the delays are chosen is exact: a bucket is sorted
        # when it is opened, and ``insort`` keeps the open one in order.
        for event in events:
            bucket = int(event[0] * _BUCKET_RATE)
            if bucket != cur_bucket:
                lst = buckets_get(bucket)
                if lst is None:
                    buckets[bucket] = [event]
                else:
                    lst.append(event)
            else:
                insort(self._cur_list, event, self._cur_idx)
        self._pending += count

    def _choose_arrivals(
        self, sender: int, dests: Sequence[int], message: Message, time: float
    ) -> Tuple[List[float], List[int]]:
        """Each destination's arrival time and sequence number, in destination order.

        Somebody chooses the delay per message: a watching adversary, a
        custom delay policy, or a fault delay class.  The adversary may send
        from inside ``observe_send`` (re-entering :meth:`_schedule`), so
        ``_seq`` is read through ``self`` per message: sequence numbers
        interleave exactly as in message-by-message dispatch.
        """
        watcher = self._watcher
        if watcher is not None:
            observe_send = watcher.observe_send
            delay_for = watcher.delay_for
        policy_delay = self.delay_policy.delay
        rng = self._scheduler_rng
        delay_classes = self._delay_classes
        arrivals = []
        seqs = []
        for dest in dests:
            record = SendRecord(sender, dest, message, time)
            delay: Optional[float] = None
            if watcher is not None:
                # Full-information model: the adversary observes every send and
                # may pick the delay (reliability forces it into (0, 1]).
                observe_send(record)
                delay = delay_for(record)
            if delay is None:
                delay = policy_delay(record, rng)
            # reliability: clamp into [MIN_DELAY, 1], here and again after a
            # class rescaling (comparisons rather than min/max calls: this is
            # per message; NaN lands on MIN_DELAY either way)
            delay = float(delay)
            if not delay >= MIN_DELAY:
                delay = MIN_DELAY
            elif delay > 1.0:
                delay = 1.0
            if delay_classes is not None:
                scale = delay_classes.delay_scale(sender)
                if scale != 1.0:
                    delay = min(1.0, max(MIN_DELAY, delay * scale))
            self._seq = seq = self._seq + 1
            seqs.append(seq)
            arrivals.append(time + delay)
        return arrivals, seqs

    def run(self) -> SimulationResult:
        """Process events until all correct nodes decide or a safety cap is hit."""
        with paused_gc():
            return self._run()

    def _run(self) -> SimulationResult:
        for node_id in self.correct_ids:
            self.nodes[node_id].on_start()
            self.note_decisions(node_id)
        if self.adversary is not None:
            self.adversary.on_start()

        # Event loop with the kernel's delivery inlined and columnar: received
        # counters are flat arrays indexed by destination id, flushed once at
        # the end (batched metrics accumulation); decision times are still
        # recorded at exact event times, with the decision check inlined.
        # The calendar queue is walked bucket by bucket; each bucket is
        # sorted by (time, seq) once when opened, so consuming an event is a
        # list indexing, not a heap sift.
        delivered = 0
        stopped_by = None
        max_time = self.max_time
        max_events = self.max_events
        buckets = self._buckets
        adversary = self.adversary
        byzantine = self.byzantine_ids
        faults = self.faults
        decided = self._decided
        limit = self._id_limit
        handler_list = self._handler_list
        node_list = self._node_list
        metrics = self.metrics
        trace = self.trace
        recv_msgs = [0] * limit
        recv_bits = [0] * limit
        spill: dict = {}
        cur_list = self._cur_list
        cur_idx = self._cur_idx
        run_pos = 0
        while self._pending and self._undecided_count:
            if cur_idx == len(cur_list):
                # advance to the next non-empty bucket (bounded by the
                # bucketed time horizon; _pending > 0 guarantees one exists)
                bucket = self._cur_bucket
                while True:
                    bucket += 1
                    nxt = buckets.pop(bucket, None)
                    if nxt is not None:
                        break
                nxt.sort()
                self._cur_bucket = bucket
                cur_list = self._cur_list = nxt
                cur_idx = self._cur_idx = 0
            event = cur_list[cur_idx]
            time = event[0]
            if time > max_time or delivered >= max_events:
                stopped_by = "max_time" if time > max_time else "max_events"
                break
            dest = event[3]
            if dest.__class__ is tuple:
                # a delay run: one destination per pass, and the cursor
                # steps past the run once its last destination is taken
                run = dest
                dest = run[run_pos]
                run_pos += 1
                if run_pos == len(run):
                    run_pos = 0
                    cur_idx += 1
                    self._cur_idx = cur_idx
            else:
                cur_idx += 1
                self._cur_idx = cur_idx
            self._pending -= 1
            sender = event[2]
            self._time = time
            if faults is not None:
                # churn boundaries are unit-time steps (same semantics as
                # sync rounds); a vetoed event still counts against the
                # event budget, like any other processed event
                faults.advance_time(time)
                if faults.should_drop(sender, dest, time):
                    delivered += 1
                    continue
            if 0 <= dest < limit:
                recv_msgs[dest] += 1
                recv_bits[dest] += event[5]
                handler = handler_list[dest]
                if handler is not None:
                    handler(sender, event[4])
                    if not decided[dest]:
                        node = node_list[dest]
                        if node.decision is not None:
                            decided[dest] = True
                            self._undecided_count -= 1
                            metrics.record_decision(dest, time)
                            if trace is not None:
                                trace.on_decided(dest, time)
                elif adversary is not None and dest in byzantine:
                    adversary.on_deliver(dest, sender, event[4])
            else:
                cell = spill.get(dest)
                if cell is None:
                    spill[dest] = [1, event[5]]
                else:
                    cell[0] += 1
                    cell[1] += event[5]
            delivered += 1
        counts = [(d, recv_msgs[d], recv_bits[d]) for d in range(limit) if recv_msgs[d]]
        counts.extend((d, cell[0], cell[1]) for d, cell in spill.items())
        metrics.record_delivery_batch(counts)
        if stopped_by is None:
            stopped_by = "quiescent" if self._undecided_count else "decided"

        summary = self.metrics.summary(restrict_to=self.correct_ids)
        span = summary.max_decision_time
        if span is None:
            span = self._time
        self.metrics.record_span(span)
        return self.build_result(rounds=None, span=span, stopped_by=stopped_by)
