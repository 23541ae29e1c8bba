"""Vectorized ``sample_majority`` baseline (``backend="vectorized"``).

The KLST11-style baseline has a fixed three-beat shape — query a random
sample (round 0), answer queries (round 1), tally answers and decide
(round 2) — so the whole execution collapses into a few ``bincount``/gather
passes once the samples are drawn.  The samples themselves are replayed
through each node's actual ``derive_rng(seed, "node", x).sample(...)`` call,
which keeps the backend bit-identical to the message kernel at the cost of a
Python loop over nodes; at ``n = 10**5`` the protocol's ``Θ(n·√n·log n)``
message complexity dwarfs that loop anyway (AER is the large-``n`` headline,
this baseline is its foil).

Supported adversaries: ``none`` and ``silent`` (Byzantine nodes simply never
answer; every other strategy targets AER's quorum machinery and is rejected).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.backends import VEC_MAJORITY_ADVERSARIES
from repro.baselines.sample_majority import QueryMessage, SampleMajorityConfig
from repro.core.messages import AnswerMessage
from repro.core.scenario import AERScenario
from repro.net.messages import SizeModel
from repro.net.results import SimulationResult
from repro.net.rng import derive_rng
from repro.vec.engine import _summary_from_arrays

#: sorts above every real string id, so the middle element of a sorted
#: vote row is the majority candidate whenever one exists
_NO_VOTE = np.iinfo(np.int64).max


def _exact_reply_order(S: np.ndarray, is_correct: np.ndarray, budget: int) -> np.ndarray:
    """Which queries get answered when some node's reply budget binds.

    Queries arrive in dispatch order — queriers ascending, each node's
    sample in draw order — and a correct target answers the first
    ``budget`` it receives.  The budget is ``4×`` the expected query count,
    so this path is unreachable in practice; it exists so the exactness
    contract has no asterisk.
    """
    c, k = S.shape
    answered = np.zeros((c, k), dtype=bool)
    remaining: Dict[int, int] = {}
    flat = S.ravel()
    for idx in range(flat.size):
        t = int(flat[idx])
        if not is_correct[t]:
            continue
        left = remaining.get(t, budget)
        if left > 0:
            remaining[t] = left - 1
            answered[idx // k, idx % k] = True
    return answered


def run_sample_majority_vectorized(
    scenario: AERScenario,
    config: Optional[SampleMajorityConfig] = None,
    adversary_name: str = "none",
    seed: int = 0,
    max_rounds: int = 16,
) -> SimulationResult:
    """Run the sampled-majority baseline as columnar array passes.

    Mirrors :func:`repro.baselines.sample_majority.run_sample_majority`
    bit-for-bit for the supported adversaries.
    """
    if adversary_name not in VEC_MAJORITY_ADVERSARIES:
        raise ValueError(
            f"vectorized sample_majority does not support adversary "
            f"{adversary_name!r}; supported: {', '.join(VEC_MAJORITY_ADVERSARIES)}"
        )
    if config is None:
        config = SampleMajorityConfig.for_system(
            scenario.n, string_length=len(scenario.gstring)
        )
    n = scenario.n
    size_model = SizeModel(n=n)
    query_bits = QueryMessage().bits(size_model)
    correct = np.asarray(scenario.correct_ids, dtype=np.int64)
    c = len(correct)
    is_correct = np.zeros(n, dtype=bool)
    is_correct[correct] = True

    # candidate strings as integer ids, plus each node's answer bit cost
    sid_of: Dict[str, int] = {}
    strings = []
    cand_sid = np.full(n, -1, dtype=np.int64)
    for x in scenario.correct_ids:
        s = scenario.candidates[x]
        sid = sid_of.setdefault(s, len(strings))
        if sid == len(strings):
            strings.append(s)
        cand_sid[x] = sid
    sid_bits = np.asarray([AnswerMessage(s).bits(size_model) for s in strings], dtype=np.int64)
    ans_bits_arr = np.zeros(n, dtype=np.int64)
    ans_bits_arr[correct] = sid_bits[cand_sid[correct]]

    # round 0: replay every node's sample draw exactly
    k = min(config.sample_size, n - 1) if n > 1 else 0
    base = list(range(n))
    S = np.empty((c, k), dtype=np.int64)
    for i, x in enumerate(scenario.correct_ids):
        rng = derive_rng(seed, "node", x)
        S[i] = rng.sample(base[:x] + base[x + 1 :], k)

    sent_msgs = np.zeros(n, dtype=np.int64)
    sent_bits = np.zeros(n, dtype=np.int64)
    recv_bits = np.zeros(n, dtype=np.int64)
    decision_times: Dict[int, float] = {}
    decisions: Dict[int, str] = {}

    queries_dispatched = c > 0 and k > 0
    if queries_dispatched:
        sent_msgs[correct] += k
        sent_bits[correct] += k * query_bits

    rnd = 0
    answers_dispatched = False
    if queries_dispatched and max_rounds >= 1:
        # round 1: queries delivered, correct targets dispatch answers
        rnd = 1
        q_counts = np.bincount(S.ravel(), minlength=n)
        recv_bits += q_counts * query_bits
        budget = config.reply_budget
        if (q_counts[correct] > budget).any():
            answered = _exact_reply_order(S, is_correct, budget)
            replies = np.bincount(S.ravel()[answered.ravel()], minlength=n)
        else:
            answered = is_correct[S]
            replies = np.where(is_correct, q_counts, 0)
        sent_msgs += replies
        sent_bits += replies * ans_bits_arr
        answers_dispatched = bool(replies.any())
    if answers_dispatched and max_rounds >= 2:
        # round 2: answers delivered, queriers tally and decide
        rnd = 2
        peer_bits = np.where(answered, ans_bits_arr[S], 0)
        recv_bits[correct] += peer_bits.sum(axis=1)
        votes = np.where(answered, cand_sid[S], _NO_VOTE)
        votes.sort(axis=1)
        mid = votes[:, k // 2]
        count = (votes == mid[:, None]).sum(axis=1)
        decide = (count > k // 2) & (mid != _NO_VOTE)
        for i in np.nonzero(decide)[0]:
            x = int(correct[i])
            decisions[x] = strings[int(mid[i])]
            decision_times[x] = 2.0

    all_decided = c > 0 and len(decisions) == c
    rounds = rnd if all_decided or rnd else 0
    # the kernel's exits: everyone decided, the round cap, else quiescence
    if len(decisions) == c:
        stopped_by = "decided"
    else:
        stopped_by = "quiescent" if rnd < max_rounds else "max_rounds"

    correct_ids = list(scenario.correct_ids)
    byz_ids = [] if adversary_name == "none" else sorted(scenario.byzantine_ids)
    return SimulationResult(
        n=n,
        correct_ids=correct_ids,
        byzantine_ids=byz_ids,
        decisions=decisions,
        rounds=rounds,
        span=None,
        metrics=_summary_from_arrays(
            n, sent_msgs, sent_bits, recv_bits, decision_times, rounds,
            restrict_to=correct_ids,
        ),
        metrics_all=_summary_from_arrays(
            n, sent_msgs, sent_bits, recv_bits, decision_times, rounds,
            restrict_to=None,
        ),
        stopped_by=stopped_by,
    )
