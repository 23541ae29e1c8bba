"""Baseline protocols for the comparisons of Figure 1.

Three comparators are provided, covering the complexity classes the paper's
Figure 1 compares AER/BA against:

* :mod:`repro.baselines.sample_majority` — a load-balanced, KLST11-style
  almost-everywhere-to-everywhere protocol in which every node samples
  ``Θ(√n · log n)`` peers and adopts the majority answer.  Per-node cost is
  ``O~(√n)`` bits, the load is balanced, and it fails only when sampling
  misses the knowledgeable majority — the ``O~(√n)`` row of Figure 1a.

* :mod:`repro.baselines.naive_broadcast` — the trivial everywhere protocol:
  everyone sends its candidate to everyone and adopts the majority.  ``O(n)``
  messages per node, the ``Ω(n²)``-total-bits class of Figure 1b's [PR10]
  column (constant rounds, quadratic communication).

* :mod:`repro.baselines.composed_ba` — Byzantine Agreement compositions that
  pair the almost-everywhere stage of :mod:`repro.ae` with either baseline
  above, mirroring how the paper composes [KSSV06] with [KLST11] to obtain
  the ``O~(√n)`` BA it improves upon.
"""

from repro.baselines.sample_majority import SampleMajorityConfig, SampleMajorityNode, run_sample_majority
from repro.baselines.naive_broadcast import NaiveBroadcastNode, run_naive_broadcast
from repro.baselines.composed_ba import run_composed_ba

__all__ = [
    "SampleMajorityConfig",
    "SampleMajorityNode",
    "run_sample_majority",
    "NaiveBroadcastNode",
    "run_naive_broadcast",
    "run_composed_ba",
]
