"""Almost-everywhere agreement substrate (in the style of [KSSV06]).

The paper uses the protocol of King, Saia, Sanwalani and Vee (FOCS'06) as a
black box: it brings *most* correct nodes (all but a ``O(1/log n)`` fraction)
to share a common, mostly random string ``gstring`` of length ``c log n``,
at poly-logarithmic communication cost per node.  AER then finishes the job,
turning almost-everywhere knowledge into everywhere knowledge.

This package provides a simplified but runnable committee-tree protocol with
the same interface guarantee (see DESIGN.md, "Substitutions"):

* nodes are partitioned into leaf committees of size ``Θ(log n)`` and a
  binary committee tree is built above them, with internal committees drawn
  by a public sampler;
* the *root committee* generates the random string with a two-round
  contribute-and-echo coin protocol (each member contributes private random
  bits; echo + coordinate-wise majority makes every correct member compute
  the same XOR even under equivocation);
* the string is then disseminated down the tree, each committee relaying to
  its children and each node adopting the value reported by a majority of
  the relaying committee.

Per-node cost is ``O(log² n)`` strings of ``O(log n)`` bits — poly-log — and
a node fails to learn ``gstring`` only if some committee on its leaf-to-root
path has a corrupt majority, which for random corruption of ``t < n/3`` nodes
affects a vanishing fraction of nodes.  The benchmarks measure both claims.
"""

from repro.ae.committees import Committee, CommitteeTree
from repro.ae.config import AEConfig
from repro.ae.protocol import AENode, build_ae_nodes, run_ae_stage, scenario_from_ae_run
from repro.ae.coin import combine_contributions, majority_string

__all__ = [
    "Committee",
    "CommitteeTree",
    "AEConfig",
    "AENode",
    "build_ae_nodes",
    "run_ae_stage",
    "scenario_from_ae_run",
    "combine_contributions",
    "majority_string",
]
