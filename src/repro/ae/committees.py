"""Committee tree construction.

Nodes are partitioned into leaf committees of (roughly) ``committee_size``
members each; a balanced binary tree is built above the leaves, and each
internal tree node is assigned a committee of ``committee_size`` nodes drawn
by a public keyed hash from the whole population.  Every node can therefore
compute every committee locally, which mirrors the shared-sampler assumption
the rest of the system already makes.

The tree provides two things to the protocol in :mod:`repro.ae.protocol`:

* the *root committee*, which generates the random string;
* the *dissemination structure*: each committee relays the string to its two
  children, so a node's knowledge only depends on the committees along its
  leaf-to-root path having correct majorities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ae.config import AEConfig
from repro.net.rng import stable_hash


@dataclass(frozen=True)
class Committee:
    """One committee in the tree.

    Attributes
    ----------
    index:
        Position in the heap-style numbering of the tree (0 is the root).
    members:
        The node identities forming the committee.
    depth:
        Distance from the root (root has depth 0).
    """

    index: int
    members: Tuple[int, ...]
    depth: int

    @property
    def size(self) -> int:
        """Number of members."""
        return len(self.members)

    def majority_threshold(self) -> int:
        """Smallest count that is "more than half" of the committee."""
        return self.size // 2 + 1


class CommitteeTree:
    """The full committee tree for a system of ``n`` nodes.

    The tree is heap-numbered: committee ``i`` has children ``2i + 1`` and
    ``2i + 2``; leaves occupy the last ``leaf_count`` indices.  Leaf
    committees partition ``[0, n)``; internal committees are sampled with the
    public keyed hash, so they may overlap each other and the leaves.
    """

    def __init__(self, config: AEConfig) -> None:
        self.config = config
        n, k = config.n, config.committee_size
        self.leaf_count = max(1, (n + k - 1) // k)
        # Round the leaf count down to keep the tree a complete binary tree
        # shape: internal nodes are every index < leaf_count - 1.
        self.total_committees = 2 * self.leaf_count - 1
        self._committees: Dict[int, Committee] = {}
        self._memberships: Optional[Dict[int, List[int]]] = None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def is_leaf(self, index: int) -> bool:
        """Whether committee ``index`` is a leaf of the tree."""
        return index >= self.leaf_count - 1

    def children(self, index: int) -> Tuple[int, ...]:
        """Indices of the children committees (empty for leaves)."""
        if self.is_leaf(index):
            return ()
        left, right = 2 * index + 1, 2 * index + 2
        return tuple(child for child in (left, right) if child < self.total_committees)

    def parent(self, index: int) -> Optional[int]:
        """Index of the parent committee (``None`` for the root)."""
        if index == 0:
            return None
        return (index - 1) // 2

    def depth(self, index: int) -> int:
        """Distance of committee ``index`` from the root."""
        depth = 0
        while index != 0:
            index = (index - 1) // 2
            depth += 1
        return depth

    @property
    def height(self) -> int:
        """Depth of the deepest committee."""
        return self.depth(self.total_committees - 1)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def committee(self, index: int) -> Committee:
        """Return committee ``index`` (leaf partition slice or sampled internal committee)."""
        if not 0 <= index < self.total_committees:
            raise ValueError(f"committee index {index} out of range")
        cached = self._committees.get(index)
        if cached is not None:
            return cached

        n, k = self.config.n, self.config.committee_size
        if self.is_leaf(index):
            leaf_rank = index - (self.leaf_count - 1)
            members = tuple(
                node for node in range(leaf_rank * k, min(n, (leaf_rank + 1) * k))
            )
            if not members:  # can only happen when n < leaf_count * k with tiny n
                members = (n - 1,)
        else:
            members_list: List[int] = []
            seen = set()
            counter = 0
            while len(members_list) < min(k, n):
                candidate = stable_hash(self.config.seed, "ae-committee", index, counter) % n
                counter += 1
                if candidate not in seen:
                    seen.add(candidate)
                    members_list.append(candidate)
            members = tuple(sorted(members_list))

        committee = Committee(index=index, members=members, depth=self.depth(index))
        self._committees[index] = committee
        return committee

    @property
    def root(self) -> Committee:
        """The root committee — the one that generates the random string."""
        return self.committee(0)

    def memberships_of(self, node_id: int) -> List[int]:
        """Indices of all committees the node belongs to (at most a handful)."""
        if self._memberships is None:
            table: Dict[int, List[int]] = {i: [] for i in range(self.config.n)}
            for index in range(self.total_committees):
                for member in self.committee(index).members:
                    table[member].append(index)
            self._memberships = table
        return self._memberships.get(node_id, [])

    def leaf_of(self, node_id: int) -> int:
        """Index of the leaf committee containing ``node_id``."""
        leaf_rank = min(node_id // self.config.committee_size, self.leaf_count - 1)
        return (self.leaf_count - 1) + leaf_rank
