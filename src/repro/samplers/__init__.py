"""Sampler constructions (paper Section 2.2).

The protocol relies on three shared sampling functions:

``I`` — *push quorums*: ``I(s, x)`` is the set of ``O(log n)`` nodes from
which node ``x`` may accept pushes of candidate string ``s`` (Section 3.1.1).

``H`` — *pull quorums*: ``H(s, x)`` is the set of nodes that act as proxies
for ``x``'s pull requests about ``s`` (Section 3.1.2).

``J`` — *poll lists*: ``J(x, r)`` is the set of nodes that are authoritative
for ``x``'s poll labelled with the random label ``r`` (Lemma 2).

All three are realised as deterministic keyed-hash functions so that every
node evaluates them locally without communication, exactly as the paper
assumes ("all nodes must share three sampling functions").  The package also
provides empirical checkers for the sampler properties the analysis depends
on (no overloaded node, Property 1 and the novel Property 2 of Lemma 2) and
the random digraph model of Section 4.1 used to validate Property 2.

The re-exports are lazy (:mod:`repro.lazy`): importing ``repro.samplers.base``
for the size defaults never loads the samplers or the property checkers.
"""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.samplers.base": ("SamplerSpec",),
        "repro.samplers.hash_sampler": ("QuorumSampler",),
        "repro.samplers.poll_sampler": ("PollSampler",),
        "repro.samplers.properties": (
            "border_size",
            "check_no_overload",
            "estimate_minority_fraction",
            "estimate_sampler_deviation",
            "overload_counts",
            "property2_holds",
        ),
        "repro.samplers.random_graph": ("LabelledDigraph", "estimate_border_probability"),
    },
)
