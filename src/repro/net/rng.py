"""Deterministic randomness utilities.

The paper's model (Section 2.1) requires every node to possess a *private*
random number generator, and the sampler constructions (Section 2.2) require
all nodes to share common sampling functions ``I``, ``H`` and ``J`` without
communicating.  Both needs are met here:

* :func:`derive_rng` derives an independent, reproducible RNG stream for each
  node (and for the adversary and the simulator itself) from a single master
  seed, so that a whole experiment is a pure function of that seed.
* :func:`stable_hash` is a keyed, platform-independent hash used to realise
  the shared samplers as deterministic functions (Python's built-in ``hash``
  is salted per process and therefore unsuitable); :func:`first_distinct`
  is the one member draw every sampler and committee makes from it.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, Tuple


class DeterministicRNG(random.Random):
    """A :class:`random.Random` subclass tagged with the label it was derived from.

    Behaviourally identical to ``random.Random``; the extra :attr:`label`
    makes debugging of multi-party executions considerably easier because the
    provenance of every random draw is visible in reprs and log lines.
    """

    def __init__(self, seed: int, label: str = "") -> None:
        super().__init__(seed)
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - cosmetic only
        return f"DeterministicRNG(label={self.label!r})"


def _encode(part: object) -> bytes:
    """One part's canonical encoding: 4 big-endian length bytes, then its UTF-8 ``repr``."""
    encoded = repr(part).encode("utf-8")
    return len(encoded).to_bytes(4, "big") + encoded


def absorb(hasher, part: object) -> None:
    """Absorb one part into ``hasher`` using the canonical length-prefixed encoding.

    This is *the* encoding of :func:`stable_hash`; every incremental user
    (e.g. the samplers' prefix hashers) must go through it, or through
    :func:`encode_parts` and :func:`first_distinct`, which share its
    :func:`_encode` body, so the digests stay bit-identical.
    """
    hasher.update(_encode(part))


def encode_parts(*parts: object) -> bytes:
    """The bytes :func:`absorb` feeds a hasher for ``parts``, one after another.

    :func:`hash_prefix` hashes them; the vectorized tables hash whole rows
    from them.
    """
    return b"".join(map(_encode, parts))


def hash_prefix(*parts: object):
    """A blake2b hasher with ``parts`` absorbed, for incremental reuse.

    ``prefix.copy()`` + :func:`absorb`-ing the remaining parts produces
    exactly the digest of :func:`stable_hash` over the full part list; the
    samplers use this to avoid re-hashing their constant key prefix
    (seed, family name, string) for every single draw.
    """
    return hashlib.blake2b(encode_parts(*parts), digest_size=16)


#: the counter parts of the first draws, encoded once: most rows resolve
#: within a few dozen counters, and ``_encode`` is ~40 % of a draw's cost
_CACHED_COUNTERS = 256
_COUNTER_PARTS = tuple(_encode(counter) for counter in range(_CACHED_COUNTERS))


def first_distinct(hasher, size: int, n: int) -> Tuple[int, ...]:
    """The first ``size`` distinct draws mod ``n`` of a keyed row, sorted.

    ``hasher`` has the row's key absorbed (:func:`hash_prefix`); draw ``c``
    absorbs the counter ``c`` into a copy of it, so it is
    ``stable_hash(*key, c) % n``, and counters ``0, 1, ...`` are drawn until
    ``size`` values are distinct (``size <= n``).  This is the one member
    draw of the samplers ``I``, ``H`` and ``J`` (Lemmas 1 and 2) and of the
    AE committees; :mod:`repro.vec.hashing` makes the same draws a table at
    a time and falls back to this for its rare unresolved rows.
    """
    seen = set()
    counter = 0
    while len(seen) < size:
        draw = hasher.copy()
        # absorb(draw, counter), with the encoding looked up while it is cached
        draw.update(_COUNTER_PARTS[counter] if counter < _CACHED_COUNTERS else _encode(counter))
        seen.add(int.from_bytes(draw.digest(), "big") % n)
        counter += 1
    return tuple(sorted(seen))


def keyed_draws(hasher, n: int) -> Iterator[int]:
    """Draws ``0, 1, 2, ...`` of a keyed row, mod ``n``, repeats included.

    Draw ``c`` is ``stable_hash(*key, c) % n``, the sequence
    :func:`first_distinct` keeps the first ``size`` distinct values of (it
    inlines the same loop: a generator step would add ~7 % to every table
    build).  A caller that decides from a prefix of the row, such as the
    Lemma 4 adversary's majority test, stops drawing when it has decided.
    """
    counter = 0
    while True:
        draw = hasher.copy()
        draw.update(_COUNTER_PARTS[counter] if counter < _CACHED_COUNTERS else _encode(counter))
        yield int.from_bytes(draw.digest(), "big") % n
        counter += 1


def stable_hash(*parts: object) -> int:
    """Return a deterministic, platform-independent 128-bit hash of ``parts``.

    Every argument is folded into the digest through its ``repr``; arguments
    of different types therefore never collide accidentally (``1`` and ``"1"``
    hash differently).  The function is the basis of the shared sampler
    constructions in :mod:`repro.samplers`.
    """
    return int.from_bytes(hash_prefix(*parts).digest(), "big")


def derive_rng(master_seed: int, *scope: object) -> DeterministicRNG:
    """Derive an independent RNG for a scope such as ``("node", 17)``.

    Two different scopes yield statistically independent streams; the same
    scope always yields the same stream.  This is how per-node *private* RNGs
    are realised: node ``i`` receives ``derive_rng(seed, "node", i)`` and the
    adversary cannot predict its draws (the adversary object is simply never
    handed that stream).
    """
    label = "/".join(repr(part) for part in scope)
    return DeterministicRNG(stable_hash(master_seed, *scope), label=label)


#: byte -> ``"1"`` below 128, ``"0"`` from 128: a 32-bit word's top byte
#: decides whether ``random()`` built on it is below 0.5
_HALF_BIT = bytes(b"1"[0] if byte < 128 else b"0"[0] for byte in range(256))


def random_bitstring(rng: random.Random, length: int) -> str:
    """Return a uniformly random bit string (e.g. ``"011010"``) of ``length`` bits.

    Bit ``i`` is ``"1"`` iff ``rng.random() < 0.5``, taken from one
    ``getrandbits(64 * length)`` call.  ``random()`` combines two 32-bit
    words as ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``, which is below 0.5
    iff ``w0 < 2**31``; ``getrandbits`` lays its words out least significant
    first, so word ``2i`` has its top byte at byte ``8i + 3`` of the
    little-endian bytes.  Both consume the same words, so the generator ends
    in the same state as after ``length`` ``random()`` calls.
    """
    words = rng.getrandbits(64 * length).to_bytes(8 * length, "little")
    return words[3::8].translate(_HALF_BIT).decode("ascii")
