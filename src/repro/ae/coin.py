"""String-combination helpers used by the committee coin protocol.

The root committee's coin protocol (see :mod:`repro.ae.protocol`) needs two
operations: combining per-member random contributions into one string whose
bits the adversary cannot fully control (XOR), and collapsing conflicting
reports of the same value into the majority/plurality report.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Optional


def xor_strings(a: str, b: str) -> str:
    """Bitwise XOR of two equal-length bit strings (``"0"``/``"1"`` characters)."""
    if len(a) != len(b):
        raise ValueError("cannot XOR bit strings of different lengths")
    return "".join("1" if bit_a != bit_b else "0" for bit_a, bit_b in zip(a, b))


def combine_contributions(contributions: Dict[int, str], length: int) -> str:
    """XOR all contributions together (missing/garbled ones are skipped).

    As long as *one* contributor was correct and its bits were uniformly
    random and unknown to the others when they chose theirs, the XOR has
    uniformly random bits — this is the standard argument for committee coin
    flipping, and the reason Lemma 5 only needs ``2/3 + ε`` of ``gstring``'s
    bits to be random (a rushing minority can correlate its own share).
    """
    result = "0" * length
    for origin in sorted(contributions):
        value = contributions[origin]
        if isinstance(value, str) and len(value) == length and set(value) <= {"0", "1"}:
            result = xor_strings(result, value)
    return result


def majority_string(values: Iterable[str], threshold: Optional[int] = None) -> Optional[str]:
    """Return the value reported by at least ``threshold`` reporters, if any.

    With ``threshold=None`` the plurality value is returned (ties broken by
    lexicographic order for determinism); with an explicit threshold the
    function returns ``None`` unless some value reaches it.
    """
    counter = Counter(v for v in values if v is not None)
    if not counter:
        return None
    best_count = max(counter.values())
    if threshold is not None and best_count < threshold:
        return None
    best_values = sorted(value for value, count in counter.items() if count == best_count)
    return best_values[0]
