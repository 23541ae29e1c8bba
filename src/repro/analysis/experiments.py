"""Plain-text tables and row builders shared by the CLI, examples and claim checks.

:func:`format_table` renders flat dict rows as an aligned table (the CLI's
stdout, the examples, and the per-record rows ``benchmarks/test_claims.py``
prints when a section's check fails); :func:`run_result_row` condenses one
normalized run into such a row and :func:`compare_rows` aggregates sweep
records into the Figure-1-style cross-protocol table of ``python -m repro
compare``.
"""

from __future__ import annotations

import statistics
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.sweep import ExperimentRecord
    from repro.protocols.base import RunResult


def format_table(rows: Sequence[Mapping[str, object]], title: Optional[str] = None) -> str:
    """Render a list of flat dicts as an aligned plain-text table.

    All rows are expected to share the same keys (the first row defines the
    column order); values are rendered with ``str``.  The committed
    EXPERIMENTS.md is *generated* — not pasted — by ``python -m repro
    report`` (:mod:`repro.report`), which renders the same rows as Markdown.
    """
    if not rows:
        return f"{title or 'table'}: (no rows)"
    columns = list(rows[0].keys())
    rendered = [[str(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(lines)


def run_result_row(result: "RunResult", **extra: object) -> Dict[str, object]:
    """Condense a normalized :class:`~repro.protocols.base.RunResult` into one row."""
    row: Dict[str, object] = {
        "protocol": result.protocol,
        "n": result.n,
        "decided": f"{result.decided_count}/{result.correct_count}",
        "agreement": (
            f"truncated ({result.stopped_by})" if result.stopped_by else int(result.agreement)
        ),
        "rounds": round(result.rounds, 2) if result.rounds is not None else "-",
        "span": round(result.span, 2) if result.span is not None else "-",
        "amortized_bits": round(result.amortized_bits, 1),
        "max_node_bits": result.max_node_bits,
        "load_imbalance": round(result.load_imbalance, 2),
    }
    row.update(extra)
    return row


def compare_rows(records: Sequence["ExperimentRecord"]) -> List[Dict[str, object]]:
    """Aggregate sweep records into a Figure-1-style cross-protocol table.

    Records are grouped by ``(n, protocol)`` in first-seen order (plan order
    keeps that n-major) and aggregated across the remaining dimensions —
    typically seeds: agreement becomes a rate, the cost metrics become means,
    and ``max_node_bits`` stays a worst case.
    """
    groups: Dict[Tuple[int, str], List["ExperimentRecord"]] = {}
    for record in records:
        groups.setdefault((record.spec.n, record.spec.protocol), []).append(record)

    rows: List[Dict[str, object]] = []
    for (n, protocol), group in groups.items():
        runs = len(group)
        times = [
            r.rounds if r.rounds is not None else r.span
            for r in group
            if (r.rounds is not None or r.span is not None)
        ]
        rows.append(
            {
                "protocol": protocol,
                "n": n,
                "runs": runs,
                "agreement_rate": round(sum(r.agreement for r in group) / runs, 3),
                "rounds": round(statistics.mean(times), 2) if times else "-",
                "total_bits": round(statistics.mean(r.total_bits for r in group)),
                "amortized_bits": round(
                    statistics.mean(r.amortized_bits for r in group), 1
                ),
                "max_node_bits": max(r.max_node_bits for r in group),
                "load_imbalance": round(
                    statistics.mean(r.load_imbalance for r in group), 2
                ),
                "seconds": round(statistics.mean(r.seconds for r in group), 3),
            }
        )
    return rows
