"""The report-section contract and the fifth registry.

A :class:`ReportSection` turns one claim of the paper into a measured,
rendered piece of EXPERIMENTS.md: it declares the
:class:`~repro.experiments.plan.ExperimentPlan` it needs (``plan_for`` of
its ``quick_grid`` or ``full_grid``), a *per-record* row builder, how rows
aggregate across seeds, and the paper-vs-measured commentary.  Sections
register through the same :class:`~repro.registry.Registry` mechanism as
protocols, adversaries, delay policies and scenario generators::

    from repro.report import ReportSection, register_report_section

    @register_report_section
    class MySection(ReportSection):
        name = "my_claim"
        title = "Theorem 12 — my claim"
        claim = "the paper says X"
        quick_grid = dict(ns=(32, 64), seeds=(0, 1, 2))
        full_grid = dict(ns=(32, 64, 128), seeds=(0, 1, 2, 3, 4))

        def plan_for(self, ns, seeds):
            return ExperimentPlan(ns=ns, seeds=seeds, ...)

        def record_row(self, record):
            return {"n": record.spec.n, "seed": record.spec.seed, ...}

        def check(self, records):  # optional: the claim's shape assertions
            assert all(r.agreement for r in records)

after which ``python -m repro report --sections my_claim`` runs and renders
it, and ``python -m pytest benchmarks -q`` runs its ``check`` on its check
grid — no new file.  The section is the *single* home of a claim: claim text,
grids, row builder, commentary and the shape assertions live side by side,
and a failing check prints the very rows (``record_row``, one per run) whose
cross-seed aggregation the report renders.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.statistics import mean_ci, success_estimate_from_outcomes
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.plan import ExperimentPlan
    from repro.experiments.sweep import ExperimentRecord

#: the global report-section registry; values are ReportSection *instances*
REPORT_SECTIONS = Registry("report section")


def register_report_section(cls):
    """Class decorator: instantiate the section and register it under ``cls.name``."""
    REPORT_SECTIONS.register(cls.name, cls())
    return cls


def get_report_section(name: str) -> "ReportSection":
    """Return the section registered under ``name`` (``ValueError`` if unknown)."""
    return REPORT_SECTIONS.get(name)  # type: ignore[return-value]


def list_report_sections() -> List[str]:
    """Section names in document order (by ``order``, then name)."""
    sections = [get_report_section(name) for name in REPORT_SECTIONS.names()]
    sections.sort(key=lambda s: (s.order, s.name))
    return [s.name for s in sections]


# ----------------------------------------------------------------------
# table rendering and cross-seed aggregation
# ----------------------------------------------------------------------
def markdown_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Render flat dict rows as a GitHub-flavoured Markdown table.

    The first row defines the column order (like
    :func:`repro.analysis.experiments.format_table`, which renders the same
    rows as aligned plain text for pytest output).
    """
    if not rows:
        return "*(no rows)*"

    def cell(value: object) -> str:
        return str(value).replace("|", "\\|")

    columns = list(rows[0].keys())
    lines = ["| " + " | ".join(cell(c) for c in columns) + " |"]
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    for row in rows:
        lines.append("| " + " | ".join(cell(row.get(c, "")) for c in columns) + " |")
    return "\n".join(lines)


def _numeric(values: Sequence[object]) -> List[float]:
    return [float(v) for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)]


def aggregate_rows(
    rows: Sequence[Mapping[str, object]],
    group_by: Sequence[str],
    ci_columns: Sequence[str] = (),
    rate_columns: Sequence[str] = (),
    max_columns: Sequence[str] = (),
    digits: int = 2,
) -> List[Dict[str, object]]:
    """Aggregate per-record rows across seeds into the report's table rows.

    Rows are grouped by the ``group_by`` columns in first-seen order (plan
    order keeps that deterministic).  Within each group:

    * ``ci_columns`` become ``mean ±half-width`` strings
      (:func:`repro.analysis.statistics.mean_ci`; non-numeric cells such as
      ``"-"`` are skipped, an all-missing column renders as ``"-"``);
    * ``rate_columns`` (0/1 indicators) become observed rates;
    * ``max_columns`` keep the group's worst case;
    * a ``runs`` column counts the group's records; the ``seed`` column, if
      present, is dropped (it is what was aggregated over).
    """
    groups: Dict[Tuple[object, ...], List[Mapping[str, object]]] = {}
    for row in rows:
        key = tuple(row.get(k) for k in group_by)
        groups.setdefault(key, []).append(row)

    out: List[Dict[str, object]] = []
    for key, group in groups.items():
        agg: Dict[str, object] = dict(zip(group_by, key))
        agg["runs"] = len(group)
        for column in rate_columns:
            values = _numeric([row.get(column) for row in group])
            agg[column] = round(sum(values) / len(values), 3) if values else "-"
        for column in ci_columns:
            values = _numeric([row.get(column) for row in group])
            agg[column] = mean_ci(values).format(digits) if values else "-"
        for column in max_columns:
            values = _numeric([row.get(column) for row in group])
            agg[f"max_{column}" if column in agg else column] = (
                round(max(values), digits) if values else "-"
            )
        out.append(agg)
    return out


class ReportSection:
    """Contract every report section implements.

    Class attributes declare the section's public surface:

    ``name``
        Registry name (also the ``--sections`` CLI value).
    ``title``
        Markdown heading of the rendered section.
    ``claim``
        The paper's statement this section measures, quoted in the document.
    ``order``
        Sort key for document order (registry names alone would interleave
        ``lemma10`` before ``lemma6``).
    ``quick_grid`` / ``full_grid`` / ``check_grid``
        Keyword arguments of the section's :meth:`plan_for` naming the
        ``--quick`` grid, the ``--full`` grid and the grid the thresholds of
        :meth:`check` were calibrated on; ``None`` means the quick grid.
    """

    name: str = ""
    title: str = ""
    claim: str = ""
    order: int = 100
    quick_grid: Mapping[str, object] = {}
    full_grid: Optional[Mapping[str, object]] = None
    check_grid: Optional[Mapping[str, object]] = None

    # ------------------------------------------------------------------
    # the experiment grid
    # ------------------------------------------------------------------
    def plan_for(self, **grid: object) -> "ExperimentPlan":
        """The plan of one grid, given as keyword arguments."""
        raise NotImplementedError

    def plan(self, quick: bool = True) -> "ExperimentPlan":
        """The grid this section needs (see :attr:`quick_grid`, :attr:`full_grid`)."""
        grid = self.quick_grid if quick or self.full_grid is None else self.full_grid
        return self.plan_for(**grid)

    @property
    def check_plan(self) -> "ExperimentPlan":
        """The grid :meth:`check` runs on (see :attr:`check_grid`)."""
        if self.check_grid is None:
            return self.plan(quick=True)
        return self.plan_for(**self.check_grid)

    # ------------------------------------------------------------------
    # rows: one builder, two tables
    # ------------------------------------------------------------------
    def record_row(self, record: "ExperimentRecord") -> Dict[str, object]:
        """One flat table row for one executed spec.

        The report aggregates these rows across seeds; :meth:`check` asserts
        on them and ``benchmarks/test_claims.py`` prints them, one per run,
        when a check fails.  Wall-clock columns are deliberately absent (the
        document must be byte-identical across runs).
        """
        raise NotImplementedError

    def rows(self, records: Sequence["ExperimentRecord"]) -> List[Dict[str, object]]:
        """The report's aggregated table rows (cross-seed mean ± CI).

        The default groups :meth:`record_row` output by every column named in
        :attr:`group_by` and aggregates the columns named in
        :attr:`ci_columns` / :attr:`rate_columns` / :attr:`max_columns`.
        """
        per_record = [self.record_row(record) for record in records]
        return aggregate_rows(
            per_record,
            group_by=self.group_by,
            ci_columns=self.ci_columns,
            rate_columns=self.rate_columns,
            max_columns=self.max_columns,
        )

    #: aggregation declaration consumed by the default :meth:`rows`
    group_by: Sequence[str] = ("n",)
    ci_columns: Sequence[str] = ()
    rate_columns: Sequence[str] = ()
    max_columns: Sequence[str] = ()

    # ------------------------------------------------------------------
    # the claim's shape
    # ------------------------------------------------------------------
    def check(self, records: Sequence["ExperimentRecord"]) -> None:
        """Assert the claim's qualitative shape on the records of :attr:`check_plan`.

        Who wins, how quantities grow — never absolute numbers; a violation
        raises ``AssertionError``.  The default asserts nothing; a section
        that overrides it is run by ``benchmarks/test_claims.py``.  ``report``
        never calls it.
        """

    @property
    def claim_test(self) -> str:
        """Pytest node id that runs :meth:`check` (``""`` if not overridden)."""
        if type(self).check is ReportSection.check:
            return ""
        return f"benchmarks/test_claims.py::test_claim[{self.name}]"

    # ------------------------------------------------------------------
    # commentary and rendering
    # ------------------------------------------------------------------
    def commentary(self, records: Sequence["ExperimentRecord"]) -> List[str]:
        """Paper-vs-measured remarks rendered as a bullet list (may be empty)."""
        return []

    def render(self, records: Sequence["ExperimentRecord"]) -> str:
        """Full Markdown for this section: heading, claim, table, commentary.

        Raises ``ValueError`` naming every record a safety cap cut short
        (``stopped_by``): a truncated run is not a protocol outcome, and
        averaging it into a row would report it as one.
        """
        truncated = [record for record in records if record.stopped_by]
        if truncated:
            raise ValueError(
                f"report section {self.name!r} cannot aggregate truncated runs: "
                + ", ".join(f"{r.spec.key} (stopped by {r.stopped_by})" for r in truncated)
            )
        parts = [f"## {self.title}", ""]
        if self.claim:
            parts += [f"**Paper's claim.** {self.claim}", ""]
        parts += [markdown_table(self.rows(records)), ""]
        remarks = self.commentary(records)
        if remarks:
            parts += [f"- {remark}" for remark in remarks] + [""]
        if self.claim_test:
            parts += [f"*Shape assertions: `{self.claim_test}` (this section's `check`).*", ""]
        return "\n".join(parts)

    # ------------------------------------------------------------------
    # shared commentary helpers
    # ------------------------------------------------------------------
    @staticmethod
    def agreement_summary(records: Sequence["ExperimentRecord"]) -> str:
        """A Wilson-interval statement about the agreement rate of the records."""
        estimate = success_estimate_from_outcomes(r.agreement for r in records)
        return (
            f"agreement in {estimate.successes}/{estimate.trials} runs "
            f"(rate {estimate.rate:.3f}, 95% CI [{estimate.low:.3f}, {estimate.high:.3f}])"
        )
