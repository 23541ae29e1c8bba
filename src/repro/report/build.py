"""ReportBuilder — assemble report sections into EXPERIMENTS.md.

The builder resolves the requested sections (document order), runs each
section's :class:`~repro.experiments.plan.ExperimentPlan` through
:meth:`SweepRunner.run <repro.experiments.sweep.SweepRunner.run>` (against
the result store when one is given), and renders the provenance header, the claim-inventory table and every section's
Markdown.

Determinism contract
--------------------
The default document is **byte-identical across runs** on the same
platform/python with the same grids — that is what lets CI regenerate
EXPERIMENTS.md and ``git diff --exit-code`` it against the committed copy.
Consequently the default provenance header carries only stable facts
(platform, python, grid mode, seeds, section list, run counts); the volatile
ones — git commit and wall-clock — are emitted only with
``include_volatile=True`` (CLI ``--timings``), which is meant for ad-hoc
local reports, not for the committed artifact.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.sweep import SweepResult, SweepRunner, WorkerPool
from repro.store import ResultStore
from repro.store.keys import git_commit
from repro.report.base import (
    ReportSection,
    get_report_section,
    list_report_sections,
    markdown_table,
)

#: format version of the generated document (bump on layout changes)
REPORT_FORMAT = "1"


@dataclass(frozen=True)
class BuiltSection:
    """One section's finished product: the sweep it ran and its Markdown.

    ``from_cache`` is true when *every* record of the section's sweep was
    served from the result store (zero protocol executions).
    """

    section: ReportSection
    sweep: SweepResult
    markdown: str
    from_cache: bool


class ReportBuilder:
    """Run the report sections and assemble the Markdown document.

    Parameters
    ----------
    sections:
        Section names to include, in the given order; ``None`` means every
        registered section in document order.
    quick:
        ``True`` runs the small CI-sized grids, ``False`` the full grids.
    jobs:
        Worker processes per sweep (``None`` lets the runner pick).
    store_path:
        When set, every section's sweep runs against the content-addressed
        :class:`~repro.store.ResultStore` at that path: records already
        stored under the current code fingerprint are served **per spec**
        (changing one grid point re-runs only that point), the delta is
        executed and flushed back.  The rendered document is byte-identical
        with or without the store — records carry their original
        measurements.
    include_volatile:
        Add git commit and wall-clock lines to the provenance header (breaks
        the byte-identical contract; see the module docstring).
    """

    def __init__(
        self,
        sections: Optional[Sequence[str]] = None,
        quick: bool = True,
        jobs: Optional[int] = None,
        include_volatile: bool = False,
        store_path: Optional[str] = None,
    ) -> None:
        names = list(sections) if sections is not None else list_report_sections()
        self.sections: List[ReportSection] = [get_report_section(name) for name in names]
        self.quick = quick
        self.jobs = jobs
        self.store_path = store_path
        self.include_volatile = include_volatile

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _run_section(
        self,
        section: ReportSection,
        pool: Optional[WorkerPool],
        store: Optional[ResultStore],
    ) -> Tuple[SweepResult, bool]:
        plan = section.plan(quick=self.quick)
        sweep = SweepRunner(plan, jobs=self.jobs).run(pool=pool, store=store)
        fully_served = bool(sweep.records) and sweep.served_from_store == len(sweep.records)
        return sweep, fully_served

    def build_sections(self) -> List[BuiltSection]:
        """Run (or serve from the store) every requested section.

        All sections share one :class:`~repro.experiments.sweep.WorkerPool`:
        the pool spins up lazily for the first section that actually needs
        workers and its warm processes (sampler caches filled by earlier
        specs) are reused by every following section, instead of paying pool startup per plan.
        ``jobs=1`` keeps the fully serial in-process path.  They likewise
        share one :class:`~repro.store.ResultStore` when ``store_path`` is
        set, so each spec is looked up and flushed exactly once.
        """
        built = []
        serial = self.jobs is not None and self.jobs <= 1
        store = ResultStore(self.store_path) if self.store_path else None
        try:
            with WorkerPool(processes=self.jobs) as pool:
                shared_pool = None if serial else pool
                for section in self.sections:
                    sweep, from_cache = self._run_section(section, shared_pool, store)
                    markdown = section.render(sweep.records)
                    built.append(
                        BuiltSection(
                            section=section, sweep=sweep, markdown=markdown,
                            from_cache=from_cache,
                        )
                    )
        finally:
            if store is not None:
                store.close()
        return built

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def _provenance(self, built: Sequence[BuiltSection], seconds: float) -> str:
        seeds = sorted(
            {record.spec.seed for b in built for record in b.sweep.records}
        )
        rows: List[Dict[str, object]] = [
            {"provenance": "grid", "value": "quick (CI-sized)" if self.quick else "full"},
            {"provenance": "sections", "value": ", ".join(b.section.name for b in built)},
            {"provenance": "seeds", "value": ", ".join(map(str, seeds))},
            {
                "provenance": "experiments",
                "value": sum(len(b.sweep.records) for b in built),
            },
            {
                "provenance": "platform",
                "value": f"{platform.system()} {platform.machine()}",
            },
            # major.minor only: patch releases do not change simulation output,
            # and the CI freshness diff must not depend on them
            {
                "provenance": "python",
                "value": ".".join(platform.python_version_tuple()[:2]),
            },
            {"provenance": "format", "value": REPORT_FORMAT},
        ]
        if self.include_volatile:
            rows.append({"provenance": "git commit", "value": git_commit()})
            rows.append({"provenance": "wall-time", "value": f"{seconds:.1f}s"})
        return markdown_table(rows)

    def _claim_inventory(self, built: Sequence[BuiltSection]) -> str:
        rows = [
            {
                "section": f"[{b.section.name}](#{_anchor(b.section.title)})",
                "paper claim": b.section.title.split("—", 1)[-1].strip(),
                "benchmark": f"`{b.section.claim_test}`" if b.section.claim_test else "-",
            }
            for b in built
        ]
        return markdown_table(rows)

    def build(self) -> str:
        """The full document as one Markdown string."""
        start = time.perf_counter()
        built = self.build_sections()
        seconds = time.perf_counter() - start
        regen_flag = "--quick" if self.quick else "--full"
        parts = [
            "# EXPERIMENTS — paper claims vs. measurements",
            "",
            "Reproduction evidence for **Braud-Santoni, Guerraoui, Huc — *Fast "
            "Byzantine Agreement* (PODC 2013)**: every section runs one claim's "
            "experiment grid through the sweep subsystem, aggregates across "
            "seeds (mean ±95% CI; `rate` columns are observed frequencies) and "
            "quotes the paper's expectation next to the measurement.",
            "",
            f"*Generated by `python -m repro report {regen_flag}` — do not edit "
            "by hand; CI regenerates this file and fails if it drifts from the "
            "code.  See PAPER.md for the claim inventory and ARCHITECTURE.md "
            "for the report-section contract.*",
            "",
            self._provenance(built, seconds),
            "",
            "## Claim inventory",
            "",
            self._claim_inventory(built),
            "",
        ]
        parts += [b.markdown for b in built]
        return "\n".join(parts).rstrip() + "\n"

    def write(self, path: str) -> str:
        """Build and write the document; returns the rendered text."""
        text = self.build()
        Path(path).write_text(text, encoding="utf-8")
        return text


def _anchor(title: str) -> str:
    """GitHub heading anchor for an intra-document link."""
    keep = [c for c in title.lower() if c.isalnum() or c in " -"]
    return "".join(keep).replace(" ", "-")


def build_report(
    sections: Optional[Sequence[str]] = None,
    quick: bool = True,
    jobs: Optional[int] = None,
    out: Optional[str] = None,
    include_volatile: bool = False,
    store_path: Optional[str] = None,
) -> str:
    """Convenience wrapper: build the document, optionally writing it to ``out``."""
    builder = ReportBuilder(
        sections=sections,
        quick=quick,
        jobs=jobs,
        include_volatile=include_volatile,
        store_path=store_path,
    )
    if out is not None:
        return builder.write(out)
    return builder.build()
