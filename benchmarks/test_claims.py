"""Paper-shape checks: every report section's ``check`` on its check grid.

A :class:`~repro.report.base.ReportSection` is the single home of one claim
of the paper — claim text, grids, row builder, commentary and, in ``check``,
the qualitative shape the paper states (who wins, how quantities grow; never
absolute numbers).  This module is all that is left to run them: one case per
registered section that overrides ``check`` (a section a user registers is
picked up with no new file), each running the section's ``check_plan`` once
through :meth:`SweepRunner.run <repro.experiments.sweep.SweepRunner.run>` on
one shared :class:`~repro.experiments.sweep.WorkerPool`.

    python -m pytest benchmarks -q
    python -m pytest "benchmarks/test_claims.py::test_claim[lemma3]"

A failing check prints the section's per-record ``record_row`` table — the
rows whose cross-seed aggregation EXPERIMENTS.md renders.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import format_table
from repro.experiments.sweep import SweepRunner, WorkerPool
from repro.report import get_report_section, list_report_sections

CHECKED_SECTIONS = [
    name for name in list_report_sections() if get_report_section(name).claim_test
]


@pytest.fixture(scope="module")
def pool():
    with WorkerPool() as shared:
        yield shared


@pytest.mark.parametrize("name", CHECKED_SECTIONS)
def test_claim(name, pool):
    section = get_report_section(name)
    records = SweepRunner(section.check_plan).run(pool=pool).records
    try:
        section.check(records)
    except AssertionError as error:
        rows = [section.record_row(record) for record in records]
        raise AssertionError(f"{error}\n{format_table(rows, title=section.title)}") from error
