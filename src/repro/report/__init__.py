"""Report subsystem: measured evidence rendered as EXPERIMENTS.md.

The fifth registry of the architecture's layer 4 (see ARCHITECTURE.md): a
:class:`~repro.report.base.ReportSection` is the single home of one paper
claim — the experiment grid it needs, how its records become table rows, the
paper-vs-measured commentary, and its shape assertions (``check``);
:class:`~repro.report.build.ReportBuilder` runs every requested section
through the sweep subsystem (with optional result caching) and assembles the
provenance-stamped Markdown document.

``python -m repro report --quick -o EXPERIMENTS.md`` is the CLI entry point;
``python -m repro registries -o REGISTRIES.md`` renders the companion
registry reference; ``python -m pytest benchmarks -q`` runs every section's
``check`` (``benchmarks/test_claims.py``, parametrized over this registry).
"""

from repro.report.base import (
    REPORT_SECTIONS,
    ReportSection,
    aggregate_rows,
    get_report_section,
    list_report_sections,
    markdown_table,
    register_report_section,
)
from repro.report.build import BuiltSection, ReportBuilder, build_report
from repro.report.registries import render_registries

# Importing the sections module registers every built-in section.
from repro.report import sections as _sections  # noqa: F401

__all__ = [
    "REPORT_SECTIONS",
    "ReportSection",
    "register_report_section",
    "get_report_section",
    "list_report_sections",
    "aggregate_rows",
    "markdown_table",
    "ReportBuilder",
    "BuiltSection",
    "build_report",
    "render_registries",
]
