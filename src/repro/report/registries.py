"""Auto-generated registry reference (REGISTRIES.md).

Renders the contents of all five registries — protocols, adversaries, delay
policies, scenario generators, report sections — into one Markdown appendix.
This is the document form of ``python -m repro protocols --verbose``; the CI
report job regenerates it so the reference provably tracks the code.
"""

from __future__ import annotations

from typing import List, Optional

from repro.report.base import get_report_section, list_report_sections, markdown_table


def _first_doc_line(obj: object) -> str:
    """First line of the object's docstring, or an empty string."""
    import inspect

    doc = inspect.getdoc(obj)
    return doc.splitlines()[0].strip() if doc else ""


def _param_cell(adapter) -> str:
    """The adapter's knobs and extras, one sorted list."""
    names = sorted((*adapter.knobs, *adapter.params))
    return ", ".join(f"`{name}`" for name in names) or "-"


def render_registries(title: Optional[str] = "Registry reference") -> str:
    """All five registries as one Markdown document."""
    # Imported here so loading the report package never drags in every
    # protocol implementation unless a registries document is actually built.
    import repro.report.sections  # noqa: F401  (registers the built-in sections)
    from repro.adversary.registry import ADVERSARIES
    from repro.net.asynchronous import DELAY_POLICIES
    from repro.protocols import PROTOCOLS, SCENARIOS, get_protocol

    parts: List[str] = []
    if title:
        parts += [
            f"# {title}",
            "",
            "*Generated by `python -m repro registries` — do not edit by hand.  "
            "Every table row is one registered extension point; see "
            "ARCHITECTURE.md layer 4 for the contracts and README.md for "
            "~20-line extension guides.*",
            "",
        ]

    parts += ["## Protocols (`repro.protocols`, `@register_protocol`)", ""]
    parts.append(
        markdown_table(
            [
                {
                    "name": f"`{name}`",
                    "description": get_protocol(name).description,
                    "modes": ", ".join(get_protocol(name).modes),
                    "trace": "yes" if get_protocol(name).supports_trace else "no",
                    "backends": ", ".join(
                        f"`{b}`" for b in get_protocol(name).supports_backends
                    ),
                    "params": _param_cell(get_protocol(name)),
                }
                for name in PROTOCOLS.names()
            ]
        )
    )

    parts += ["", "## Adversaries (`repro.adversary`, `@register_adversary`)", ""]
    parts.append(
        markdown_table(
            [
                {"name": f"`{name}`", "description": _first_doc_line(factory)}
                for name, factory in ADVERSARIES.items()
            ]
        )
    )

    parts += ["", "## Delay policies (`repro.net.asynchronous`, `@register_delay_policy`)", ""]
    parts.append(
        markdown_table(
            [
                {"name": f"`{name}`", "description": _first_doc_line(factory)}
                for name, factory in DELAY_POLICIES.items()
            ]
        )
    )

    parts += ["", "## Scenario generators (`repro.protocols.scenarios`, `@register_scenario`)", ""]
    parts.append(
        markdown_table(
            [
                {"name": f"`{name}`", "description": _first_doc_line(generator)}
                for name, generator in SCENARIOS.items()
            ]
        )
    )

    parts += ["", "## Report sections (`repro.report`, `@register_report_section`)", ""]
    parts.append(
        markdown_table(
            [
                {
                    "name": f"`{name}`",
                    "title": get_report_section(name).title,
                    "benchmark": (
                        f"`{get_report_section(name).claim_test}`"
                        if get_report_section(name).claim_test
                        else "-"
                    ),
                }
                for name in list_report_sections()
            ]
        )
    )
    return "\n".join(parts).rstrip() + "\n"
