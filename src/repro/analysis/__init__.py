"""Analysis utilities used by the report sections, the CLI and the examples.

Three groups of helpers:

* :mod:`repro.analysis.complexity` — fit measured cost curves against the
  growth laws the paper states (``polylog n``, ``√n·polylog``, ``n``) and
  report which one explains the data best; this is how the report sections
  turn raw sweeps into the "who wins, by what shape" statements of Figure 1.
* :mod:`repro.analysis.statistics` — success-rate estimation with Wilson
  confidence intervals for the w.h.p. claims (Lemmas 5 and 7).
* :mod:`repro.analysis.experiments` — plain-text table formatting and row
  builders shared by the CLI, the examples and the claim checks.
"""

from repro.analysis.complexity import (
    GrowthFit,
    fit_growth,
    growth_exponent,
    polylog_ratio,
)
from repro.analysis.statistics import (
    SuccessEstimate,
    estimate_success,
    wilson_interval,
)
from repro.analysis.experiments import format_table

__all__ = [
    "GrowthFit",
    "fit_growth",
    "growth_exponent",
    "polylog_ratio",
    "SuccessEstimate",
    "estimate_success",
    "wilson_interval",
    "format_table",
]
