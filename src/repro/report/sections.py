"""Built-in report sections: Figures 1a/1b, Lemmas 3-10, Property 2, ablations.

Each section is the single home of one claim of the paper: the claim text,
the experiment grids that measure it (``--quick`` and ``--full`` variants),
the row-building code, the commentary, and — in ``check`` — the shape
assertions (who wins, how quantities grow; never absolute numbers) together
with the ``check_grid`` their thresholds were calibrated on.  Callers fetch
the instances with :func:`~repro.report.base.get_report_section`;
``benchmarks/test_claims.py`` runs every ``check``.

Grid sizes are laptop-scale on purpose: the ``--quick`` grids regenerate the
committed EXPERIMENTS.md in well under five minutes on one core; ``--full``
extends the sweeps and adds seeds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.analysis.complexity import growth_exponent
from repro.analysis.statistics import mean_ci, success_estimate_from_outcomes
from repro.experiments.plan import ExperimentPlan, ExperimentSpec
from repro.experiments.sweep import ExperimentRecord
from repro.report.base import ReportSection, register_report_section


def _round_opt(value, digits: int = 2):
    """Round a float, passing ``None`` through as the table's ``"-"`` cell."""
    return round(value, digits) if value is not None else "-"


def regime_mean(rows: Sequence[Dict[str, object]], regime: object, column: str) -> float:
    """Mean of a numeric column over one regime's rows (``"-"`` cells skipped).

    Shared by the ablation sections, whose commentaries compare per-regime
    averages of the same ``record_row`` output.
    """
    values = [
        float(row[column])  # type: ignore[arg-type]
        for row in rows
        if row.get("regime") == regime and row.get(column) != "-"
    ]
    return sum(values) / len(values) if values else 0.0


def _trace_block(record: ExperimentRecord, key: str) -> Dict[str, object]:
    """Fetch one block of the record's condensed trace, failing helpfully.

    The Lemma 3-5 and ablation sections measure protocol *internals*, which
    only exist on records produced with ``trace="summary"`` (the sections'
    own plans set it); a record swept without tracing cannot fill their
    columns.
    """
    trace = record.trace
    if trace is None:
        raise ValueError(
            f"record {record.spec.key!r} carries no trace block; this section "
            "needs records swept with trace='summary' (use the section's plan)"
        )
    block = trace.get(key)
    if block is None:
        raise ValueError(f"trace block {key!r} missing from record {record.spec.key!r}")
    return block  # type: ignore[return-value]


def mean_series_by_n(
    records: Sequence[ExperimentRecord], value
) -> Tuple[List[int], List[float]]:
    """Seed-averaged metric curve: sorted ``ns`` and the per-``n`` means.

    ``value`` maps a record to a float (or ``None`` to skip it); this is what
    the growth-fit commentary and checks feed to
    :func:`repro.analysis.complexity.growth_exponent`.
    """
    by_n: Dict[int, List[float]] = {}
    for record in records:
        v = value(record)
        if v is not None:
            by_n.setdefault(record.spec.n, []).append(float(v))
    ns = sorted(by_n)
    return ns, [mean_ci(by_n[n]).mean for n in ns]


def series_exponent(records: Sequence[ExperimentRecord], value) -> float:
    """Power-law exponent of the seed-averaged curve (``cost ≈ a·n^b``).

    ``ValueError`` when the records span fewer than two positive points.
    """
    return growth_exponent(*mean_series_by_n(records, value))


def fitted_exponent(records: Sequence[ExperimentRecord], value):
    """:func:`series_exponent` rounded for commentary.

    Returns ``"n/a"`` when the records span fewer than two positive points
    (a single-size grid cannot pin a growth law), so commentary stays
    renderable for any grid a user sweeps.
    """
    try:
        return round(series_exponent(records, value), 3)
    except ValueError:
        return "n/a"


def _reach(record: ExperimentRecord) -> float:
    """Fraction of correct nodes that decided the scenario's true gstring."""
    value = record.extras.get("decided_gstring")
    return float(value) if value is not None else record.decided_fraction


# ----------------------------------------------------------------------
# Figure 1a — almost-everywhere to everywhere
# ----------------------------------------------------------------------
@register_report_section
class Figure1aSection(ReportSection):
    """AE→E comparison: KLST-style baseline vs AER, sync and async."""

    name = "figure1a"
    title = "Figure 1a — almost-everywhere to everywhere"
    claim = (
        "AER completes in O(1) synchronous rounds (O(log n / log log n) time "
        "asynchronously) with O(log² n) amortized bits per node, but is not "
        "load-balanced; the KLST-style sampled-majority baseline needs "
        "O~(√n) bits per node yet stays load-balanced."
    )
    order = 10

    group_by = ("protocol", "model", "n")
    ci_columns = ("rounds", "span", "amortized_bits", "load_imbalance", "decided_fraction")
    rate_columns = ("agreement",)
    max_columns = ("max_node_bits",)

    #: label → (display protocol, display model) used by record_row
    SERIES = {
        "klst": ("KLST-style (sampled majority)", "sync"),
        "aer-sync": ("AER", "sync non-rushing"),
        "aer-flood": ("AER (quorum-flood attack)", "sync non-rushing"),
        "aer-async": ("AER", "async (cornering)"),
    }

    @staticmethod
    def specs(
        sync_ns: Sequence[int], async_ns: Sequence[int], seeds: Sequence[int]
    ) -> Tuple[ExperimentSpec, ...]:
        """The irregular Figure-1a grid as explicit specs (n-major, seed-minor)."""
        specs: List[ExperimentSpec] = []
        for n in sync_ns:
            for seed in seeds:
                specs.append(
                    ExperimentSpec(n=n, protocol="sample_majority", seed=seed, label="klst")
                )
                specs.append(
                    ExperimentSpec(n=n, adversary="wrong_answer", seed=seed, label="aer-sync")
                )
                specs.append(
                    ExperimentSpec(n=n, adversary="quorum_flood", seed=seed, label="aer-flood")
                )
        for n in async_ns:
            for seed in seeds:
                specs.append(
                    ExperimentSpec(
                        n=n, adversary="cornering", mode="async", seed=seed, label="aer-async"
                    )
                )
        return tuple(specs)

    def plan_for(
        self, sync_ns: Sequence[int], async_ns: Sequence[int], seeds: Sequence[int]
    ) -> ExperimentPlan:
        return ExperimentPlan(ns=(), extra_specs=self.specs(sync_ns, async_ns, seeds))

    def plan(self, quick: bool = True) -> ExperimentPlan:
        # Doubling sizes on purpose: quorum sizes step with ⌈log₂ n⌉, so a
        # grid with same-⌈log⌉ sizes (e.g. 48 and 64) exaggerates the fitted
        # growth exponents the commentary quotes.
        if quick:
            return self.plan_for((32, 64, 128), (32, 64), seeds=(0, 1, 2))
        return self.plan_for((32, 64, 128, 192), (32, 64, 96), seeds=(0, 1, 2, 3, 4))

    check_grid = dict(sync_ns=(32, 64, 128), async_ns=(32, 64), seeds=(2,))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        rows = [self.record_row(r) for r in records]
        aer = [r for r in records if r.spec.label == "aer-sync"]
        # AER's synchronous round count is constant in n
        aer_rounds = [r.rounds or 0 for r in aer]
        assert max(aer_rounds) <= 6
        assert max(aer_rounds) - min(aer_rounds) <= 1
        # polylog measured over a finite range; clearly below linear
        assert series_exponent(aer, lambda r: r.amortized_bits) < 0.9
        # the baseline stays load-balanced, AER under the quorum flood does not
        klst_imbalance = [row["load_imbalance"] for row in rows if row["protocol"].startswith("KLST")]
        flood_imbalance = [row["load_imbalance"] for row in rows if "quorum-flood" in row["protocol"]]
        assert max(klst_imbalance) < 2.5
        assert max(flood_imbalance) > max(klst_imbalance)
        assert all(row["agreement"] == 1 for row in rows)

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        protocol, model = self.SERIES[record.spec.label]
        return {
            "protocol": protocol,
            "model": model,
            "n": record.spec.n,
            "seed": record.spec.seed,
            "decided_fraction": round(record.decided_fraction, 4),
            "agreement": int(record.agreement),
            "rounds": _round_opt(record.rounds),
            "span": _round_opt(record.span),
            "amortized_bits": round(record.amortized_bits, 1),
            "max_node_bits": record.max_node_bits,
            "load_imbalance": round(record.load_imbalance, 2),
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        klst = [r for r in records if r.spec.label == "klst"]
        aer = [r for r in records if r.spec.label == "aer-sync"]
        flood = [r for r in records if r.spec.label == "aer-flood"]
        aer_exp = fitted_exponent(aer, lambda r: r.amortized_bits)
        klst_exp = fitted_exponent(klst, lambda r: r.amortized_bits)
        remarks = [
            "Bits per node: paper says AER is O(log² n), the baseline O~(√n) — "
            f"fitted power exponents over this grid: AER {aer_exp}, "
            f"KLST-style {klst_exp} (0 ≈ polylog, 0.5 ≈ √n, 1 ≈ linear).  "
            "Log factors inflate both exponents over a finite range; the "
            "asymptotic separation is the growth gap, while absolute "
            "constants at laptop scale favor the baseline.",
            "Time: AER's synchronous round count stays essentially flat in n "
            f"(fitted exponent {fitted_exponent(aer, lambda r: r.rounds)}), "
            "against the baseline's fixed 2-round query/answer pattern.",
        ]
        if klst and flood:
            klst_imbalance = max(r.load_imbalance for r in klst)
            flood_imbalance = max(r.load_imbalance for r in flood)
            remarks.append(
                "Load balance: worst max/median per-node bits is "
                f"{klst_imbalance:.2f} for the baseline vs {flood_imbalance:.2f} for AER "
                "under the quorum-flood attack — AER is not load-balanced, as the paper states."
            )
        remarks.append(f"Outcome: {self.agreement_summary(records)}.")
        return remarks


# ----------------------------------------------------------------------
# Figure 1a at scale — the vectorized backend up to n = 10⁶
# ----------------------------------------------------------------------
@register_report_section
class Figure1aScaleSection(ReportSection):
    """AER growth laws measured where they start to bind: n = 10³ … 10⁶."""

    name = "figure1a_scale"
    title = "Figure 1a at scale — AER growth laws up to n = 10⁶ (vectorized backend)"
    claim = (
        "AER's O(log² n) amortized bits and O(1) synchronous rounds are "
        "asymptotic statements; the laptop-scale grids of Figure 1a cannot "
        "separate polylog from small polynomial growth.  The vectorized "
        "whole-round engine runs the identical protocol three orders of "
        "magnitude further, where the fitted exponents visibly flatten."
    )
    # No check: the backend-equivalence gates live in
    # tests/test_backend_equivalence.py and `python -m repro equivalence`.
    order = 12

    group_by = ("n",)
    ci_columns = ("rounds", "amortized_bits", "decided_fraction")
    max_columns = ("max_node_bits",)

    def plan_for(self, ns: Sequence[int], seeds: Sequence[int]) -> ExperimentPlan:
        return ExperimentPlan(
            ns=tuple(ns),
            adversaries=("none",),
            modes=("sync",),
            seeds=tuple(seeds),
            wrong_candidate_mode="common_wrong",
            label="figure1a_scale",
            backend="vectorized",
        )

    def plan(self, quick: bool = True) -> ExperimentPlan:
        # Decade-spaced sizes: the growth fit needs leverage in log n, not
        # sample count.  Quick keeps the committed EXPERIMENTS.md plan at
        # n ≤ 10⁵ (~1 min on one core); the full document extends the fit to
        # n = 10⁶, the memory-budgeted engine's headline case (tens of
        # minutes, a few GB peak RSS under the default vec_memory_mb).
        if quick:
            return self.plan_for((1_000, 10_000, 100_000), seeds=(0,))
        return self.plan_for(
            (1_000, 4_096, 10_000, 100_000, 1_000_000), seeds=(0, 1)
        )

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        n = record.spec.n
        return {
            "n": n,
            "seed": record.spec.seed,
            "rounds": _round_opt(record.rounds),
            "decided_fraction": round(_reach(record), 5),
            "amortized_bits": round(record.amortized_bits, 1),
            "max_node_bits": record.max_node_bits,
            "messages_per_node": round(record.total_messages / n, 1),
            "log2_n_squared": round(math.log2(n) ** 2, 1),
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        bits_exp = fitted_exponent(records, lambda r: r.amortized_bits)
        undecided: Dict[int, List[int]] = {}
        for record in records:
            counts = undecided.setdefault(record.spec.n, [0, 0])
            counts[0] += record.correct_count - record.decided_count
            counts[1] += record.correct_count
        if any(missed for missed, _ in undecided.values()):
            reach = "Reach: undecided correct nodes " + ", ".join(
                f"{missed} of {correct} at n={n}"
                for n, (missed, correct) in sorted(undecided.items())
            ) + " — the w.h.p. statement at work (the table rounds decided_fraction)."
        else:
            reach = "Reach: every correct node decided at every n of the grid."
        return [
            "Amortized bits per node: paper says O(log² n) — fitted power "
            f"exponent {bits_exp} over two decades of n (0 ≈ polylog).  "
            "Compare the small-grid Figure 1a fit above, which log factors "
            "inflate.",
            "Rounds: fitted exponent "
            f"{fitted_exponent(records, lambda r: r.rounds)} — the O(1)-rounds "
            "claim holds unchanged at the grid's largest size.",
            reach,
            "Both engine backends produce bit-identical results on this "
            "failure-free grid (see tests/test_backend_equivalence.py); the "
            "vectorized engine is a reformulation, not an approximation.",
        ]


# ----------------------------------------------------------------------
# Figure 1b — Byzantine Agreement comparison
# ----------------------------------------------------------------------
@register_report_section
class Figure1bSection(ReportSection):
    """BA composition vs the KLST-style and quadratic compositions."""

    name = "figure1b"
    title = "Figure 1b — Byzantine Agreement"
    claim = (
        "The paper's BA (committee-tree almost-everywhere stage + AER) uses "
        "polylogarithmic time and amortized bits; composing the same "
        "ae-stage with a sampled-majority everywhere stage costs O~(√n) "
        "bits, and with all-to-all broadcast Θ(n) bits per node."
    )
    order = 20

    group_by = ("protocol", "n")
    ci_columns = ("rounds", "amortized_bits", "knowledge_after_ae")
    rate_columns = ("agreement",)
    max_columns = ("max_node_bits",)

    SERIES = {
        "ba": "BA (ae + AER)",
        "klst": "ae + sampled majority (KLST-style)",
        "naive": "ae + all-to-all broadcast",
    }

    @staticmethod
    def specs(ns: Sequence[int], seeds: Sequence[int]) -> Tuple[ExperimentSpec, ...]:
        specs: List[ExperimentSpec] = []
        for n in ns:
            for seed in seeds:
                specs.append(ExperimentSpec(n=n, protocol="full_ba", seed=seed, label="ba"))
                specs.append(
                    ExperimentSpec(
                        n=n,
                        protocol="composed_ba",
                        seed=seed,
                        label="klst",
                        params={"strategy": "sample_majority"},
                    )
                )
                specs.append(
                    ExperimentSpec(
                        n=n,
                        protocol="composed_ba",
                        seed=seed,
                        label="naive",
                        params={"strategy": "naive"},
                    )
                )
        return tuple(specs)

    def plan_for(self, ns: Sequence[int], seeds: Sequence[int]) -> ExperimentPlan:
        return ExperimentPlan(ns=(), extra_specs=self.specs(ns, seeds))

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for((48, 96, 144), seeds=(0, 1, 2))
        return self.plan_for((48, 96, 144, 192), seeds=(0, 1, 2, 3, 4))

    check_grid = dict(ns=(48, 96, 144), seeds=(5,))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        assert all(self.record_row(r)["agreement"] == 1 for r in records)
        ba = [r for r in records if r.spec.label == "ba"]
        naive = [r for r in records if r.spec.label == "naive"]
        ba_rounds = [r.rounds or 0 for r in ba]
        assert max(ba_rounds) - min(ba_rounds) <= 2
        naive_exponent = series_exponent(naive, lambda r: r.amortized_bits)
        ba_exponent = series_exponent(ba, lambda r: r.amortized_bits)
        assert naive_exponent > 0.55
        assert ba_exponent < naive_exponent

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        return {
            "protocol": self.SERIES[record.spec.label],
            "n": record.spec.n,
            "seed": record.spec.seed,
            "agreement": int(record.agreement),
            "knowledge_after_ae": record.extras.get("knowledge_after_ae", "-"),
            "rounds": _round_opt(record.rounds),
            "amortized_bits": round(record.amortized_bits, 1),
            "max_node_bits": record.max_node_bits,
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        by_label = {
            label: [r for r in records if r.spec.label == label] for label in self.SERIES
        }
        exponents = {
            label: fitted_exponent(group, lambda r: r.amortized_bits)
            for label, group in by_label.items()
            if group
        }
        remarks = [
            "Amortized bits, fitted power exponents: "
            + ", ".join(f"{self.SERIES[k]} {v}" for k, v in exponents.items())
            + " (0 ≈ polylog, 0.5 ≈ √n, 1 ≈ linear)."
        ]
        if "ba" in exponents and "naive" in exponents:
            gap = round(exponents["naive"] - exponents["ba"], 3)
            remarks.append(
                f"BA's bits grow slower than the all-to-all composition's "
                f"(exponent gap {gap}); this section's check asserts this "
                "ordering over its check grid."
            )
        ba = by_label.get("ba", [])
        if ba:
            remarks.append(
                "BA's total round count stays flat in n "
                f"(fitted exponent {fitted_exponent(ba, lambda r: r.rounds)})."
            )
        remarks.append(f"Outcome: {self.agreement_summary(records)}.")
        return remarks


# ----------------------------------------------------------------------
# Lemma 3 — push-phase cost per correct node (traced)
# ----------------------------------------------------------------------
@register_report_section
class Lemma3Section(ReportSection):
    """Push bits per correct node stay O(s · log n) under the push flood."""

    name = "lemma3"
    title = "Lemma 3 — push phase costs O(s · log n) bits per correct node"
    claim = (
        "Every correct node sends O(s · log n) bits during the push phase "
        "(s = |gstring| = O(log n)) — a negligible share of the total — and "
        "flooding cannot change that, because nodes never react to a push."
    )
    order = 22

    group_by = ("n", "s_log_n_reference")
    ci_columns = ("push_bits_max", "push_bits_mean", "total_amortized_bits")
    rate_columns = ("agreement",)
    max_columns = ("push_msgs_max",)

    def plan_for(self, ns: Sequence[int], seeds: Sequence[int]) -> ExperimentPlan:
        return ExperimentPlan(
            ns=tuple(ns),
            adversaries=("push_flood",),
            modes=("sync",),
            seeds=tuple(seeds),
            label="lemma3",
            trace="summary",
        )

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for((32, 64, 128), seeds=(3,))
        return self.plan_for((32, 64, 128, 192), seeds=(3, 4, 5))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        for row in (self.record_row(r) for r in records):
            assert row["push_bits_max"] > 0
            # within a small constant factor of the s·d reference (Lemma 3's bound)
            assert row["push_bits_max"] <= 6 * row["s_log_n_reference"]
            # a negligible share of the total cost
            assert row["push_bits_mean"] < 0.05 * row["total_amortized_bits"]
        assert series_exponent(records, lambda r: _trace_block(r, "push")["max_node_bits"]) < 0.7

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        from repro.core.config import AERConfig

        push = _trace_block(record, "push")
        n = record.spec.n
        config = AERConfig.for_system(n, quorum_multiplier=record.spec.quorum_multiplier)
        return {
            "n": n,
            "seed": record.spec.seed,
            "push_bits_max": push["max_node_bits"],
            "push_bits_mean": round(float(push["mean_node_bits"]), 1),  # type: ignore[arg-type]
            "push_msgs_max": push["max_node_messages"],
            "s_log_n_reference": config.string_length * config.quorum_size,
            "total_amortized_bits": round(record.amortized_bits, 1),
            "agreement": int(record.agreement),
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        rows = [self.record_row(r) for r in records]
        worst_factor = max(
            row["push_bits_max"] / row["s_log_n_reference"] for row in rows  # type: ignore[operator]
        )
        worst_share = max(
            row["push_bits_mean"] / row["total_amortized_bits"] for row in rows  # type: ignore[operator]
        )
        return [
            "Push bits per node grow sub-linearly: fitted power exponent "
            f"{fitted_exponent(records, lambda r: _trace_block(r, 'push')['max_node_bits'])} "
            "(the s·d reference itself grows like log² n).",
            f"Worst max-push-bits / (s·d) factor observed: {worst_factor:.2f} — "
            "a small constant, matching the lemma's O(·) bound.",
            "The push phase is a negligible share of the total cost: at most "
            f"{100 * worst_share:.1f}% of the amortized per-node bits in any run.",
            f"Outcome: {self.agreement_summary(records)}.",
        ]


# ----------------------------------------------------------------------
# Lemma 4 — candidate lists sum to O(n) (traced)
# ----------------------------------------------------------------------
@register_report_section
class Lemma4Section(ReportSection):
    """Σ|L_x| stays linear under the strongest (quorum-targeted) flood."""

    name = "lemma4"
    title = "Lemma 4 — candidate lists of correct nodes sum to O(n)"
    claim = (
        "Even against the quorum-targeted flooding adversary — which forces "
        "strings into every victim whose push quorum it controls — the "
        "candidate lists of the correct nodes sum to O(n): amortized O(1) "
        "strings per node."
    )
    order = 24

    group_by = ("n",)
    ci_columns = (
        "sum_candidate_lists",
        "sum_over_n",
        "strings_forced_by_adversary",
        "pushes_filtered",
    )
    rate_columns = ("agreement",)
    max_columns = ("largest_single_list",)

    def plan_for(self, ns: Sequence[int], seeds: Sequence[int]) -> ExperimentPlan:
        return ExperimentPlan(
            ns=tuple(ns),
            adversaries=("quorum_flood",),
            modes=("sync",),
            seeds=tuple(seeds),
            wrong_candidate_mode="common_wrong",
            label="lemma4",
            trace="summary",
        )

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for((32, 64, 128), seeds=(4,))
        return self.plan_for((32, 64, 128, 192), seeds=(4, 5, 6))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        rows = [self.record_row(r) for r in records]
        for record, row in zip(records, rows):
            assert row["sum_candidate_lists"] >= record.correct_count
            assert row["sum_over_n"] <= 3.0  # O(n) with a small constant
        # amortized candidates per node do not grow with n
        ratios = [row["sum_over_n"] for row in rows]
        assert max(ratios) <= min(ratios) + 1.5
        assert all(row["agreement"] == 1 for row in rows)

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        candidates = _trace_block(record, "candidates")
        events = _trace_block(record, "events")
        n = record.spec.n
        return {
            "n": n,
            "seed": record.spec.seed,
            "sum_candidate_lists": candidates["total"],
            "sum_over_n": round(float(candidates["total"]) / n, 2),  # type: ignore[arg-type]
            "largest_single_list": candidates["max"],
            "strings_forced_by_adversary": record.extras.get("strings_forced", 0),
            "pushes_filtered": events.get("push_ignored", 0),
            "agreement": int(record.agreement),
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        rows = [self.record_row(r) for r in records]
        ratios = [float(row["sum_over_n"]) for row in rows]  # type: ignore[arg-type]
        return [
            f"Σ|L_x| / n stays flat: between {min(ratios):.2f} and {max(ratios):.2f} "
            "over the grid — the amortized-O(1)-strings-per-node statement.",
            "The adversary does force strings (`strings_forced_by_adversary`), "
            "but the Section 3.1.1 filter drops the rest "
            "(`pushes_filtered` counts the discarded pushes), so the total "
            "damage stays linear while agreement survives.",
            f"Outcome: {self.agreement_summary(records)}.",
        ]


# ----------------------------------------------------------------------
# Lemma 5 — gstring reaches every candidate list (traced)
# ----------------------------------------------------------------------
@register_report_section
class Lemma5Section(ReportSection):
    """W.h.p. every correct node holds gstring after the push phase."""

    name = "lemma5"
    title = "Lemma 5 — w.h.p. gstring reaches every correct candidate list"
    claim = (
        "After the push phase, with probability 1 − n^{-c'}, every correct "
        "node has gstring in its candidate list L_x — the knowledgeable "
        "majority pushes it through a majority of every I(gstring, x)."
    )
    order = 26

    group_by = ("n",)
    ci_columns = ("node_reach",)
    rate_columns = ("all_reached", "agreement")

    def plan_for(self, n: int, seeds: Sequence[int]) -> ExperimentPlan:
        return ExperimentPlan(
            ns=(n,),
            adversaries=("wrong_answer",),
            modes=("sync",),
            seeds=tuple(seeds),
            label="lemma5",
            trace="summary",
        )

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for(64, seeds=tuple(range(8)))
        return self.plan_for(64, seeds=tuple(range(12)))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        # every correct node reached in (almost) every trial; node-level reach ≈ 1
        rows = [self.record_row(r) for r in records]
        estimate = success_estimate_from_outcomes(bool(row["all_reached"]) for row in rows)
        fractions = [row["node_reach"] for row in rows]
        assert estimate.rate >= 0.75
        assert min(fractions) >= 0.95
        assert sum(fractions) / len(fractions) >= 0.99

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        marked = _trace_block(record, "marked")
        gstring = marked.get("gstring")
        if gstring is None:
            raise ValueError(
                f"record {record.spec.key!r} has no marked 'gstring' trace entry"
            )
        holders = int(gstring["holders"])  # type: ignore[index]
        return {
            "n": record.spec.n,
            "seed": record.spec.seed,
            "initial_holders": gstring["initial"],  # type: ignore[index]
            "accepted_via_push": gstring["accepted"],  # type: ignore[index]
            "node_reach": round(holders / record.correct_count, 4),
            "all_reached": int(holders == record.correct_count),
            "agreement": int(record.agreement),
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        rows = [self.record_row(r) for r in records]
        estimate = success_estimate_from_outcomes(bool(row["all_reached"]) for row in rows)
        mean_reach = mean_ci([float(row["node_reach"]) for row in rows])  # type: ignore[arg-type]
        return [
            f"Full reach (every correct node holds gstring) in "
            f"{estimate.successes}/{estimate.trials} independent instances "
            f"(rate {estimate.rate:.3f}, 95% CI [{estimate.low:.3f}, {estimate.high:.3f}]).",
            f"Node-level reach is {mean_reach.format(4)} — the w.h.p. statement "
            "at finite n: a straggler is a node whose push quorum drew "
            "unusually many corrupted members.",
        ]


# ----------------------------------------------------------------------
# Lemma 6 — asynchronous latency under the overload attack
# ----------------------------------------------------------------------
@register_report_section
class Lemma6Section(ReportSection):
    """Async pull latency vs the log n / log log n reference."""

    name = "lemma6"
    title = "Lemma 6 — asynchronous latency under the overload (cornering) attack"
    claim = (
        "Against the delay- and overload-maximising asynchronous adversary, "
        "every poll completes within O(log n / log log n) normalized time."
    )
    order = 30

    group_by = ("n",)
    ci_columns = ("span_normalized", "log_over_loglog", "span_over_reference", "decided_fraction")
    rate_columns = ("agreement",)

    def plan_for(self, ns: Sequence[int], seeds: Sequence[int]) -> ExperimentPlan:
        return ExperimentPlan(
            ns=tuple(ns),
            adversaries=("cornering",),
            modes=("async",),
            seeds=tuple(seeds),
            label="lemma6",
            params={"delay_policy": "constant", "delay_params": {"value": 1.0}},
        )

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for((24, 32, 48), seeds=(0, 1, 2))
        return self.plan_for((32, 64, 96), seeds=(0, 1, 2, 3, 4))

    check_grid = dict(ns=(32, 64, 96), seeds=(6,))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        for record in records:
            assert (record.span or 0.0) > 0
            # every decided value is the true gstring
            assert record.extras["decided_gstring"] == round(record.decided_fraction, 4)
        assert all(self.record_row(r)["span_over_reference"] <= 5.0 for r in records)
        assert series_exponent(records, lambda r: r.span or 0.0) < 0.5

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        n = record.spec.n
        reference = math.log2(n) / math.log2(math.log2(n))
        span = record.span if record.span is not None else 0.0
        return {
            "n": n,
            "seed": record.spec.seed,
            "span_normalized": round(span, 2),
            "log_over_loglog": round(reference, 2),
            "span_over_reference": round(span / reference, 2),
            "agreement": int(record.agreement),
            "decided_fraction": round(record.decided_fraction, 4),
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        worst = max(self.record_row(r)["span_over_reference"] for r in records)
        return [
            "Span grows far slower than n "
            f"(fitted exponent {fitted_exponent(records, lambda r: r.span)}; "
            "the reference curve's own exponent over this range is ≈ 0.2).",
            f"Worst span / (log n / log log n) ratio observed: {worst:.2f} — "
            "a small constant, matching the lemma's O(·) bound.",
            f"Outcome: {self.agreement_summary(records)}.",
        ]


# ----------------------------------------------------------------------
# Lemma 7 — decision safety, w.h.p. reach
# ----------------------------------------------------------------------
@register_report_section
class Lemma7Section(ReportSection):
    """No wrong decisions ever; gstring decided essentially everywhere."""

    name = "lemma7"
    title = "Lemma 7 — decisions are gstring, w.h.p. everywhere"
    claim = (
        "With high probability every correct node decides, and any node that "
        "decides, decides gstring — a wrong decision would require a "
        "Byzantine-majority poll list for a freshly drawn random label."
    )
    order = 40

    def plan_for(self, n: int, seeds: Sequence[int]) -> ExperimentPlan:
        return ExperimentPlan(
            ns=(n,),
            adversaries=("wrong_answer",),
            modes=("sync",),
            seeds=tuple(seeds),
            label="lemma7",
        )

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for(48, seeds=tuple(range(6)))
        return self.plan_for(64, seeds=tuple(range(10)))

    check_grid = dict(n=64, seeds=tuple(range(8)))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        rows = [self.record_row(r) for r in records]
        assert sum(row["wrong_decisions"] for row in rows) == 0  # safety is absolute
        estimate = success_estimate_from_outcomes(bool(row["agreement"]) for row in rows)
        reaches = [row["reach"] for row in rows]
        assert estimate.rate >= 0.75  # full agreement in most trials
        assert min(reaches) >= 0.95  # and never more than a couple of stragglers
        assert sum(reaches) / len(reaches) >= 0.99

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        reach = _reach(record)
        wrong = record.decided_count - round(reach * record.correct_count)
        return {
            "n": record.spec.n,
            "seed": record.spec.seed,
            "agreement": int(record.agreement),
            "reach": round(reach, 4),
            "wrong_decisions": wrong,
        }

    def rows(self, records: Sequence[ExperimentRecord]) -> List[Dict[str, object]]:
        """One Wilson-interval summary row per system size."""
        out: List[Dict[str, object]] = []
        for n in sorted({r.spec.n for r in records}):
            group = [self.record_row(r) for r in records if r.spec.n == n]
            estimate = success_estimate_from_outcomes(bool(row["agreement"]) for row in group)
            out.append(
                {
                    "n": n,
                    "trials": estimate.trials,
                    "full_agreement": estimate.successes,
                    "rate": round(estimate.rate, 4),
                    "ci_low": round(estimate.low, 4),
                    "ci_high": round(estimate.high, 4),
                    "wrong_decisions_total": sum(row["wrong_decisions"] for row in group),
                    "mean_reach": mean_ci([row["reach"] for row in group]).format(4),
                }
            )
        return out

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        wrong_total = sum(self.record_row(r)["wrong_decisions"] for r in records)
        return [
            f"Safety: {wrong_total} wrong decisions across all trials "
            "(the paper's argument makes a wrong decision essentially impossible).",
            "Reach is a w.h.p. statement at finite n: single-node stragglers "
            "(a correct node drawing a bad poll list) occur with small but "
            "non-zero probability at these sizes, which the Wilson interval quantifies.",
        ]


# ----------------------------------------------------------------------
# Lemmas 8-9 — synchronous constant time, O~(n) messages
# ----------------------------------------------------------------------
@register_report_section
class Lemma8Section(ReportSection):
    """Constant rounds and quasi-linear messages against a non-rushing adversary."""

    name = "lemma8"
    title = "Lemmas 8-9 — synchronous non-rushing: constant rounds, O~(n) messages"
    claim = (
        "Against a non-rushing synchronous adversary every poll is answered "
        "in a constant number of steps, the protocol finishes in O(1) rounds "
        "and the total number of messages is O~(n)."
    )
    order = 50

    group_by = ("n",)
    ci_columns = ("rounds", "messages_per_node", "decided_fraction")
    rate_columns = ("agreement",)
    max_columns = ("latest_decision_round",)

    def plan_for(self, ns: Sequence[int], seeds: Sequence[int]) -> ExperimentPlan:
        return ExperimentPlan(
            ns=tuple(ns),
            adversaries=("wrong_answer",),
            modes=("sync",),
            seeds=tuple(seeds),
            label="lemma8",
        )

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for((32, 48, 64, 96), seeds=(0, 1, 2))
        return self.plan_for((32, 64, 128, 192), seeds=(0, 1, 2, 3, 4))

    check_grid = dict(ns=(32, 64, 128, 192), seeds=(7,))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        # A handful of nodes may decide one "cascade" later (a poll-list member
        # that first had to decide itself before flushing its deferred answer),
        # so the count fluctuates between ~5 and ~8 — but must not grow with n.
        _, rounds = mean_series_by_n(records, lambda r: r.rounds or 0)
        assert max(rounds) <= 9
        assert rounds[-1] <= rounds[0] + 2
        # Lemma 9: O~(n) messages in total, i.e. polylog messages per node
        assert series_exponent(records, lambda r: r.total_messages / r.spec.n) < 0.85
        # w.h.p. at finite n: allow single-node stragglers (bad poll lists
        # happen with small but non-zero probability at these sizes)
        rows = [self.record_row(r) for r in records]
        assert all(row["decided_fraction"] >= 0.97 for row in rows)
        assert sum(row["agreement"] for row in rows) >= len(rows) - 1

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        return {
            "n": record.spec.n,
            "seed": record.spec.seed,
            "rounds": record.rounds,
            "latest_decision_round": (
                record.max_decision_time if record.max_decision_time is not None else -1
            ),
            "messages_per_node": round(record.total_messages / record.spec.n, 1),
            "agreement": int(record.agreement),
            "decided_fraction": round(record.decided_fraction, 4),
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        return [
            "Rounds: paper says O(1) — fitted power exponent "
            f"{fitted_exponent(records, lambda r: r.rounds)} "
            "(a handful of nodes may decide one cascade later, so the count "
            "fluctuates but does not grow with n).",
            "Messages per node: paper says O~(n) total, i.e. polylog per node — "
            "fitted exponent "
            f"{fitted_exponent(records, lambda r: r.total_messages / r.spec.n)}.",
            f"Outcome: {self.agreement_summary(records)}.",
        ]


# ----------------------------------------------------------------------
# Lemma 10 — asynchronous end-to-end
# ----------------------------------------------------------------------
@register_report_section
class Lemma10Section(ReportSection):
    """Async end-to-end: O(log n / log log n) time, O~(n) messages."""

    name = "lemma10"
    title = "Lemma 10 — asynchronous end-to-end time and messages"
    claim = (
        "Under the asynchronous scheduler the protocol completes in "
        "O(log n / log log n) normalized time using O~(n) messages in total."
    )
    order = 60

    group_by = ("n",)
    ci_columns = ("span_normalized", "log_over_loglog", "messages_per_node", "decided_fraction")
    rate_columns = ("agreement",)

    def plan_for(self, ns: Sequence[int], seeds: Sequence[int]) -> ExperimentPlan:
        return ExperimentPlan(
            ns=tuple(ns),
            adversaries=("slow_knowledgeable",),
            modes=("async",),
            seeds=tuple(seeds),
            label="lemma10",
        )

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for((32, 48, 64), seeds=(0, 1, 2))
        return self.plan_for((32, 64, 96), seeds=(0, 1, 2, 3, 4))

    check_grid = dict(ns=(32, 64, 96), seeds=(8,))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        assert all(r.span is not None for r in records)
        ns, spans = mean_series_by_n(records, lambda r: r.span or 0.0)
        assert growth_exponent(ns, spans) < 0.5
        assert max(spans) <= 5 * (math.log2(ns[-1]) / math.log2(math.log2(ns[-1])))
        assert series_exponent(records, lambda r: r.total_messages / r.spec.n) < 0.85
        assert all(self.record_row(r)["decided_fraction"] >= 0.95 for r in records)

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        n = record.spec.n
        reference = math.log2(n) / math.log2(math.log2(n))
        return {
            "n": n,
            "seed": record.spec.seed,
            "span_normalized": round(record.span if record.span is not None else -1, 2),
            "log_over_loglog": round(reference, 2),
            "messages_per_node": round(record.total_messages / n, 1),
            "agreement": int(record.agreement),
            "decided_fraction": round(record.decided_fraction, 4),
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        return [
            "Span: fitted power exponent "
            f"{fitted_exponent(records, lambda r: r.span)} — far below linear, "
            "tracking the log n / log log n reference printed next to it.",
            "Messages per node: fitted exponent "
            f"{fitted_exponent(records, lambda r: r.total_messages / r.spec.n)} "
            "(sub-linear, the O~(n)-total claim).",
            f"Outcome: {self.agreement_summary(records)}.",
        ]


# ----------------------------------------------------------------------
# Adversary matrix — coverage across every registered attack
# ----------------------------------------------------------------------
@register_report_section
class AdversaryMatrixSection(ReportSection):
    """Agreement under every built-in adversary, both schedulers."""

    name = "adversary_matrix"
    title = "Adversary matrix — agreement under every built-in attack"
    claim = (
        "Theorem 1 is adversary-agnostic: agreement must survive any "
        "t < (1/3 − ε)n Byzantine strategy, under both schedulers.  This "
        "matrix runs every registered attack strategy on the same scenarios."
    )
    # No check: the per-adversary shape assertions live in the tier-1 suite
    # (tests/test_adversary.py).
    order = 70

    #: pinned to the built-ins so the committed document is stable; user
    #: registrations show up by passing their names to plan_for explicitly
    BUILTIN_ADVERSARIES = (
        "none",
        "silent",
        "noise",
        "equivocate",
        "wrong_answer",
        "push_flood",
        "quorum_flood",
        "cornering",
        "slow_knowledgeable",
    )

    group_by = ("adversary", "mode", "n")
    ci_columns = ("time", "amortized_bits", "decided_fraction")
    rate_columns = ("agreement",)

    def plan_for(
        self,
        n: int,
        seeds: Sequence[int],
        adversaries: Sequence[str] = BUILTIN_ADVERSARIES,
    ) -> ExperimentPlan:
        return ExperimentPlan(
            ns=(n,),
            adversaries=tuple(adversaries),
            modes=("sync", "async"),
            seeds=tuple(seeds),
            label="adversary_matrix",
        )

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for(32, seeds=(0, 1))
        return self.plan_for(64, seeds=(0, 1, 2))

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        spec = record.spec
        time = record.rounds if record.rounds is not None else record.span
        return {
            "adversary": spec.adversary,
            "mode": spec.mode + ("-rushing" if spec.rushing else ""),
            "n": spec.n,
            "seed": spec.seed,
            "agreement": int(record.agreement),
            "decided_fraction": round(record.decided_fraction, 4),
            "time": _round_opt(time),
            "amortized_bits": round(record.amortized_bits, 1),
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        failing = sorted(
            {r.spec.adversary for r in records if not r.agreement}
        )
        remarks = [f"Coverage: {self.agreement_summary(records)}."]
        if failing:
            remarks.append(
                "Strategies with at least one non-agreement run (finite-n "
                f"w.h.p. stragglers): {', '.join(failing)}."
            )
        else:
            remarks.append("Every strategy was defeated in every run at these sizes.")
        return remarks


# ----------------------------------------------------------------------
# Degraded networks — the fault-injection frontier (PR 8)
# ----------------------------------------------------------------------
@register_report_section
class DegradedNetworksSection(ReportSection):
    """Agreement under message loss, churn and heavy-tailed delays."""

    name = "degraded_networks"
    title = "Degraded networks — loss, churn and heavy-tailed delays"
    claim = (
        "The paper's guarantees assume reliable (if adversarially scheduled) "
        "delivery.  This grid measures how AER degrades when that assumption "
        "is broken by injected faults: probabilistic message loss and "
        "crash-recovery churn under the synchronous scheduler, and message "
        "loss combined with heavy-tailed (Pareto, lognormal) delay families "
        "under the asynchronous one.  The fault layer is off by default and "
        "provably free when off (the golden matrix is the oracle)."
    )
    order = 72

    #: (loss_rate, churn_rate) grid for the synchronous half
    SYNC_GRID = ((0.0, 0.0), (0.05, 0.0), (0.15, 0.0), (0.0, 0.02), (0.05, 0.02))
    #: (delay_policy, loss_rate) grid for the asynchronous half
    ASYNC_GRID = (
        ("random", 0.0), ("random", 0.1),
        ("pareto", 0.0), ("pareto", 0.1),
        ("lognormal", 0.0), ("lognormal", 0.1),
    )

    def plan_for(self, n: int, seeds: Sequence[int]) -> ExperimentPlan:
        specs = []
        for seed in seeds:
            for loss, churn in self.SYNC_GRID:
                faults: Dict[str, object] = {}
                if loss:
                    faults["loss_rate"] = loss
                if churn:
                    faults["churn_rate"] = churn
                specs.append(
                    ExperimentSpec(
                        n=n, mode="sync", seed=seed, faults=faults,
                        label="degraded_networks",
                    )
                )
            for policy, loss in self.ASYNC_GRID:
                specs.append(
                    ExperimentSpec(
                        n=n, mode="async", seed=seed,
                        params={"delay_policy": policy} if policy != "random" else {},
                        faults={"loss_rate": loss} if loss else {},
                        label="degraded_networks",
                    )
                )
        return ExperimentPlan(ns=(), extra_specs=tuple(specs))

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for(32, seeds=(0, 1))
        return self.plan_for(64, seeds=(0, 1, 2))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        rows = [self.record_row(r) for r in records]
        clean = [row for row in rows if row["faults"] == "none"]
        assert clean, "the grid must include fault-free baseline corners"
        assert all(row["agreement"] == 1 for row in clean)
        # sustained loss erodes the decided fraction, per (mode, delay, seed)
        # cohort: loss 0 vs the heaviest loss (AER has no retransmission layer)
        for mode, delay in {(row["mode"], row["delay"]) for row in rows}:
            cohort = [r for r in rows if r["mode"] == mode and r["delay"] == delay]
            for seed in {r["seed"] for r in cohort}:
                runs = [r for r in cohort if r["seed"] == seed]
                clean = [r for r in runs if r["faults"] == "none"]
                lossy = [r for r in runs if r["faults"].startswith("loss=")]
                if not clean or not lossy:
                    continue
                worst = min(r["decided_fraction"] for r in lossy)
                assert worst <= max(r["decided_fraction"] for r in clean)
        # heavy-tailed delays alone (no loss) preserve agreement
        tails = [
            row for row in rows
            if row["delay"] in ("pareto", "lognormal") and row["faults"] == "none"
        ]
        assert tails, "the grid must include loss-free heavy-tail corners"
        assert all(row["agreement"] == 1 for row in tails)
        # fault counters surface in extras exactly when faults were injected
        for record in records:
            faults = record.spec.faults_dict()
            has_counters = any(k.startswith("fault_") for k in record.extras)
            assert has_counters == bool(faults), record.spec.key
            if faults.get("loss_rate"):
                assert record.extras["fault_dropped_loss"] > 0, record.spec.key

    @staticmethod
    def _fault_label(spec: ExperimentSpec) -> str:
        faults = spec.faults_dict()
        if not faults:
            return "none"
        parts = []
        for key in ("loss_rate", "churn_rate"):
            if key in faults:
                parts.append(f"{key.split('_')[0]}={faults[key]}")
        return ",".join(parts) if parts else "custom"

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        spec = record.spec
        time = record.rounds if record.rounds is not None else record.span
        delay = dict(spec.params_dict()).get("delay_policy") or (
            "random" if spec.mode == "async" else "-"
        )
        return {
            "mode": spec.mode,
            "delay": delay,
            "faults": self._fault_label(spec),
            "n": spec.n,
            "seed": spec.seed,
            "agreement": int(record.agreement),
            "decided_fraction": round(record.decided_fraction, 4),
            "time": _round_opt(time),
            "amortized_bits": round(record.amortized_bits, 1),
        }

    group_by = ("mode", "delay", "faults", "n")
    ci_columns = ("time", "amortized_bits", "decided_fraction")
    rate_columns = ("agreement",)

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        clean = [r for r in records if not r.spec.faults_dict()]
        faulted = [r for r in records if r.spec.faults_dict()]
        remarks = [
            f"Fault-free baseline: {self.agreement_summary(clean)}.",
            f"Under injected faults: {self.agreement_summary(faulted)}.",
        ]
        degraded = sorted(
            {self._fault_label(r.spec) for r in faulted if not r.agreement}
        )
        if degraded:
            remarks.append(
                "Schedules with at least one non-agreement run: "
                f"{', '.join(degraded)} — AER has no retransmission layer, "
                "so sustained loss or churn directly erodes quorum coverage."
            )
        return remarks


# ----------------------------------------------------------------------
# Property 2 — expansion of the poll-list sampler J
# ----------------------------------------------------------------------
@register_report_section
class Property2Section(ReportSection):
    """No small family keeps more than a third of its poll-list edges internal."""

    name = "property2"
    title = "Property 2 — poll lists of small families expand"
    claim = (
        "W.h.p. no family L of ≤ n/log n labelled nodes keeps more than a "
        "third of its poll-list edges inside its own node set: "
        "P[|∂L| ≤ (2/3)·d·|L|] = o(2^{-n}) in the random digraph model of "
        "Section 4.1 — the property that stops the cornering adversary from "
        "confining honest polls to an overloaded region."
    )
    order = 65

    group_by = ("n", "family_size")
    ci_columns = (
        "worst_ratio_random_families",
        "worst_ratio_greedy_attack",
        "model_max_failure_probability",
    )
    rate_columns = ("random_families_expand",)

    def plan_for(self, ns: Sequence[int], seeds: Sequence[int]) -> ExperimentPlan:
        return ExperimentPlan(
            ns=tuple(ns),
            protocols=("sampler_border",),
            seeds=tuple(seeds),
            label="property2",
        )

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for((64, 128), seeds=(9,))
        return self.plan_for((64, 128, 192), seeds=(9, 10, 11))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        for record in records:
            # per-family-size Monte-Carlo probabilities, all exactly zero
            failures = record.extras["model_failures"]
            assert failures
            assert all(probability == 0.0 for probability in failures.values())
            row = self.record_row(record)
            # families the adversary cannot tailor (random labels) expand well above 2/3
            assert row["worst_ratio_random_families"] > 2 / 3
            # the greedy label-shopping attack can graze the 2/3 threshold at
            # these small n (d = O(log n) is asymptotic); it must not collapse
            # the expansion, though
            assert row["worst_ratio_greedy_attack"] > 0.6

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        extras = record.extras
        return {
            "n": record.spec.n,
            "seed": record.spec.seed,
            "family_size": extras["family_size"],
            "worst_ratio_random_families": round(
                float(extras["worst_ratio_random_families"]), 3  # type: ignore[arg-type]
            ),
            "worst_ratio_greedy_attack": round(
                float(extras["worst_ratio_greedy_attack"]), 3  # type: ignore[arg-type]
            ),
            "property2_threshold": round(2 / 3, 3),
            "model_max_failure_probability": extras["model_max_failure_probability"],
            "random_families_expand": int(record.agreement),
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        rows = [self.record_row(r) for r in records]
        worst_random = min(float(row["worst_ratio_random_families"]) for row in rows)  # type: ignore[arg-type]
        worst_greedy = min(float(row["worst_ratio_greedy_attack"]) for row in rows)  # type: ignore[arg-type]
        model_worst = max(
            float(row["model_max_failure_probability"]) for row in rows  # type: ignore[arg-type]
        )
        return [
            "Random digraph model (the Section 4.1 computation, Monte-Carlo): "
            f"worst observed failure probability {model_worst} against the "
            "paper's o(2^{-n}) bound — no failing family was ever sampled.",
            f"Concrete keyed-hash sampler J: random families expand to at worst "
            f"{worst_random:.3f} (threshold 2/3 ≈ 0.667); the greedy "
            f"label-shopping attack reaches {worst_greedy:.3f} — it can graze "
            "the threshold at these small n (d = O(log n) is asymptotic) but "
            "cannot collapse the expansion.",
        ]


# ----------------------------------------------------------------------
# Ablation — the Algorithm 3 answer budget (traced)
# ----------------------------------------------------------------------
@register_report_section
class AblationFiltersSection(ReportSection):
    """The log² n answer budget is what tames the overload attack."""

    name = "ablation_filters"
    title = "Ablation — the Algorithm 3 answer budget under the cornering attack"
    claim = (
        "A poll-list member answers at most log² n requests before deciding. "
        "The budget caps the overload adversary's damage; an aggressively "
        "small budget instead starves honest polls — which is exactly why "
        "the filter threshold is log² n and not a constant."
    )
    order = 80

    #: label → (display regime, budget resolver) for the three swept budgets
    REGIMES = ("tiny", "paper", "unlimited")

    group_by = ("regime", "answer_budget", "n")
    ci_columns = ("reach", "span", "amortized_bits", "answers_deferred")
    max_columns = ("max_node_bits",)

    @staticmethod
    def budgets_for(n: int) -> Dict[str, int]:
        """The swept budgets at size ``n``: tiny, the paper's log² n, unlimited."""
        from repro.core.config import AERConfig

        return {"tiny": 2, "paper": AERConfig.for_system(n).answer_budget, "unlimited": 10_000}

    def plan_for(self, n: int, seeds: Sequence[int]) -> ExperimentPlan:
        budgets = self.budgets_for(n)
        specs = tuple(
            ExperimentSpec(
                n=n,
                adversary="cornering",
                mode="async",
                seed=seed,
                label=f"budget-{regime}",
                trace="summary",
                params={"answer_budget": budgets[regime]},
            )
            for seed in seeds
            for regime in self.REGIMES
        )
        return ExperimentPlan(ns=(), extra_specs=specs)

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for(64, seeds=(10,))
        return self.plan_for(64, seeds=(10, 11, 12))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        by_regime = {row["regime"]: row for row in map(self.record_row, records)}
        # the paper's log² n budget (and anything larger) preserves liveness ...
        assert by_regime["paper"]["reach"] >= 0.95
        assert by_regime["unlimited"]["reach"] >= 0.95
        # ... while an aggressively small budget visibly harms it
        assert by_regime["tiny"]["reach"] <= by_regime["paper"]["reach"]
        # lifting the budget entirely does not reduce the worst per-node load
        assert by_regime["paper"]["max_node_bits"] <= by_regime["unlimited"]["max_node_bits"] * 1.2
        # the trace's budget probe shows *why* the tiny budget starves polls
        assert by_regime["tiny"]["answers_deferred"] > by_regime["unlimited"]["answers_deferred"]

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        polls = _trace_block(record, "polls")
        reach = record.extras.get("decided_gstring")
        return {
            "regime": record.spec.label.replace("budget-", ""),
            "answer_budget": record.spec.params_dict()["answer_budget"],
            "n": record.spec.n,
            "seed": record.spec.seed,
            "reach": round(float(reach), 4) if reach is not None else "-",
            "span": _round_opt(record.span),
            "amortized_bits": round(record.amortized_bits, 1),
            "max_node_bits": record.max_node_bits,
            "answers_deferred": polls["budget_exhausted_events"],
            "budget_limited_nodes": polls["budget_exhausted_nodes"],
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        rows = [self.record_row(r) for r in records]

        def mean(regime: str, column: str) -> float:
            return regime_mean(rows, regime, column)

        return [
            "Liveness: the paper's log² n budget reaches "
            f"{mean('paper', 'reach'):.3f} of the correct nodes (unlimited: "
            f"{mean('unlimited', 'reach'):.3f}), while the tiny budget "
            f"collapses reach to {mean('tiny', 'reach'):.3f} — the filter "
            "must scale with the poll volume, not be a constant.",
            "Load: lifting the budget entirely does not reduce the worst "
            "per-node bits (the flood is absorbed either way); what the "
            "budget buys is bounded *answering work* before decision — "
            f"{mean('paper', 'answers_deferred'):.0f} deferred answers per "
            "run under the paper's budget.",
        ]


# ----------------------------------------------------------------------
# Ablation — quorum size multiplier
# ----------------------------------------------------------------------
@register_report_section
class AblationQuorumSection(ReportSection):
    """The d = Θ(log n) constant trades reliability against communication."""

    name = "ablation_quorum"
    title = "Ablation — quorum size multiplier vs reach and cost"
    claim = (
        "The paper prescribes d = Θ(log n) quorums; the constant decides "
        "both the failure probability of the w.h.p. claims and the "
        "(cubic-in-d) message cost of the pull phase.  The default "
        "multiplier 2 is a sensible middle ground."
    )
    order = 82

    MULTIPLIERS = (1.0, 2.0, 3.0)

    group_by = ("n", "quorum_multiplier", "quorum_size")
    ci_columns = ("reach", "amortized_bits")
    rate_columns = ("agreement",)

    def plan_for(
        self, n: int, seeds: Sequence[int], multipliers: Sequence[float] = MULTIPLIERS
    ) -> ExperimentPlan:
        specs = tuple(
            ExperimentSpec(
                n=n,
                adversary="wrong_answer",
                seed=seed,
                quorum_multiplier=multiplier,
                label="ablation_quorum",
            )
            for multiplier in multipliers
            for seed in seeds
        )
        return ExperimentPlan(ns=(), extra_specs=specs)

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for(64, seeds=(0, 1, 2))
        return self.plan_for(64, seeds=(0, 1, 2, 3, 4))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        rows = [self.record_row(r) for r in records]

        def mean(multiplier: float, column: str, digits: int) -> float:
            group = [row[column] for row in rows if row["quorum_multiplier"] == multiplier]
            return round(sum(group) / len(group), digits)

        costs = [mean(m, "amortized_bits", 1) for m in self.MULTIPLIERS]
        assert costs == sorted(costs)
        assert costs[-1] > 2 * costs[0]
        assert mean(2.0, "reach", 4) >= 0.99
        assert mean(3.0, "reach", 4) >= 0.99
        # the small-quorum configuration is allowed to degrade (that is the point)
        assert mean(1.0, "reach", 4) <= mean(2.0, "reach", 4) + 1e-9

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        from repro.core.config import AERConfig

        spec = record.spec
        config = AERConfig.for_system(spec.n, quorum_multiplier=spec.quorum_multiplier)
        reach = record.extras.get("decided_gstring")
        return {
            "n": spec.n,
            "quorum_multiplier": spec.quorum_multiplier,
            "quorum_size": config.quorum_size,
            "seed": spec.seed,
            "reach": round(float(reach), 4) if reach is not None else "-",
            "amortized_bits": round(record.amortized_bits, 1),
            "agreement": int(record.agreement),
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        rows = [self.record_row(r) for r in records]
        by_multiplier: Dict[float, List[float]] = {}
        for row in rows:
            by_multiplier.setdefault(float(row["quorum_multiplier"]), []).append(  # type: ignore[arg-type]
                float(row["amortized_bits"])  # type: ignore[arg-type]
            )
        means = {m: sum(v) / len(v) for m, v in sorted(by_multiplier.items())}
        smallest, largest = min(means), max(means)
        return [
            "Cost is steep in d (the pull phase is cubic in the quorum size): "
            + ", ".join(f"×{m:g} → {mean:.0f} bits/node" for m, mean in means.items())
            + f" — a {means[largest] / max(1.0, means[smallest]):.1f}× spread "
            "across the swept multipliers.",
            "Reliability buys the difference: the small-quorum configuration "
            "is the one allowed to degrade (its majorities are the easiest "
            "for the adversary's wrong answers to dent), which is why the "
            "default multiplier is 2 and not 1.",
        ]


# ----------------------------------------------------------------------
# Ablation — scheduling power vs Byzantine traffic (traced)
# ----------------------------------------------------------------------
@register_report_section
class AblationSchedulerSection(ReportSection):
    """Attribute the asynchronous slowdown: delays vs overload traffic."""

    name = "ablation_scheduler"
    title = "Ablation — asynchronous slowdown: scheduling power vs Byzantine traffic"
    claim = (
        "Lemma 6's asynchronous bound combines two adversarial powers — "
        "message scheduling (delays) and Byzantine traffic (overload).  "
        "Running the same scenario under four regimes attributes the "
        "slowdown: delays dominate the time cost, traffic dominates the "
        "bit cost."
    )
    order = 84

    #: spec label → (adversary registry name, display regime)
    REGIMES = {
        "benign": ("none", "random delays, no adversary"),
        "delays": ("slow_knowledgeable", "worst-case delays only"),
        "traffic": ("cornering_nodelay", "overload traffic only"),
        "full": ("cornering", "overload + worst-case delays"),
    }

    group_by = ("regime", "n")
    ci_columns = ("span", "amortized_bits", "reach", "answers_deferred")

    def plan_for(self, n: int, seeds: Sequence[int]) -> ExperimentPlan:
        specs = tuple(
            ExperimentSpec(
                n=n,
                adversary=adversary,
                mode="async",
                seed=seed,
                label=label,
                trace="summary",
            )
            for seed in seeds
            for label, (adversary, _display) in self.REGIMES.items()
        )
        return ExperimentPlan(ns=(), extra_specs=specs)

    def plan(self, quick: bool = True) -> ExperimentPlan:
        if quick:
            return self.plan_for(64, seeds=(12,))
        return self.plan_for(64, seeds=(12, 13, 14))

    def check(self, records: Sequence[ExperimentRecord]) -> None:
        rows = [self.record_row(r) for r in records]
        by_label = {r.spec.label: row for r, row in zip(records, rows)}
        assert by_label["full"]["span"] != "-"
        # delays dominate the slowdown: the full attack is at least as slow as
        # delays alone
        assert by_label["delays"]["span"] >= by_label["benign"]["span"]
        assert by_label["full"]["span"] >= by_label["delays"]["span"] * 0.9
        # overload traffic alone adds bits, not time
        assert by_label["traffic"]["amortized_bits"] > by_label["benign"]["amortized_bits"]
        assert all(row["reach"] >= 0.9 for row in rows)

    def record_row(self, record: ExperimentRecord) -> Dict[str, object]:
        polls = _trace_block(record, "polls")
        reach = record.extras.get("decided_gstring")
        return {
            "regime": self.REGIMES[record.spec.label][1],
            "n": record.spec.n,
            "seed": record.spec.seed,
            "span": _round_opt(record.span),
            "amortized_bits": round(record.amortized_bits, 1),
            "reach": round(float(reach), 4) if reach is not None else "-",
            "answers_deferred": polls["budget_exhausted_events"],
        }

    def commentary(self, records: Sequence[ExperimentRecord]) -> List[str]:
        rows = [self.record_row(r) for r in records]

        def mean(regime_label: str, column: str) -> float:
            return regime_mean(rows, self.REGIMES[regime_label][1], column)

        return [
            "Time: span goes from "
            f"{mean('benign', 'span'):.2f} (benign) to "
            f"{mean('delays', 'span'):.2f} with worst-case delays alone, while "
            f"overload traffic alone leaves it at {mean('traffic', 'span'):.2f} "
            f"— and the full attack ({mean('full', 'span'):.2f}) adds little "
            "on top of the delays: scheduling power dominates the slowdown.",
            "Bits: overload traffic alone multiplies the per-node cost "
            f"({mean('benign', 'amortized_bits'):.0f} → "
            f"{mean('traffic', 'amortized_bits'):.0f} amortized bits) without "
            "slowing the protocol — the answer budget absorbs it "
            f"({mean('full', 'answers_deferred'):.0f} deferred answers under "
            "the full attack).",
        ]
