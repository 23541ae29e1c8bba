"""Report subsystem: registry error paths, rendering goldens, cache, CLI.

Rendering is pinned two ways: a golden Markdown snapshot on a hand-built
(simulation-free, thus platform-stable) sweep, and a byte-identity check on
a real tiny sweep run twice — the contract the CI freshness job
(``git diff --exit-code EXPERIMENTS.md``) relies on.
"""

from __future__ import annotations

import hashlib
import importlib.util
import subprocess
from pathlib import Path

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.plan import ExperimentPlan, ExperimentSpec
from repro.experiments.sweep import ExperimentRecord, SweepResult
from repro.analysis.statistics import mean_ci
from repro.report import (
    REPORT_SECTIONS,
    ReportBuilder,
    ReportSection,
    aggregate_rows,
    get_report_section,
    list_report_sections,
    markdown_table,
    register_report_section,
    render_registries,
)
from repro.store.keys import spec_key

LEMMA7 = get_report_section("lemma7")
LEMMA8 = get_report_section("lemma8")


def make_record(spec: ExperimentSpec = None, **overrides) -> ExperimentRecord:
    spec = spec if spec is not None else ExperimentSpec(n=16, seed=0, label="lemma8")
    base = dict(
        spec=spec,
        seconds=0.123,  # wall-clock: must never leak into report rows
        protocol=spec.protocol,
        n=spec.n,
        agreement=True,
        decided_count=13,
        correct_count=13,
        rounds=5.0,
        span=None,
        max_decision_time=5.0,
        total_messages=160,
        total_bits=1000,
        amortized_bits=62.5,
        max_node_bits=100,
        median_node_bits=80.0,
        load_imbalance=1.25,
        extras={},
    )
    base.update(overrides)
    return ExperimentRecord(**base)


# ----------------------------------------------------------------------
# statistics helpers
# ----------------------------------------------------------------------
def test_mean_ci_single_sample_has_no_interval():
    estimate = mean_ci([4.0])
    assert estimate.mean == 4.0
    assert estimate.half_width == 0.0
    assert estimate.format() == "4.00"


def test_mean_ci_known_values():
    estimate = mean_ci([1.0, 2.0, 3.0])
    assert estimate.mean == pytest.approx(2.0)
    assert estimate.low < 2.0 < estimate.high
    assert "±" in estimate.format()


def test_mean_ci_rejects_empty():
    with pytest.raises(ValueError):
        mean_ci([])


# ----------------------------------------------------------------------
# registry error paths
# ----------------------------------------------------------------------
def test_builtin_sections_registered_in_document_order():
    names = list_report_sections()
    assert names == [
        "figure1a", "figure1a_scale", "figure1b", "lemma3", "lemma4", "lemma5",
        "lemma6", "lemma7", "lemma8", "lemma10", "property2", "adversary_matrix",
        "degraded_networks", "ablation_filters", "ablation_quorum",
        "ablation_scheduler",
    ]


def test_unknown_section_error_names_registered_ones():
    with pytest.raises(ValueError, match="unknown report section 'nope'"):
        get_report_section("nope")
    with pytest.raises(ValueError, match="figure1a"):
        get_report_section("nope")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        @register_report_section
        class Duplicate(ReportSection):  # noqa: F811 - intentionally clashing
            name = "lemma8"


def test_builder_rejects_unknown_section():
    with pytest.raises(ValueError, match="unknown report section"):
        ReportBuilder(sections=["figure1a", "nope"])


# ----------------------------------------------------------------------
# section grids: every quick, full and check plan pinned by its specs
# ----------------------------------------------------------------------
#: section -> spec_key digests of its (quick, full, check) plans; a grid
#: edit that changes which specs a plan expands to changes its digest
PLAN_DIGESTS = {
    "figure1a": ("beae1188717c0ef3", "d607b5fb65fa84f3", "2cdc16612321cce0"),
    "figure1a_scale": ("0bd97d81528d9c9c", "7da4adde31be2788", "0bd97d81528d9c9c"),
    "figure1b": ("23aee86e8993fff8", "3b81740ca4ed3007", "8713e132c57cb1b2"),
    "lemma3": ("dba1ed59a1bca4a1", "c924e958aa833dd2", "dba1ed59a1bca4a1"),
    "lemma4": ("da4d0dfdd69a0655", "3df69c2748d4fded", "da4d0dfdd69a0655"),
    "lemma5": ("5bd1836338fdf428", "4c32fe5fd8dc60dc", "5bd1836338fdf428"),
    "lemma6": ("9a02b74690e18bda", "0174591aa5e8b5ad", "9287a66149664e4f"),
    "lemma7": ("822abdec801ec7ac", "a392d353b8217f12", "ffaa02f1993cc26c"),
    "lemma8": ("df97329429dd4766", "51ee61b1f7e858d4", "561ac11f6139fbed"),
    "lemma10": ("87a187599d0ff6be", "c0a6e8e3b3fb613c", "c0fcafcdda2168fd"),
    "property2": ("db233757fd5879fd", "cea7cf277e16749d", "db233757fd5879fd"),
    "adversary_matrix": ("002294b12064d56f", "335b47b0b335bb73", "002294b12064d56f"),
    "degraded_networks": ("9986061dd070b573", "8ec9ca31e619aeac", "9986061dd070b573"),
    "ablation_filters": ("aa8e8696cc5d5d80", "092a0d6f35dc1559", "aa8e8696cc5d5d80"),
    "ablation_quorum": ("86ebd28d483b1d8f", "3cd7ad192cfc3c24", "86ebd28d483b1d8f"),
    "ablation_scheduler": ("ed059cd2d223fb07", "61507eba0f177a2e", "ed059cd2d223fb07"),
}


def plan_digest(plan: ExperimentPlan) -> str:
    digest = hashlib.blake2b(digest_size=8)
    for spec in plan.specs():
        digest.update(spec_key(spec).encode())
    return digest.hexdigest()


def test_plan_digests_cover_every_builtin_section():
    assert sorted(PLAN_DIGESTS) == sorted(list_report_sections())


@pytest.mark.parametrize("name", sorted(PLAN_DIGESTS))
def test_section_plans_are_pinned_and_valid(name):
    section = get_report_section(name)
    plans = (section.plan(quick=True), section.plan(quick=False), section.check_plan)
    for plan in plans:
        plan.validate()
    assert tuple(plan_digest(plan) for plan in plans) == PLAN_DIGESTS[name]


def test_builtin_sections_declare_grids_not_plan():
    for name in list_report_sections():
        cls = type(get_report_section(name))
        assert "plan" not in vars(cls), f"{cls.__name__} overrides plan(); set quick_grid/full_grid"
        assert cls.quick_grid, f"{cls.__name__} declares no quick_grid"


# ----------------------------------------------------------------------
# row building and aggregation
# ----------------------------------------------------------------------
def test_lemma8_record_row_excludes_wall_clock():
    row = LEMMA8.record_row(make_record())
    assert row == {
        "n": 16,
        "seed": 0,
        "rounds": 5.0,
        "latest_decision_round": 5.0,
        "messages_per_node": 10.0,
        "agreement": 1,
        "decided_fraction": 1.0,
    }
    assert "seconds" not in row


def test_lemma7_wrong_decision_count_from_extras():
    spec = ExperimentSpec(n=16, adversary="wrong_answer", seed=3, label="lemma7")
    record = make_record(
        spec=spec, decided_count=12, correct_count=13, extras={"decided_gstring": 10 / 13}
    )
    row = LEMMA7.record_row(record)
    assert row["wrong_decisions"] == 2  # 12 decided, only 10 on gstring
    assert row["reach"] == round(10 / 13, 4)


def test_aggregate_rows_ci_rate_and_max():
    rows = [
        {"n": 16, "seed": 0, "agreement": 1, "rounds": 5.0, "peak": 10},
        {"n": 16, "seed": 1, "agreement": 0, "rounds": 7.0, "peak": 30},
        {"n": 32, "seed": 0, "agreement": 1, "rounds": "-", "peak": 20},
    ]
    agg = aggregate_rows(
        rows, group_by=("n",), ci_columns=("rounds",), rate_columns=("agreement",),
        max_columns=("peak",),
    )
    assert agg[0]["n"] == 16 and agg[0]["runs"] == 2
    assert agg[0]["agreement"] == 0.5
    assert agg[0]["rounds"].startswith("6.00 ±")
    assert agg[0]["peak"] == 30
    # all-missing numeric column renders as "-"
    assert agg[1] == {"n": 32, "runs": 1, "agreement": 1.0, "rounds": "-", "peak": 20}


def test_markdown_table_golden():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    assert markdown_table(rows) == "| a | b |\n|---|---|\n| 1 | x |\n| 2 | y |"
    assert markdown_table([]) == "*(no rows)*"


def test_section_render_golden_snapshot():
    """Full section Markdown on a hand-built sweep — no simulation, exact bytes."""
    records = [
        make_record(ExperimentSpec(n=16, adversary="wrong_answer", seed=s, label="lemma8"))
        for s in (0, 1)
    ]
    text = LEMMA8.render(records)
    assert text == (
        "## Lemmas 8-9 — synchronous non-rushing: constant rounds, O~(n) messages\n"
        "\n"
        "**Paper's claim.** Against a non-rushing synchronous adversary every poll "
        "is answered in a constant number of steps, the protocol finishes in O(1) "
        "rounds and the total number of messages is O~(n).\n"
        "\n"
        "| n | runs | agreement | rounds | messages_per_node | decided_fraction "
        "| latest_decision_round |\n"
        "|---|---|---|---|---|---|---|\n"
        "| 16 | 2 | 1.0 | 5.00 | 10.00 | 1.00 | 5.0 |\n"
        "\n"
        "- Rounds: paper says O(1) — fitted power exponent n/a (a handful of nodes "
        "may decide one cascade later, so the count fluctuates but does not grow "
        "with n).\n"
        "- Messages per node: paper says O~(n) total, i.e. polylog per node — "
        "fitted exponent n/a.\n"
        "- Outcome: agreement in 2/2 runs (rate 1.000, 95% CI [0.342, 1.000]).\n"
        "\n"
        "*Shape assertions: `benchmarks/test_claims.py::test_claim[lemma8]` "
        "(this section's `check`).*\n"
    )


def test_render_refuses_to_average_a_truncated_record():
    """A run a safety cap cut short is named, never averaged into a row."""
    capped = ExperimentSpec(n=512, mode="async", seed=7, label="lemma8")
    records = [
        make_record(),
        make_record(capped, agreement=False, decided_count=0, stopped_by="max_events"),
    ]
    with pytest.raises(ValueError) as raised:
        LEMMA8.render(records)
    message = str(raised.value)
    assert "'lemma8'" in message
    assert f"{capped.key} (stopped by max_events)" in message
    assert ExperimentSpec(n=16, seed=0).key not in message  # the complete run is not named


def test_cli_report_names_a_truncated_record(monkeypatch, capsys):
    capped = make_record(ExperimentSpec(n=16, seed=2), stopped_by="max_rounds")
    monkeypatch.setattr(
        ReportBuilder, "_run_section",
        lambda self, section, pool, store: (SweepResult(section.plan(), [capped], 0.0, 1), False),
    )
    assert cli_main(["report", "--sections", "lemma8", "-o", "-"]) == 2
    assert "sync:none:n16:s2 (stopped by max_rounds)" in capsys.readouterr().err


# ----------------------------------------------------------------------
# shape checks live on the section
# ----------------------------------------------------------------------
def test_claims_module_is_parametrized_over_the_sections_that_override_check():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "test_claims.py"
    module_spec = importlib.util.spec_from_file_location("claims_module", path)
    claims = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(claims)
    overriding = [
        name for name in list_report_sections()
        if type(get_report_section(name)).check is not ReportSection.check
    ]
    assert claims.CHECKED_SECTIONS == overriding
    assert len(overriding) == 14
    unchecked = set(list_report_sections()) - set(overriding)
    assert unchecked == {"figure1a_scale", "adversary_matrix"}
    for name in unchecked:
        section = get_report_section(name)
        assert section.claim_test == ""
        assert "Shape assertions" not in section.render([make_record()])


def _lemma7_records(*wrong_decisions: int):
    """One 13-of-13-decided record per argument, that many decisions off gstring."""
    spec = ExperimentSpec(n=16, adversary="wrong_answer", seed=0, label="lemma7")
    return [
        make_record(spec=spec, extras={"decided_gstring": (13 - wrong) / 13})
        for wrong in wrong_decisions
    ]


def test_lemma7_check_rejects_a_wrong_decision():
    LEMMA7.check(_lemma7_records(0, 0, 0, 0))
    with pytest.raises(AssertionError):
        LEMMA7.check(_lemma7_records(0, 0, 0, 1))


def _lemma8_records(decided_count: int):
    return [
        make_record(
            ExperimentSpec(n=n, adversary="wrong_answer", seed=0, label="lemma8"),
            decided_count=decided_count, correct_count=26,
        )
        for n in (16, 32)
    ]


def test_lemma8_check_rejects_half_the_nodes_undecided():
    LEMMA8.check(_lemma8_records(decided_count=26))
    assert _lemma8_records(decided_count=13)[0].decided_fraction == 0.5
    with pytest.raises(AssertionError):
        LEMMA8.check(_lemma8_records(decided_count=13))


def _scale_records(undecided):
    """figure1a_scale records: ``undecided[(n, seed)]`` of 30 correct nodes missed."""
    return [
        make_record(
            ExperimentSpec(n=n, seed=seed, backend="vectorized", label="figure1a_scale"),
            decided_count=30 - missed, correct_count=30,
        )
        for (n, seed), missed in undecided.items()
    ]


def test_figure1a_scale_reach_sentence_is_computed_from_the_records():
    section = get_report_section("figure1a_scale")
    lines = section.commentary(_scale_records({(1000, 0): 0, (10000, 0): 1, (10000, 1): 2}))
    assert "Reach: undecided correct nodes 0 of 30 at n=1000, 3 of 60 at n=10000" in "\n".join(lines)
    lines = section.commentary(_scale_records({(1000, 0): 0, (10000, 0): 0}))
    assert "Reach: every correct node decided at every n of the grid." in lines
    assert not any("reference column" in line for line in lines)


# ----------------------------------------------------------------------
# a tiny real section for builder/cache/CLI tests
# ----------------------------------------------------------------------
@pytest.fixture()
def tiny_section():
    @register_report_section
    class TinySection(ReportSection):
        name = "tiny_test"
        title = "Tiny — builder test section"
        claim = "runs two small failure-free experiments"
        order = 999
        group_by = ("n",)
        ci_columns = ("rounds",)
        rate_columns = ("agreement",)

        quick_grid = dict(ns=(24,), seeds=(0, 1))

        def plan_for(self, ns, seeds):
            return ExperimentPlan(ns=ns, seeds=seeds, label="tiny")

        def record_row(self, record):
            return {
                "n": record.spec.n,
                "seed": record.spec.seed,
                "agreement": int(record.agreement),
                "rounds": record.rounds,
            }

    yield REPORT_SECTIONS.get("tiny_test")
    REPORT_SECTIONS.unregister("tiny_test")


def test_builder_document_is_byte_identical_and_timestamp_free(tiny_section):
    builder = ReportBuilder(sections=["tiny_test"], jobs=1)
    first = builder.build()
    second = ReportBuilder(sections=["tiny_test"], jobs=1).build()
    assert first == second
    assert "wall-time" not in first and "git commit" not in first
    assert "| grid | quick (CI-sized) |" in first
    assert "| seeds | 0, 1 |" in first
    assert "Tiny — builder test section" in first


def test_builder_volatile_provenance_is_opt_in(tiny_section):
    text = ReportBuilder(sections=["tiny_test"], jobs=1, include_volatile=True).build()
    assert "git commit" in text and "wall-time" in text


def test_volatile_provenance_marks_a_dirty_tree(tiny_section, monkeypatch):
    def fake_git(cmd, **kwargs):
        stdout = "abc1234\n" if cmd[:2] == ["git", "rev-parse"] else " M src/repro/x.py\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(subprocess, "run", fake_git)
    text = ReportBuilder(sections=["tiny_test"], jobs=1, include_volatile=True).build()
    assert "| git commit | abc1234+dirty |" in text


def test_store_round_trip_skips_resimulation(tiny_section, tmp_path, monkeypatch):
    from repro.experiments.sweep import RUN_COUNTER

    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "report-test-fp")
    store = tmp_path / "store.sqlite"
    builder = ReportBuilder(sections=["tiny_test"], jobs=1, store_path=str(store))
    [built] = builder.build_sections()
    assert not built.from_cache
    assert store.exists()

    # a second build serves every record from the store, never re-running
    before = RUN_COUNTER["executed"]
    again = ReportBuilder(sections=["tiny_test"], jobs=1, store_path=str(store))
    [reloaded] = again.build_sections()
    assert reloaded.from_cache
    assert reloaded.sweep.served_from_store == len(reloaded.sweep.records) == 2
    assert RUN_COUNTER["executed"] == before  # zero protocol executions
    assert reloaded.markdown == built.markdown

    # a different code fingerprint invalidates per spec (full re-run here)
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "report-test-fp2")
    [rebuilt] = ReportBuilder(
        sections=["tiny_test"], jobs=1, store_path=str(store)
    ).build_sections()
    assert not rebuilt.from_cache
    assert {r.spec.seed for r in rebuilt.sweep.records} == {0, 1}


# ----------------------------------------------------------------------
# registries document and CLI
# ----------------------------------------------------------------------
def test_render_registries_covers_all_five():
    text = render_registries()
    for heading in ("## Protocols", "## Adversaries", "## Delay policies",
                    "## Scenario generators", "## Report sections"):
        assert heading in text
    for name in ("`aer`", "`cornering`", "`constant`", "`synthetic`", "`figure1a`"):
        assert name in text


def test_cli_report_list(capsys):
    assert cli_main(["report", "--list"]) == 0
    out = capsys.readouterr().out
    assert "figure1a" in out and "adversary_matrix" in out


def test_cli_report_writes_document(tiny_section, tmp_path, capsys):
    out = tmp_path / "EXPERIMENTS.md"
    assert cli_main(["report", "--sections", "tiny_test", "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("# EXPERIMENTS")


def test_cli_report_unknown_section_fails_cleanly(capsys):
    assert cli_main(["report", "--sections", "nope", "-o", "-"]) == 2
    assert "unknown report section" in capsys.readouterr().err


def test_cli_registries_writes_document(tmp_path):
    out = tmp_path / "REGISTRIES.md"
    assert cli_main(["registries", "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("# Registry reference")
