"""Full Byzantine Agreement pipeline: almost-everywhere agreement + AER.

This example runs the paper's headline composition end to end through the
protocol registry (protocol name ``full_ba``):

* stage 1 — the committee-tree almost-everywhere agreement substrate
  generates a random ``gstring`` and spreads it to most correct nodes;
* stage 2 — AER propagates it from almost everywhere to everywhere.

It then asks :func:`repro.api.compare` for the Figure 1b table: the same
composition with the baseline everywhere stages (``composed_ba`` with
``strategy=sample_majority`` — the ``O~(√n)`` column — and
``strategy=naive`` — the ``Ω(n²)`` column) on the same system size, so the
communication gap is visible side by side.

Run with::

    python examples/full_ba_pipeline.py [--n 96] [--seed 5]
"""

from __future__ import annotations

import argparse

from repro import api


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=96, help="system size")
    parser.add_argument("--seed", type=int, default=5, help="master seed")
    args = parser.parse_args()

    result = api.run_experiment("full_ba", n=args.n, seed=args.seed)
    ba = result.raw  # the native two-stage BAResult, for stage-level detail

    print("=== stage 1: almost-everywhere agreement (committee tree) ===")
    print(f"gstring                         : {ba.gstring}")
    print(f"fraction knowing gstring        : {result.extras['knowledge_after_ae']:.2f}")
    print(f"stage-1 rounds                  : {result.extras['ae_rounds']}")
    print(f"stage-1 amortized bits per node : {ba.ae_result.metrics.amortized_bits:.0f}")
    print()
    print("=== stage 2: AER (almost-everywhere to everywhere) ===")
    print(f"agreement reached               : {result.agreement}")
    print(f"decided value == gstring        : {result.extras['decided_gstring'] == 1.0}")
    print(f"stage-2 rounds                  : {result.extras['aer_rounds']}")
    print(f"stage-2 amortized bits per node : {ba.everywhere_result.metrics.amortized_bits:.0f}")
    print()
    print("=== composed protocol (the paper's BA) ===")
    print(f"total rounds                    : {result.rounds}")
    print(f"amortized bits per node         : {result.amortized_bits:.0f}")
    print(f"max per-node bits               : {result.max_node_bits}")
    print()

    # Figure 1b: the same ae-stage composed with each everywhere stage.
    rows = [api.run_result_row(result, composition="BA (ae + AER)")]
    for strategy, label in (
        ("sample_majority", "ae + sampled majority (KLST-style)"),
        ("naive", "ae + all-to-all broadcast"),
    ):
        baseline = api.run_experiment(
            "composed_ba", n=args.n, seed=args.seed, strategy=strategy
        )
        rows.append(api.run_result_row(baseline, composition=label))
    print(api.format_table(rows, title="Figure 1b style comparison (one run each)"))


if __name__ == "__main__":
    main()
