"""Scaling study: how AER's cost grows with n compared to the baselines.

A miniature version of the Figure 1a benchmark, intended to run in well under
a minute: one :class:`~repro.experiments.plan.ExperimentPlan` whose
``protocols`` dimension spans AER and the two almost-everywhere-to-everywhere
baselines, fanned across worker processes by the sweep runner.  Because all
three adapters derive their input scenario from the same seed, every row of a
given ``n`` runs on an *identical* almost-everywhere state.

The paper's claim is about the *shape*: AER's per-node bits should grow
roughly poly-logarithmically (small fitted power exponent) while the
sampled-majority baseline grows like ``√n`` and the naive broadcast linearly.

Run with::

    python examples/scaling_study.py [--sizes 32 64 128] [--seed 2]
"""

from __future__ import annotations

import argparse

from repro import api
from repro.analysis import growth_exponent

PROTOCOLS = ("aer", "sample_majority", "naive_broadcast")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=None, help="worker processes")
    args = parser.parse_args()

    plan = api.ExperimentPlan(
        ns=tuple(args.sizes),
        protocols=PROTOCOLS,
        adversaries=("silent",),
        seeds=(args.seed,),
        t=None,  # ExperimentSpec.byzantine_count: max(1, n // 6)
        knowledge_fraction=0.78,
    )
    sweep = api.SweepRunner(plan, jobs=args.jobs).run()

    costs = {protocol: [] for protocol in PROTOCOLS}
    for record in sweep.records:
        costs[record.spec.protocol].append(record.amortized_bits)

    print(api.format_table(sweep.rows(), title="almost-everywhere to everywhere: scaling"))
    print()
    print("fitted power-law exponents of amortized bits (cost ~ n^b):")
    for protocol in PROTOCOLS:
        b = growth_exponent(args.sizes, costs[protocol])
        print(f"  {protocol:18s}: b = {b:.2f}")
    print()
    print("Expected shape: AER's exponent is the smallest (poly-log growth),")
    print("sampled majority sits near 0.5 + log factors, naive broadcast near 1.")


if __name__ == "__main__":
    main()
