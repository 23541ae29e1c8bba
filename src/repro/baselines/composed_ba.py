"""Byzantine Agreement compositions built from the baseline ae→e protocols.

The paper obtains its headline BA by composing an almost-everywhere agreement
stage ([KSSV06]) with AER.  The prior state of the art composed the same kind
of first stage with [KLST11]'s ``O~(√n)`` everywhere stage.  To reproduce the
Figure 1b comparison we therefore provide the same composition with the
baseline everywhere stages of this package:

* ``strategy="sample_majority"`` — almost-everywhere stage + sampled-majority
  everywhere stage: the ``O~(√n)``-bits BA column ([KLST11]).
* ``strategy="naive"`` — almost-everywhere stage + all-to-all broadcast: the
  ``Ω(n²)``-bits BA column.
* (the composition with AER itself is :class:`repro.core.ba.BAProtocol`.)
"""

from __future__ import annotations

from typing import Optional

from repro.ae.protocol import run_ae_stage
from repro.baselines.naive_broadcast import run_naive_broadcast
from repro.baselines.sample_majority import SampleMajorityConfig, run_sample_majority
from repro.core.ba import BAResult
from repro.core.config import AERConfig
from repro.net.messages import SizeModel
from repro.net.rng import derive_rng


def run_composed_ba(
    n: int,
    strategy: str = "sample_majority",
    t: Optional[int] = None,
    seed: int = 0,
    max_rounds: int = 64,
    trace=None,
) -> BAResult:
    """Run the almost-everywhere stage and then a baseline everywhere stage.

    The committee structure and string length are chosen exactly as
    :class:`repro.core.ba.BAProtocol` chooses them (both call
    :func:`~repro.ae.protocol.run_ae_stage`), so the Figure 1b rows are an
    apples-to-apples comparison.
    """
    if t is None:
        t = n // 6
    rng = derive_rng(seed, "composed-ba", n, strategy)
    byzantine_ids = frozenset(rng.sample(range(n), t))

    string_length = AERConfig.for_system(n, sampler_seed=seed).string_length
    ae_result, scenario = run_ae_stage(
        n,
        byzantine_ids,
        string_length,
        seed=seed,
        size_model=SizeModel(n=n),
        max_rounds=max_rounds,
        trace=trace,
    )
    if trace is not None:
        trace.stage_boundary()

    if strategy == "sample_majority":
        config = SampleMajorityConfig.for_system(n, string_length=string_length)
        everywhere = run_sample_majority(scenario, config=config, seed=seed + 1, trace=trace)
    elif strategy == "naive":
        everywhere = run_naive_broadcast(scenario, seed=seed + 1, trace=trace)
    else:
        raise ValueError(f"unknown composition strategy {strategy!r}")

    return BAResult(
        gstring=scenario.gstring,
        scenario=scenario,
        ae_result=ae_result,
        everywhere_result=everywhere,
    )
