"""``python -m repro`` — run experiments, grid sweeps, comparisons, benchmarks.

Subcommands
-----------

``run``
    One experiment of any registered protocol::

        python -m repro run --n 64 --adversary silent --mode async
        python -m repro run --n 64 --protocol composed_ba --param strategy=naive
        python -m repro run --n 64 --trace summary
        python -m repro run --n 64 --trace full --trace-dir traces/

``sweep``
    A grid across multiprocessing workers — any protocol mix — optionally
    persisted as JSON::

        python -m repro sweep --ns 32,64,128 --protocols aer,composed_ba \\
            --adversaries none --modes sync --seeds 0,1,2 --jobs 4 --out sweep.json

    ``--store [PATH]`` makes the sweep *incremental* against the
    content-addressed result store (records already computed under the
    current code fingerprint are served, only the delta runs, fresh records
    are flushed as they complete); ``--no-store`` disables even a
    ``$REPRO_STORE`` default.  ``--resume out.json`` re-seeds from a prior
    (possibly partial) result file and runs only the missing spec keys.

    ``--distributed N`` executes what the store cannot serve on the dist
    executor instead of a local pool: one in-process coordinator plus ``N``
    ``dist-worker`` subprocesses claiming spec-keyed shards under leases
    (see :mod:`repro.dist`).  ``--canonical`` saves ``--out`` with volatile
    fields (wall-clock, worker counts) zeroed, so distributed and serial
    runs of the same plan are byte-identical.

``dist-worker``
    One worker of the distributed executor, pointed at a running
    coordinator::

        python -m repro dist-worker 127.0.0.1:7341
        python -m repro dist-worker HOST:PORT --id w1 --poll 0.2

    Every request carries the worker's code fingerprint (a mismatch is
    refused by name); it claims, executes and streams back shards until the
    coordinator drains.

``store``
    Inspect or garbage-collect the result store::

        python -m repro store stats
        python -m repro store prune --keep-current
        python -m repro store prune --fingerprint 3f9a61c02b7de845

``serve``
    The experiment service (stdlib; prints the address it bound, ``--port 0`` works)::

        python -m repro serve --host 127.0.0.1 --port 8000

    POST a plan JSON to ``/plans``, poll ``/jobs/{id}``, stream NDJSON
    records from ``/jobs/{id}/records``, query ``/store/stats``.

``compare``
    The Figure-1-style cross-protocol table: run every protocol on the same
    system sizes and seeds, aggregate across seeds, print one row per
    ``(n, protocol)``::

        python -m repro compare --ns 32,64 --protocols aer,composed_ba,naive_broadcast

``protocols``
    List the registered protocols, adversaries, delay policies and scenario
    generators (the extension points of the registry API).

``report``
    Run the report sections and generate the living reproduction document::

        python -m repro report --quick -o EXPERIMENTS.md
        python -m repro report --sections figure1a,lemma8 --store report.sqlite -o -

``registries``
    Render the auto-generated registry reference (all five registries)::

        python -m repro registries -o REGISTRIES.md

``bench``
    Runs the repo benchmark (``BENCHMARK.json``: ``bench/run.py``, from a
    source checkout) and prints its end-to-end table; writes nothing.
    ``--update`` also appends the run as one generation under the
    ``trajectory`` key of ``BENCH_kernel.json``, keyed by the commit measured.

Protocol-specific parameters are passed as repeated ``--param key=value``
options; values are parsed as JSON when possible (``--param
delay_params='{"value": 0.5}'``), else kept as strings.  The spec's knobs
(``--adversary``, ``--mode``, ``--t``, ``--wrong-candidate-mode``, ...) have
their own options, whose defaults are :class:`ExperimentSpec`'s; ``--param``
never spells a knob.

Fault-injection knobs (see :mod:`repro.faults`) are passed the same way as
repeated ``--fault key=value`` options on ``run`` and ``sweep``::

    python -m repro run --n 64 --fault loss_rate=0.1
    python -m repro run --n 64 --fault churn_rate=0.02 --fault recovery_rate=0.3
    python -m repro run --n 64 --fault 'partitions=[{"start": 1, "end": 4}]'

``--trace {off,summary,full}`` (on ``run`` and ``sweep``) opts runs into the
trace subsystem: ``summary`` attaches the condensed
:class:`~repro.trace.collector.TraceSummary` to every record, ``full``
additionally streams per-event JSONL into ``--trace-dir`` (one file per spec
key; the directory is exported as ``$REPRO_TRACE_DIR`` so multiprocessing
sweep workers inherit it).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from dataclasses import fields
from typing import Dict, List, Optional, Sequence

from repro.analysis.experiments import compare_rows, format_table, run_result_row
from repro.experiments.plan import ExperimentPlan, ExperimentSpec
from repro.experiments.sweep import SweepResult, SweepRunner, run_sweep


def _csv_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _csv_strs(text: str) -> List[str]:
    return [part for part in text.split(",") if part]


def _parse_params(
    pairs: Optional[Sequence[str]], option: str = "--param"
) -> Dict[str, object]:
    """``["k=v", ...]`` → dict, JSON-decoding each value when possible."""
    params: Dict[str, object] = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"{option} expects key=value, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _from_args(cls, args: argparse.Namespace, **given):
    """A spec or plan from the options named after its fields, plus
    ``--param``/``--fault`` and the ``given`` fields."""
    options = vars(args)
    named = {f.name: options[f.name] for f in fields(cls) if f.name in options}
    return cls(
        **named,
        **given,
        params=_parse_params(args.param),
        faults=_parse_params(options.get("fault"), option="--fault"),
    )


def _add_shared_spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default=ExperimentSpec.backend,
        choices=["message", "vectorized"],
        help="engine backend: 'message' (per-message kernel, the oracle) or "
             "'vectorized' (whole-round numpy engine; sync, non-rushing, "
             "untraced protocols only)",
    )
    parser.add_argument("--rushing", action="store_true", help="rushing sync adversary")
    parser.add_argument("--t", type=int, default=ExperimentSpec.t, help="number of Byzantine nodes")
    parser.add_argument("--knowledge-fraction", type=float, default=ExperimentSpec.knowledge_fraction)
    parser.add_argument(
        "--wrong-candidate-mode",
        default=ExperimentSpec.wrong_candidate_mode,
        help="what uninformed correct nodes hold: random | common_wrong | default",
    )
    parser.add_argument("--quorum-multiplier", type=float, default=ExperimentSpec.quorum_multiplier)
    parser.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="protocol-specific parameter (repeatable; value parsed as JSON if possible)",
    )


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault",
        action="append",
        metavar="KEY=VALUE",
        help="fault-injection knob (repeatable; value parsed as JSON if "
             "possible): loss_rate, churn_rate, recovery_rate, churn_start, "
             "partitions, slow_fraction, slow_factor, byzantine_factor",
    )


def _add_trace_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=ExperimentSpec.trace,
        choices=["off", "summary", "full"],
        help="instrumentation level: summary attaches a TraceSummary to every "
             "record, full additionally streams per-event JSONL (default: off)",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="where --trace full writes per-spec JSONL files "
             "(exported as $REPRO_TRACE_DIR for sweep workers)",
    )


def _apply_trace_dir(args: argparse.Namespace) -> None:
    if getattr(args, "trace_dir", None):
        os.environ["REPRO_TRACE_DIR"] = args.trace_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="AER simulation experiments (Braud-Santoni, Guerraoui, Huc — PODC'13)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and print its summary")
    run.add_argument("--n", type=int, required=True, help="system size")
    run.add_argument("--protocol", default=ExperimentSpec.protocol, help="registered protocol name")
    run.add_argument("--adversary", default=ExperimentSpec.adversary, help="registered adversary name")
    run.add_argument("--mode", default=ExperimentSpec.mode, choices=["sync", "async"])
    run.add_argument("--seed", type=int, default=ExperimentSpec.seed)
    _add_shared_spec_options(run)
    _add_fault_options(run)
    _add_trace_options(run)

    sweep = sub.add_parser("sweep", help="run a grid of experiments in parallel")
    sweep.add_argument("--ns", type=_csv_ints, required=True, help="e.g. 32,64,128")
    sweep.add_argument(
        "--protocols", type=_csv_strs, default=ExperimentPlan.protocols, help="e.g. aer,composed_ba"
    )
    sweep.add_argument("--adversaries", type=_csv_strs, default=ExperimentPlan.adversaries)
    sweep.add_argument("--modes", type=_csv_strs, default=ExperimentPlan.modes)
    sweep.add_argument("--seeds", type=_csv_ints, default=ExperimentPlan.seeds)
    _add_shared_spec_options(sweep)
    _add_fault_options(sweep)
    _add_trace_options(sweep)
    sweep.add_argument("--jobs", type=int, default=None, help="worker processes")
    sweep.add_argument("--out", default=None, help="persist records as JSON here")
    sweep.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="serve already-computed records from the content-addressed "
             "result store and flush fresh ones back (PATH defaults to "
             "$REPRO_STORE or .repro-store.sqlite)",
    )
    sweep.add_argument(
        "--no-store",
        action="store_true",
        help="run without the result store even when $REPRO_STORE is set",
    )
    sweep.add_argument(
        "--resume",
        default=None,
        metavar="OUT_JSON",
        help="re-seed from a prior (possibly partial) sweep JSON and run "
             "only the missing spec keys; doubles as --out when --out is "
             "not given",
    )
    sweep.add_argument(
        "--distributed",
        type=int,
        default=None,
        metavar="N",
        help="run through the distributed executor: one coordinator plus N "
             "dist-worker subprocesses claiming spec-keyed shards under "
             "leases (crashed workers' shards are re-issued)",
    )
    sweep.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds before an unheartbeated distributed lease expires and "
             "its shard is re-issued (default: 30)",
    )
    sweep.add_argument(
        "--canonical",
        action="store_true",
        help="write --out with volatile fields (wall-clock seconds, worker "
             "counts, served-from counters) zeroed, so runs of the same "
             "plan are byte-identical regardless of execution mode",
    )

    dist_worker = sub.add_parser(
        "dist-worker",
        help="one worker of the distributed sweep executor (see repro.dist)",
    )
    dist_worker.add_argument(
        "address", metavar="HOST:PORT", help="the coordinator to claim shards from"
    )
    dist_worker.add_argument(
        "--id", default=None, metavar="NAME",
        help="worker id shown in coordinator status (default: hostname-pid)",
    )
    dist_worker.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="max sleep between claim retries while all shards are leased",
    )
    dist_worker.add_argument(
        "--max-claims", type=int, default=None, metavar="K",
        help="exit after executing K shards (default: run until drained)",
    )

    compare = sub.add_parser(
        "compare",
        help="Figure-1-style cross-protocol comparison on shared sizes and seeds",
    )
    compare.add_argument("--ns", type=_csv_ints, required=True, help="e.g. 32,64")
    compare.add_argument(
        "--protocols",
        type=_csv_strs,
        default=["aer", "full_ba", "composed_ba", "sample_majority", "naive_broadcast"],
        help="protocol mix to compare (default: all built-ins)",
    )
    compare.add_argument("--seeds", type=_csv_ints, default=ExperimentPlan.seeds)
    compare.add_argument(
        "--adversary", default=ExperimentSpec.adversary, help="adversary for protocols that take one"
    )
    _add_shared_spec_options(compare)
    compare.add_argument("--jobs", type=int, default=None, help="worker processes")
    compare.add_argument("--out", default=None, help="persist raw records as JSON here")

    protocols = sub.add_parser(
        "protocols", help="list registered protocols, adversaries, policies, scenarios"
    )
    protocols.add_argument("--verbose", action="store_true", help="include descriptions")

    report = sub.add_parser(
        "report", help="run the report sections and generate EXPERIMENTS.md"
    )
    report.add_argument(
        "--sections",
        type=_csv_strs,
        default=None,
        help="comma-separated section names (default: all, in document order)",
    )
    grid = report.add_mutually_exclusive_group()
    grid.add_argument(
        "--quick", action="store_true", default=True,
        help="small CI-sized grids (the default)",
    )
    grid.add_argument(
        "--full", dest="quick", action="store_false", help="full grids, more seeds"
    )
    report.add_argument(
        "-o", "--out", default="EXPERIMENTS.md",
        help="output path ('-' prints to stdout; default: EXPERIMENTS.md)",
    )
    report.add_argument(
        "--store", default=None, metavar="PATH",
        help="serve each section's already-computed records from the "
             "content-addressed result store at PATH and flush fresh ones back",
    )
    report.add_argument("--jobs", type=int, default=None, help="worker processes per sweep")
    report.add_argument(
        "--timings", action="store_true",
        help="add git commit + wall-clock to the provenance header "
             "(volatile: breaks the byte-identical contract the CI check relies on)",
    )
    report.add_argument("--list", action="store_true", help="list sections and exit")

    registries = sub.add_parser(
        "registries", help="render the auto-generated registry reference"
    )
    registries.add_argument(
        "-o", "--out", default="REGISTRIES.md",
        help="output path ('-' prints to stdout; default: REGISTRIES.md)",
    )

    store = sub.add_parser(
        "store", help="inspect or garbage-collect the content-addressed result store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser("stats", help="record counts by fingerprint/protocol")
    store_stats.add_argument(
        "--store", default=None, metavar="PATH",
        help="store path (default: $REPRO_STORE or .repro-store.sqlite)",
    )
    store_prune = store_sub.add_parser("prune", help="delete records by code fingerprint")
    store_prune.add_argument(
        "--store", default=None, metavar="PATH",
        help="store path (default: $REPRO_STORE or .repro-store.sqlite)",
    )
    prune_what = store_prune.add_mutually_exclusive_group(required=True)
    prune_what.add_argument(
        "--fingerprint", default=None, metavar="FP",
        help="delete exactly this code fingerprint's records",
    )
    prune_what.add_argument(
        "--keep-current", action="store_true",
        help="delete every record NOT matching the current code fingerprint",
    )

    serve = sub.add_parser(
        "serve", help="run the experiment service (stdlib HTTP; prints the address it bound)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000, help="0 picks an ephemeral port")
    serve.add_argument(
        "--store", default=None, metavar="PATH",
        help="result store path (default: $REPRO_STORE or .repro-store.sqlite)",
    )
    serve.add_argument(
        "--jobs", type=int, default=None, help="worker processes per sweep"
    )

    bench = sub.add_parser(
        "bench", help="run the repo benchmark (BENCHMARK.json) and print its end-to-end table"
    )
    bench.add_argument("--out", default="BENCH_kernel.json", help="the trajectory file")
    bench.add_argument(
        "--update", action="store_true",
        help="append the run as one generation under --out's 'trajectory', "
             "keyed by the commit measured; without it nothing is written",
    )
    bench.add_argument(
        "--verify-provenance", action="store_true",
        help="don't run anything; assert the newest generation in --out was "
             "measured at the checked-out HEAD (the CI perf-job guard)",
    )

    equivalence = sub.add_parser(
        "equivalence",
        help="check the vectorized backend against the message kernel "
             "(bit-exact at small n, cross-seed CI overlap at large n)",
    )
    equivalence.add_argument(
        "--mode", default="exact", choices=["exact", "statistical"],
        help="'exact' demands identical results per seed; 'statistical' "
             "compares cross-seed metric CIs (default: exact)",
    )
    equivalence.add_argument(
        "--ns", type=_csv_ints, default=None,
        help="system sizes (default: 48,64 exact; 4096,10000 statistical)",
    )
    equivalence.add_argument(
        "--seeds", type=int, default=None,
        help="number of seeds 0..k-1 (default: 2 exact; 10 statistical)",
    )
    equivalence.add_argument(
        "--adversaries", type=_csv_strs, default=None,
        help="adversaries for exact mode (default: all vectorized-capable); "
             "statistical mode uses the first entry only (default: none)",
    )

    return parser


def cmd_run(args: argparse.Namespace) -> int:
    try:
        _apply_trace_dir(args)
        spec = _from_args(ExperimentSpec, args)
        result = spec.run()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_table([run_result_row(result)], title=f"experiment {spec.key}"))
    if result.extras:
        print("extras: " + ", ".join(f"{k}={v}" for k, v in sorted(result.extras.items())))
    if result.trace is not None:
        events = result.trace.get("events", {})
        print("trace events: " + ", ".join(f"{k}={v}" for k, v in sorted(events.items())))
        full = result.trace.get("full")
        if full and full.get("jsonl_path"):
            print(f"trace JSONL written to {full['jsonl_path']}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.dist import DistExecutor, DistributedSweepError
    from repro.store import StoreError, resolve_store
    from repro.store.keys import spec_key

    if not args.ns:
        print("error: --ns must name at least one system size", file=sys.stderr)
        return 2
    out = args.out
    if args.resume and out is None:
        out = args.resume
    store = None
    try:
        _apply_trace_dir(args)
        plan = _from_args(ExperimentPlan, args)
        store = resolve_store(args.store, args.no_store)
        seed_records = None
        if args.resume and os.path.exists(args.resume):
            # An interrupted sweep may leave the resume file empty or
            # truncated mid-JSON; that means "no prior records", not a
            # fatal error — warn and run the full plan.
            try:
                loaded = SweepResult.load_records(args.resume)
            except json.JSONDecodeError as exc:
                print(
                    f"warning: resume file {args.resume} is empty or "
                    f"truncated ({exc}); seeding 0/{len(plan)} records",
                    file=sys.stderr,
                )
                loaded = []
            seed_records = {
                spec_key(record.spec): record for record in loaded
            }
            print(
                f"resume: seeding {len(seed_records)}/{len(plan)} records "
                f"from {args.resume}"
            )
        executor = None
        if args.distributed:
            executor = DistExecutor(args.distributed, lease_timeout=args.lease_timeout)
        result = SweepRunner(plan, jobs=args.jobs).run(
            store=store, seed_records=seed_records, executor=executor
        )
        if out:
            result.save(out, canonical=args.canonical)
    except (ValueError, StoreError, DistributedSweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if store is not None:
            store.close()
    total = len(result.records)
    if store is not None and seed_records:
        # Both sources were live: one consolidated line instead of a
        # double-counting "served from store" that hides resume hits.
        served = (
            f", served {result.served_from_store}/{total} "
            f"(store {result.served_from_store - result.served_from_resume}, "
            f"resume {result.served_from_resume})"
        )
    elif store is not None or seed_records:
        served = f", {result.served_from_store}/{total} served from store"
    else:
        served = ""
    workers_label = "distributed workers" if args.distributed else "workers"
    title = (
        f"sweep of {total} experiments "
        f"({result.jobs} {workers_label}, {result.total_seconds:.1f}s{served})"
    )
    print(format_table(result.rows(), title=title))
    if out:
        print(f"records written to {out}")
    return 0


def cmd_dist_worker(args: argparse.Namespace) -> int:
    from repro.dist import ProtocolError, WorkerRejectedError, run_worker

    try:
        executed = run_worker(
            args.address,
            worker_id=args.id,
            poll_interval=args.poll,
            max_claims=args.max_claims,
        )
    except WorkerRejectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolError, OSError, ValueError) as exc:
        print(f"error: cannot work against {args.address}: {exc}", file=sys.stderr)
        return 2
    print(f"dist-worker done: executed {executed} shard(s)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if not args.ns:
        print("error: --ns must name at least one system size", file=sys.stderr)
        return 2
    try:
        plan = _from_args(ExperimentPlan, args, adversaries=(args.adversary,))
        result = run_sweep(plan.relaxed(), jobs=args.jobs, out=args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    title = (
        f"protocol comparison over ns={','.join(map(str, args.ns))} "
        f"({len(args.seeds)} seed(s); bits/rounds averaged, max_node_bits worst-case)"
    )
    print(format_table(compare_rows(result.records), title=title))
    if args.out:
        print(f"records written to {args.out}")
    return 0


def cmd_protocols(args: argparse.Namespace) -> int:
    from repro.adversary.registry import ADVERSARIES
    from repro.net.asynchronous import DELAY_POLICIES
    from repro.protocols import PROTOCOLS, SCENARIOS, get_protocol

    rows = []
    for name in PROTOCOLS.names():
        adapter = get_protocol(name)
        rows.append(
            {
                "protocol": name,
                "trace": "yes" if adapter.supports_trace else "no",
                "backends": ",".join(adapter.supports_backends),
            }
        )
    print(format_table(rows, title="registered protocols"))
    if args.verbose:
        for name in PROTOCOLS.names():
            adapter = get_protocol(name)
            print(f"  {name:16s} {adapter.description}")
            print(f"  {'':16s} params: {', '.join(sorted((*adapter.knobs, *adapter.params)))}")
    print(f"adversaries    : {', '.join(ADVERSARIES.names())}")
    print(f"delay policies : {', '.join(DELAY_POLICIES.names())}")
    print(f"scenarios      : {', '.join(SCENARIOS.names())}")
    return 0


def _write_document(text: str, out: str, label: str) -> None:
    """Write a generated document to ``out``, or to stdout for ``"-"``."""
    if out == "-":
        print(text, end="")
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"{label} written to {out}")


def cmd_report(args: argparse.Namespace) -> int:
    from repro.report import ReportBuilder, get_report_section, list_report_sections

    if args.list:
        for name in list_report_sections():
            section = get_report_section(name)
            print(f"{name:18s} {section.title}")
        return 0
    from repro.store import StoreError

    try:
        builder = ReportBuilder(
            sections=args.sections,
            quick=args.quick,
            jobs=args.jobs,
            store_path=args.store,
            include_volatile=args.timings,
        )
        text = builder.build()
    except (ValueError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_document(text, args.out, "report")
    return 0


def cmd_registries(args: argparse.Namespace) -> int:
    from repro.report import render_registries

    _write_document(render_registries(), args.out, "registry reference")
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    from repro.store import ResultStore, StoreError, default_store_path

    path = args.store or default_store_path()
    try:
        store = ResultStore(path)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.store_command == "stats":
            print(json.dumps(store.stats(), indent=1))
            return 0
        removed = store.prune(
            fingerprint=args.fingerprint, keep_current=args.keep_current
        )
        what = (
            f"fingerprints other than {store.fingerprint}"
            if args.keep_current
            else f"fingerprint {args.fingerprint}"
        )
        print(f"pruned {removed} record(s) of {what} from {path}")
        return 0
    finally:
        store.close()


def cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from repro.service import make_server
    from repro.store import StoreError

    try:
        server = make_server(args.store, args.jobs, host=args.host, port=args.port)
    except (StoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    logging.basicConfig(level=logging.INFO, format="%(message)s")  # the access log
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):  # both end in server.close()
        signal.signal(signum, lambda *_: stop.set())
    with server:
        host, port = server.server_address[:2]
        print(f"serving on http://{host}:{port} (store: {server.app.store.path})", flush=True)
        stop.wait()
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import BenchError, run_bench, verify_provenance

    try:
        if args.verify_provenance:
            commit = verify_provenance(args.out)
            print(f"{args.out}: provenance OK (measured at {commit})")
            return 0
        entry = run_bench(args.out, update=args.update)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, BenchError) else 1
    rows = [
        {"workload": name, **run["end_to_end"], "attempted": run["attempted"], "failed": run["failed"]}
        for name, run in entry["workloads"].items()
    ]
    print(format_table(rows, title=f"end-to-end metrics at {entry['commit']}"))
    if args.update:
        print(f"generation {entry['commit']} written to {args.out}")
    return 0


def cmd_equivalence(args: argparse.Namespace) -> int:
    from repro.analysis.equivalence import (
        EXACT_ADVERSARIES,
        check_exact,
        check_statistical,
    )

    if args.mode == "exact":
        ns = args.ns or [48, 64]
        seeds = range(args.seeds if args.seeds is not None else 2)
        adversaries = args.adversaries or list(EXACT_ADVERSARIES)
        report = check_exact(ns=ns, adversaries=adversaries, seeds=list(seeds))
        if report.ok:
            print(f"exact equivalence OK: {report.cases} cases bit-identical")
            return 0
        for line in report.mismatches:
            print(f"MISMATCH {line}", file=sys.stderr)
        print(
            f"error: {len(report.mismatches)} mismatch(es) in {report.cases} cases",
            file=sys.stderr,
        )
        return 1
    ns = args.ns or [4096, 10_000]
    seeds = range(args.seeds if args.seeds is not None else 10)
    adversary = (args.adversaries or ["none"])[0]
    report = check_statistical(ns=ns, adversary=adversary, seeds=list(seeds))
    rows = [
        {
            "n": n,
            "metric": metric,
            "message": a,
            "vectorized": b,
            "ci_overlap": "yes" if overlap else "NO",
        }
        for (n, metric), (a, b, overlap) in sorted(report.verdicts.items())
    ]
    print(format_table(rows, title=f"statistical equivalence ({report.seeds} seeds)"))
    if report.ok:
        print("statistical equivalence OK: all metric CIs overlap")
        return 0
    for line in report.failures():
        print(f"DISJOINT {line}", file=sys.stderr)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "dist-worker":
        return cmd_dist_worker(args)
    if args.command == "compare":
        return cmd_compare(args)
    if args.command == "protocols":
        return cmd_protocols(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "registries":
        return cmd_registries(args)
    if args.command == "store":
        return cmd_store(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "equivalence":
        return cmd_equivalence(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
