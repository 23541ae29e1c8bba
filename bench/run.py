#!/usr/bin/env python3
"""The repo benchmark.  See README.md next to this file.

Driver protocol (one workload, one process, last stdout line is the result)::

    python3 bench/run.py --workload msg_sync --seed 0 --seconds 20 --trace 0

Everything (each workload untraced, then traced, each in a fresh subprocess)::

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds N] [--smoke]

Other modes::

    python3 bench/run.py --compare A B        # two result files or directories
    python3 bench/run.py --update-expected    # re-pin expected.json at seed 0
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402  (stdlib only; safe before the hermetic re-exec)

WORKLOAD_NAMES = ("msg_sync", "msg_async", "vec_scale", "plan_report")
DEFAULT_SECONDS = 20
SETUP_REPEATS = 5
#: cycles pinned per workload by --update-expected (more than a default run completes)
EXPECTED_CYCLES = 10


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload; without --trace also a comma-separated list, "
                        "run in that order (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed: changes every generated input")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="time budget of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
    parser.add_argument("--cycles", type=int, help="run exactly this many (traced: traced) cycles, ignoring --seconds")
    parser.add_argument("--smoke", action="store_true", help="small n, one cycle: a functional check (a few seconds per run)")
    parser.add_argument("--expected", default=str(harness.EXPECTED_PATH), help="pinned statistics file")
    parser.add_argument("--update-expected", action="store_true", help="rewrite the pins instead of checking them")
    parser.add_argument("--out", default=str(harness.OUT_DIR / "result.json"), help="result file of an all-workloads run")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="apply the bounds to two result files/directories")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def _git_commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=harness.ROOT,
                              capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=harness.ROOT,
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def _load_expected(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"seed": 0, "ops": {}}


def run_workload(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    try:
        import numpy
        import metrics
        import workloads
        from tracing import Tracer
    except ImportError as exc:
        print(f"error: cannot import the program under test ({exc}); "
              f"run from a checkout that has src/repro", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    name = args.workload
    trace = bool(args.trace)
    expected = _load_expected(args.expected)
    run = harness.Run(args.seed, args.smoke, expected["ops"].get(name, {}), args.update_expected)
    workload = workloads.WORKLOADS[name](run)
    fixed_cycles = 1 if args.smoke and args.cycles is None else args.cycles
    tracer = None
    extras: dict = {}
    try:
        # One set-up repetition = the program's import in a fresh interpreter
        # plus the workload's own set-up.  (Our own import happened once and
        # cannot be repeated in-process; the probe stands in for it, so work
        # moved to import time shows in every repetition.)  The first
        # repetition precedes the timed section, the others follow one cycle
        # each: the sandbox slows down for seconds at a time, and repetitions
        # spread over the run do not all fall into the same slow stretch.
        setup_times, probe_times = [], []

        def set_up() -> None:
            t0 = time.perf_counter()
            probe = harness.run_python(["-c", "import repro.api"])
            if probe.returncode != 0:
                raise RuntimeError(f"import probe failed: {probe.stderr.strip()}")
            probe_times.append(time.perf_counter() - t0)
            workload.setup()
            setup_times.append(time.perf_counter() - t0)

        set_up()
        timed_start = time.perf_counter()
        done = 0

        def more() -> bool:
            if fixed_cycles is not None:
                return done < fixed_cycles
            # --seconds budgets the cycles; the interleaved set-ups do not count
            spent = time.perf_counter() - timed_start - sum(setup_times[1:])
            return done == 0 or spent < args.seconds

        def cycles(first: int) -> None:
            nonlocal done
            k = first
            while more():
                run.cycle = k
                if run.tracer is None:
                    workload.run_cycle(k)
                else:
                    with run.tracer.span("cycle", op_id=str(k)):
                        workload.run_cycle(k)
                k += 1
                done += 1
                # (not under the tracer: a pool forked now would inherit the wrappers)
                if run.tracer is None and len(setup_times) < SETUP_REPEATS:
                    set_up()

        if trace:
            # one untraced cycle first: the baseline of the overhead ratio and
            # the source of the counts and per-class medians
            workload.run_cycle(0)
            extras = workload.trace_extras()
            tracer = Tracer()
            with tracer.installed(), tracer.span("workload", op_id=name):
                run.tracer = tracer
                cycles(first=1)
                run.tracer = None
        else:
            cycles(first=0)
        while len(setup_times) < SETUP_REPEATS:
            set_up()
        setup_s = harness.median(setup_times)
        extras["import_s"] = harness.median(probe_times)
        wall_s = time.perf_counter() - timed_start
    finally:
        workload.teardown()
        run.close()

    attempted = len(run.samples)
    failed = sum(1 for s in run.samples if s.failures)
    info: dict = {}
    if trace:
        definitions = metrics.PER_LAYER
        values = metrics.per_layer(run, workload, extras)
    else:
        definitions = metrics.END_TO_END
        values = metrics.end_to_end(run, workload, setup_s)
        info = metrics.not_gated(run, workload, setup_s)

    op_ids = [s.op_id for s in run.samples]
    header = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": int(trace),
        "smoke": args.smoke, "git": _git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "import_s": import_s, "setup_repeats_s": setup_times, "wall_s": wall_s,
        "cycles": len(run.cycles(traced=trace)), "ops_attempted": attempted, "ops_failed": failed,
        "ops_per_class": collections.Counter(s.cls for s in run.samples),
        "latency_samples": len(run.select(workload.latency_classes, traced=trace)),
        "op_keys_sha256": hashlib.sha256("\n".join(op_ids).encode()).hexdigest()[:16],
        "first_op": op_ids[0] if op_ids else None,
        "not_gated": info,
    }
    detail = {"header": header, "metrics": values,
              "samples": [dataclasses.asdict(s) for s in run.samples]}
    with open(harness.OUT_DIR / f"run-{name}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        with open(harness.OUT_DIR / f"trace-{name}.json", "w", encoding="utf-8") as fh:
            json.dump({"header": header, "missing_targets": tracer.missing, "spans": tracer.spans}, fh, indent=1)
        for path in tracer.missing:
            print(f"warning: tracing target {path} no longer exists", file=sys.stderr)

    if args.update_expected:
        expected["ops"][name] = {s.op_id: s.stats for s in run.samples if s.stats and not s.traced}
        with open(args.expected, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")

    print(f"# {name} seed={args.seed} trace={int(trace)} cycles={header['cycles']} "
          f"ops={attempted} failed={failed} latency_samples={header['latency_samples']} "
          f"first_op={header['first_op']} keys={header['op_keys_sha256']}")
    for definition in definitions:
        print(f"{definition.name:45s} {values[definition.name]:.6g} {definition.unit}")
    for key, value in info.items():
        print(f"{key + ' (not gated)':45s} {value:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d.name: {"value": values[d.name], "unit": d.unit} for d in definitions},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# all workloads, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace, names) -> int:
    traces = [args.trace] if args.trace is not None else [0, 1]
    if args.update_expected:
        traces = [0]
    results: dict = {"workloads": {}}
    status = 0
    for name in names:
        for trace in traces:
            command = [
                str(BENCH_DIR / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
                "--expected", args.expected,
            ]
            if args.smoke:
                command.append("--smoke")
            if args.update_expected:
                command += ["--update-expected", "--cycles", str(EXPECTED_CYCLES)]
            elif args.cycles is not None:
                command += ["--cycles", str(args.cycles)]
            done = harness.run_python(command)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
            sys.stdout.flush()
            if done.returncode != 0:
                status = 1
            try:
                result = json.loads(lines[-1])
                with open(harness.OUT_DIR / f"run-{name}-trace{trace}.json", encoding="utf-8") as fh:
                    result["header"] = json.load(fh)["header"]
            except (IndexError, ValueError, OSError):
                print(f"error: {name} --trace {trace} printed no result (exit {done.returncode})", file=sys.stderr)
                status = 1
                continue
            results["workloads"].setdefault(name, {})["traced" if trace else "untraced"] = result
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(f"results written to {args.out}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        import compare
        return compare.main(args.compare[0], args.compare[1])
    names = args.workload.split(",") if args.workload else list(WORKLOAD_NAMES)
    unknown = [name for name in names if name not in WORKLOAD_NAMES]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r} (known: {', '.join(WORKLOAD_NAMES)})", file=sys.stderr)
        return 2
    if len(names) == 1 and args.workload and args.trace is not None:
        if os.environ.get("PYTHONHASHSEED") != "0" or os.environ.get("REPRO_CODE_FINGERPRINT") != harness.FINGERPRINT:
            # hash randomisation is fixed at interpreter start: start again, hermetically
            os.execve(sys.executable, [sys.executable, *sys.argv], harness.hermetic_env())
        return run_workload(args)
    return run_all(args, names)


if __name__ == "__main__":
    sys.exit(main())
