"""Outside-in tracing: timing wrappers installed on the layers' callables.

Nothing under ``src/`` knows about this file.  :class:`Tracer` replaces the
callables listed in :data:`TARGETS` with timing wrappers — on *classes*, before
any node or simulator is built (the kernel captures ``node.on_message`` at
construction), and on the *importing* module's binding for from-imports
(``repro.vec.tables.first_distinct_rows``, not only ``repro.vec.hashing``) —
and removes every one of them again in :meth:`Tracer.uninstall`.

Two kinds of span:

* **coarse spans** (:meth:`Tracer.span`: workload, cycle, op)
  are recorded individually as ``{name, start, end, parent, op_id, self_s}``;
* **hot boundaries** (per message, per lookup) only aggregate into
  ``{calls, total_s, self_s, units}`` per layer, collected per op.

Both share one explicit stack, so a span's self time is its duration minus
the part of it covered by child spans, and the self times of everything
under a root sum to the root's duration exactly.  The wrapper's own cost
lands in its *parent's* self time, which is why layer shares from a traced
run are read next to ``bench.trace_overhead_ratio``.

Everything stays in memory; the caller writes it out when the run ends.
Only the installing thread is traced (the dist coordinator's handler threads
call through untimed), so the stack needs no lock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: marker attribute carried by every installed wrapper (the removal test
#: scans for it)
MARK = "__bench_traced__"

_ADVERSARY_HOOKS = ("on_start", "on_round", "on_deliver", "observe_send", "delay_for")
_METRICS_METHODS = (
    "record_send", "record_send_many", "record_delivery", "record_delivery_batch",
    "record_decision", "record_rounds", "record_span", "summary",
)
_SCHEDULERS = (
    "repro.net.sync:SynchronousSimulator",
    "repro.net.asynchronous:AsynchronousSimulator",
)


def _rows(result) -> int:
    return int(result.shape[0])


def _nbytes(result) -> int:
    return int(result.nbytes)


def _targets() -> List[tuple]:
    """``(layer, "module:dotted.attr", units_fn, subclasses)`` rows.

    ``units_fn(result)`` adds to the layer's ``units`` counter (rows hashed,
    bytes unpacked); ``subclasses=True`` wraps the attribute on the named
    class and on every subclass that overrides it.
    """
    t: List[tuple] = []

    def add(layer, path, units=None, subclasses=False):
        t.append((layer, path, units, subclasses))

    # -- core ------------------------------------------------------------
    for name in ("on_start", "on_round", "on_message"):
        add("core.node", f"repro.core.aer:AERNode.{name}")
    add("core.scenario", "repro.protocols.builtin:make_scenario_by_name")
    add("core.scenario", "repro.protocols.scenarios:make_scenario_by_name")
    add("core.build_nodes", "repro.runner:build_aer_nodes")
    add("core.build_nodes", "repro.core.scenario:build_aer_nodes")
    # -- net -------------------------------------------------------------
    add("net.setup", "repro.runner:run_aer")
    add("net.deliver", "repro.net.kernel:EventKernel.deliver_batch")
    for scheduler in _SCHEDULERS:
        add("net.dispatch", f"{scheduler}.dispatch_send")
        add("net.dispatch", f"{scheduler}.dispatch_send_many")
        add("net.loop", f"{scheduler}.run")
    for name in _METRICS_METHODS:
        add("net.metrics", f"repro.net.metrics:MetricsCollector.{name}")
    # -- samplers ----------------------------------------------------------
    for name in ("table", "quorum", "contains", "majority_threshold", "inverse"):
        add("samplers.lookup", f"repro.samplers.hash_sampler:QuorumSampler.{name}")
    for name in ("quorum", "members", "contains", "threshold", "inverse_of"):
        add("samplers.lookup", f"repro.samplers.tables:QuorumTable.{name}")
    for name in ("entry", "poll_list", "contains", "majority_threshold"):
        add("samplers.lookup", f"repro.samplers.poll_sampler:PollSampler.{name}")
    add("samplers.build", "repro.samplers.tables:QuorumTable._fill", lambda _r: 1)
    add("samplers.build", "repro.samplers.tables:QuorumTable.build_full")
    # -- adversary ---------------------------------------------------------
    add("adversary", "repro.runner:make_adversary")
    for name in _ADVERSARY_HOOKS:
        add("adversary", f"repro.adversary.base:Adversary.{name}", None, True)
    # -- vec -----------------------------------------------------------------
    for module in ("repro.vec.hashing", "repro.vec.tables"):
        add("vec.hashing.rows", f"{module}:first_distinct_rows", _rows)
        add("vec.hashing.digest", f"{module}:batch_digest_mod")
    for name in ("ensure_rows", "ensure_all"):
        add("vec.tables.build", f"repro.vec.tables:VecSamplerTables.{name}")
    for name in ("rows", "iter_rows", "full"):
        add("vec.tables.gather", f"repro.vec.tables:VecSamplerTables.{name}")
    add("vec.tables.poll_rows", "repro.vec.tables:VecSamplerTables.poll_rows")
    for module in ("repro.vec.bitpack", "repro.vec.tables"):
        add("vec.bitpack.pack", f"{module}:pack_rows")
        add("vec.bitpack.unpack", f"{module}:unpack_rows", _nbytes)
    for name in ("set_rows", "fill_rows", "set_true"):
        add("vec.bitpack.pack", f"repro.vec.bitpack:BitMatrix.{name}")
    add("vec.bitpack.unpack", "repro.vec.bitpack:BitMatrix.rows_bool", _nbytes)
    for module in ("repro.vec.engine", "repro.vec"):
        add("vec.engine", f"{module}:run_aer_vectorized")
    # -- protocols / experiments ------------------------------------------
    add("protocols.adapter", "repro.protocols.base:ProtocolAdapter.run", None, True)
    add("protocols.adapter", "repro.experiments.plan:ExperimentSpec.run")
    for module in ("repro.experiments.sweep", "repro.experiments", "repro.api"):
        add("protocols.adapter", f"{module}:execute_spec")
    add("experiments.plan.expand", "repro.experiments.plan:ExperimentPlan.specs")
    add("experiments.plan.validate", "repro.experiments.plan:ExperimentSpec.validate")
    add("experiments.sweep", "repro.experiments.sweep:SweepRunner.run")
    add("experiments.sweep.save", "repro.experiments.sweep:SweepResult.save")
    add("experiments.sweep.load", "repro.experiments.sweep:SweepResult.load")
    # -- store -------------------------------------------------------------
    add("store.put", "repro.store.sqlite_store:ResultStore.put")
    add("store.put_many", "repro.store.sqlite_store:ResultStore.put_many")
    add("store.get_many", "repro.store.sqlite_store:ResultStore.get_many")
    for module in ("repro.store.keys", "repro.store.sqlite_store", "repro.store", "repro.api"):
        add("store.spec_key", f"{module}:spec_key")
    # -- dist / report -----------------------------------------------------
    for module in ("repro.dist.launch", "repro.dist", "repro.api"):
        add("dist", f"{module}:run_distributed_sweep")
    add("report.render", "repro.report.base:ReportSection.render", None, True)
    add("report.build", "repro.report.build:ReportBuilder.build")
    add("report.build", "repro.report.build:ReportBuilder.build_sections")
    return t


TARGETS = _targets()

#: every layer a wrapper can report under
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


class Tracer:
    """An explicit span stack plus the install/uninstall bookkeeping."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: child-time accumulators of the open spans (coarse and hot alike)
        self._stack: List[float] = []
        #: per-layer ``[calls, total_s, self_s, units]`` of the collecting span
        self._cells: Dict[str, List[float]] = {layer: [0, 0.0, 0.0, 0] for layer in LAYERS}
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[int, Callable] = {}
        #: targets that no longer exist in the program (reported, never fatal:
        #: the benchmark must keep running when a private helper is renamed)
        self.missing: List[str] = []
        self._thread = threading.get_ident()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, op_id: Optional[str] = None, collect: bool = False) -> Iterator[dict]:
        """Record one coarse span; ``collect=True`` attaches the per-layer
        aggregates of the hot boundaries crossed while it was open."""
        record: Dict[str, object] = {
            "name": name,
            "op_id": op_id,
            "parent": self._open[-1] if self._open else None,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._open.append(index)
        if collect:
            for cell in self._cells.values():
                cell[0], cell[1], cell[2], cell[3] = 0, 0.0, 0.0, 0
        self._stack.append(0.0)
        start = self.clock()
        try:
            yield record
        finally:
            end = self.clock()
            child = self._stack.pop()
            self._open.pop()
            record["start"], record["end"] = start, end
            record["self_s"] = (end - start) - child
            if self._stack:
                self._stack[-1] += end - start
            if collect:
                record["layers"] = {
                    layer: {"calls": c[0], "total_s": c[1], "self_s": c[2], "units": c[3]}
                    for layer, c in self._cells.items()
                    if c[0]
                }

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, func: Callable, layer: str, units: Optional[Callable]) -> Callable:
        cached = self._wrappers.get(id(func))
        if cached is not None:
            return cached
        cell = self._cells[layer]
        stack = self._stack
        clock = self.clock
        thread = self._thread
        get_ident = threading.get_ident

        def leave(t0: float) -> None:
            dt = clock() - t0
            child = stack.pop()
            cell[0] += 1
            cell[1] += dt
            cell[2] += dt - child
            if stack:
                stack[-1] += dt

        if inspect.isgeneratorfunction(func):
            # time each resumption: the work of a generator happens inside
            # next(), in the consumer's frame, not in the call that made it
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if get_ident() != thread:
                    yield from func(*args, **kwargs)
                    return
                iterator = func(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        leave(t0)
                    yield item
        elif units is None:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if get_ident() != thread:
                    return func(*args, **kwargs)
                stack.append(0.0)
                t0 = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    leave(t0)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if get_ident() != thread:
                    return func(*args, **kwargs)
                stack.append(0.0)
                t0 = clock()
                try:
                    result = func(*args, **kwargs)
                    cell[3] += units(result)
                    return result
                finally:
                    leave(t0)

        setattr(wrapper, MARK, True)
        self._wrappers[id(func)] = wrapper
        return wrapper

    def _replace(self, owner: object, name: str, layer: str, units) -> None:
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, staticmethod):
            new: object = staticmethod(self._wrap(raw.__func__, layer, units))
        elif inspect.isfunction(raw):
            new = self._wrap(raw, layer, units)
        else:
            raise TypeError(f"cannot trace {owner!r}.{name}: {type(raw).__name__}")
        self._installed.append((owner, name, raw))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every target that exists; remember the originals."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        # Import everything first: a module imported *after* a function was
        # replaced would bind the wrapper with its from-imports and keep it
        # past uninstall().
        importlib.import_module("repro.api")
        resolved = []
        for layer, path, units, subclasses in TARGETS:
            module_name, _, dotted = path.partition(":")
            try:
                owner: object = importlib.import_module(module_name)
                *parents, name = dotted.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                owners = _with_subclasses(owner) if subclasses else [owner]
                owners = [o for o in owners if name in vars(o)]
                if not owners:
                    raise AttributeError(name)
            except (ImportError, AttributeError):
                self.missing.append(path)
                continue
            resolved.append((owners, name, layer, units))
        for owners, name, layer, units in resolved:
            for target in owners:
                self._replace(target, name, layer, units)

    def uninstall(self) -> None:
        """Put every original back (reverse order; idempotent)."""
        while self._installed:
            owner, name, raw = self._installed.pop()
            setattr(owner, name, raw)
        self._wrappers.clear()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _with_subclasses(cls: type) -> List[type]:
    found, queue = [], [cls]
    while queue:
        current = queue.pop()
        if current not in found:
            found.append(current)
            queue.extend(current.__subclasses__())
    return found


def find_wrapped() -> List[str]:
    """Every wrapper still reachable from a ``repro`` module or one of its
    classes, as ``module.attr`` (empty before install and after uninstall)."""
    left = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for name, value in vars(module).items():
            if getattr(value, MARK, False):
                left.append(f"{module_name}.{name}")
            elif isinstance(value, type) and value.__module__ == module_name:
                left.extend(
                    f"{module_name}.{value.__name__}.{attr}"
                    for attr, raw in vars(value).items()
                    if getattr(getattr(raw, "__func__", raw), MARK, False)
                )
    return left
