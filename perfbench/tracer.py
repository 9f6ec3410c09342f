"""Per-layer attribution from outside the program.

:class:`Tracer` wraps public entry points of the program's modules -- from
the benchmark process, without touching the program's source -- and records

* a **span** (name, start, end, parent, thread, operation id) per call of a
  layer boundary called at most ~1000 times per operation, and
* an **aggregate** (count plus total seconds) for hotter calls, whose per-call
  span would distort what it measures, or only a count for the hottest.

Spans are kept in memory and written out once at the end.  A span's self
time is its duration minus the time covered by its child spans and by the
outermost aggregated calls made inside it.

Operations run one at a time, so every call made while an operation is open
-- in any thread of this process -- belongs to it.  Work done in other
processes (spool workers) is seen only through the calls that wait for it.

A *planted delay* turns one wrapper into a fixed slowdown of that layer; the
attribution self-test uses it to prove a slowed layer shows up under its own
name.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

SPAN = "span"
AGGREGATE = "aggregate"
#: Count only, no clock reads: for calls so frequent that timing each one
#: would inflate the layer that makes them.
COUNT = "count"


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "op", "child", "attrs")

    def __init__(self, name, start, parent, thread, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.op = op
        self.child = 0.0
        self.attrs = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self, record: bool = True):
        #: ``False`` installs only planted delays (untimed-run slowdowns).
        self.record = record
        self.spans: list[Span] = []
        #: ``{(op, name): [count, seconds]}``.
        self.aggregates: dict[tuple, list] = {}
        self.op = None
        self.delays: dict[str, float] = {}
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- records
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.agg_depth = 0
        return stack

    def _enter(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            name, time.perf_counter(), stack[-1] if stack else None,
            threading.get_ident(), self.op,
        )
        stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)

    def _aggregate(self, name: str, seconds: float, outermost: bool) -> None:
        key = (self.op, name)
        with self._lock:
            entry = self.aggregates.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds
        stack = self._stack()
        if outermost and stack:
            stack[-1].child += seconds

    # -------------------------------------------------------------- wrapping
    def _wrapper(self, original, name: str, mode: str, on_result=None):
        delay = self.delays.get(name, 0.0)
        tracer = self

        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def gen_wrapper(*args, **kwargs):
                span = tracer._enter(name)
                try:
                    if delay:
                        time.sleep(delay)
                    for event in original(*args, **kwargs):
                        if on_result is not None:
                            on_result(span, event)
                        yield event
                finally:
                    tracer._exit(span)

            return gen_wrapper

        if mode == SPAN:
            @functools.wraps(original)
            def span_wrapper(*args, **kwargs):
                span = tracer._enter(name)
                try:
                    if delay:
                        time.sleep(delay)
                    result = original(*args, **kwargs)
                    if on_result is not None:
                        on_result(span, result)
                    return result
                finally:
                    tracer._exit(span)

            return span_wrapper

        if mode == COUNT:
            @functools.wraps(original)
            def count_wrapper(*args, **kwargs):
                key = (tracer.op, name)
                entry = tracer.aggregates.get(key)
                if entry is None:
                    entry = tracer.aggregates.setdefault(key, [0, 0.0])
                entry[0] += 1
                return original(*args, **kwargs)

            return count_wrapper

        @functools.wraps(original)
        def aggregate_wrapper(*args, **kwargs):
            tracer._stack()
            local = tracer._local
            local.agg_depth += 1
            t0 = time.perf_counter()
            try:
                if delay:
                    time.sleep(delay)
                result = original(*args, **kwargs)
            finally:
                local.agg_depth -= 1
                tracer._aggregate(name, time.perf_counter() - t0, local.agg_depth == 0)
            if on_result is not None:
                on_result(None, result)
            return result

        return aggregate_wrapper

    def _delay_only(self, original, name: str):
        delay = self.delays[name]

        @functools.wraps(original)
        def slowed(*args, **kwargs):
            time.sleep(delay)
            return original(*args, **kwargs)

        return slowed

    def _make(self, original, name, mode, on_result):
        if self.record:
            return self._wrapper(original, name, mode, on_result)
        if name in self.delays:
            return self._delay_only(original, name)
        return None

    def wrap_method(self, cls, attr: str, name: str, mode: str = SPAN, on_result=None):
        """Wrap ``cls.attr`` (plain, class- or static method)."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(name)
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        wrapped = self._make(func, name, mode, on_result)
        if wrapped is None:
            return
        setattr(cls, attr, kind(wrapped) if kind else wrapped)
        self._patches.append((cls, attr, raw))

    def wrap_function(self, module, attr: str, name: str, mode: str = SPAN, on_result=None):
        """Wrap a module-level function at every ``repro`` binding of it.

        Modules that imported the function by name hold their own binding,
        so each one is patched; registered solver objects carrying it as
        ``factor_batched`` are patched too.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapped = self._make(original, name, mode, on_result)
        if wrapped is None:
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, original))
        from repro.solvers.registry import available_solvers, get_solver

        for solver_name in available_solvers():
            solver = get_solver(solver_name)
            if getattr(solver, "factor_batched", None) is original:
                object.__setattr__(solver, "factor_batched", wrapped)
                self._patches.append((solver, "factor_batched", original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, type) or inspect.ismodule(owner):
                setattr(owner, attr, original)
            else:
                object.__setattr__(owner, attr, original)
        self._patches.clear()

    # ----------------------------------------------------------- operations
    def begin_op(self, op_id) -> None:
        self.op = op_id

    def end_op(self) -> None:
        self.op = None

    # ------------------------------------------------------------- queries
    def op_spans(self, op_id) -> list[Span]:
        return [s for s in self.spans if s.op == op_id]

    def aggregate(self, op_id, name: str) -> tuple[int, float]:
        count, seconds = self.aggregates.get((op_id, name), (0, 0.0))
        return count, seconds

    def dump(self, path) -> None:
        """Write every span and aggregate as JSON lines."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": ids.get(id(s.parent)),
                    "thread": s.thread,
                    "op": s.op,
                    "self": s.self_seconds,
                    "attrs": s.attrs,
                }) + "\n")
            for (op, name), (count, seconds) in sorted(
                self.aggregates.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
            ):
                handle.write(json.dumps(
                    {"aggregate": name, "op": op, "count": count, "seconds": seconds}
                ) + "\n")


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark attributes time to."""
    import repro.core.solver as solver_mod
    import repro.engines.batched as batched
    import repro.runner as runner
    import repro.solvers.prefactor as prefactor
    from repro.campaign.distributed.coordinator import DistributedBackend
    from repro.campaign.store import ResultStore
    from repro.core.assembly import ElementMatrices
    from repro.core.factor_cache import FactorCache
    from repro.core.sweep import SweepExecutor
    from repro.engines.registry import available_engines, get_engine
    from repro.fem.element import HexElementFactors
    from repro.service.client import ServiceClient
    from repro.service.daemon import ServiceDaemon

    def count_lookup(_span, entry):
        if entry is None:
            tracer._aggregate("factor_cache.miss", 0.0, False)

    def reported_wall(span, event):
        _index, result, meta = event
        if meta.get("worker_id") != "store":
            span.attrs = span.attrs or {"worker_wall_s": 0.0, "executed": 0}
            span.attrs["worker_wall_s"] += result.wall_seconds
            span.attrs["executed"] += 1

    def bytes_written(span, path):
        span.attrs = {"bytes": path.stat().st_size}

    # Patches the package binding too: the workloads call ``repro.run``.
    tracer.wrap_function(runner, "run", "repro.run")
    tracer.wrap_method(solver_mod.TransportSolver, "__init__", "build")
    tracer.wrap_function(solver_mod, "build_snap_mesh", "build.mesh")
    tracer.wrap_method(HexElementFactors, "build", "build.fem")
    tracer.wrap_method(ElementMatrices, "build", "build.fem")
    tracer.wrap_function(solver_mod, "build_sweep_schedule", "build.sweepsched")
    tracer.wrap_method(SweepExecutor, "sweep", "sweep")
    tracer.wrap_method(SweepExecutor, "_boundary_leakage", "sweep.leakage", AGGREGATE)
    tracer.wrap_method(
        ElementMatrices, "outgoing_partial_current", "sweep.partial_current", COUNT
    )
    seen = set()
    for engine_name in available_engines():
        cls = type(get_engine(engine_name))
        if cls not in seen:
            seen.add(cls)
            tracer.wrap_method(cls, "sweep_angle", "engines.sweep_angle")
    tracer.wrap_function(batched, "assemble_bucket_matrices", "engines.assemble_matrices")
    tracer.wrap_function(batched, "interior_upwind_couplings", "engines.upwind_couplings")
    tracer.wrap_function(prefactor, "batched_gaussian_lu_factor", "solvers.lu_factor")
    tracer.wrap_method(FactorCache, "get", "factor_cache.get", AGGREGATE, count_lookup)
    tracer.wrap_method(ResultStore, "contains", "store.contains")
    tracer.wrap_method(ResultStore, "get", "store.get")
    tracer.wrap_method(ResultStore, "put", "store.put", on_result=bytes_written)
    tracer.wrap_method(
        DistributedBackend, "execute_iter", "distributed.execute", on_result=reported_wall
    )
    tracer.wrap_method(ServiceDaemon, "submit", "service.daemon_submit")
    tracer.wrap_method(ServiceClient, "submit", "service.http_submit")
    tracer.wrap_method(ServiceClient, "job", "service.http_poll", AGGREGATE)
    return tracer
