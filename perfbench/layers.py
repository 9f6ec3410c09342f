"""Per-layer metrics of a traced pass (the ``--trace 1`` output).

Most values are means per operation over the traced operations, counts
included; the warm-sweep, roofline and ``service.*_ms`` metrics are medians.
Layers an operation never enters report 0.  Which end-to-end metric each
layer should move, and on which workload, is tabulated in
``perfbench/README.md``.
"""

from __future__ import annotations

import statistics
import threading

from tracer import Tracer


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class _ModelCache:
    """Computed per-sweep work and roofline-model time of a spec."""

    def __init__(self):
        self._cache: dict = {}

    def __call__(self, spec) -> tuple[float, float, float]:
        key = (spec.nx, spec.ny, spec.nz, spec.order, spec.num_groups,
               spec.angles_per_octant, spec.max_twist)
        if key not in self._cache:
            from repro.perfmodel.schemes import paper_schemes
            from repro.perfmodel.simulator import SweepPerformanceModel
            from repro.perfmodel.workload import SweepWorkload

            work = SweepWorkload(order=spec.order, num_groups=spec.num_groups)
            angles = 8 * spec.angles_per_octant
            model = SweepPerformanceModel(spec.with_(num_inners=1, num_outers=1))
            best = model.best_scheme(paper_schemes(), threads=1)
            self._cache[key] = (
                work.sweep_flops(spec.num_cells, angles),
                work.sweep_bytes(spec.num_cells, angles),
                model.sweep_time(best, threads=1).seconds,
            )
        return self._cache[key]


def layer_metrics(
    tracer: Tracer,
    records: list[dict],
    untraced: list[dict],
    service_stats: dict | None = None,
    workers_spawned: float = 0.0,
) -> dict[str, float]:
    """Reduce spans and aggregates to the named per-layer metrics."""
    model = _ModelCache()
    main_thread = threading.main_thread().ident
    n = len(records)
    per_op: dict[str, list[float]] = {}
    warm_sweeps: list[float] = []
    warm_engine: list[float] = []
    gflops: list[float] = []
    ratios: list[float] = []
    flops: list[float] = []
    bytes_moved: list[float] = []
    lookups = misses = 0

    def add(name, value):
        per_op.setdefault(name, []).append(value)

    for op, rec in enumerate(records):
        spans = tracer.op_spans(op)
        by_name: dict[str, list] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)

        def total(name):
            return sum(s.seconds for s in by_name.get(name, ()))

        def self_time(name):
            return sum(s.self_seconds for s in by_name.get(name, ()))

        add("build.s", total("build"))
        add("build.mesh_s", total("build.mesh"))
        add("build.fem_s", total("build.fem"))
        add("build.sweepsched_s", total("build.sweepsched"))
        add("drivers.self_s", self_time("repro.run"))
        sweeps = sorted(by_name.get("sweep", ()), key=lambda s: s.start)
        add("iteration.sweeps", len(sweeps))
        add("iteration.outers", rec.get("outers", 0))
        add("sweep.cold_s", sweeps[0].seconds if sweeps else 0.0)
        add("sweep.self_s", self_time("sweep"))
        leak_s = tracer.aggregate(op, "sweep.leakage")[1]
        add("sweep.leakage_s", leak_s)
        add("sweep.leakage_calls", tracer.aggregate(op, "sweep.partial_current")[0])
        add("engines.sweep_angle_s", self_time("engines.sweep_angle"))
        add("engines.assemble_matrices_s", total("engines.assemble_matrices"))
        add("engines.upwind_couplings_s", total("engines.upwind_couplings"))
        add("solvers.lu_factor_s", total("solvers.lu_factor"))
        add("solvers.lu_factor_calls", len(by_name.get("solvers.lu_factor", ())))
        get_calls, get_s = tracer.aggregate(op, "factor_cache.get")
        op_misses = tracer.aggregate(op, "factor_cache.miss")[0]
        lookups += get_calls
        misses += op_misses
        add("factor_cache.get_s", get_s)
        add("factor_cache.misses", op_misses)
        for store_op in ("contains", "get", "put"):
            add(f"store.{store_op}_s", total(f"store.{store_op}"))
            add(f"store.{store_op}_calls", len(by_name.get(f"store.{store_op}", ())))
        add("store.bytes_written", sum(
            (s.attrs or {}).get("bytes", 0) for s in by_name.get("store.put", ())
        ))

        if sweeps:
            work_flops, work_bytes, predicted = model(rec["spec"])
            flops.append(work_flops)
            bytes_moved.append(work_bytes)
            for sweep in sweeps[1:]:
                engine_s = sum(
                    s.seconds for s in by_name.get("engines.sweep_angle", ())
                    if s.parent is sweep
                )
                warm_sweeps.append(sweep.seconds)
                warm_engine.append(engine_s)
                gflops.append(work_flops / engine_s / 1e9)
                ratios.append(engine_s / predicted)

        attributed = sum(s.self_seconds for s in spans) + leak_s + get_s
        if "job" in rec:
            job = rec["job"]
            executes = by_name.get("distributed.execute", ())
            worker_spans = sum(
                s.seconds for s in spans
                if s.parent is None and s.thread != main_thread
                and s.name != "service.daemon_submit"
            )
            queue_s = (job["started_at"] or job["submitted_at"]) - job["submitted_at"]
            poll_s = rec["client_end"] - job["finished_at"]
            attributed = rec["submit_s"] + queue_s + worker_spans + poll_s
            add("service.submit_ms", 1e3 * rec["submit_s"])
            add("service.queue_ms", 1e3 * queue_s)
            add("service.poll_ms", 1e3 * poll_s)
            if not rec["hit"]:
                add("service.execute_ms", 1e3 * (job["finished_at"] - job["started_at"]))
                for s in executes:
                    attrs = s.attrs or {}
                    if attrs.get("executed"):
                        add("distributed.execute_s", s.seconds)
                        add("distributed.overhead_s", s.seconds - attrs["worker_wall_s"])
            else:
                add("service.hit_ms", 1e3 * rec["latency"])
        add("unattributed_s", rec["latency"] - attributed)

    metrics = {name: _mean(values) for name, values in per_op.items()}
    for name in ("service.submit_ms", "service.queue_ms", "service.poll_ms",
                 "service.execute_ms"):
        metrics[name] = _median(per_op.get(name, ()))
    metrics["service.hit_ms_p50"] = _median(per_op.pop("service.hit_ms", ()))
    metrics.pop("service.hit_ms", None)
    metrics["service.hit_ratio"] = float((service_stats or {}).get("cache_hit_ratio", 0.0))
    executed = sum(1 for r in records if "job" in r and not r["hit"])
    metrics["distributed.workers_spawned"] = workers_spawned / executed if executed else 0.0
    for name in ("distributed.execute_s", "distributed.overhead_s"):
        metrics.setdefault(name, 0.0)
    metrics["run.wall_s"] = _mean(r["latency"] for r in records)
    metrics["sweep.warm_s"] = _median(warm_sweeps)
    metrics["engines.warm_angle_s"] = _median(warm_engine)
    metrics["engines.flops_per_sweep"] = _mean(flops)
    metrics["engines.bytes_per_sweep"] = _mean(bytes_moved)
    metrics["engines.gflops"] = _median(gflops)
    metrics["engines.model_ratio"] = _median(ratios)
    metrics["factor_cache.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    untraced_mean = _mean(r["latency"] for r in untraced[:n])
    metrics["trace.overhead_s"] = metrics["run.wall_s"] - untraced_mean
    metrics["trace.overhead_frac"] = (
        metrics["run.wall_s"] / untraced_mean - 1.0 if untraced_mean else 0.0
    )
    return metrics


#: Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "run.wall_s": "s",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "build.s": "s",
    "build.mesh_s": "s",
    "build.fem_s": "s",
    "build.sweepsched_s": "s",
    "drivers.self_s": "s",
    "iteration.sweeps": "count",
    "iteration.outers": "count",
    "sweep.cold_s": "s",
    "sweep.warm_s": "s",
    "sweep.self_s": "s",
    "sweep.leakage_s": "s",
    "sweep.leakage_calls": "count",
    "engines.sweep_angle_s": "s",
    "engines.warm_angle_s": "s",
    "engines.flops_per_sweep": "flop",
    "engines.bytes_per_sweep": "B",
    "engines.gflops": "Gflop/s",
    "engines.model_ratio": "ratio",
    "engines.assemble_matrices_s": "s",
    "engines.upwind_couplings_s": "s",
    "solvers.lu_factor_s": "s",
    "solvers.lu_factor_calls": "count",
    "factor_cache.get_s": "s",
    "factor_cache.hit_ratio": "ratio",
    "factor_cache.misses": "count",
    "store.contains_s": "s",
    "store.contains_calls": "count",
    "store.get_s": "s",
    "store.get_calls": "count",
    "store.put_s": "s",
    "store.put_calls": "count",
    "store.bytes_written": "B",
    "distributed.execute_s": "s",
    "distributed.overhead_s": "s",
    "distributed.workers_spawned": "count",
    "service.submit_ms": "ms",
    "service.queue_ms": "ms",
    "service.execute_ms": "ms",
    "service.poll_ms": "ms",
    "service.hit_ms_p50": "ms",
    "service.hit_ratio": "ratio",
}
