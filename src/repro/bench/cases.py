"""Built-in benchmark cases: the paper's evaluation as registered workloads.

Every case derives its sizes from the shared
:class:`~repro.bench.workload.BenchWorkload` (so ``--smoke`` and the
``UNSNAP_BENCH_*`` knobs shrink everything coherently) and returns
``{sample: {"seconds": ..., **metrics}}`` as the registry contract requires.

Tags group the suite the way the paper's evaluation splits:

* ``kernel``  -- single-kernel ablations (assembly, local solve, engines);
* ``scaling`` -- thread-count and rank-count ensembles;
* ``study``   -- campaign-level grids through ``repro.run_study``;
* ``service`` -- the service layer (store-backed request dedup);
* ``drivers`` -- the outer-loop drivers (power-iteration throughput, time
  stepping with cross-step factor-cache reuse);
* ``model``   -- measured-vs-modelled overlays (run via ``--against-model``).
"""

from __future__ import annotations

import shutil
import tempfile
import time

import numpy as np

from ..angular.quadrature import snap_dummy_quadrature
from ..baseline.snap_fd import SnapDiamondDifferenceSolver
from ..campaign import Study, run_study
from ..campaign.backends import available_backends
from ..config import BoundaryCondition, ProblemSpec
from ..core.assembly import ElementMatrices
from ..core.sweep import SweepExecutor
from ..engines import available_engines
from ..fem.element import HexElementFactors
from ..fem.reference import ReferenceElement
from ..materials.library import snap_option1_library
from ..mesh.builder import StructuredGridSpec, build_snap_mesh
from ..runner import run
from ..solvers import available_solvers, get_solver
from ..sweepsched.graph import classify_faces
from ..sweepsched.schedule import build_sweep_schedule
from ..telemetry import Telemetry
from .registry import register_benchmark
from .workload import BenchWorkload

__all__ = ["build_sweep_executor", "local_systems"]


def build_sweep_executor(
    n: int,
    angles_per_octant: int,
    num_groups: int,
    order: int = 1,
    engine: str = "reference",
    solver: str = "ge",
    telemetry: Telemetry | None = None,
) -> tuple[SweepExecutor, np.ndarray]:
    """Standalone executor + unit source for kernel-level cases."""
    mesh = build_snap_mesh(StructuredGridSpec(n, n, n), max_twist=0.001)
    ref = ReferenceElement(order)
    factors = HexElementFactors.build(mesh.cell_vertices(), ref)
    matrices = ElementMatrices.build(factors, ref)
    quadrature = snap_dummy_quadrature(angles_per_octant)
    executor = SweepExecutor(
        mesh=mesh,
        factors=factors,
        ref=ref,
        matrices=matrices,
        schedule=build_sweep_schedule(mesh, factors, quadrature),
        quadrature=quadrature,
        materials=snap_option1_library(num_groups).for_cells(mesh.num_cells),
        solver=solver,
        engine=engine,
        telemetry=telemetry,
    )
    source = np.ones((mesh.num_cells, num_groups, ref.num_nodes))
    return executor, source


def local_systems(order: int, num_groups: int, seed: int = 0):
    """A realistic batch of one element's per-group local systems."""
    rng = np.random.default_rng(seed)
    mesh = build_snap_mesh(StructuredGridSpec(2, 2, 2), max_twist=0.001)
    ref = ReferenceElement(order)
    factors = HexElementFactors.build(mesh.cell_vertices(), ref)
    matrices = ElementMatrices.build(factors, ref)
    direction = np.array([0.5, 0.6, 0.62449979984])
    cls = classify_faces(factors, direction)
    sigma_t = 1.0 + 0.01 * np.arange(num_groups)
    source = rng.uniform(0.5, 1.5, size=(num_groups, ref.num_nodes))
    a, b = matrices.assemble_systems(0, direction, cls.orientation[0], sigma_t, source, {})
    return matrices, cls, direction, sigma_t, source, a, b


def _orders(workload: BenchWorkload) -> tuple[int, ...]:
    return (1, 2) if workload.smoke else (1, 2, 3)


# --------------------------------------------------------------------- kernel
@register_benchmark("engine-sweep", tags=("kernel", "engines"), aliases=("engines",))
def bench_engine_sweep(workload: BenchWorkload) -> dict[str, dict]:
    """Repeated full sweeps per registered engine (the Table II workload)."""
    samples: dict[str, dict] = {}
    for engine in available_engines():
        telemetry = Telemetry()
        executor, source = build_sweep_executor(
            workload.n, workload.angles_per_octant, workload.num_groups,
            engine=engine, telemetry=telemetry,
        )
        kernel_seconds = 0.0
        t0 = time.perf_counter()
        for _ in range(workload.sweeps):
            kernel_seconds += executor.sweep(source).timings.total_seconds
        seconds = time.perf_counter() - t0
        samples[engine] = {
            "seconds": seconds,
            # Assemble+solve over every timed sweep, like ``seconds``.
            "kernel_seconds": kernel_seconds,
            "systems_solved": int(telemetry.counters.get("local_solves", 0)),
            "factor_cache_hits": int(telemetry.counters.get("factor_cache_hits", 0)),
            "factor_cache_misses": int(telemetry.counters.get("factor_cache_misses", 0)),
        }
    return samples


@register_benchmark("assembly-kernel", tags=("kernel",))
def bench_assembly_kernel(workload: BenchWorkload) -> dict[str, dict]:
    """Per-element, per-angle assembly of all group systems, per order."""
    iterations = 10 if workload.smoke else 50
    samples = {}
    for order in _orders(workload):
        matrices, cls, direction, sigma_t, source, _a, _b = local_systems(
            order, workload.num_groups
        )
        t0 = time.perf_counter()
        for _ in range(iterations):
            matrices.assemble_systems(0, direction, cls.orientation[0], sigma_t, source, {})
        samples[f"order-{order}"] = {
            "seconds": time.perf_counter() - t0,
            "iterations": iterations,
        }
    return samples


@register_benchmark("solve-kernel", tags=("kernel",))
def bench_solve_kernel(workload: BenchWorkload) -> dict[str, dict]:
    """Batched local dense solve per registered solver and order (Table II)."""
    iterations = 10 if workload.smoke else 50
    samples = {}
    for order in _orders(workload):
        *_rest, a, b = local_systems(order, workload.num_groups)
        for solver_name in available_solvers():
            solver = get_solver(solver_name)
            t0 = time.perf_counter()
            for _ in range(iterations):
                x = solver.solve_batched(a, b)
            samples[f"{solver_name}-order-{order}"] = {
                "seconds": time.perf_counter() - t0,
                "iterations": iterations,
                "residual": float(np.abs(np.einsum("gij,gj->gi", a, x) - b).max()),
            }
    return samples


@register_benchmark("matrix-setup", tags=("kernel", "setup"))
def bench_matrix_setup(workload: BenchWorkload) -> dict[str, dict]:
    """Reference-element tabulation + local-matrix precomputation (Table I)."""
    n = max(2, workload.n // 2)
    mesh = build_snap_mesh(StructuredGridSpec(n, n, n), max_twist=0.001)
    samples = {}
    for order in _orders(workload):
        t0 = time.perf_counter()
        ref = ReferenceElement(order)
        factors = HexElementFactors.build(mesh.cell_vertices(), ref)
        matrices = ElementMatrices.build(factors, ref)
        samples[f"order-{order}"] = {
            "seconds": time.perf_counter() - t0,
            "cells": mesh.num_cells,
            "matrix_size": matrices.num_nodes,
        }
    return samples


@register_benchmark("fd-vs-fem", tags=("kernel", "baseline"))
def bench_fd_vs_fem(workload: BenchWorkload) -> dict[str, dict]:
    """Section II-C: SNAP finite difference vs UnSNAP DGFEM solve time."""
    n = min(5, max(3, workload.n // 2))
    groups = min(2, workload.num_groups)
    angles = workload.angles_per_octant
    fd_solver = SnapDiamondDifferenceSolver(
        n, n, n, num_groups=groups, angles_per_octant=angles, num_inners=2
    )
    t0 = time.perf_counter()
    fd = fd_solver.solve()
    fd_seconds = time.perf_counter() - t0
    spec = ProblemSpec(
        nx=n, ny=n, nz=n, order=1, angles_per_octant=angles, num_groups=groups,
        max_twist=0.0, num_inners=2, num_outers=1, engine="vectorized",
    )
    t0 = time.perf_counter()
    fem = run(spec)
    fem_seconds = time.perf_counter() - t0
    return {
        "fd": {"seconds": fd_seconds, "mean_flux": float(fd.scalar_flux.mean())},
        "fem": {
            "seconds": fem_seconds,
            "mean_flux": float(fem.cell_average_flux.mean()),
            "work_ratio": fem_seconds / fd_seconds if fd_seconds > 0 else float("inf"),
        },
    }


# -------------------------------------------------------------------- scaling
@register_benchmark("thread-scaling-linear", tags=("scaling",), aliases=("fig3",))
def bench_thread_scaling_linear(workload: BenchWorkload) -> dict[str, dict]:
    """Measured octant-parallel thread scaling, linear elements (Figure 3)."""
    return _thread_scaling(workload, order=1, n=min(workload.n, 4))


@register_benchmark("thread-scaling-cubic", tags=("scaling",), aliases=("fig4",))
def bench_thread_scaling_cubic(workload: BenchWorkload) -> dict[str, dict]:
    """Measured octant-parallel thread scaling, cubic elements (Figure 4)."""
    return _thread_scaling(
        workload.with_(angles_per_octant=1, num_groups=min(2, workload.num_groups)),
        order=3, n=2,
    )


def _thread_scaling(workload: BenchWorkload, order: int, n: int) -> dict[str, dict]:
    base = ProblemSpec(
        nx=n, ny=n, nz=n, order=order,
        angles_per_octant=workload.angles_per_octant,
        num_groups=workload.num_groups,
        max_twist=0.001, num_inners=2, num_outers=1,
        octant_parallel=True,
    )
    thread_counts = (1, 2) if workload.smoke else (1, 2, 4)
    engines = ("vectorized", "prefactorized")
    study = Study.grid(
        base, name=f"thread-scaling-order{order}",
        engine=list(engines), num_threads=list(thread_counts),
    )
    result = run_study(study, backend="serial")
    samples = {}
    for study_run in result:
        label = f"{study_run.axes['engine']}-t{study_run.axes['num_threads']}"
        samples[label] = {
            "seconds": study_run.result.solve_seconds,
            "threads": int(study_run.axes["num_threads"]),
            "mean_flux": study_run.result.mean_flux,
        }
    return samples


@register_benchmark("block-jacobi-ranks", tags=("scaling", "parallel"))
def bench_block_jacobi_ranks(workload: BenchWorkload) -> dict[str, dict]:
    """Multi-rank block-Jacobi solves vs rank count (Section III-A.1)."""
    if workload.smoke:
        nx, ny, nz = 4, 2, 2
        grids = ((1, 1), (2, 1), (2, 2))
        num_inners = 4
    else:
        nx, ny, nz = 8, 4, 2
        grids = ((1, 1), (2, 1), (2, 2), (4, 2))
        # Enough lagged inners that every decomposition approaches the same
        # solution (the wrapper asserts cross-grid flux agreement).
        num_inners = 8
    base = ProblemSpec(
        nx=nx, ny=ny, nz=nz, order=1, angles_per_octant=1,
        num_groups=min(2, workload.num_groups),
        max_twist=0.001, num_inners=num_inners, num_outers=1,
    )
    samples = {}
    for npex, npey in grids:
        telemetry = Telemetry()
        t0 = time.perf_counter()
        result = run(base.with_(npex=npex, npey=npey), telemetry=telemetry)
        samples[f"{npex}x{npey}"] = {
            "seconds": time.perf_counter() - t0,
            "ranks": result.num_ranks,
            "halo_messages": result.messages,
            "halo_bytes": result.bytes_exchanged,
            "final_inner_error": float(result.history.inner_errors[-1]),
            "mean_flux": result.mean_flux,
            "halo_phase_seconds": float(
                telemetry.phase_seconds.get("solve.halo", 0.0)
            ),
        }
    return samples


# -------------------------------------------------------------------- service
@register_benchmark("service-dedup", tags=("service",))
def bench_service_dedup(workload: BenchWorkload) -> dict[str, dict]:
    """N identical service submissions vs N cold solves: the dedup win.

    The ``cold`` sample solves the same spec N times through plain
    :func:`repro.run`; the ``service`` sample submits the identical job N
    times to a :class:`~repro.service.ServiceDaemon` backed by a throwaway
    store, so exactly one solve executes and the rest are served by
    single-flight coalescing or the store.  The ``speedup`` metric is the
    dedup headline (>= 10x even on the smoke tier: one solve amortised over
    N requests).
    """
    from ..service import ServiceDaemon

    n_jobs = 24 if workload.smoke else 32
    spec = ProblemSpec(
        nx=workload.n, ny=workload.n, nz=workload.n, order=1,
        angles_per_octant=workload.angles_per_octant,
        num_groups=min(2, workload.num_groups),
        max_twist=0.001, num_inners=2, num_outers=1, engine="vectorized",
    )
    run(spec)  # warm the per-process setup caches out of both measurements
    t0 = time.perf_counter()
    for _ in range(n_jobs):
        run(spec)
    cold_seconds = time.perf_counter() - t0

    root = tempfile.mkdtemp(prefix="unsnap-bench-dedup-")
    try:
        with ServiceDaemon(store=root, backend="serial", workers=2) as daemon:
            t0 = time.perf_counter()
            jobs = [daemon.submit(spec, keep_flux=False) for _ in range(n_jobs)]
            for job in jobs:
                daemon.wait(job.id, timeout=300.0)
            service_seconds = time.perf_counter() - t0
            stats = daemon.stats()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "cold": {"seconds": cold_seconds, "runs": n_jobs},
        "service": {
            "seconds": service_seconds,
            "runs": n_jobs,
            "executed": stats["executed"],
            "cache_hits": stats["cache_hits"],
            "speedup": (
                cold_seconds / service_seconds if service_seconds > 0 else float("inf")
            ),
        },
    }


# -------------------------------------------------------------------- drivers
@register_benchmark("driver-k-eigenvalue", tags=("drivers",), aliases=("keff",))
def bench_driver_k_eigenvalue(workload: BenchWorkload) -> dict[str, dict]:
    """Power-iteration throughput of the ``k_eigenvalue`` driver.

    A reflected problem converged to ``k_tolerance``: the headline is
    seconds per power iteration (each one a full within-group solve), with
    the converged eigenpair alongside as a sanity anchor.
    """
    n = 2 if workload.smoke else min(workload.n, 3)
    spec = ProblemSpec(
        nx=n, ny=n, nz=n, order=1, angles_per_octant=1,
        num_groups=min(4, workload.num_groups),
        max_twist=0.0, num_inners=20, inner_tolerance=1e-10,
        boundary=BoundaryCondition(kind="reflective"),
        driver="k_eigenvalue", k_tolerance=1e-8, max_power_iters=50,
    )
    telemetry = Telemetry()
    t0 = time.perf_counter()
    result = run(spec, telemetry=telemetry)
    seconds = time.perf_counter() - t0
    iterations = int(telemetry.counters.get("power_iterations", 0))
    return {
        "power": {
            "seconds": seconds,
            "power_iterations": iterations,
            "seconds_per_iteration": seconds / iterations if iterations else 0.0,
            "k_effective": float(result.k_effective),
            "dominance_ratio": float(result.dominance_ratio),
        }
    }


@register_benchmark("driver-time-dependent", tags=("drivers",), aliases=("transient",))
def bench_driver_time_dependent(workload: BenchWorkload) -> dict[str, dict]:
    """Backward-Euler stepping cost per engine: the factor-cache-reuse win.

    The time-absorption term is folded into ``sigma_t`` once, so the
    ``prefactorized`` engine's LU factors are built on the first step and
    every later step reuses them -- visible in the cache-hit counters and
    the per-step seconds against the ``reference`` engine.
    """
    n = 2 if workload.smoke else min(workload.n, 3)
    n_steps = 4 if workload.smoke else 8
    base = ProblemSpec(
        nx=n, ny=n, nz=n, order=1, angles_per_octant=1,
        num_groups=min(4, workload.num_groups),
        max_twist=0.0, num_inners=5,
        boundary=BoundaryCondition(kind="reflective"),
        driver="time_dependent", dt=0.1, n_steps=n_steps, initial_flux_value=1.0,
    )
    samples = {}
    for engine in ("reference", "prefactorized"):
        telemetry = Telemetry()
        t0 = time.perf_counter()
        run(base.with_(engine=engine), telemetry=telemetry)
        seconds = time.perf_counter() - t0
        steps = int(telemetry.counters.get("time_steps", 0))
        samples[engine] = {
            "seconds": seconds,
            "time_steps": steps,
            "seconds_per_step": seconds / steps if steps else 0.0,
            "factor_cache_hits": int(telemetry.counters.get("factor_cache_hits", 0)),
            "factor_cache_misses": int(telemetry.counters.get("factor_cache_misses", 0)),
        }
    return samples


# ---------------------------------------------------------------------- study
@register_benchmark("table2-solvers", tags=("study",), aliases=("table2",))
def bench_table2_solvers(workload: BenchWorkload) -> dict[str, dict]:
    """The Table II order x solver grid as one declarative study."""
    n = min(5, max(3, workload.n // 2))
    base = ProblemSpec(
        nx=n, ny=n, nz=n,
        angles_per_octant=workload.angles_per_octant,
        num_groups=min(4, workload.num_groups),
        max_twist=0.001, num_inners=2, num_outers=1,
    )
    study = Study.grid(
        base, name="table2", order=list(_orders(workload)), solver=list(available_solvers())
    )
    result = run_study(study, backend="serial")
    samples = {}
    for study_run in result:
        label = f"order{study_run.axes['order']}-{study_run.axes['solver']}"
        timings = study_run.result.timings
        samples[label] = {
            "seconds": timings.total_seconds,
            "solve_fraction": timings.solve_fraction,
            "systems_solved": timings.systems_solved,
        }
    return samples


@register_benchmark("study-backends", tags=("study",), aliases=("backends",))
def bench_study_backends(workload: BenchWorkload) -> dict[str, dict]:
    """The same order x engine grid through every campaign backend."""
    n = min(workload.n, 4)
    base = ProblemSpec(
        nx=n, ny=n, nz=n,
        angles_per_octant=workload.angles_per_octant,
        num_groups=min(4, workload.num_groups),
        max_twist=0.001, num_inners=2, num_outers=1,
    )
    study = Study.grid(
        base, name="backend-bench",
        order=[1] if workload.smoke else [1, 2],
        engine=["vectorized", "prefactorized"],
    )
    samples = {}
    for backend in available_backends():
        if backend == "distributed":
            # Spawns worker subprocesses and polls a spool -- measured by the
            # dedicated distributed-overhead case, not this in-process sweep.
            continue
        t0 = time.perf_counter()
        result = run_study(study, backend=backend, jobs=workload.jobs)
        samples[backend] = {
            "seconds": time.perf_counter() - t0,
            "runs": len(result),
            "jobs": workload.jobs,
            "mean_flux": [r.result.mean_flux for r in result],
        }
    return samples


@register_benchmark(
    "distributed-overhead", tags=("study", "distributed"), aliases=("spool",)
)
def bench_distributed_overhead(workload: BenchWorkload) -> dict[str, dict]:
    """Spool-protocol cost: the same small study serial vs distributed.

    The interesting numbers are the *deltas*: ``overhead_seconds`` (spool
    publish/claim/poll plus worker spawn, amortised over the campaign) and
    the mean per-point ``queue_wait_seconds`` the done markers report.
    """
    from ..campaign.distributed import DistributedBackend

    n = min(workload.n, 4)
    base = ProblemSpec(
        nx=n, ny=n, nz=n,
        angles_per_octant=workload.angles_per_octant,
        num_groups=min(2, workload.num_groups),
        max_twist=0.001, num_inners=2, num_outers=1,
    )
    study = Study.grid(
        base, name="spool-bench",
        order=[1] if workload.smoke else [1, 2],
        engine=["vectorized", "prefactorized"],
    )
    t0 = time.perf_counter()
    run_study(study, backend="serial")
    serial_seconds = time.perf_counter() - t0

    backend = DistributedBackend(workers=workload.jobs or 2)
    t0 = time.perf_counter()
    result = run_study(study, backend=backend)
    distributed_seconds = time.perf_counter() - t0
    waits = [r.meta.get("queue_wait_seconds", 0.0) for r in result if r.meta]
    return {
        "serial": {"seconds": serial_seconds, "runs": len(study.runs())},
        "distributed": {
            "seconds": distributed_seconds,
            "runs": len(result),
            "workers": workload.jobs or 2,
            "overhead_seconds": distributed_seconds - serial_seconds,
            "mean_queue_wait_seconds": (sum(waits) / len(waits)) if waits else 0.0,
        },
    }
