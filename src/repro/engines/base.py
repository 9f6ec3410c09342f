"""The sweep-engine protocol and the shared wavefront-bucket loop.

A *sweep engine* is the interchangeable strategy that sweeps one angular
direction over a (sub)mesh -- the paper studies exactly such strategies.
:class:`~repro.core.sweep.SweepExecutor` owns the problem data (mesh, local
matrices, schedule, quadrature, materials, solver) and calls the engine's
:meth:`SweepEngine.sweep_angle` once per ordinate.  Engines are stateless
shared instances registered by name through
:func:`repro.engines.register_engine`.  ``reference`` runs the paper's
per-element Figure 2 loop itself; ``vectorized``, ``prefactorized`` and
``compiled`` differ only in what they do to one wavefront bucket, so they
hand the angle to :func:`sweep_buckets`.

Writing a batched engine
------------------------
:func:`sweep_buckets` owns the schedule walk, the ``psi`` allocation and
scatter, the factor-cache lookup (hit/miss counters, build on miss), every
``time.perf_counter`` stamp booked into
:class:`~repro.core.assembly.AssemblyTimings` (the Table II split),
``systems_solved`` and the telemetry bucket sampler.  An engine writes only
its bucket hooks, each taking the per-angle :class:`BucketSweep` first::

    @register_engine("my-engine")
    class MyEngine:
        def sweep_angle(self, executor, angle, source, bv, incident, timings):
            return sweep_buckets(self, executor, angle, source, bv, incident, timings)

        def assemble_rhs(self, sweep, bucket, orient, entry):  # booked as assembly
            a = assemble_bucket_matrices(sweep.executor, sweep.direction, orient, bucket)
            return a, sweep.rhs(bucket, orient)

        def solve(self, sweep, bucket, entry, system):  # booked as solve
            a, b = system
            n = sweep.num_nodes
            return sweep.executor.solver.solve_batched(a.reshape(-1, n, n), b.reshape(-1, n))

``solve`` returns the ``(B*G, N)`` solution for the loop to scatter, or
``None`` when it wrote ``sweep.psi`` itself.  If ``assemble_rhs`` returns
``None``, ``solve`` assembles too and the whole bucket is booked as solve
(the fused vacuum path of ``compiled``).  A caching engine also defines
``assemble_entry(sweep, bucket, orient)`` (booked as assembly) and
``factor_entry(sweep, assembled)`` (booked as solve: the LU of the one-shot
solve).  The entry is built once per ``(engine.name, angle, bucket_index)``
and passed to the per-sweep hooks as ``entry`` (``None`` without the pair).
Anything an engine resolves once per angle (its solve routine, a compiled
kernel) goes to :func:`sweep_buckets` as ``kernel=`` and reaches the hooks
as ``sweep.kernel``.

Factor-cache lifecycle
----------------------
Per-problem engine state lives on the *executor*, in
:attr:`SweepExecutor.factor_cache` -- a
:class:`~repro.core.factor_cache.FactorCache` (dict-shaped, optionally
memory-budgeted with LRU spill) whose keys carry the engine's name, so
engines sharing one executor never read each other's entries.  Every miss
must be recomputable: under a ``factor_cache_budget_bytes`` limit the cache
silently evicts least-recently-used entries.  The executor owns the
lifecycle: :meth:`SweepExecutor.invalidate_factor_cache` clears the cache
whenever the cached inputs change (cross-section updates go through
:meth:`SweepExecutor.update_materials`; mesh changes rebuild the executor),
and :class:`~repro.core.solver.TransportSolver` and
:class:`~repro.parallel.block_jacobi.BlockJacobiDriver` expose matching
``update_materials`` hooks.  An engine may define
``invalidate_cache(executor)`` to be notified before the cache is cleared.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from ..telemetry import active
from .batched import assemble_bucket_rhs

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-checking only
    from ..core.assembly import AssemblyTimings
    from ..core.sweep import BoundaryValues, SweepExecutor

__all__ = ["SweepEngine", "BucketSweep", "sweep_buckets"]


@runtime_checkable
class SweepEngine(Protocol):
    """Strategy interface for executing the sweep of one angular direction.

    Implementations must be stateless (one shared instance serves every
    executor) and must honour the executor's sweep schedule: within an angle,
    buckets are processed in order and every element only reads upwind
    neighbours from earlier buckets.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"reference"`` or ``"vectorized"``.
    description:
        Human-readable description used by reports and ``unsnap engines``.
    """

    name: str
    description: str

    def sweep_angle(
        self,
        executor: "SweepExecutor",
        angle: int,
        total_source: np.ndarray,
        boundary_values: "BoundaryValues | None",
        incident: float,
        timings: "AssemblyTimings",
    ) -> np.ndarray:
        """Sweep one ordinate and return the ``(E, G, N)`` angular flux.

        Parameters
        ----------
        executor:
            The owning :class:`~repro.core.sweep.SweepExecutor`; provides the
            mesh, precomputed local matrices, per-angle schedule, quadrature,
            ``sigma_t`` table, local solver and thread count.
        angle:
            Ordinate index into the executor's quadrature.
        total_source:
            ``(E, G, N)`` nodal isotropic source (fixed + scattering).
        boundary_values:
            Lagged upwind traces for rank-boundary faces (block Jacobi), or
            ``None`` on a single rank.
        incident:
            Incoming angular flux on domain-boundary inflow faces.
        timings:
            Accumulator for the assemble/solve wall-clock split; engines add
            their measured times and the number of systems solved.
        """
        ...


class BucketSweep:
    """One angle's sweep as the bucket hooks see it.

    ``psi`` is the ``(E, G, N)`` angular flux being swept: final for every
    bucket already processed, so a hook may read upwind values from it.
    ``vacuum`` is true when no boundary term enters this angle (no lagged
    traces and zero incident flux).  ``kernel`` is whatever the engine's
    ``sweep_angle`` resolved once for the angle (a solve routine, a compiled
    kernel), so the hooks do no per-bucket lookup for it.
    """

    __slots__ = (
        "executor", "angle", "direction", "total_source", "boundary_values",
        "incident", "vacuum", "num_groups", "num_nodes", "psi", "kernel",
    )

    def __init__(self, executor, angle, total_source, boundary_values, incident, kernel):
        self.executor = executor
        self.angle = angle
        self.direction = executor.quadrature.directions[angle]
        self.total_source = total_source
        self.boundary_values = boundary_values
        self.incident = incident
        self.vacuum = incident == 0.0 and not (
            boundary_values is not None and len(boundary_values) > 0
        )
        self.num_groups = executor.num_groups
        self.num_nodes = executor.num_nodes
        self.psi = np.zeros(
            (executor.mesh.num_cells, self.num_groups, self.num_nodes), dtype=np.float64
        )
        self.kernel = kernel

    def rhs(self, bucket, orient, interior=None) -> np.ndarray:
        """The bucket's ``(B, G, N)`` right-hand sides (shared numpy assembly)."""
        return assemble_bucket_rhs(
            self.executor, self.angle, self.direction, orient, bucket, self.psi,
            self.total_source, self.boundary_values, self.incident, interior=interior,
        )


def sweep_buckets(
    engine, executor, angle, total_source, boundary_values, incident, timings, kernel=None
):
    """Sweep one angle bucket by bucket through ``engine``'s hooks.

    The batched engines' ``sweep_angle``; see the module docstring for the
    hooks.  With telemetry off (or a bucket-sample rate of 0) the loop makes
    no telemetry call and no timer call beyond the ones that feed
    ``timings``; a sampled bucket reuses those stamps.
    """
    sweep = BucketSweep(executor, angle, total_source, boundary_values, incident, kernel)
    asched = executor.schedule.for_angle(angle)
    orientation = asched.classification.orientation  # (E, 6)
    psi = sweep.psi
    num_groups, num_nodes = sweep.num_groups, sweep.num_nodes
    name, assemble_rhs, solve = engine.name, engine.assemble_rhs, engine.solve
    factor_entry = getattr(engine, "factor_entry", None)
    cache = executor.factor_cache
    tel = active(getattr(executor, "telemetry", None))
    sampler = None if tel is None else tel.bucket_sampler()

    for index, bucket in enumerate(asched.buckets):
        sample = sampler is not None and sampler.want()
        batch = bucket.shape[0]
        orient = orientation[bucket]  # (B, 6)
        entry = None
        if factor_entry is not None:
            key = (name, angle, index)
            entry = cache.get(key)
            if tel is not None:
                tel.incr("factor_cache_misses" if entry is None else "factor_cache_hits")
            if entry is None:
                t0 = time.perf_counter()
                assembled = engine.assemble_entry(sweep, bucket, orient)
                t1 = time.perf_counter()
                entry = factor_entry(sweep, assembled)
                t2 = time.perf_counter()
                cache[key] = entry
                timings.assembly_seconds += t1 - t0
                timings.solve_seconds += t2 - t1

        t0 = time.perf_counter()
        rhs = assemble_rhs(sweep, bucket, orient, entry)
        t1 = t0 if rhs is None else time.perf_counter()
        solution = solve(sweep, bucket, entry, rhs)
        t2 = time.perf_counter()
        if solution is not None:
            psi[bucket] = solution.reshape(batch, num_groups, num_nodes)
        timings.assembly_seconds += t1 - t0
        timings.solve_seconds += t2 - t1
        timings.systems_solved += batch * num_groups
        if sample:
            sampler.record(t2 - t0, batch * num_groups)
    return psi
