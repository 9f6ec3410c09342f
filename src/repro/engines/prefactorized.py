"""The pre-factorised sweep engine: LU-factor once, back-substitute every sweep.

Paper Section IV-B.1: the per-element streaming + collision systems depend
only on the mesh geometry, the ordinate direction and the total cross
sections -- none of which change across the inner/outer iterations of a
fixed-source solve.  The ``vectorized`` engine nevertheless re-assembles and
re-eliminates every ``(B*G, N, N)`` bucket batch on every sweep.  This
engine assembles and LU-factorises each bucket batch *once* per (angle,
bucket), caches the packed factors (plus the equally invariant interior
upwind coupling matrices), and on every subsequent sweep only assembles the
right-hand sides and runs the ``O(N^2)`` triangular substitutions.

The cache lives on the executor (:attr:`SweepExecutor.factor_cache`), not on
the engine -- engines are stateless shared instances -- and follows the
executor's factor-cache lifecycle: ``SweepExecutor.invalidate_factor_cache``
clears it whenever the cross sections change (``update_materials``) so the
next sweep re-factorises; building a new executor covers mesh changes.  The
memory cost is the cached factors, ``E * A * G * N^2`` doubles across the
whole quadrature -- the same memory-for-time trade the paper discusses for
pre-assembled matrices.

The factor/solve pair comes from the local solver when it provides one
(``LocalSolver.factor_batched`` / ``solve_factored``; both built-ins do), so
``prefactorized`` + ``ge`` reproduces the hand-written elimination bit for
bit, and falls back to the hand-written batched LU otherwise.
"""

from __future__ import annotations

from ..solvers.prefactor import batched_gaussian_lu_factor, batched_gaussian_lu_solve
from .base import sweep_buckets
from .batched import assemble_bucket_matrices, interior_upwind_couplings
from .registry import register_engine

__all__ = ["PrefactorizedSweepEngine"]


@register_engine("prefactorized", aliases=("lu", "prefactor", "factor-cache"))
class PrefactorizedSweepEngine:
    """Cached per-bucket LU factors; sweeps only assemble RHS and back-substitute."""

    #: Same stacked systems in the same order as ``vectorized``; exact flux
    #: equality is asserted by the conformance matrix for solvers with
    #: ``prefactorisation_exact`` (see :mod:`repro.verify.conformance`).
    bitwise_family = "batched"

    def _factor_pair(self, executor):
        solver = executor.solver
        if getattr(solver, "supports_prefactorisation", False):
            return solver.factor_batched, solver.solve_factored
        return batched_gaussian_lu_factor, batched_gaussian_lu_solve

    def sweep_angle(self, executor, angle, total_source, boundary_values, incident, timings):
        return sweep_buckets(
            self, executor, angle, total_source, boundary_values, incident, timings,
            kernel=self._factor_pair(executor),
        )

    def assemble_entry(self, sweep, bucket, orient):
        executor, direction = sweep.executor, sweep.direction
        return (
            assemble_bucket_matrices(executor, direction, orient, bucket),
            interior_upwind_couplings(executor, direction, orient, bucket),
        )

    def factor_entry(self, sweep, assembled):
        a, interior = assembled
        factor, _ = sweep.kernel
        n = sweep.num_nodes
        return factor(a.reshape(-1, n, n)), interior

    def assemble_rhs(self, sweep, bucket, orient, entry):
        return sweep.rhs(bucket, orient, interior=entry[1])

    def solve(self, sweep, bucket, entry, rhs):
        _, solve_factored = sweep.kernel
        return solve_factored(entry[0], rhs.reshape(-1, sweep.num_nodes))
