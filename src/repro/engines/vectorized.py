"""The vectorized sweep engine: batch-assemble and batch-solve whole buckets.

The reference engine pays CPython interpreter overhead for every element of
every bucket of every angle.  All elements of a wavefront bucket are mutually
independent and their upwind neighbours live in *earlier* buckets, so the
entire bucket can be assembled with stacked einsum contractions (shared with
the ``prefactorized`` engine via :mod:`repro.engines.batched`) and solved as
one ``(B*G, N, N)`` batch through ``LocalSolver.solve_batched`` -- the NumPy
analogue of the paper's discussion of batched local solves (Section IV-B).

Equivalence with the reference engine is exact up to floating-point
associativity (the property tests assert agreement to ~1e-12): the same
streaming matrix, mass term, upwind face couplings, lagged block-Jacobi
traces and incident-boundary terms are applied, only batched over the bucket
dimension.  The engine caches nothing, so its hooks for
:func:`~repro.engines.base.sweep_buckets` are one assemble step (the whole
system) and one solve step.  It is kept beside ``prefactorized`` as the
uncached member of the ``batched`` bitwise family: the conformance matrix
checks ``prefactorized`` against it bit for bit.
"""

from __future__ import annotations

from .base import sweep_buckets
from .batched import assemble_bucket_matrices
from .registry import register_engine

__all__ = ["VectorizedSweepEngine"]


@register_engine("vectorized", aliases=("vec", "batched"))
class VectorizedSweepEngine:
    """Batched per-bucket assembly and dense solve (stacked (B*G, N, N) systems)."""

    #: Engines sharing a ``bitwise_family`` assemble and solve the same
    #: stacked systems in the same order, so the conformance matrix
    #: (:mod:`repro.verify.conformance`) asserts their fluxes equal *bit for
    #: bit* whenever the solver's factored path is exact
    #: (``LocalSolver.prefactorisation_exact``).
    bitwise_family = "batched"

    def sweep_angle(self, executor, angle, total_source, boundary_values, incident, timings):
        return sweep_buckets(
            self, executor, angle, total_source, boundary_values, incident, timings
        )

    def assemble_rhs(self, sweep, bucket, orient, entry):
        matrices = assemble_bucket_matrices(sweep.executor, sweep.direction, orient, bucket)
        return matrices, sweep.rhs(bucket, orient)

    def solve(self, sweep, bucket, entry, system):
        a, b = system
        n = sweep.num_nodes
        return sweep.executor.solver.solve_batched(a.reshape(-1, n, n), b.reshape(-1, n))
