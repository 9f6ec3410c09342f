"""The compiled sweep engine: one fused JIT kernel per (angle, bucket).

Where ``prefactorized`` replaces the per-sweep elimination with cached LU
factors but still pays numpy dispatch for the right-hand-side assembly and
the batched substitutions, this engine drops the whole steady-state bucket
loop into a single compiled kernel (:mod:`repro.engines.compiled.kernels`):
assemble the volumetric source, subtract the packed interior upwind
couplings reading ``psi`` of earlier buckets, and run the pivoted
forward/backward substitutions -- all in one pass over preallocated
contiguous arrays, no temporaries, no interpreter in the loop.

Like ``prefactorized`` it is a caching engine on the shared bucket loop
(:func:`~repro.engines.base.sweep_buckets`): entries live in
:attr:`SweepExecutor.factor_cache` under ``(engine_name, angle,
bucket_index)`` keys, are rebuilt on a miss (the one-time assembly + LU
factorisation, against the executor's *current* cross sections) and are
dropped by ``invalidate_factor_cache`` / ``update_materials`` /
``set_engine``.  Under a factor-cache budget the evicted entries are
transparently recomputed on the next sweep -- the kernel never sees a stale
factor.

The boundary path (incident flux or lagged block-Jacobi traces) reuses the
numpy :func:`~repro.engines.batched.assemble_bucket_rhs` for the irregular
per-face scans and calls the kernel in solve-only mode, so vacuum interior
sweeps -- the hot path of every benchmark -- never leave compiled code; their
fused assemble+solve time is booked as solve.

The compiled tier carries its own factorisation
(:func:`~repro.solvers.prefactor.batched_gaussian_lu_factor`), matching the
substitution loops baked into the kernel; the executor's local-solver
choice selects the *other* engines' solve and does not change this one.
``bitwise_family`` is the tier's own (``"compiled"``): the fused loop nest
fixes its own summation order, which is not guaranteed to match the numpy
einsum reductions bit for bit -- cross-engine agreement is asserted by the
conformance matrix at tolerance instead.
"""

from __future__ import annotations

import numpy as np

from ...solvers.prefactor import batched_gaussian_lu_factor
from ..base import sweep_buckets
from ..batched import assemble_bucket_matrices, interior_upwind_couplings
from ..registry import register_engine
from .providers import as_contiguous_f64, as_contiguous_i64, select_provider

__all__ = ["CompiledSweepEngine"]


@register_engine("compiled", aliases=("jit", "native"))
class CompiledSweepEngine:
    """Fused JIT bucket kernel over cached packed LU factors (numba or cffi)."""

    #: Own family: the fused kernel fixes its own reduction order, so
    #: bit-equality with the numpy ``batched`` family is not guaranteed.
    bitwise_family = "compiled"

    def __init__(self):
        provider = select_provider()
        if provider is None:
            raise RuntimeError(
                "compiled sweep engine constructed without an available JIT provider"
            )
        self._provider = provider
        self.provider_name = provider.name

    def sweep_angle(self, executor, angle, total_source, boundary_values, incident, timings):
        return sweep_buckets(
            self, executor, angle, as_contiguous_f64(total_source), boundary_values,
            incident, timings, kernel=self._provider.kernel(),
        )

    def assemble_entry(self, sweep, bucket, orient):
        """Assemble one (angle, bucket) system and pack its kernel arrays."""
        executor = sweep.executor
        a = assemble_bucket_matrices(executor, sweep.direction, orient, bucket)
        interior = interior_upwind_couplings(executor, sweep.direction, orient, bucket)
        # Pack the per-face coupling dict into flat kernel arrays.  cpl_src
        # holds *global* upwind element ids (psi of earlier buckets is
        # final), cpl_pos the position within this bucket.
        positions: list[np.ndarray] = []
        sources: list[np.ndarray] = []
        mats: list[np.ndarray] = []
        for face in sorted(interior):
            idx, neighbors, coupling = interior[face]
            positions.append(np.asarray(idx, dtype=np.int64))
            sources.append(np.asarray(neighbors, dtype=np.int64))
            mats.append(coupling)
        if positions:
            cpl_pos = as_contiguous_i64(np.concatenate(positions))
            cpl_src = as_contiguous_i64(np.concatenate(sources))
            cpl_mat = as_contiguous_f64(np.concatenate(mats, axis=0))
        else:
            cpl_pos = np.empty(0, dtype=np.int64)
            cpl_src = np.empty(0, dtype=np.int64)
            cpl_mat = np.empty((0, sweep.num_nodes, sweep.num_nodes), dtype=np.float64)
        return a, {
            "bucket": as_contiguous_i64(bucket),
            "mass": as_contiguous_f64(executor.matrices.mass[bucket]),
            "cpl_pos": cpl_pos,
            "cpl_src": cpl_src,
            "cpl_mat": cpl_mat,
            "interior": interior,
            "rhs": np.empty(
                (bucket.shape[0], sweep.num_groups, sweep.num_nodes), dtype=np.float64
            ),
        }

    def factor_entry(self, sweep, assembled):
        a, entry = assembled
        n = sweep.num_nodes
        lu, piv = batched_gaussian_lu_factor(a.reshape(-1, n, n))
        entry["lu"] = as_contiguous_f64(lu)
        entry["piv"] = as_contiguous_i64(piv)
        return entry

    def assemble_rhs(self, sweep, bucket, orient, entry):
        # Vacuum interior sweep: the kernel assembles the RHS itself.
        if sweep.vacuum:
            return None
        return sweep.rhs(bucket, orient, interior=entry["interior"])

    def solve(self, sweep, bucket, entry, rhs):
        fused = rhs is None
        sweep.kernel(
            entry["bucket"], entry["mass"], sweep.total_source,
            entry["cpl_pos"], entry["cpl_src"], entry["cpl_mat"], entry["lu"], entry["piv"],
            entry["rhs"] if fused else as_contiguous_f64(rhs), int(fused), sweep.psi,
        )
