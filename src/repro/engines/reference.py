"""The reference per-element sweep engine (the pseudocode of Figure 2).

Within a bucket every element is independent and, per element, the systems of
all energy groups are assembled and solved together (a batch of ``G`` small
dense systems sharing the same streaming matrix but different ``sigma_t,g``).
The assemble and solve phases are timed separately, per element, to reproduce
the split of Table II.  Independent bucket elements may optionally be
processed by a thread pool (``executor.element_threads``), with the bucket
boundary acting as a synchronisation point.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from ..mesh.hexmesh import BOUNDARY
from ..telemetry import active
from .registry import register_engine

__all__ = ["ReferenceSweepEngine"]


@register_engine("reference", aliases=("loop", "per-element"))
class ReferenceSweepEngine:
    """Per-element assemble/solve loop following the bucket schedule (Figure 2)."""

    def sweep_angle(self, executor, angle, total_source, boundary_values, incident, timings):
        mesh = executor.mesh
        direction = executor.quadrature.directions[angle]
        asched = executor.schedule.for_angle(angle)
        orientation = asched.classification.orientation
        matrices = executor.matrices
        solver = executor.solver
        psi_angle = np.zeros(
            (mesh.num_cells, executor.num_groups, executor.num_nodes), dtype=float
        )

        def process_element(element: int) -> None:
            t0 = time.perf_counter()
            upwind: dict[int, np.ndarray] = {}
            boundary_inflow_faces: list[int] = []
            for face in np.nonzero(orientation[element] == -1)[0].tolist():
                neighbor = mesh.face_neighbors[element, face]
                if neighbor != BOUNDARY:
                    upwind[face] = psi_angle[neighbor]
                    continue
                lagged = (
                    boundary_values.get(element, face, angle)
                    if boundary_values is not None
                    else None
                )
                if lagged is not None:
                    upwind[face] = lagged
                elif incident != 0.0:
                    boundary_inflow_faces.append(face)
            a, b = matrices.assemble_systems(
                element,
                direction,
                orientation[element],
                executor.sigma_t[element],
                total_source[element],
                upwind,
            )
            for face in boundary_inflow_faces:
                coupling = np.einsum("d,dij->ij", direction, matrices.face_own[element, face])
                b -= incident * coupling.sum(axis=1)[None, :]
            t1 = time.perf_counter()
            psi_angle[element] = solver.solve_batched(a, b)
            t2 = time.perf_counter()
            timings.assembly_seconds += t1 - t0
            timings.solve_seconds += t2 - t1
            timings.systems_solved += executor.num_groups

        tel = active(getattr(executor, "telemetry", None))
        sampler = None if tel is None else tel.bucket_sampler()
        # element_threads is 1 under octant-parallel execution: the worker
        # threads are spent at the octant level, never nested.
        threads = executor.element_threads
        with nullcontext() if threads == 1 else ThreadPoolExecutor(threads) as pool:
            map_elements = map if pool is None else pool.map
            for bucket in asched.buckets:
                sample = sampler is not None and sampler.want()
                if sample:
                    ts = time.perf_counter()
                # Elements within a bucket are mutually independent; the
                # bucket boundary is a synchronisation point.
                list(map_elements(process_element, bucket.tolist()))
                if sample:
                    sampler.record(
                        time.perf_counter() - ts, bucket.shape[0] * executor.num_groups
                    )
        return psi_angle
