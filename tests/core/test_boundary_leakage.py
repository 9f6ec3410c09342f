"""Bit identity of the precomputed boundary-leakage operator.

:class:`~repro.core.sweep.BoundaryFaceOperator` replaced a per-face Python
loop over ``ElementMatrices.outgoing_partial_current``.  That loop is kept
here as the oracle: every run below is solved twice, once as shipped and
once with ``SweepExecutor._boundary_leakage`` swapped for the loop, and the
leakage and balance residual must agree bit for bit.  No golden covers
incident boundaries or ``G = 1``, so this file is their guard.
"""

import sys

import numpy as np
import pytest

import repro
from repro.config import BoundaryCondition
from repro.core.solver import TransportSolver
from repro.core.sweep import BoundaryFaceOperator, SweepExecutor
from repro.engines.registry import available_engines
from repro.materials.library import snap_option1_library
from repro.parallel.block_jacobi import BlockJacobiDriver

BOUNDARIES = {
    "vacuum": BoundaryCondition(),
    "incident": BoundaryCondition(kind="incident", incident_flux=0.7),
    "reflective": BoundaryCondition(kind="reflective"),
}

SPEC = repro.ProblemSpec(
    nx=3, ny=2, nz=2,
    angles_per_octant=1,
    num_groups=2,
    num_inners=2,
    num_outers=1,
    engine="vectorized",
    boundary=BOUNDARIES["incident"],
)


def per_face_leakage(executor, angle, psi_angle, incident):
    """The per-face tally the operator replaced (the reference definition)."""
    direction = executor.quadrature.directions[angle]
    orientation = executor.schedule.for_angle(angle).classification.orientation
    halo = set(executor._halo_faces)
    leak = np.zeros(psi_angle.shape[1], dtype=float)
    for element, face in executor.mesh.boundary_faces():
        if (int(element), int(face)) in halo:
            continue
        orient = orientation[element, face]
        if orient == 1:
            leak += executor.matrices.outgoing_partial_current(
                int(element), int(face), direction, psi_angle[element]
            )
        elif orient == -1 and incident != 0.0:
            coupling = np.einsum(
                "d,dij->ij", direction, executor.matrices.face_own[int(element), int(face)]
            )
            leak += incident * coupling.sum()
    return leak


def assert_bit_identical(monkeypatch, spec, **run_kwargs):
    result = repro.run(spec, **run_kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(SweepExecutor, "_boundary_leakage", per_face_leakage)
        oracle = repro.run(spec, **run_kwargs)
    assert np.array_equal(result.leakage, oracle.leakage)
    assert np.array_equal(result.balance.residual, oracle.balance.residual)
    assert result.summary()["balance_residual"] == oracle.summary()["balance_residual"]
    assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
    return result


class TestLeakageMatchesPerFaceLoop:
    @pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
    @pytest.mark.parametrize("engine", available_engines())
    def test_every_engine_and_boundary(self, monkeypatch, engine, boundary):
        result = assert_bit_identical(
            monkeypatch, SPEC.with_(engine=engine, boundary=BOUNDARIES[boundary])
        )
        if boundary == "reflective":
            assert np.all(result.leakage == 0.0)
        else:
            assert np.all(result.leakage != 0.0)

    @pytest.mark.parametrize("num_groups", [1, 3])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_orders_and_group_counts(self, monkeypatch, order, num_groups):
        assert_bit_identical(
            monkeypatch, SPEC.with_(nx=2, order=order, num_groups=num_groups, num_inners=1)
        )

    @pytest.mark.parametrize("num_groups", [1, 2])
    @pytest.mark.parametrize("boundary", ["vacuum", "incident"])
    def test_block_jacobi_halo_faces(self, monkeypatch, boundary, num_groups):
        assert_bit_identical(
            monkeypatch,
            SPEC.with_(
                nx=4, npex=2, npey=1, num_groups=num_groups, boundary=BOUNDARIES[boundary]
            ),
        )

    @pytest.mark.parametrize("num_groups", [1, 2])
    def test_octant_parallel_matches_serial(self, monkeypatch, num_groups):
        spec = SPEC.with_(num_groups=num_groups)
        serial = assert_bit_identical(monkeypatch, spec)
        # One worker per octant (more than the cores) and frequent thread
        # switches, so a worker reading a half-built operator would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = assert_bit_identical(
                monkeypatch, spec, octant_parallel=True, num_threads=8
            )
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial.leakage, parallel.leakage)


def per_face_halo(halo_faces, executor, angle, psi_angle):
    """The halo collect the operator replaced: orientation read per face."""
    orientation = executor.schedule.for_angle(angle).classification.orientation
    outgoing = {}
    for cell, face in {(int(c), int(f)) for c, f in halo_faces[:, :2]}:
        if orientation[cell, face] == 1:
            outgoing[(cell, face, angle)] = psi_angle[cell].copy()
    return outgoing


def assert_halo_matches(executor, halo_faces, rng):
    shape = (executor.mesh.num_cells, executor.num_groups, executor.num_nodes)
    for angle in range(executor.quadrature.num_angles):
        psi = rng.standard_normal(shape)
        collected = {}
        executor._collect_halo(angle, psi, collected)
        expected = per_face_halo(halo_faces, executor, angle, psi)
        assert list(collected) == list(expected)
        for key, trace in expected.items():
            assert np.array_equal(collected[key], trace)
            assert not np.shares_memory(collected[key], psi)


class TestHaloCollect:
    def test_reflective_keys_values_and_order(self, rng):
        solver = TransportSolver(SPEC.with_(boundary=BOUNDARIES["reflective"]))
        assert_halo_matches(solver.executor, solver.mesh.boundary_faces(), rng)

    def test_block_jacobi_keys_values_and_order(self, rng):
        driver = BlockJacobiDriver(SPEC.with_(nx=4, npex=2, npey=1))
        for executor, sub in zip(driver.executors, driver.decomposition.subdomains):
            assert len(sub.halo_faces)
            assert_halo_matches(executor, sub.halo_faces, rng)


class TestOperatorBuild:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_batched_build_matches_per_face_contractions(self, order):
        executor = TransportSolver(SPEC.with_(nx=2, order=order)).executor
        matrices = executor.matrices
        for angle in range(executor.quadrature.num_angles):
            op = executor.boundary_operator(angle)
            direction = executor.quadrature.directions[angle]
            orientation = executor.schedule.for_angle(angle).classification.orientation
            faces = executor.mesh.boundary_faces()
            tallied = faces[orientation[faces[:, 0], faces[:, 1]] != 0]
            out_faces = tallied[op.out_rows]
            in_faces = tallied[op.in_rows]
            assert np.array_equal(op.out_cells, out_faces[:, 0])
            assert np.all(orientation[out_faces[:, 0], out_faces[:, 1]] == 1)
            assert np.all(orientation[in_faces[:, 0], in_faces[:, 1]] == -1)
            for (e, f), weights in zip(out_faces, op.out_weights):
                coupling = np.einsum("d,dij->ij", direction, matrices.face_own[e, f])
                assert np.array_equal(weights, coupling.sum(axis=0))
            for (e, f), weight in zip(in_faces, op.in_weights):
                coupling = np.einsum("d,dij->ij", direction, matrices.face_own[e, f])
                assert weight == coupling.sum()

    @pytest.mark.parametrize("num_groups", [1, 2, 8])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_random_flux_matches_oracle(self, rng, order, num_groups):
        executor = TransportSolver(SPEC.with_(nx=2, order=order)).executor
        shape = (executor.mesh.num_cells, num_groups, executor.num_nodes)
        for angle in range(executor.quadrature.num_angles):
            psi = rng.standard_normal(shape)
            for incident in (0.0, 0.3):
                assert np.array_equal(
                    executor.boundary_operator(angle).leakage(psi, incident),
                    per_face_leakage(executor, angle, psi, incident),
                )


class TestOperatorLifecycle:
    def test_kept_across_material_updates_and_invalidation(self):
        solver = TransportSolver(SPEC)
        executor = solver.executor
        ops = [executor.boundary_operator(a) for a in range(executor.quadrature.num_angles)]
        executor.update_materials(snap_option1_library(SPEC.num_groups))
        executor.invalidate_factor_cache()
        for angle, op in enumerate(ops):
            assert executor.boundary_operator(angle) is op

    @pytest.mark.parametrize(
        "spec",
        [
            SPEC.with_(driver="k_eigenvalue", k_tolerance=1e-4, max_power_iters=4),
            SPEC.with_(driver="time_dependent", dt=0.5, n_steps=2, initial_flux_value=1.0),
        ],
        ids=["k_eigenvalue", "time_dependent"],
    )
    def test_built_once_per_angle_per_run(self, monkeypatch, spec):
        built = []
        build = BoundaryFaceOperator.build

        def counting_build(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(BoundaryFaceOperator, "build", counting_build)
        repro.run(spec)
        assert len(built) == 8 * spec.angles_per_octant

    def test_octant_workers_find_every_operator_built(self, monkeypatch):
        solver = TransportSolver(SPEC, octant_parallel=True, num_threads=2)
        executor = solver.executor
        submitted = []
        original = SweepExecutor._sweep_octant

        def recording_octant(self, *args, **kwargs):
            submitted.append(all(op is not None for op in self._boundary_ops))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SweepExecutor, "_sweep_octant", recording_octant)
        executor.sweep(np.ones((SPEC.num_cells, SPEC.num_groups, executor.num_nodes)))
        assert submitted and all(submitted)
