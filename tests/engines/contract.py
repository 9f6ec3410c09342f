"""Reusable engine-contract harness.

Every registered sweep engine -- built-in, the optional ``compiled`` tier,
or a third-party plugin -- must honour the same behavioural contract:

* **accuracy** -- the manufactured-solutions study observes the theoretical
  convergence order, and the flux agrees with the ``reference`` engine to
  conformance tolerance on a twisted multi-group problem;
* **factor-cache lifecycle** -- ``update_materials`` and ``set_engine``
  invalidate any memoised factors (no stale-factor reuse, bit-for-bit
  agreement with a freshly built solver);
* **determinism** -- octant-parallel execution is bit-for-bit identical
  across thread counts, including under a factor-cache budget;
* **observability is free** -- telemetry (even with bucket sampling at full
  rate) never changes a single bit of the numerics, and a budgeted
  factor cache stays within its byte budget while producing the identical
  flux (spilled factors are recomputed, never refused).

:class:`EngineContract` packages each clause as a ``check_*`` method so the
parametrised suite (``test_contract.py``) can run every clause against
every engine in ``available_engines()`` with no per-engine special-casing
-- adding an engine to the registry automatically subjects it to the full
contract.  (The tests tree is not a package; pytest's rootdir handling
puts this directory on ``sys.path``, so the suite imports the harness as
the top-level module ``contract``.)
"""

from __future__ import annotations

import numpy as np

import repro
from repro.config import ProblemSpec
from repro.core.solver import TransportSolver
from repro.engines import available_engines
from repro.materials.library import snap_option1_library
from repro.telemetry import Telemetry
from repro.verify.mms import FemMMSProblem, estimate_order

__all__ = ["EngineContract", "CONTRACT_SPEC"]

#: Small but non-trivial: twisted mesh, multi-group, scattering, several
#: buckets per angle -- enough structure to catch wrong coupling signs,
#: stale factors and cross-group mixups while staying fast-tier sized.
CONTRACT_SPEC = ProblemSpec(
    nx=3,
    ny=3,
    nz=3,
    angles_per_octant=2,
    num_groups=2,
    num_inners=3,
    num_outers=2,
)


class EngineContract:
    """All contract clauses for one engine name (see module docstring)."""

    def __init__(self, engine: str, spec: ProblemSpec = CONTRACT_SPEC):
        self.engine = engine
        self.spec = spec.with_(engine=engine)

    # ------------------------------------------------------------- accuracy
    def check_mms_order(self) -> None:
        """The engine observes the theoretical MMS convergence order."""
        estimate = estimate_order(
            FemMMSProblem(order=1, engine=self.engine), resolutions=(4, 8)
        )
        assert estimate.passed, (
            f"{self.engine}: observed order {estimate.observed_order:.3f} "
            f"vs theoretical {estimate.theoretical_order}"
        )

    def check_reference_agreement(self, tolerance: float = 1e-12) -> None:
        """Flux agrees with the reference engine to conformance tolerance."""
        flux = repro.run(self.spec).scalar_flux
        baseline = repro.run(self.spec.with_(engine="reference")).scalar_flux
        scale = float(np.max(np.abs(baseline)))
        diff = float(np.max(np.abs(flux - baseline))) / scale
        assert diff <= tolerance, f"{self.engine}: relative deviation {diff:.3e}"

    # -------------------------------------------------- factor-cache lifecycle
    def check_update_materials_invalidates(self) -> None:
        """Swapping cross sections mid-run never reuses stale factors."""
        solver = TransportSolver(self.spec)
        solver.solve()  # populate any factor cache
        replacement = snap_option1_library(self.spec.num_groups, 0.3)
        solver.update_materials(replacement)
        assert len(solver.executor.factor_cache) == 0, (
            f"{self.engine}: update_materials left factor-cache entries behind"
        )
        resolved = solver.solve().scalar_flux
        fresh = TransportSolver(self.spec, materials=replacement).solve().scalar_flux
        assert np.array_equal(resolved, fresh), (
            f"{self.engine}: post-update solve differs from a fresh solver "
            "(stale factors reused)"
        )

    def check_set_engine_invalidates(self) -> None:
        """Engine switches on a reused executor go through cache invalidation."""
        others = [name for name in available_engines() if name != self.engine]
        if not others:
            return
        solver = TransportSolver(self.spec)
        baseline = solver.solve().scalar_flux
        solver.set_engine(others[0])
        assert len(solver.executor.factor_cache) == 0, (
            f"{self.engine}: set_engine left factor-cache entries behind"
        )
        solver.solve()
        solver.set_engine(self.engine)
        assert len(solver.executor.factor_cache) == 0
        again = solver.solve().scalar_flux
        assert np.array_equal(baseline, again), (
            f"{self.engine}: solve after a round-trip engine switch differs"
        )

    # ---------------------------------------------------------- determinism
    def check_thread_invariance(self) -> None:
        """Octant-parallel sweeps are bit-identical across thread counts.

        The octant pool fixes its angle-reduction order, so within the
        octant-parallel mode the worker count must never change a bit (the
        serial non-octant loop is a *different* documented reduction order
        and is covered by :func:`check_reference_agreement` at tolerance).
        """
        single = repro.run(self.spec, num_threads=1, octant_parallel=True).scalar_flux
        for threads in (2, 3):
            parallel = repro.run(
                self.spec, num_threads=threads, octant_parallel=True
            ).scalar_flux
            assert np.array_equal(single, parallel), (
                f"{self.engine}: flux changed under octant_parallel x{threads}"
            )

    # -------------------------------------------------------- observability
    def check_telemetry_off_identity(self) -> None:
        """Telemetry -- even full-rate bucket sampling -- changes no bits.

        Includes the tracing extension: a telemetry instrument with an
        attached span exporter (every phase becomes a span event) must
        also reproduce the bare flux bit for bit, and the span file must
        actually carry the solve phases under one trace id.
        """
        import tempfile
        from pathlib import Path

        from repro.obs.trace import SpanExporter, read_spans

        bare = repro.run(self.spec).scalar_flux
        plain = Telemetry()
        sampled = Telemetry(bucket_sample_rate=1.0)
        assert np.array_equal(bare, repro.run(self.spec, telemetry=plain).scalar_flux)
        assert np.array_equal(bare, repro.run(self.spec, telemetry=sampled).scalar_flux)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "contract.jsonl"
            with SpanExporter(path) as exporter:
                traced = Telemetry().attach_exporter(exporter)
                with exporter.span("contract"):
                    flux = repro.run(self.spec, telemetry=traced).scalar_flux
            assert np.array_equal(bare, flux), (
                f"{self.engine}: attached span exporter changed the flux"
            )
            spans = read_spans(path)
            names = {span["name"] for span in spans}
            assert "solve" in names, (
                f"{self.engine}: traced run exported no solve-phase span "
                f"(got {sorted(names)})"
            )
            assert len({span["trace_id"] for span in spans}) == 1, (
                f"{self.engine}: one traced run produced multiple trace ids"
            )

    def check_budget_bounded(self, budget_bytes: int = 100_000) -> None:
        """A budgeted factor cache spills and recomputes, never refuses,
        stays within budget and reproduces the unbudgeted flux bit for bit."""
        unbudgeted = repro.run(self.spec).scalar_flux
        telemetry = Telemetry()
        budgeted = repro.run(
            self.spec, telemetry=telemetry, factor_cache_budget_bytes=budget_bytes
        ).scalar_flux
        assert np.array_equal(unbudgeted, budgeted), (
            f"{self.engine}: budgeted flux differs from unbudgeted"
        )
        caching = telemetry.counters.get("factor_cache_misses", 0) > 0
        if caching:
            # Engines that memoise factors must report their cache bytes,
            # stay under the (deliberately tight) budget and actually spill.
            peak = telemetry.gauges.get("factor_cache_bytes")
            assert peak is not None, f"{self.engine}: no factor_cache_bytes gauge"
            assert peak <= budget_bytes, (
                f"{self.engine}: cache holds {peak} bytes over the "
                f"{budget_bytes}-byte budget"
            )
            assert telemetry.counters.get("factor_cache_spills", 0) > 0, (
                f"{self.engine}: tight budget produced no spills"
            )

    # ------------------------------------------------------------- umbrella
    def check_all(self) -> None:
        """Every clause, in one call (used by plugin smoke tests)."""
        self.check_mms_order()
        self.check_reference_agreement()
        self.check_update_materials_invalidates()
        self.check_set_engine_invalidates()
        self.check_thread_invariance()
        self.check_telemetry_off_identity()
        self.check_budget_bounded()
