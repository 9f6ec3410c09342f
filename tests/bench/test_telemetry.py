"""Telemetry: phases, counters, nesting, threading through the execution paths."""

import threading
import time

import numpy as np
import pytest

import repro
from repro.config import ProblemSpec
from repro.core.solver import TransportSolver
from repro.engines import available_engines
from repro.telemetry import NULL_PHASE, Telemetry

SMALL = ProblemSpec(nx=3, ny=3, nz=3, angles_per_octant=1, num_groups=2,
                    num_inners=2, num_outers=1)
CACHING_ENGINES = [e for e in ("prefactorized", "compiled") if e in available_engines()]


class TestTelemetryObject:
    def test_phase_records_seconds_and_calls(self):
        tel = Telemetry()
        with tel.phase("work"):
            time.sleep(0.001)
        with tel.phase("work"):
            pass
        assert tel.phase_calls["work"] == 2
        assert tel.phase_seconds["work"] > 0.0

    def test_nested_phases_record_dotted_paths(self):
        tel = Telemetry()
        with tel.phase("outer"):
            with tel.phase("inner"):
                with tel.phase("leaf"):
                    pass
            with tel.phase("inner"):
                pass
        assert set(tel.phase_seconds) == {"outer", "outer.inner", "outer.inner.leaf"}
        assert tel.phase_calls["outer.inner"] == 2
        # A parent's time includes its children's.
        assert tel.phase_seconds["outer"] >= tel.phase_seconds["outer.inner"]

    def test_fresh_instrument_is_truthy_and_empty(self):
        tel = Telemetry()
        assert tel.empty
        assert bool(tel)  # no __bool__ surprise in `if tel` guards
        tel.incr("x")
        assert not tel.empty

    def test_counters_and_gauges(self):
        tel = Telemetry()
        tel.incr("events")
        tel.incr("events", 2)
        tel.incr("bytes", 0.5)
        tel.gauge("workers", 4)
        tel.gauge("workers", 8)
        assert tel.counters == {"events": 3, "bytes": 0.5}
        assert tel.gauges == {"workers": 8}

    def test_disabled_instrument_is_a_noop(self):
        tel = Telemetry(enabled=False)
        assert tel.phase("anything") is NULL_PHASE
        with tel.phase("anything"):
            pass
        tel.incr("events")
        tel.gauge("workers", 4)
        assert tel.empty

    def test_to_from_dict_round_trip_is_exact(self):
        tel = Telemetry()
        with tel.phase("solve"):
            with tel.phase("sweep"):
                pass
        tel.incr("local_solves", 864)
        tel.incr("seconds", 0.1 + 0.2)  # a non-representable double
        tel.gauge("workers", 3)
        reloaded = Telemetry.from_dict(tel.to_dict())
        assert reloaded.to_dict() == tel.to_dict()
        assert reloaded.phase_calls == tel.phase_calls

    def test_merge_adds_phases_and_counters(self):
        a, b = Telemetry(), Telemetry()
        with a.phase("sweep"):
            pass
        with b.phase("sweep"):
            pass
        a.incr("solves", 2)
        b.incr("solves", 3)
        b.gauge("workers", 2)
        a.merge(b)
        assert a.phase_calls["sweep"] == 2
        assert a.counters["solves"] == 5
        assert a.gauges["workers"] == 2

    def test_total_seconds_counts_only_top_level(self):
        tel = Telemetry()
        with tel.phase("setup"):
            pass
        with tel.phase("solve"):
            with tel.phase("sweep"):
                pass
        total = tel.total_seconds()
        assert total == pytest.approx(
            tel.phase_seconds["setup"] + tel.phase_seconds["solve"]
        )
        assert tel.total_seconds("solve") == tel.phase_seconds["solve.sweep"]

    def test_concurrent_increments_are_safe(self):
        tel = Telemetry()

        def worker():
            for _ in range(1000):
                tel.incr("events")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tel.counters["events"] == 4000


class TestRunTelemetry:
    def test_run_without_telemetry_carries_none(self):
        result = repro.run(SMALL)
        assert result.telemetry is None
        assert "telemetry" not in result.to_dict()
        assert "phase_seconds" not in result.summary()

    def test_run_with_true_creates_and_returns_instrument(self):
        result = repro.run(SMALL, telemetry=True)
        tel = result.telemetry
        assert isinstance(tel, Telemetry)
        for phase in ("setup", "solve", "solve.source", "solve.sweep",
                      "solve.convergence"):
            assert phase in tel.phase_seconds, phase
        assert tel.phase_calls["solve.sweep"] == SMALL.num_inners
        assert tel.counters["sweeps"] == SMALL.num_inners
        assert tel.counters["local_solves"] == result.timings.systems_solved

    def test_existing_instrument_accumulates_across_runs(self):
        tel = Telemetry()
        repro.run(SMALL, telemetry=tel)
        first = tel.counters["sweeps"]
        result = repro.run(SMALL, telemetry=tel)
        assert result.telemetry is tel
        assert tel.counters["sweeps"] == 2 * first

    def test_disabled_instrument_behaves_like_none(self):
        """A switched-off instrument must not leak empty keys into exports."""
        tel = Telemetry(enabled=False)
        result = repro.run(SMALL, telemetry=tel)
        assert tel.empty
        assert result.telemetry is None
        assert "telemetry" not in result.to_dict()
        assert "phase_seconds" not in result.summary()

    @pytest.mark.parametrize("engine", CACHING_ENGINES)
    def test_factor_cache_counters(self, engine):
        spec = SMALL.with_(engine=engine)
        result = repro.run(spec, telemetry=True)
        counters = result.telemetry.counters
        # Sweep 1 misses, and factors, every (angle, bucket) exactly once;
        # the remaining inners hit every one of them.
        schedule = TransportSolver(spec).executor.schedule
        buckets = sum(
            len(schedule.for_angle(angle).buckets) for angle in range(schedule.num_angles)
        )
        assert counters["factor_cache_misses"] == buckets
        assert counters["factor_cache_hits"] == (SMALL.num_inners - 1) * buckets

    def test_multi_rank_halo_counters_match_result(self):
        result = repro.run(SMALL.with_(npex=3), telemetry=True)
        tel = result.telemetry
        assert "solve.halo" in tel.phase_seconds
        assert tel.counters["halo_messages"] == result.messages
        assert tel.counters["halo_bytes"] == result.bytes_exchanged
        assert tel.gauges["ranks"] == 3

    def test_octant_parallel_records_pool_occupancy(self):
        result = repro.run(SMALL, octant_parallel=True, num_threads=4, telemetry=True)
        assert result.telemetry.gauges["octant_pool_workers"] == 4

    @pytest.mark.parametrize("engine", ("reference", "vectorized", "prefactorized"))
    def test_telemetry_never_perturbs_numerics(self, engine):
        """Instrumented and uninstrumented runs agree bit for bit."""
        spec = SMALL.with_(engine=engine)
        plain = repro.run(spec)
        instrumented = repro.run(spec, telemetry=True)
        np.testing.assert_array_equal(plain.scalar_flux, instrumented.scalar_flux)
        octant = repro.run(spec, octant_parallel=True, num_threads=2, telemetry=True)
        np.testing.assert_array_equal(
            repro.run(spec, octant_parallel=True, num_threads=2).scalar_flux,
            octant.scalar_flux,
        )

    def test_telemetry_off_has_no_measurable_sweep_overhead(self):
        """The disabled path must not be slower than the instrumented one.

        Telemetry-off *is* the baseline code path, so the honest proxy for
        "no overhead" is that it never loses to the strictly-more-work
        telemetry-on path (min over repeats to cut scheduler noise; generous
        slack because tiny sweeps jitter on shared machines).
        """
        from repro.core.solver import TransportSolver

        solver_off = TransportSolver(SMALL)
        solver_on = TransportSolver(SMALL, telemetry=Telemetry())
        source = np.ones(
            (solver_off.mesh.num_cells, SMALL.num_groups, solver_off.ref.num_nodes)
        )

        def best_of(executor, repeats=5):
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                executor.sweep(source)
                samples.append(time.perf_counter() - t0)
            return min(samples)

        best_of(solver_off.executor, repeats=1)  # warm both paths
        best_of(solver_on.executor, repeats=1)
        off = best_of(solver_off.executor)
        on = best_of(solver_on.executor)
        assert off <= 1.5 * on + 0.005

    def test_summary_and_round_trip_with_telemetry(self):
        result = repro.run(SMALL, telemetry=True)
        summary = result.summary()
        assert summary["phase_seconds"] == {
            path: result.telemetry.phase_seconds[path]
            for path in sorted(result.telemetry.phase_seconds)
        }
        loaded = repro.RunResult.from_json(result.to_json(include_flux=True))
        assert loaded.to_dict(include_flux=True) == result.to_dict(include_flux=True)
        assert loaded.telemetry.counters == result.telemetry.counters
        assert loaded.telemetry.gauges == result.telemetry.gauges


class TestConformanceWithTelemetry:
    def test_conformance_suite_passes_with_telemetry_enabled(self, monkeypatch):
        """The verify matrix still passes when every run is instrumented."""
        from repro import runner as runner_module
        from repro.verify.conformance import conformance_matrix

        real_run = runner_module.run
        instrumented = []

        def run_with_telemetry(spec, **kwargs):
            kwargs.setdefault("telemetry", Telemetry())
            result = real_run(spec, **kwargs)
            instrumented.append(result.telemetry)
            return result

        monkeypatch.setattr(runner_module, "run", run_with_telemetry)
        fast = ProblemSpec(
            nx=3, ny=3, nz=3, angles_per_octant=1, num_groups=2,
            max_twist=0.001, num_inners=2,
        )
        report = conformance_matrix(
            fast, backends=("serial",), thread_counts=(1,), octant_modes=(False, True)
        )
        assert report.passed
        assert instrumented and all(not tel.empty for tel in instrumented)
