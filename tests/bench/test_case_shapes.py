"""The paper's qualitative shapes, asserted on the registered benchmark cases.

Each registered case runs once on the smoke workload (three sweeps, so the
factor cache is reused more than once); every entry of :data:`SHAPES` is one
finding the paper reports -- or one invariant a case must keep -- checked on
that output, or on the node performance model behind Figures 3-4.  The
Table II timing shapes (:data:`TIMING_SHAPES`) are too close to call on one
smoke measurement of orders 1-2 under load, so they run in the ``slow`` tier
on the full workload (orders 1-3), where they are several times apart.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis.figures import PAPER_THREAD_COUNTS, figure3_series, figure4_series
from repro.bench import BenchWorkload, get_benchmark, select_benchmarks
from repro.bench.suite import run_case
from repro.config import ProblemSpec
from repro.engines import available_engines
from repro.perfmodel.roofline import arithmetic_intensity
from repro.perfmodel.schemes import paper_schemes
from repro.perfmodel.simulator import SweepPerformanceModel
from repro.perfmodel.workload import SweepWorkload

WORKLOAD = BenchWorkload.from_env(smoke=True, env={}).with_(sweeps=3)
FULL_WORKLOAD = BenchWorkload.from_env(env={})
CACHING_ENGINES = [e for e in ("prefactorized", "compiled") if e in available_engines()]
#: The node-model series behind Figures 3 and 4 (paper thread counts), built once.
fig3 = functools.cache(figure3_series)
fig4 = functools.cache(figure4_series)


def _reports_on(workload, name):
    @pytest.fixture(scope="module", name=name)
    def reports():
        """``reports(name)``: the case's report on ``workload``, run once per module."""
        cache = {}

        def get(name):
            if name not in cache:
                cache[name] = run_case(get_benchmark(name), workload)
            return cache[name]

        return get

    return reports


case = _reports_on(WORKLOAD, "case")
full_case = _reports_on(FULL_WORKLOAD, "full_case")


def _metric(report, key):
    return [sample.metrics[key] for sample in report.samples]


def _by_order(report, solver):
    return sorted(
        (int(s.name.split("-")[0].removeprefix("order")), s)
        for s in report.samples
        if s.name.endswith(f"-{solver}")
    )


def _layout_best(series, group_major):
    return min(
        values[-1]
        for label, values in series.items()
        if label.startswith(("angle/*group*", "angle/group")) == group_major
    )


def _engine_sweep_same_work(case):
    report = case("engine-sweep")
    assert {"reference", "vectorized", "prefactorized"} <= {s.name for s in report.samples}
    assert len(set(_metric(report, "systems_solved"))) == 1


def _engine_sweep_cache_cold_once(case):
    report = case("engine-sweep")
    for engine in CACHING_ENGINES:
        metrics = report.sample(engine).metrics
        assert metrics["factor_cache_misses"] > 0, engine
        assert metrics["factor_cache_hits"] == (
            (WORKLOAD.sweeps - 1) * metrics["factor_cache_misses"]
        ), engine


def _engine_sweep_kernel_covers_every_sweep(case):
    # kernel_seconds and seconds both span all timed sweeps; the engine
    # kernel is most of a vectorized sweep.
    sample = case("engine-sweep").sample("vectorized")
    assert sample.metrics["kernel_seconds"] / sample.best > 0.5


def _kernels_sampled(case):
    for name in ("assembly-kernel", "solve-kernel"):
        report = case(name)
        assert report.samples and all(s.best >= 0.0 for s in report.samples), name
    assert all(r < 1e-8 for r in _metric(case("solve-kernel"), "residual"))


def _matrix_setup_table1_sizes(case):
    report = case("matrix-setup")
    for sample in report.samples:
        order = int(sample.name.rsplit("-", 1)[1])
        assert sample.metrics["matrix_size"] == (order + 1) ** 3
        assert sample.best > 0


def _fd_vs_fem_same_physics(case):
    report = case("fd-vs-fem")
    fd, fem = report.sample("fd"), report.sample("fem")
    assert fd.best > 0 and fem.best > 0
    assert fem.metrics["mean_flux"] == pytest.approx(fd.metrics["mean_flux"], rel=0.1)


def _thread_scaling_moves_only_time(name, threads):
    def check(case):
        report = case(name)
        assert len({f"{flux:.17e}" for flux in _metric(report, "mean_flux")}) == 1
        assert set(_metric(report, "threads")) == threads

    return check


def _block_jacobi_error_grows_with_ranks(case):
    report = case("block-jacobi-ranks")
    assert len(report.samples) >= 3
    errors = _metric(report, "final_inner_error")
    assert errors[-1] > errors[0]


def _block_jacobi_grids_agree(case):
    report = case("block-jacobi-ranks")
    single = report.sample("1x1").metrics["mean_flux"]
    for flux in _metric(report, "mean_flux"):
        assert flux == pytest.approx(single, rel=0.05)


def _block_jacobi_halo_grows_with_ranks(case):
    messages = _metric(case("block-jacobi-ranks"), "halo_messages")
    assert messages[0] == 0
    assert all(b >= a for a, b in zip(messages, messages[1:]))


def _table2_grid_complete(case):
    report = case("table2-solvers")
    ge, lapack = _by_order(report, "ge"), _by_order(report, "lapack")
    assert len(ge) >= 2 and [o for o, _ in ge] == [o for o, _ in lapack]
    for (_, a), (_, b) in zip(ge, lapack):
        assert a.metrics["systems_solved"] == b.metrics["systems_solved"] > 0


def _table2_cost_grows_with_order(case):
    for solver in ("ge", "lapack"):
        rows = _by_order(case("table2-solvers"), solver)
        assert len(rows) >= 2
        assert rows[-1][1].best > rows[0][1].best, solver


def _table2_solve_fraction_grows_with_order(case):
    rows = _by_order(case("table2-solvers"), "lapack")
    assert rows[-1][1].metrics["solve_fraction"] > rows[0][1].metrics["solve_fraction"]


def _study_backends_equivalent(case):
    report = case("study-backends")
    assert {"serial", "thread", "process"} <= {s.name for s in report.samples}
    assert all(s.best > 0 for s in report.samples)
    assert len(set(_metric(report, "runs"))) == 1
    serial = report.sample("serial").metrics["mean_flux"]
    assert all(flux == serial for flux in _metric(report, "mean_flux"))


def _figure3_element_major_layout_wins(case):
    series = fig3().series
    assert _layout_best(series, group_major=False) < _layout_best(series, group_major=True)


def _figure3_paper_thread_counts(case):
    assert fig3().thread_counts == list(PAPER_THREAD_COUNTS)


def _collapse_fastest(figure):
    def check(case):
        # Section IV-A: collapsing the element and group loops of the
        # element-major layout is the fastest scheme on all 56 cores.
        assert figure().fastest_at(56) == "angle/*element*/*group*"

    return check


def _figure4_all_schemes_scale(case):
    for label, values in fig4().series.items():
        assert values[0] > values[-1], label


def _figure4_cubic_orders_of_magnitude_slower(case):
    best_linear = min(v[-1] for v in fig3().series.values())
    best_cubic = min(v[-1] for v in fig4().series.values())
    assert best_cubic / best_linear > 20.0


def _figure4_group_major_layout_competitive(case):
    def layout_gap(series):
        return _layout_best(series, group_major=True) / _layout_best(series, group_major=False)

    # The angle/group/element penalty shrinks (or at worst stays) from linear
    # to cubic elements: the 32 kB vs 64 B stride argument.
    assert layout_gap(fig4().series) <= layout_gap(fig3().series) + 1e-9


def _model_sweep_time_positive(case):
    for order in (1, 3):
        model = SweepPerformanceModel(ProblemSpec.paper_figure3_4(order=order))
        assert model.sweep_time(paper_schemes()[1], 56).seconds > 0, order


def _kernel_tag_selects_kernel_cases(case):
    assert {c.name for c in select_benchmarks(["kernel"])} >= {
        "engine-sweep", "assembly-kernel", "solve-kernel", "matrix-setup"
    }


def _fem_storage_and_intensity_per_order(case):
    for order in (1, 2, 3):
        spec = ProblemSpec(nx=2, ny=2, nz=2, order=order, angles_per_octant=1, num_groups=1)
        assert spec.nodes_per_element == (order + 1) ** 3
        assert spec.angular_flux_bytes() == (
            8 * spec.num_cells * spec.num_angles * (order + 1) ** 3
        )
        assert arithmetic_intensity(SweepWorkload(order=order, num_groups=64)) > 0


SHAPES = {
    "engine-sweep-same-work": _engine_sweep_same_work,
    "engine-sweep-cache-cold-once": _engine_sweep_cache_cold_once,
    "engine-sweep-kernel-covers-every-sweep": _engine_sweep_kernel_covers_every_sweep,
    "kernels-sampled": _kernels_sampled,
    "matrix-setup-table1-sizes": _matrix_setup_table1_sizes,
    "fd-vs-fem-same-physics": _fd_vs_fem_same_physics,
    "thread-scaling-linear-moves-only-time": _thread_scaling_moves_only_time(
        "thread-scaling-linear", {1, 2}
    ),
    "thread-scaling-cubic-moves-only-time": _thread_scaling_moves_only_time(
        "thread-scaling-cubic", {1, 2}
    ),
    "block-jacobi-error-grows-with-ranks": _block_jacobi_error_grows_with_ranks,
    "block-jacobi-grids-agree": _block_jacobi_grids_agree,
    "block-jacobi-halo-grows-with-ranks": _block_jacobi_halo_grows_with_ranks,
    "table2-grid-complete": _table2_grid_complete,
    "study-backends-equivalent": _study_backends_equivalent,
    "figure3-element-major-layout-wins": _figure3_element_major_layout_wins,
    "figure3-paper-thread-counts": _figure3_paper_thread_counts,
    "figure3-collapse-fastest": _collapse_fastest(fig3),
    "figure4-collapse-fastest": _collapse_fastest(fig4),
    "figure4-all-schemes-scale": _figure4_all_schemes_scale,
    "figure4-cubic-orders-of-magnitude-slower": _figure4_cubic_orders_of_magnitude_slower,
    "figure4-group-major-layout-competitive": _figure4_group_major_layout_competitive,
    "model-sweep-time-positive": _model_sweep_time_positive,
    "kernel-tag-selects-kernel-cases": _kernel_tag_selects_kernel_cases,
    "fem-storage-and-intensity-per-order": _fem_storage_and_intensity_per_order,
}


TIMING_SHAPES = {
    "table2-cost-grows-with-order": _table2_cost_grows_with_order,
    "table2-solve-fraction-grows-with-order": _table2_solve_fraction_grows_with_order,
}


@pytest.mark.parametrize("shape", SHAPES)
def test_case_shape(shape, case):
    SHAPES[shape](case)


@pytest.mark.slow
@pytest.mark.parametrize("shape", TIMING_SHAPES)
def test_timing_shape(shape, full_case):
    TIMING_SHAPES[shape](full_case)
