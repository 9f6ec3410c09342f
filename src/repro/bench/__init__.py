"""The benchmark & telemetry subsystem.

Mirrors :mod:`repro.verify` (machine-checked correctness) with the
machine-checked *performance* story the paper's claims rest on:

* a **benchmark-case registry** -- the fourth
  :class:`repro.registry.Registry` instantiation
  (:func:`register_benchmark`; built-in cases in :mod:`.cases` replace the
  old hand-rolled ``bench_*.py`` measurement scripts), each case a
  tagged measurement closure over the shared shrinkable
  :class:`BenchWorkload`;
* **phase-level telemetry** (:mod:`repro.telemetry`, re-exported here) --
  the :class:`Telemetry` instrument threaded through ``repro.run`` down to
  the sweep executor, recording per-phase wall time and counters with zero
  overhead when disabled;
* a **unified report format** (``unsnap-bench-v1``,
  :class:`~repro.bench.report.BenchReport` with ``load``/``save``/
  ``compare``) whose run-to-run comparison is the regression gate behind
  ``unsnap bench --compare [--fail-on-regress]``; and
* the **measured-vs-model overlay** (:mod:`.model`) connecting measured
  sweep times to the :mod:`repro.perfmodel` roofline prediction.

Usage::

    from repro.bench import run_benchmarks

    report = run_benchmarks(["kernel"], smoke=True)
    report.save("bench.json")
    comparison = report.compare(BenchReport.load("baseline.json"))
    assert comparison.passed
"""

from ..telemetry import PhaseTimer, Telemetry
from . import cases as _cases  # noqa: F401  -- registers the built-in cases
from . import model as _model  # noqa: F401  -- registers the overlay case
from .registry import (
    BenchCase,
    available_benchmarks,
    available_tags,
    benchmark_listing,
    get_benchmark,
    register_benchmark,
    select_benchmarks,
)
from .report import (
    BenchComparison,
    BenchReport,
    CaseReport,
    SampleStats,
    compare_reports,
    machine_fingerprint,
)
from .suite import run_benchmarks, run_case
from .trend import build_trend, format_trend, load_trend_reports
from .workload import BenchWorkload

__all__ = [
    "Telemetry",
    "PhaseTimer",
    "BenchWorkload",
    "BenchCase",
    "register_benchmark",
    "get_benchmark",
    "available_benchmarks",
    "available_tags",
    "benchmark_listing",
    "select_benchmarks",
    "run_benchmarks",
    "run_case",
    "BenchReport",
    "CaseReport",
    "SampleStats",
    "BenchComparison",
    "compare_reports",
    "machine_fingerprint",
    "load_trend_reports",
    "build_trend",
    "format_trend",
]
