"""The repo benchmark: one seeded workload, timed, checked, reported.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload steady-solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same seeded operations twice, untraced and then
traced, and reports per-layer metrics plus the tracing overhead.  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
human-readable report (seed, machine, every metric with its unit).

``--workload all`` runs every workload, each in its own process, prints one
table and exits non-zero if any output check failed.

``--plant lu|put`` adds a fixed delay to one layer (the LU factorisation or
``ResultStore.put``); :mod:`selftest` uses it to check the attribution.
The program is built from ``src/`` of the checkout; cache and spool files go
to ``.bench_build/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

#: Fresh-process readiness probes per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Fewest operations a timed pass makes, however short ``--seconds`` is.
MIN_OPS = 3
#: Tail percentile of ``latency_ms_tail`` per workload, frozen.  At most the
#: highest multiple of 5 leaving ten samples beyond it in a 20 s run; README.md
#: gives the sample counts and why steady-solve and cold-scan use p75.
TAIL_PERCENTILE = {"steady-solve": 75, "cold-scan": 75, "service-campaign": 65}
#: Planted delays (seconds per call) for the attribution self-test.  The put
#: delay is long so that its rise stands clear of the ~0.1 s run-to-run noise
#: of its sibling ``distributed.overhead_s`` (worker spawn and import).
PLANTS = {"lu": ("solvers.lu_factor", 0.002), "put": ("store.put", 2.0)}
#: Operations per block: the timed pass stops on a whole block, so every
#: run keeps the workload's exact mix.
BLOCK = {"steady-solve": 1, "cold-scan": 6, "service-campaign": 3}

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "throughput_per_s": "1/s",
    "grind_ns": "ns",
    "miss_ms_p50": "ms",
    "peak_rss_mb": "MiB",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def prepare_environment() -> None:
    """Program on ``sys.path``; temp files (kernel cache, spools) in the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    # Child processes (spool workers, reference workers) import from here too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), os.environ.get("PYTHONPATH", "")) if p
    )
    sys.path[:0] = [str(SRC), str(HERE)]


def probe_setup(probe_args: tuple[str, ...]) -> float:
    """Spawn-to-ready wall time of one fresh process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), *probe_args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def fingerprint() -> dict:
    from repro.engines.compiled.providers import select_provider

    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    provider = select_provider()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiled_provider": provider.name if provider else None,
    }


def timed_pass(workload, seconds: float, block: int, tracer=None, count=None):
    """Run operations until ``seconds`` pass (on a whole block) or ``count`` ran."""
    workload.start()
    records: list[dict] = []
    inputs = workload.inputs()
    try:
        t_start = time.perf_counter()
        while True:
            n = len(records)
            if count is not None:
                if n >= count:
                    break
            elif n >= MIN_OPS and n % block == 0 and time.perf_counter() - t_start >= seconds:
                break
            inp = next(inputs)
            if tracer is not None:
                tracer.begin_op(n)
            t0 = time.perf_counter()
            try:
                rec = workload.run_op(inp)
            except Exception as exc:  # a failed operation is counted, not fatal
                rec = {"spec": inp, "error": f"{type(exc).__name__}: {exc}"}
            rec["latency"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            records.append(rec)
        wall = time.perf_counter() - t_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        extra = workload.after_pass()
    finally:
        workload.stop()
    return records, wall, peak_rss_mb, extra


def check_records(workload, records: list[dict]) -> int:
    """Mark every record ``ok``; returns the number of failed operations."""
    good = [r for r in records if "error" not in r]
    try:
        workload.check(good)
    except Exception as exc:  # a check that cannot run fails its operations
        print(f"check error: {type(exc).__name__}: {exc}", file=sys.stderr)
        for rec in good:
            rec["ok"] = False
    for rec in records:
        if "error" in rec:
            rec["ok"] = False
    return sum(1 for r in records if not r["ok"])


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A beta-weighted average of every order statistic rather than one or two
    of them.  The workload mixes make latency multi-modal (six spec classes
    in ``cold-scan``, hits and misses in ``service-campaign``), and there the
    plain sample median sits in the gap between two modes and jumps from
    one to the other between runs.
    """
    from scipy.stats import beta

    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = beta.cdf([i / n for i in range(n + 1)], a, b)
    return float(sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n)))


def end_to_end(name: str, records, wall, peak_rss_mb, setup_s) -> dict[str, float]:
    from workloads import work_units

    latencies = [r["latency"] for r in records]
    misses = [r["latency"] for r in records if not r.get("hit")]
    # Grind time over the solves that ran: the program's own solve-loop wall
    # (no problem build, no service or spool time) per cell-angle-group update.
    solved = [r for r in records if "solve_s" in r]
    units = sum(work_units(r["spec"], r["sweeps"]) for r in solved)
    solve_s = sum(r["solve_s"] for r in solved)
    return {
        "setup_s": setup_s,
        "latency_ms_p50": 1e3 * quantile(latencies, 0.5),
        "latency_ms_tail": 1e3 * quantile(latencies, TAIL_PERCENTILE[name] / 100),
        "throughput_per_s": len(records) / wall,
        "grind_ns": 1e9 * solve_s / units if units else 0.0,
        "miss_ms_p50": 1e3 * quantile(misses, 0.5) if misses else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def run_workload(args) -> int:
    import workloads
    from tracer import Tracer, install

    cls = workloads.WORKLOADS[args.workload]
    block = BLOCK[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}" + (f"  plant {args.plant}" if args.plant else ""))
    print("machine " + json.dumps(fingerprint()))

    plant = PLANTS.get(args.plant)
    planter = None
    if plant is not None:
        planter = Tracer(record=bool(args.trace))
        planter.delays[plant[0]] = plant[1]

    if not args.trace:
        probe_setup(cls.probe_args)  # untimed: builds the kernel cache once
        setup_s = statistics.median(probe_setup(cls.probe_args) for _ in range(SETUP_PROBES))
        if planter is not None:
            install(planter)
            if plant[0] in planter.missing:
                return fail(f"entry point of {plant[0]} not found, the plant would be void")
        records, wall, rss, _ = timed_pass(cls(args.seed), args.seconds, block)
        failed = check_records(cls(args.seed), records)
        metrics = end_to_end(args.workload, records, wall, rss, setup_s)
        metric_units = END_TO_END_UNITS
        print(f"samples {len(records)}  (hits {sum(1 for r in records if r.get('hit'))})  "
              f"tail percentile p{TAIL_PERCENTILE[args.workload]}  "
              f"fail_frac {failed / len(records):.4f}")
    else:
        from layers import LAYER_UNITS, layer_metrics

        untraced, _, _, _ = timed_pass(cls(args.seed), args.seconds / 2, block)
        tracer = install(planter if planter is not None else Tracer())
        if tracer.missing:
            # An unwrapped layer would read 0 and its time would move into its
            # caller's self time: a false gain, so no result at all.
            tracer.restore()
            return fail(f"entry points not found, attribution would be wrong: {tracer.missing}")
        try:
            traced_workload = cls(args.seed)
            traced_workload.traced = True
            traced, _, _, extra = timed_pass(
                traced_workload, 0, block, tracer=tracer, count=len(untraced)
            )
        finally:
            tracer.restore()
        failed = check_records(cls(args.seed), untraced + traced)
        records = untraced + traced
        metrics = layer_metrics(tracer, traced, untraced, **extra)
        metric_units = LAYER_UNITS
        BUILD.mkdir(parents=True, exist_ok=True)
        trace_path = BUILD / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.dump(trace_path)
        print(f"samples {len(traced)} traced + {len(untraced)} untraced  "
              f"spans {len(tracer.spans)} -> {trace_path.relative_to(ROOT)}  "
              f"fail_frac {failed / len(records):.4f}")

    for name, unit in metric_units.items():
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in metric_units.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; one table; non-zero on any failure."""
    rows, status = [], 0
    for name in BLOCK:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
            continue
        fail_frac = result["failed"] / result["attempted"]
        rows.append((name, "fail_frac", fail_frac, "ratio"))
        rows += [(name, k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    print(f"seed {args.seed}")
    for name, metric, value, unit in rows:
        print(f"{name:18s} {metric:32s} {value:>16.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", choices=sorted(PLANTS))
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no program to benchmark: {SRC / 'repro'} is missing")
    prepare_environment()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in BLOCK:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(BLOCK)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
