"""Planted-slowdown self-test of the per-layer attribution.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

For each planted layer the benchmark's own wrapper adds a fixed delay to
that layer's public function (``run.py --plant``), and the test checks the
interaction table of README.md:

* ``lu`` (the LU factorisation): ``solvers.lu_factor_s`` and
  ``latency_ms_p50`` rise on ``cold-scan``, while the sibling layers
  ``engines.assemble_matrices_s``, ``build.s`` and ``factor_cache.get_s``
  there take no more than a quarter of the planted rise;
  ``latency_ms_p50`` on ``service-campaign`` stays within its bound.
* ``put`` (``ResultStore.put``): ``store.put_s`` and ``miss_ms_p50`` rise on
  ``service-campaign``, while ``store.get_s`` and ``distributed.overhead_s``
  there take no more than a quarter of the planted rise; ``latency_ms_p50``
  on ``cold-scan`` stays within its bound.

The sibling checks are the ones that can catch a leak: a planted delay
credited to a neighbouring layer.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEED = 101
SECONDS = 8.0
#: plant -> (layer metric, end-to-end metric, predicted workload, flat workload,
#: sibling layer metrics on the predicted workload that must stay flat)
CASES = {
    "lu": ("solvers.lu_factor_s", "latency_ms_p50", "cold-scan", "service-campaign",
           ("engines.assemble_matrices_s", "build.s", "factor_cache.get_s")),
    "put": ("store.put_s", "miss_ms_p50", "service-campaign", "cold-scan",
            ("store.get_s", "distributed.overhead_s")),
}
#: Largest share of the planted layer's rise a sibling layer may show.  A
#: leak credits most of the planted delay to the wrong layer.  A sibling
#: without a leak moved by up to ~45% of its own small value between two
#: single 8 s runs, from noise and from the plant's side effects (each sleep
#: yields the CPU and leaves its caches cold): under 5% of the planted rise.
LEAK_SHARE = 0.25


def bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def measure(workload: str, trace: int, plant=None) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    if plant:
        argv += ["--plant", plant]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    bound = bounds()
    runs: dict[tuple, dict] = {}

    def get(workload, trace, plant=None):
        key = (workload, trace, plant)
        if key not in runs:
            runs[key] = measure(workload, trace, plant)
        return runs[key]

    ok = True

    def verdict(passed: bool, text: str) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {text}", flush=True)

    for plant, (layer, e2e, moved, flat, siblings) in CASES.items():
        base, slowed = get(moved, 1)[layer], get(moved, 1, plant)[layer]
        verdict(slowed > base * 1.5 and slowed > base + 1e-3,
                f"{plant}: {layer} on {moved} {base:.4g} -> {slowed:.4g}")
        planted_rise = slowed - base
        for sibling in siblings:
            base, slowed = get(moved, 1)[sibling], get(moved, 1, plant)[sibling]
            verdict(slowed - base <= LEAK_SHARE * planted_rise,
                    f"{plant}: {sibling} on {moved} {base:.4g} -> {slowed:.4g} "
                    f"(no leak: rise at most {LEAK_SHARE} x {planted_rise:.4g})")
        base, slowed = get(moved, 0)[e2e], get(moved, 0, plant)[e2e]
        verdict(slowed > base * (1 + bound[e2e]),
                f"{plant}: {e2e} on {moved} {base:.4g} -> {slowed:.4g} "
                f"(must exceed bound {bound[e2e]})")
        base, slowed = get(flat, 0)["latency_ms_p50"], get(flat, 0, plant)["latency_ms_p50"]
        verdict(slowed <= base * (1 + bound["latency_ms_p50"]),
                f"{plant}: latency_ms_p50 on {flat} {base:.4g} -> {slowed:.4g} "
                f"(flat: within bound {bound['latency_ms_p50']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
