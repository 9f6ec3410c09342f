"""The benchmark workload and its shrink policy.

Every registered benchmark case derives its problem sizes from one
:class:`BenchWorkload`, so the whole suite shrinks or grows coherently.
Two size tiers exist:

* the **full** tier (the committed ``BENCH_*.json`` trajectory and the
  nightly run) defaults to the 8^3 / 16-angle / 8-group workload the engine
  speedup numbers have always been quoted on; and
* the **smoke** tier (``unsnap bench --smoke``, the per-PR CI job) shrinks
  every axis so the entire suite completes in well under two minutes.

Both tiers remain overridable through the ``UNSNAP_BENCH_*`` environment
variables that the old ``bench_*.py`` scripts introduced -- the
same knobs, now applied uniformly to every case.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

__all__ = ["BenchWorkload", "ENV_KNOBS"]

#: ``UNSNAP_BENCH_*`` environment variable -> :class:`BenchWorkload` field.
ENV_KNOBS = {
    "UNSNAP_BENCH_N": "n",
    "UNSNAP_BENCH_NANG": "angles_per_octant",
    "UNSNAP_BENCH_GROUPS": "num_groups",
    "UNSNAP_BENCH_SWEEPS": "sweeps",
    "UNSNAP_BENCH_JOBS": "jobs",
    "UNSNAP_BENCH_REPEATS": "repeats",
    "UNSNAP_BENCH_WARMUP": "warmup",
}


@dataclass(frozen=True)
class BenchWorkload:
    """Problem sizes and measurement policy shared by all benchmark cases.

    Attributes
    ----------
    n:
        Cells per axis of the main cubic grid (cases needing smaller grids
        derive from it, e.g. the cubic-order thread-scaling case).
    angles_per_octant, num_groups:
        Angular and energy resolution of the main workload.
    sweeps:
        Repeated sweeps per engine measurement (exposes factor-cache reuse).
    jobs:
        Worker cap for the concurrent study backends.
    repeats, warmup:
        Measurement policy: every case is invoked ``warmup + repeats`` times
        and the first ``warmup`` invocations are discarded from the
        statistics.
    smoke:
        Whether this is the shrunken smoke tier (recorded in the report).
    """

    n: int = 8
    angles_per_octant: int = 2
    num_groups: int = 8
    sweeps: int = 3
    jobs: int = 4
    repeats: int = 2
    warmup: int = 1
    smoke: bool = False

    def __post_init__(self) -> None:
        if min(self.n, self.angles_per_octant, self.num_groups, self.sweeps) < 1:
            raise ValueError("workload sizes must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.repeats < 1 or self.warmup < 0:
            raise ValueError("need repeats >= 1 and warmup >= 0")

    #: Smoke-tier defaults: every case in seconds, the whole suite well
    #: under the two-minute budget.
    _SMOKE = dict(n=3, angles_per_octant=1, num_groups=2, sweeps=2, jobs=2,
                  repeats=1, warmup=0)

    @classmethod
    def from_env(cls, smoke: bool = False, env=None) -> "BenchWorkload":
        """Build a workload from the tier defaults plus ``UNSNAP_BENCH_*``.

        An explicitly-set environment knob overrides the tier default, so CI
        and local runs can shrink (or grow) any axis without code changes.
        """
        env = os.environ if env is None else env
        values = dict(cls._SMOKE) if smoke else {}
        for var, fieldname in ENV_KNOBS.items():
            raw = env.get(var)
            if raw is not None:
                values[fieldname] = int(raw)
        return cls(smoke=smoke, **values)

    def with_(self, **changes) -> "BenchWorkload":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-safe export (embedded in every ``unsnap-bench-v1`` report)."""
        return {
            "n": self.n,
            "angles_per_octant": self.angles_per_octant,
            "num_groups": self.num_groups,
            "sweeps": self.sweeps,
            "jobs": self.jobs,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "smoke": self.smoke,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchWorkload":
        return cls(**data)
