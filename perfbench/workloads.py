"""The three benchmark workloads: seeded inputs, one timed operation, checks.

Every workload follows the same shape, driven by :mod:`run`:

* ``inputs()`` yields an endless, seeded stream of operation inputs.  The
  seed changes the inputs (twists, order of the mix) but never the mix
  itself, so two seeds stress the same layers in the same proportions.
* ``start()`` / ``stop()`` bracket the timed region with untimed set-up
  (warm-up solve, daemon start) and tear-down.
* ``run_op(inp)`` is one user-visible operation; its wall time is a sample.
* ``check(records)`` computes the references outside the timed region and
  marks each record correct or not.  A failed check is a failed operation.

The program under test only ever receives the generated specs.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.campaign.store import ResultStore
from repro.config import ProblemSpec
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.service.http import make_server
from repro.telemetry import Telemetry

#: Relative flux agreement demanded between engine families.
FLUX_RTOL = 1e-12
#: Balance-residual bound a converged steady solve must meet.
BALANCE_BOUND = 1e-8
#: Client poll period while waiting for a service job (a coarser poll would
#: quantise the measured latency).
POLL_SECONDS = 0.002
#: Child processes computing the ``cold-scan`` references.
REFERENCE_WORKERS = 2
#: Each engine's reference comes from the other engine family.
OTHER_FAMILY = {"compiled": "prefactorized", "prefactorized": "compiled"}
#: Summary fields that describe the physics of a run (no timings, which
#: differ between any two executions).
PHYSICS_FIELDS = (
    "cells",
    "groups",
    "nodes_per_element",
    "total_inners",
    "outers",
    "converged",
    "systems_solved",
    "balance_residual",
    "mean_flux",
)


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.max(np.abs(b))) or 1.0
    return float(np.max(np.abs(a - b))) / scale


def reference_flux(spec: ProblemSpec) -> np.ndarray:
    """Scalar flux of ``spec`` solved on the other engine family."""
    return repro.run(spec, engine=OTHER_FAMILY[spec.engine]).scalar_flux


def work_units(spec: ProblemSpec, sweeps: int) -> int:
    """Cell-angle-group updates of a run: the SNAP grind-time denominator."""
    return sweeps * spec.num_cells * 8 * spec.angles_per_octant * spec.num_groups


class Workload:
    name = ""
    #: Extra arguments for the fresh-process set-up probe.
    probe_args: tuple[str, ...] = ()
    #: Set for the traced pass of ``--trace 1``.
    traced = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def start(self) -> None:
        pass

    def after_pass(self) -> dict:
        """Extra inputs for the per-layer report, read before ``stop()``."""
        return {}

    def stop(self) -> None:
        pass

    def inputs(self):
        raise NotImplementedError

    def run_op(self, inp) -> dict:
        raise NotImplementedError

    def check(self, records: list[dict]) -> None:
        raise NotImplementedError


class SteadySolve(Workload):
    """Sequential converged solves of one spec on the compiled engine."""

    name = "steady-solve"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.spec = ProblemSpec(
            nx=8,
            ny=8,
            nz=8,
            order=1,
            angles_per_octant=2,
            num_groups=8,
            engine="compiled",
            num_inners=5,
            num_outers=50,
            inner_tolerance=1e-8,
            outer_tolerance=1e-6,
            max_twist=float(self.rng.uniform(0.001, 0.002)),
        )

    def start(self) -> None:
        repro.run(self.spec)  # warm-up: lazy imports, kernel load

    def inputs(self):
        return itertools.repeat(self.spec)

    def run_op(self, spec) -> dict:
        result = repro.run(spec)
        return {
            "spec": spec,
            "flux": result.scalar_flux,
            "converged": result.history.converged,
            "balance": result.balance.relative_residual(),
            "sweeps": result.history.total_inners,
            "solve_s": result.solve_seconds,
            "outers": result.history.num_outers,
        }

    def check(self, records: list[dict]) -> None:
        reference = reference_flux(self.spec)
        for rec in records:
            rec["ok"] = (
                bool(rec["converged"])
                and rec["balance"] <= BALANCE_BOUND
                and rel_diff(rec["flux"], reference) <= FLUX_RTOL
            )


class ColdScan(Workload):
    """Distinct specs, each solved once: build, cache-miss assembly and LU."""

    name = "cold-scan"
    #: (order, cells per side) classes, following the paper's linear-vs-cubic axis.
    SHAPES = ((1, 6), (2, 4), (3, 3))
    ENGINES = ("compiled", "prefactorized")

    def start(self) -> None:
        # Warm-up on a spec outside the scanned set (order 1, 2 cells a side).
        for engine in self.ENGINES:
            repro.run(ProblemSpec(nx=2, ny=2, nz=2, engine=engine, num_inners=1))

    def inputs(self):
        classes = [(o, n, e) for o, n in self.SHAPES for e in self.ENGINES]
        for block in itertools.count():
            order = self.rng.permutation(len(classes))
            for position, k in enumerate(order):
                o, n, engine = classes[k]
                # Distinct twist per spec: a fresh random draw, offset by the
                # spec's index so no two specs of a run can coincide.
                index = block * len(classes) + position
                twist = 0.001 + 0.001 * float(self.rng.uniform()) + 1e-9 * index
                yield ProblemSpec(
                    nx=n,
                    ny=n,
                    nz=n,
                    order=o,
                    angles_per_octant=2,
                    num_groups=4,
                    engine=engine,
                    num_inners=2,
                    num_outers=1,
                    max_twist=twist,
                )

    def run_op(self, spec) -> dict:
        result = repro.run(spec)
        return {
            "spec": spec,
            "flux": result.scalar_flux,
            "sweeps": result.history.total_inners,
            "solve_s": result.solve_seconds,
            "outers": result.history.num_outers,
        }

    def check(self, records: list[dict]) -> None:
        # One reference per distinct spec (a traced run solves each twice),
        # split over child processes: this check costs as much as the timed
        # pass.  The children run this file as a script (see the bottom).
        specs = {repr(rec["spec"]): rec["spec"] for rec in records}
        parts = [list(specs)[i::REFERENCE_WORKERS] for i in range(REFERENCE_WORKERS)]
        references = {}
        with tempfile.TemporaryDirectory(prefix="perfbench-ref-") as tmp:
            procs = []
            for i, part in enumerate(parts):
                path = Path(tmp) / f"specs-{i}.json"
                path.write_text(json.dumps([specs[key].to_dict() for key in part]))
                procs.append(subprocess.Popen(
                    [sys.executable, __file__, str(path), str(path.with_suffix(".npz"))]
                ))
            codes = [proc.wait() for proc in procs]
            if any(codes):
                raise RuntimeError(f"reference processes exited {codes}")
            for i, part in enumerate(parts):
                with np.load(Path(tmp) / f"specs-{i}.npz") as fluxes:
                    references.update({key: fluxes[str(j)] for j, key in enumerate(part)})
        for rec in records:
            rec["ok"] = rel_diff(rec["flux"], references[repr(rec["spec"])]) <= FLUX_RTOL


class ServiceCampaign(Workload):
    """A closed-loop HTTP client against an in-process daemon on the spool."""

    name = "service-campaign"
    probe_args = ("--service",)
    #: Every third submission repeats an earlier spec (a store hit).
    REPEAT_EVERY = 3

    def start(self) -> None:
        self.server, self.daemon, self.client, self._thread, self._store_dir = start_service()
        if self.traced:
            # The backend's own counters (workers spawned) for the traced pass.
            self.daemon.backend.telemetry = Telemetry()

    def after_pass(self) -> dict:
        if not self.traced:
            return {}
        counters = self.daemon.backend.telemetry.counters
        self.daemon.backend.telemetry = None
        return {
            "service_stats": self.client.stats(),
            "workers_spawned": counters.get("distributed.workers_spawned", 0),
        }

    def stop(self) -> None:
        stop_service(self.server, self.daemon, self._thread, self._store_dir)

    def inputs(self):
        seen: list[ProblemSpec] = []
        for index in itertools.count():
            if index % self.REPEAT_EVERY == self.REPEAT_EVERY - 1:
                yield seen[int(self.rng.integers(len(seen)))]
                continue
            spec = ProblemSpec(
                nx=4,
                ny=4,
                nz=4,
                order=1 + len(seen) % 2,
                angles_per_octant=1,
                num_groups=2,
                engine="compiled",
                num_inners=2,
                num_outers=1,
                max_twist=0.001 + 0.001 * float(self.rng.uniform()) + 1e-9 * index,
            )
            seen.append(spec)
            yield spec

    def run_op(self, spec) -> dict:
        t_submit = time.time()
        job = self.client.submit(spec=spec.to_dict())
        t_posted = time.time()
        while job["state"] not in ("done", "failed", "cancelled"):
            time.sleep(POLL_SECONDS)
            job = self.client.job(job["id"])
        t_seen = time.time()
        summary = job["result_summary"] or {}
        rec = {
            "spec": spec,
            "job": job,
            "hit": bool(job["cache_hit"]),
            "submit_s": t_posted - t_submit,
            "client_end": t_seen,
        }
        if not rec["hit"]:
            # A store hit ran no sweeps; only executed jobs count as solve work.
            rec["sweeps"] = summary.get("total_inners", 0)
            rec["solve_s"] = summary.get("solve_wall_seconds", 0.0)
        return rec

    def check(self, records: list[dict]) -> None:
        first: dict[str, dict] = {}
        direct: dict[str, dict] = {}
        for rec in records:
            job = rec["job"]
            if job["state"] != "done":
                rec["ok"] = False
                continue
            physics = {k: job["result_summary"][k] for k in PHYSICS_FIELDS}
            key = job["key"]
            if key not in direct:
                summary = repro.run(rec["spec"]).summary()
                direct[key] = {k: summary[k] for k in PHYSICS_FIELDS}
            earlier = first.setdefault(key, physics)
            rec["ok"] = physics == direct[key] and physics == earlier


def start_service():
    """Daemon (distributed backend, private spool) + store + HTTP gateway.

    Returns once ``/healthz`` answers.
    """
    store_dir = tempfile.mkdtemp(prefix="perfbench-store-")
    daemon = ServiceDaemon(
        store=ResultStore(store_dir), backend="distributed", workers=2
    ).start()
    server = make_server(daemon)
    thread = threading.Thread(target=server.serve_forever, name="perfbench-gateway")
    thread.start()
    client = ServiceClient(port=server.port, timeout=60.0)
    client.healthz()
    return server, daemon, client, thread, store_dir


def stop_service(server, daemon, thread, store_dir) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=30)
    daemon.shutdown(timeout=60)
    shutil.rmtree(store_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SteadySolve, ColdScan, ServiceCampaign)}


if __name__ == "__main__":
    # Reference worker of ColdScan.check: specs JSON in, fluxes .npz out.
    specs = [ProblemSpec.from_dict(d) for d in json.loads(Path(sys.argv[1]).read_text())]
    np.savez(sys.argv[2], **{str(j): reference_flux(spec) for j, spec in enumerate(specs)})
