"""The benchmark's four workloads.

Each workload turns the run's ``--seed`` into an input sequence
(:meth:`Workload.inputs`), runs one *operation* per input
(:meth:`Workload.run_op`) and returns what the operation delivered —
simulated seconds, simulated nodes — with a digest of its simulated
outputs. ``run.py`` times the operations and compares the
digests with ``digests.json``.

* ``steady-tdp``: one operation is the three Table V validation cells
  (FIRESTARTER, LINPACK, mprime; all 24 cores, turbo, EPB balanced)
  built through :func:`repro.experiments.run_table5` for one simulation
  seed, plus the six Table V claims re-checked with the tolerances of
  ``repro.validation.paper``.
* ``phase-churn``: one operation is a fresh test node with every core
  running :func:`repro.workloads.micro.tick_heavy` for half a simulated
  second.
* ``fleet-sweep``: one operation is a 512-node fleet plan with
  per-node manufacturing variation, swept by ``repro-fleet run --jobs 2``.
* ``service-mixed``: one operation is a round against a live
  ``repro-service serve --jobs 2``: a fresh eight-seed sweep (executed,
  cached on completion), then its identical resubmission (served from
  the cache, and byte-compared with the fresh results). One client,
  closed loop, 50 ms think time between rounds.

Inputs come from fixed pools where a recorded digest is the output
check; the seed picks the order in which a run visits the pool.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.conformance import canonical_json, sha256_hex
from repro.engine import Simulator
from repro.engine.rng import make_rng
from repro.errors import ServiceError
from repro.experiments import run_table5
from repro.fleet import FleetPlan
from repro.fleet.cli import main as fleet_main
from repro.pcu import Epb
from repro.power import RaplDomain
from repro.service.client import ServiceClient
from repro.service.server import socket_path
from repro.specs.node import HASWELL_TEST_NODE
from repro.specs.variation import VariationModel
from repro.system import build_haswell_node, build_node
from repro.system.counters import CORE_COUNTER_FIELDS
from repro.units import NS_PER_S, ms, seconds
from repro.validation import PaperExpectation, check
from repro.workloads import micro

from tracing import clock

HERE = Path(__file__).resolve().parent


@dataclass
class OpResult:
    """What one operation delivered, and its output digest."""

    key: str | None         # input identity in digests.json; None = self-checked
    digest: str
    sim_s: float            # simulated seconds delivered
    nodes: int              # node simulations delivered
    units: int              # cells, windows, shards or jobs attempted
    failures: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def digest_of(payload) -> str:
    return sha256_hex(canonical_json(payload))


def seeded_order(seed: int, pool: tuple[int, ...]) -> list[int]:
    """The pool, permuted by the run's seed."""
    rng = make_rng(seed)
    return [pool[i] for i in rng.permutation(len(pool))]


class Workload:
    name = ""
    #: Set-ups timed per run; ``setup_s`` reports their median.
    SET_UPS = 5
    #: Untimed pause between operations (a closed loop's think time).
    THINK_S = 0.0
    #: Operations a run makes even when they overrun ``--seconds``.
    MIN_OPS = 1
    #: Speed-probe kernel runs (~10 ms each) per sample.
    PROBE_REPS = 5
    #: Host seconds between samples inside an operation; 0: none. Only
    #: for operations that run in the benchmark's own process.
    PROBE_EVERY_S = 0.0
    #: Processes an operation keeps busy at once; the probe samples in
    #: as many.
    JOBS = 1

    def __init__(self, state_dir: Path) -> None:
        self.state_dir = Path(state_dir)

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def set_up(self) -> None:
        """One set-up; ``run.py`` times several and keeps the last."""

    def tear_down(self) -> None:
        """Undo :meth:`set_up`; must leave no process running."""

    def trace_into(self, trace_dir: Path) -> None:
        """Tracing was just installed in this process; make the
        workload's other processes record spans into ``trace_dir`` too."""

    def run_op(self, inp) -> OpResult:
        raise NotImplementedError

    def summary(self, results: list[OpResult]) -> dict[str, tuple]:
        """Workload-specific report lines: name → (value, unit, note)."""
        return {}


# ---- steady-tdp ---------------------------------------------------------------

#: Six Table V claims with the tolerances of ``repro.validation.paper``.
TABLE5_CLAIMS = (
    ("FIRESTARTER", "power", PaperExpectation(
        "Table V", "FIRESTARTER max-window power", 560.0, "W", abs_tol=12.0)),
    ("LINPACK", "power", PaperExpectation(
        "Table V", "LINPACK max-window power", 547.4, "W", abs_tol=12.0)),
    ("mprime", "power", PaperExpectation(
        "Table V", "mprime max-window power", 560.2, "W", abs_tol=12.0)),
    ("LINPACK", "freq", PaperExpectation(
        "Table V", "LINPACK measured frequency", 2.27, "GHz", abs_tol=0.06)),
    ("FIRESTARTER", "freq", PaperExpectation(
        "Table V", "FIRESTARTER measured frequency", 2.44, "GHz",
        abs_tol=0.06)),
    ("mprime", "freq", PaperExpectation(
        "Table V", "mprime measured frequency", 2.61, "GHz", abs_tol=0.07)),
)


class SteadyTdp(Workload):
    name = "steady-tdp"
    # An operation takes about half of a run: without a floor the count
    # flips between one and two with host speed, and peak RSS with it.
    MIN_OPS = 2
    # The host's speed changes within an ~11 s operation, so samples
    # between operations alone missed it (five-run spread of op_cost
    # 22 %); sampling inside follows it.
    PROBE_REPS = 1
    PROBE_EVERY_S = 0.25
    #: 101 is the paper-report default seed; the others are held out.
    POOL = (101, 202, 303, 404, 505, 606)
    MEASURE_S = 15.0
    WINDOW_S = 10.0
    SETTLE_S = 2.0

    def inputs(self, seed: int) -> list:
        return seeded_order(seed, self.POOL)

    def set_up(self) -> None:
        build_node(Simulator(seed=0), HASWELL_TEST_NODE)

    def run_op(self, sim_seed: int) -> OpResult:
        result = run_table5(seed=sim_seed, measure_s=self.MEASURE_S,
                            window_s=self.WINDOW_S, settle_s=self.SETTLE_S,
                            epbs=(Epb.BALANCED,), settings=(None,))
        cells = {c.workload: c for c in result.cells}
        claims = []
        for workload, quantity, expectation in TABLE5_CLAIMS:
            cell = cells[workload]
            measured = (cell.max_window_power_w if quantity == "power"
                        else cell.mean_core_freq_hz / 1e9)
            claims.append(check(expectation, measured))
        failures = [f"seed {sim_seed}: {r.expectation.quantity} "
                    f"{r.measured:.4g} {r.expectation.unit} deviates from "
                    f"the paper's {r.expectation.paper_value:g}"
                    for r in claims if not r.ok]
        digest = digest_of([[c.workload, repr(c.max_window_power_w),
                             repr(c.mean_core_freq_hz)]
                            for c in result.cells])
        return OpResult(
            key=f"{self.name}:{sim_seed}", digest=digest,
            sim_s=len(result.cells) * (self.SETTLE_S + self.MEASURE_S),
            nodes=len(result.cells), units=len(result.cells),
            failures=failures,
            extra={"paper_max_dev_pct": max(abs(r.deviation_pct)
                                            for r in claims)})

    def summary(self, results: list[OpResult]) -> dict[str, tuple]:
        devs = [r.extra["paper_max_dev_pct"] for r in results]
        return {"paper_max_dev_pct": (
            max(devs), "%", f"largest |deviation| of the six Table V claims "
            f"over {len(devs)} seed(s)")}


# ---- phase-churn --------------------------------------------------------------

class PhaseChurn(Workload):
    name = "phase-churn"
    POOL = tuple(range(9001, 9033))
    WINDOW_S = 0.5
    PROBE_REPS = 1
    PROBE_EVERY_S = 0.25

    def inputs(self, seed: int) -> list:
        return seeded_order(seed, self.POOL)

    def set_up(self) -> None:
        build_haswell_node(seed=0)

    def run_op(self, sim_seed: int) -> OpResult:
        sim, node = build_haswell_node(seed=sim_seed)
        node.run_workload([c.core_id for c in node.all_cores],
                          micro.tick_heavy())
        sim.run_for(seconds(self.WINDOW_S))
        state = {"now_ns": sim.now_ns,
                 "ac_energy_j": repr(node.ac_energy_j),
                 "pcu_ticks": [p.tick_count for p in node.pcus],
                 "sockets": [{
                     "counters": {f: repr(s.counter_total(f))
                                  for f in CORE_COUNTER_FIELDS},
                     "rapl_j": {d.name: repr(s.rapl.true_energy_j(d))
                                for d in (RaplDomain.PACKAGE,
                                          RaplDomain.DRAM)},
                 } for s in node.sockets]}
        return OpResult(key=f"{self.name}:{sim_seed}",
                        digest=digest_of(state),
                        sim_s=sim.now_ns / NS_PER_S, nodes=1, units=1)


# ---- fleet-sweep --------------------------------------------------------------

class FleetSweep(Workload):
    name = "fleet-sweep"
    POOL = tuple(range(7001, 7033))
    SET_UPS = 3
    N_NODES = 512
    SETTLE_MS = 1
    MEASURE_MS = 5
    JOBS = 2

    def __init__(self, state_dir: Path) -> None:
        super().__init__(state_dir)
        self._runs = 0
        self.pool_rebuilds = 0

    def inputs(self, seed: int) -> list:
        return seeded_order(seed, self.POOL)

    def plan(self, seed_root: int, n_nodes: int | None = None) -> FleetPlan:
        return FleetPlan(n_nodes=n_nodes or self.N_NODES, seed_root=seed_root,
                         shard_size=16, variation=VariationModel(),
                         settle_ns=ms(self.SETTLE_MS),
                         measure_ns=ms(self.MEASURE_MS), active_cores=6)

    def _sweep(self, plan: FleetPlan) -> dict:
        """One ``repro-fleet run`` of ``plan``; returns its aggregate."""
        self._runs += 1
        root = self.state_dir / f"fleet-{self._runs}"
        root.mkdir(parents=True, exist_ok=True)
        plan_file = root / "plan.json"
        plan_file.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = fleet_main(["run", "--plan", str(plan_file),
                             "--jobs", str(self.JOBS),
                             "--ckpt-dir", str(root / "ckpt")])
        if rc != 0:
            raise RuntimeError(f"repro-fleet run exited {rc}:\n"
                               f"{out.getvalue()}")
        ns = root / "ckpt" / plan.digest()
        report = json.loads((ns / "run_report.json").read_text("utf-8"))
        self.pool_rebuilds += int(report["pool_rebuilds"])
        agg = json.loads((ns / "aggregate.json").read_text("utf-8"))
        shutil.rmtree(root)
        return agg

    def set_up(self) -> None:
        # A one-shard sweep: plan, pool start, one checkpoint, aggregate.
        self._sweep(self.plan(0, n_nodes=2))

    def run_op(self, seed_root: int) -> OpResult:
        plan = self.plan(seed_root)
        agg = self._sweep(plan)
        failures = []
        if not agg["complete"] or agg["nodes_reported"] != plan.n_nodes:
            failures.append(f"plan {seed_root}: {agg['nodes_reported']}"
                            f"/{plan.n_nodes} nodes reported")
        return OpResult(
            key=f"{self.name}:{seed_root}", digest=agg["records_digest"],
            sim_s=plan.n_nodes * (self.SETTLE_MS + self.MEASURE_MS) / 1e3,
            nodes=plan.n_nodes, units=plan.n_shards, failures=failures)


# ---- service-mixed ------------------------------------------------------------

class ServiceMixed(Workload):
    name = "service-mixed"
    SET_UPS = 3
    # Back-to-back rounds create and delete ~100 small files a second,
    # and on a 2-vCPU host with a throttled disk every later round got
    # slower (median round 12 -> 23 ms over ten consecutive runs). A
    # think time between rounds lowers that load; the ten-run spread of
    # round latency fell from 25 % to 17 %.
    THINK_S = 0.05
    # Two-seed jobs left the pool's workers idle most of a round, so
    # round times followed how fast the host woke them more than its
    # speed (six-run spread of op_cost 10 %); eight seeds keep both
    # workers busy most of a round, and the speed probe tracks it (5 %).
    SEEDS_PER_JOB = 8
    PROBE_REPS = 4
    JOBS = 2
    MEASURE_MS = 5
    STARTUP_TIMEOUT_S = 60.0

    def __init__(self, state_dir: Path) -> None:
        super().__init__(state_dir)
        self.trace_dir: Path | None = None
        self._proc: subprocess.Popen | None = None
        self._starts = 0
        self.client: ServiceClient | None = None
        self.state_root: Path | None = None

    def inputs(self, seed: int) -> list:
        rng = make_rng(seed)
        base = int(rng.integers(1, 2**30))
        n = self.SEEDS_PER_JOB
        return [tuple(range(base + n * i, base + n * (i + 1)))
                for i in range(20_000)]

    def set_up(self) -> None:
        self._starts += 1
        # Relative to the working directory the server inherits: a unix
        # socket path must stay under ~108 bytes wherever the checkout is.
        self.state_root = Path(os.path.relpath(
            self.state_dir / f"service-{self._starts}"))
        argv = [sys.executable, str(HERE / "service_server.py")]
        if self.trace_dir is not None:
            argv += ["--trace-dir", str(self.trace_dir)]
        argv += ["--state-root", str(self.state_root), "serve",
                 "--jobs", str(self.JOBS)]
        self.state_root.mkdir(parents=True, exist_ok=True)
        log = (self.state_root / "serve.log").open("w", encoding="utf-8")
        with log:
            self._proc = subprocess.Popen(argv, stdout=log,
                                          stderr=subprocess.STDOUT)
        self.client = ServiceClient(socket_path(self.state_root),
                                    timeout_s=60.0)
        deadline = clock() + self.STARTUP_TIMEOUT_S
        while True:
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"service exited {self._proc.returncode} before "
                    f"answering; see {self.state_root / 'serve.log'}")
            try:
                self.client.ping()
                return
            except ServiceError:
                if clock() > deadline:
                    raise RuntimeError("service never answered a ping")
                # repro-lint: disable=det-wallclock — waiting for a real subprocess to bind its socket
                time.sleep(0.01)

    def trace_into(self, trace_dir: Path) -> None:
        """Restart the server with span tracing on."""
        self.tear_down()
        self.trace_dir = trace_dir
        self.set_up()

    def tear_down(self) -> None:
        if self._proc is None:
            return
        try:
            self.client.shutdown()
        except ServiceError:
            self._proc.terminate()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc = None

    def _job(self, seeds: tuple[int, ...], name: str) -> tuple[float, dict]:
        request = {"format": "repro-sweep-request", "name": name,
                   "seeds": list(seeds), "measure_ns": ms(self.MEASURE_MS)}
        t0 = clock()
        job_id = self.client.submit(request)
        final = {}
        for event in self.client.watch(job_id):
            if event.get("done"):
                final = event["status"]
        latency_ms = (clock() - t0) * 1e3
        return latency_ms, {**final, "job_id": job_id}

    def _results(self, job_id: str) -> bytes:
        return (self.state_root / "jobs" / job_id / "results.json") \
            .read_bytes()

    def run_op(self, seeds: tuple[int, ...]) -> OpResult:
        extra = {}
        if self.trace_dir is not None:
            t0 = clock()
            self.client.ping()
            extra["ping_ms"] = (clock() - t0) * 1e3
        # The resubmission is the identical request, name included: the
        # results report carries the request digest.
        cold_ms, cold = self._job(seeds, f"round-{seeds[0]}")
        cached_ms, cached = self._job(seeds, f"round-{seeds[0]}")
        failures = []
        if cold.get("state") != "ok":
            failures.append(f"cold job {cold['job_id']}: {cold.get('state')}")
        if (cached.get("state") != "ok"
                or cached.get("cache_hits") != len(seeds)):
            failures.append(f"resubmission {cached['job_id']}: "
                            f"{cached.get('state')}, "
                            f"{cached.get('cache_hits')} cache hits of "
                            f"{len(seeds)}")
        cold_bytes = self._results(cold["job_id"])
        if self._results(cached["job_id"]) != cold_bytes:
            failures.append(f"resubmission {cached['job_id']} results differ "
                            f"from cold twin {cold['job_id']}")
        results = json.loads(cold_bytes)
        extra.update(cold_ms=cold_ms, cached_ms=cached_ms)
        sim_s = 2 * sum(r["end_ns"] for r in results["records"]) / NS_PER_S
        return OpResult(key=None, digest=results["records_digest"],
                        sim_s=sim_s, nodes=2 * len(results["records"]),
                        units=2, failures=failures, extra=extra)

    def summary(self, results: list[OpResult]) -> dict[str, tuple]:
        out = {}
        for cls in ("cold", "cached"):
            lat = [r.extra[f"{cls}_ms"] for r in results]
            n = len(lat)
            out[f"{cls}_p50_ms"] = (statistics.median(lat), "ms",
                                    f"n={n} jobs")
            if n > 1:
                out[f"{cls}_p90_ms"] = (
                    statistics.quantiles(lat, n=10)[-1], "ms",
                    f"n={n} jobs, {n - int(0.9 * n)} beyond")
        return out


WORKLOADS = {w.name: w for w in (SteadyTdp, PhaseChurn, FleetSweep,
                                 ServiceMixed)}
