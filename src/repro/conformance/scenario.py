"""The canonical conformance scenario: manifest in, recorded trace out.

A :class:`ScenarioManifest` is the complete, serializable recipe for one
simulated run: seed, simulated duration, execution mode (steady-state
fast path on/off, configuration through the direct API or through the
virtual host interface), an optional explicit :class:`FaultPlan`, and
whether the runtime sanitizer's RNG ledger should be folded into the
trace. :func:`run_scenario` executes the recipe under a
:class:`~repro.conformance.recorder.ConformanceRecorder` and returns the
:class:`~repro.conformance.recorder.Trace` — the same manifest must
always yield the byte-identical trace, which is exactly what the
replayer and the differential driver assert.

The workload and configuration reuse the hostif parity experiment's
scenario (FIRESTARTER on six cores pinned at 1.8 GHz, EPB performance,
turbo off, narrowed uncore window, C6 disabled on the idle cores), so
the conformance stream exercises every traced subsystem: p-state grants,
c-state transitions, RAPL refreshes, host-interface writes, and — under
a chaos profile — fault firings.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

from repro.conformance import schema as _schema
from repro.conformance.recorder import (
    ConformanceRecorder,
    Trace,
    content_digest,
)
from repro.engine import sanitize
from repro.engine.simulator import Simulator
from repro.errors import ConformanceError
from repro.conformance.hostconfig import (
    ACTIVE_CPUS as _ACTIVE_CPUS,
    C6_DISABLED_CPUS as _C6_DISABLED_CPUS,
    CONFIGURE as _CONFIGURE,
    STEADY_TDP_CONFIGURE as _STEADY_TDP_CONFIGURE,
    TICK_HEAVY_CONFIGURE as _TICK_HEAVY_CONFIGURE,
    render_state as _render_state,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    NUMA_LINK_STRESS,
    PSU_BROWNOUT_STRESS,
    FaultPlan,
)
from repro.hostif import VirtualHost
from repro.specs.node import HASWELL_TEST_NODE
from repro.system.node import Node, build_node
from repro.units import ms, us
from repro.workloads import micro
from repro.workloads.firestarter import firestarter

#: Selectable scenario workloads. ``firestarter`` is the canonical
#: hostif-parity configuration (six pinned cores, turbo off);
#: ``tick-heavy`` loads every core with sub-quantum compute/AVX/nap
#: churn under active turbo, so the trace captures the TDP-bound dither
#: and c-state traffic the vectorized hot path optimizes; ``steady-tdp``
#: runs FIRESTARTER on every core under turbo and balanced EPB (Table
#: V's setting), a long TDP-bound phase in which almost every PCU
#: quantum replays the cached grant.
WORKLOADS = ("firestarter", "tick-heavy", "steady-tdp")

#: Stress profiles re-rated for conformance windows. The stock chaos
#: profiles are tuned for multi-second paper runs (~0.4 events/s — a
#: millisecond-scale conformance run would see none); these keep the
#: single-kind concentration but push enough events into a ~10-20 ms
#: window that the fault path, including the end-of-window restores,
#: is actually exercised.
CHAOS_PROFILES = {
    "numa-link": dataclasses.replace(
        NUMA_LINK_STRESS, numa_link_rate=250.0,
        numa_link_ns_range=(us(80), us(600))),
    "psu-brownout": dataclasses.replace(
        PSU_BROWNOUT_STRESS, psu_brownout_rate=250.0,
        psu_brownout_ns_range=(us(80), us(600))),
}


def chaos_plan(profile_name: str, seed: int, horizon_ns: int) -> FaultPlan:
    """Deterministic fault plan for a named conformance chaos profile."""
    profile = CHAOS_PROFILES.get(profile_name)
    if profile is None:
        raise ConformanceError(
            f"unknown chaos profile {profile_name!r} "
            f"(valid: {', '.join(sorted(CHAOS_PROFILES))})")
    return FaultPlan.generate(seed, horizon_ns=horizon_ns, profile=profile)


@dataclass(frozen=True)
class ScenarioManifest:
    """Everything needed to reproduce one conformance run."""

    seed: int = 271
    measure_ns: int = ms(20)
    fastpath: bool = True
    variant: str = "direct"        # "direct" | "hostif"
    chaos_profile: str = ""        # name the fault plan was drawn from
    fault_plan: FaultPlan | None = None
    sanitize: bool = False         # fold the RNG ledger into the trace
    workload: str = "firestarter"  # see WORKLOADS

    def __post_init__(self) -> None:
        if self.variant not in _CONFIGURE:
            raise ConformanceError(
                f"unknown variant {self.variant!r} "
                f"(valid: {', '.join(sorted(_CONFIGURE))})")
        if self.workload not in WORKLOADS:
            raise ConformanceError(
                f"unknown workload {self.workload!r} "
                f"(valid: {', '.join(WORKLOADS)})")
        if self.measure_ns <= 0:
            raise ConformanceError("measure_ns must be positive")

    def to_dict(self) -> dict:
        return {"seed": self.seed, "measure_ns": self.measure_ns,
                "fastpath": self.fastpath, "variant": self.variant,
                "chaos_profile": self.chaos_profile,
                "fault_plan": (self.fault_plan.to_dict()
                               if self.fault_plan is not None else None),
                "sanitize": self.sanitize,
                "workload": self.workload}

    def digest(self) -> str:
        """Content digest of the manifest (full sha256 hex).

        Two manifests digest equal iff they describe the identical run
        recipe — the conformance guarantee then promises identical
        traces, which is what lets the service cache serve results by
        digest instead of by re-execution.
        """
        return content_digest(self.to_dict(), length=64)

    def cache_key(self, dataset_digest: str = "") -> str:
        """The result-cache identity of executing this manifest.

        Keyed on (manifest digest, schema version + digest, dataset
        digest): a schema bump or an event-catalog edit moves every
        key, and the same sweep against a different host dataset never
        aliases. Shared by the experiment service's result cache and
        anything else that wants to address "the outcome of this run".
        """
        return content_digest({
            "manifest_digest": self.digest(),
            "schema_version": _schema.SCHEMA_VERSION,
            "schema_digest": _schema.current_digest(),
            "dataset_digest": dataset_digest,
        }, length=32)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioManifest":
        plan = data.get("fault_plan")
        return cls(seed=int(data["seed"]),
                   measure_ns=int(data["measure_ns"]),
                   fastpath=bool(data["fastpath"]),
                   variant=str(data["variant"]),
                   chaos_profile=str(data.get("chaos_profile", "")),
                   fault_plan=(FaultPlan.from_dict(plan)
                               if plan is not None else None),
                   sanitize=bool(data.get("sanitize", False)),
                   workload=str(data.get("workload", "firestarter")))


def make_manifest(seed: int = 271, measure_ns: int = ms(20),
                  fastpath: bool = True, variant: str = "direct",
                  chaos_profile: str = "", sanitize: bool = False,
                  workload: str = "firestarter") -> ScenarioManifest:
    """Build a manifest, drawing the fault plan when a profile is named."""
    plan = (chaos_plan(chaos_profile, seed, measure_ns)
            if chaos_profile else None)
    return ScenarioManifest(seed=seed, measure_ns=measure_ns,
                            fastpath=fastpath, variant=variant,
                            chaos_profile=chaos_profile, fault_plan=plan,
                            sanitize=sanitize, workload=workload)


def install_cstate_probes(recorder: ConformanceRecorder, node: Node) -> None:
    """Hook every core's c-state transitions into the recorder.

    The per-core hook slot stays ``None`` (zero hot-path cost) unless the
    active recorder actually wants ``cstate-switch`` events.
    """
    if not recorder.wants("cstate-switch"):
        return
    sim = node.sim
    for socket in node.sockets:
        for core in socket.cores:
            def hook(old, new, _core=core):
                recorder.emit(sim.now_ns, f"core{_core.core_id}",
                              "cstate-switch", core_id=_core.core_id,
                              from_state=old.name, to_state=new.name)
            core._cstate_hook = hook


def run_scenario(manifest: ScenarioManifest) -> Trace:
    """Execute the manifest and return its recorded trace."""
    restore = False
    if manifest.sanitize and not sanitize.enabled():
        sanitize.set_enabled(True)
        restore = True
    try:
        return _run(manifest)
    finally:
        if restore:
            sanitize.set_enabled(None)


def _run(manifest: ScenarioManifest) -> Trace:
    recorder = ConformanceRecorder()
    sim = Simulator(seed=manifest.seed, trace=recorder)
    node = build_node(sim, HASWELL_TEST_NODE)
    node.set_fastpath(manifest.fastpath)
    install_cstate_probes(recorder, node)
    host = VirtualHost(sim, node).start()
    if manifest.fault_plan is not None:
        FaultInjector(sim, node, manifest.fault_plan).arm()
    # The state dump covers the canonical scenario's twelve cpus; the
    # steady-tdp scenario loads every core, so it dumps every core.
    state_cpus = (*_ACTIVE_CPUS, *_C6_DISABLED_CPUS)
    if manifest.workload == "tick-heavy":
        _TICK_HEAVY_CONFIGURE[manifest.variant](host)
        node.run_workload([c.core_id for c in node.all_cores],
                          micro.tick_heavy())
    elif manifest.workload == "steady-tdp":
        _STEADY_TDP_CONFIGURE[manifest.variant](host)
        state_cpus = tuple(c.core_id for c in node.all_cores)
        node.run_workload(list(state_cpus), firestarter())
    else:
        _CONFIGURE[manifest.variant](host)
        node.run_workload(list(_ACTIVE_CPUS), firestarter())
    sim.run_for(manifest.measure_ns)
    # Trailer: the RNG draw ledger (when requested) and the end-of-run
    # state digest, so a trace diff catches divergent final state even
    # if every intermediate event happened to agree.
    if manifest.sanitize and sim.ledger is not None:
        for site, method, count in sim.ledger.entries:
            recorder.emit(sim.now_ns, "sanitize", "rng-draw",
                          site=site, method=method, count=count)
    state = _render_state(host, state_cpus)
    recorder.emit(sim.now_ns, "scenario", "run-end",
                  state_sha256=hashlib.sha256(
                      state.encode("utf-8")).hexdigest())
    return Trace(manifest=manifest.to_dict(), events=list(recorder.records))
