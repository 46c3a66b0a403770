"""The full compute node: sockets, PCUs, MBVR, PSU, workload control.

This is the top-level object experiments drive. It is the simulator's
integrator (delegating to the sockets), owns the workload-phase event
machinery, and implements the software-visible control interfaces
(cpufreq-like p-state requests, EPB, workload placement).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine import fastpath, sanitize
from repro.engine.epoch import EpochCell
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError, EpochConsistencyError
from repro.pcu.epb import Epb
from repro.pcu.pcu import Pcu
from repro.power.mbvr import Mbvr, SvidCommand
from repro.power.psu import PsuModel
from repro.power.rapl import RaplDomain
from repro.specs.node import NodeSpec, HASWELL_TEST_NODE
from repro.system import buildhooks
from repro.system.core import Core
from repro.system.horizon import Horizon
from repro.system.socket import Socket
from repro.topology.routing import LinkDerate
from repro.units import NS_PER_S
from repro.workloads.base import Workload


@dataclass
class Node:
    sim: Simulator
    spec: NodeSpec
    sockets: list[Socket]
    pcus: list[Pcu]
    mbvr: Mbvr
    psu: PsuModel
    ac_energy_j: float = 0.0
    # Phase-advance cohorts: fire time -> (event, cores advancing then).
    # Lockstep fleets put every core's boundary at the same instant, so
    # one heap event advances the whole cohort instead of one event per
    # core — per-core order inside a cohort is insertion order, which is
    # exactly the scheduling order per-core events would have fired in.
    _phase_cohorts: dict[int, tuple[object, list[Core]]] = field(
        default_factory=dict)
    _phase_member: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Node-wide epoch: any socket's mutation bumps it, so system
        # views (any_core_active, fastest setting) and the PCU decision
        # caches invalidate without scanning every core.
        self.epoch = EpochCell()
        for socket in self.sockets:
            socket.epoch.parent = self.epoch
        self.fastpath_enabled = fastpath.enabled()
        # Cross-socket (QPI) link health; NUMA-link faults degrade it and
        # placement studies consult it via NumaBandwidthModel.
        self.link_derate = LinkDerate()
        self._fastest_epoch = -1
        self._fastest: float | None | str = "no-active-core"
        # O(1) topology lookups: the phase-advance machinery resolves a
        # core id on every phase flip, which a linear scan over sockets
        # turns into a tick-heavy hot spot.
        self._cores_by_id: dict[int, Core] = {
            c.core_id: c for s in self.sockets for c in s.cores}
        # Node-wide active-core count, maintained incrementally by every
        # Core c-state transition (a shared one-element list so cores
        # can update it without a back-reference protocol). Replaces the
        # all-core scan in any_core_active.
        cores = list(self._cores_by_id.values())
        counter = [sum(1 for c in cores if c.is_active)]
        self._active_counter = counter
        for c in cores:
            object.__setattr__(c, "_active_counter", counter)
        self._build_counter_stacks()
        # Horizon stepping over steady PCU phases; `horizon_stats` are
        # its write-only counters (see repro.system.horizon).
        self.horizon = Horizon(self)
        self.horizon_stats = self.horizon.horizon_stats
        self.rapl_task = None       # the RAPL refresh series (build_node)

    def _build_counter_stacks(self) -> None:
        """Move every socket's counter matrices into node-wide stacks.

        ``_cnt_stack`` is ``(sockets, fields, cores)`` float64 and
        ``_res_stack`` ``(sockets, cstates, cores)`` int64; socket ``s``
        keeps the contiguous views ``[s]`` (and its cores their column
        views), so :meth:`integrate` advances every counter of the node
        with one multiply-add and one residency add per segment.
        ``_rate_stack`` and ``_res_index`` mirror each socket's current
        rate matrix and residency cells, refreshed only when a socket's
        rates object changes (cross-checked in sanitize mode, see
        :meth:`_check_rate_stack`).
        """
        first = self.sockets[0]
        shape = (len(self.sockets),) + first._cnt_data.shape
        res_shape = (len(self.sockets),) + first._cnt_res.shape
        self._cnt_stack = np.zeros(shape, dtype=np.float64)
        self._res_stack = np.zeros(res_shape, dtype=np.int64)
        for sid, socket in enumerate(self.sockets):
            socket.adopt_counter_stack(self._cnt_stack[sid],
                                       self._res_stack[sid])
        self._cnt_scratch = np.empty_like(self._cnt_stack)
        self._rate_stack = np.zeros_like(self._cnt_stack)
        self._res_flat = self._res_stack.reshape(-1)    # shared view
        n_cells = res_shape[1] * res_shape[2]
        n_cores = res_shape[2]
        self._res_index = np.zeros(res_shape[0] * n_cores, dtype=np.intp)
        # per socket: (its slice of _res_index, its first cell in the stack)
        self._res_slots = [
            (self._res_index[sid * n_cores:(sid + 1) * n_cores],
             sid * n_cells)
            for sid in range(len(self.sockets))]
        self._stack_rates: list[object] = [None] * len(self.sockets)
        self._sanitize_segments = 0
        self.sanitize_checks = 0

    def _install_rates(self, sid: int, rates) -> None:
        """Copy socket ``sid``'s new segment rates into the stacks."""
        self._stack_rates[sid] = rates
        self._rate_stack[sid] = rates.rate_matrix
        index, base = self._res_slots[sid]
        np.add(rates.res_flat, base, out=index)

    def _check_rate_stack(self, sid: int, rates) -> None:
        """Sanitize mode: on every ``EPOCH_CHECK_STRIDE``-th segment that
        reuses socket ``sid``'s installed rates, check that the stacks
        the node integrates still mirror them.

        The socket's own check proves its cached rates against a fresh
        recompute; this one proves the copy the multiply-add actually
        reads against those rates, so a stale rate stack or residency
        index cannot advance the counters unnoticed.
        """
        counter = self._sanitize_segments
        self._sanitize_segments = counter + 1
        if counter % sanitize.EPOCH_CHECK_STRIDE != 0:
            return
        self.sanitize_checks += 1
        if not np.array_equal(self._rate_stack[sid], rates.rate_matrix):
            bad = np.argwhere(self._rate_stack[sid] != rates.rate_matrix)[0]
            raise EpochConsistencyError(
                f"socket {sid}: the node's rate stack diverges from the "
                f"socket's segment rates (first at row {bad[0]}, core "
                f"column {bad[1]}) — the stack was not refreshed")
        index, base = self._res_slots[sid]
        if not np.array_equal(index, rates.res_flat + base):
            bad = int(np.argwhere(index != rates.res_flat + base)[0][0])
            raise EpochConsistencyError(
                f"socket {sid}: the node's residency index diverges from "
                f"the socket's residency cells (core column {bad}) — the "
                "index was not refreshed")

    def check_segment(self, sid: int, rates) -> None:
        """Sanitize mode: the checks one cached-rate segment of socket
        ``sid`` samples — the socket's recompute of its rates and the
        node's stack mirror — for a stepper integrating many such
        segments at once."""
        self.sockets[sid]._check_epoch_consistency(rates)
        self._check_rate_stack(sid, rates)

    def store_counter_stack(self, values: np.ndarray, dt_ns: int) -> None:
        """Store the counters a batch of ``dt_ns`` of installed-rate
        segments accumulated, and advance every core's residency cell by
        ``dt_ns`` (integer adds, so one add equals the per-segment ones)."""
        self._cnt_stack.reshape(-1)[:] = values
        self._res_flat[self._res_index] += dt_ns

    def set_fastpath(self, enabled: bool) -> None:
        """Toggle the steady-state fast path on every socket and PCU
        (A/B parity testing; both settings are bit-identical)."""
        self.fastpath_enabled = enabled
        # The reference path does not maintain the rate stack.
        self._stack_rates = [None] * len(self.sockets)
        for socket in self.sockets:
            socket.fastpath_enabled = enabled
        for pcu in self.pcus:
            pcu.fastpath_enabled = enabled
            pcu.held = False
        self.horizon.on_held(False)

    def set_sanitize(self, enabled: bool) -> None:
        """Toggle the epoch-consistency sanitizer on every socket.

        The RNG draw ledger half of sanitize mode must be in place
        before components spawn their streams, so it is controlled by
        ``REPRO_SANITIZE=1`` / :func:`repro.engine.sanitize.set_enabled`
        at :class:`~repro.engine.simulator.Simulator` construction; this
        runtime toggle covers only the rate-cache checker.
        """
        for socket in self.sockets:
            socket.sanitize_enabled = enabled

    # ---- topology accessors -----------------------------------------------------

    @property
    def all_cores(self) -> list[Core]:
        return [c for s in self.sockets for c in s.cores]

    def core(self, core_id: int) -> Core:
        try:
            return self._cores_by_id[core_id]
        except KeyError:
            raise ConfigurationError(f"no core {core_id}") from None

    def socket_of(self, core_id: int) -> Socket:
        return self.sockets[self.core(core_id).socket_id]

    def pcu_of(self, core_id: int) -> Pcu:
        return self.pcus[self.core(core_id).socket_id]

    # ---- system-wide views used by the PCUs -----------------------------------------

    def any_core_active(self) -> bool:
        return self._active_counter[0] > 0

    def system_fastest_setting(self) -> float | None | str:
        """P-state setting of the fastest active core anywhere.

        ``None`` = at least one active core requests turbo; a float = the
        highest explicit setting; ``"no-active-core"`` if all idle.
        """
        if self.fastpath_enabled and self._fastest_epoch == self.epoch.value:
            return self._fastest
        requests: list[float | None] = []
        for s in self.sockets:
            for c in s.active_cores():
                requests.append(c.requested_hz)
        if not requests:
            value: float | None | str = "no-active-core"
        elif any(r is None for r in requests):
            value = None
        else:
            value = max(requests)
        self._fastest = value
        self._fastest_epoch = self.epoch.value
        return value

    # ---- workload control -----------------------------------------------------------------

    def run_workload(self, core_ids: list[int], workload: Workload) -> None:
        """Place (a per-core instance of) ``workload`` on each core."""
        for core_id in core_ids:
            core = self.core(core_id)
            self._cancel_phase_event(core_id)
            core.bind_workload(workload)
            self.pcu_of(core_id).avx_unit.on_phase_change(core)
            self._schedule_phase_advance(core)

    def stop_workload(self, core_ids: list[int]) -> None:
        for core_id in core_ids:
            core = self.core(core_id)
            self._cancel_phase_event(core_id)
            core.bind_workload(None)
            self.pcu_of(core_id).avx_unit.on_phase_change(core)

    def _schedule_phase_advance(self, core: Core) -> None:
        phase = core.current_phase
        if phase is None or phase.duration_ns is None:
            return
        t = self.sim.now_ns + phase.duration_ns
        entry = self._phase_cohorts.get(t)
        if entry is None:
            event = self.sim.schedule_at(t, self._advance_cohort,
                                         label="phase-cohort")
            entry = (event, [])
            self._phase_cohorts[t] = entry
        entry[1].append(core)
        self._phase_member[core.core_id] = t

    def _advance_cohort(self, now_ns: int) -> None:
        entry = self._phase_cohorts.pop(now_ns, None)
        if entry is None:
            return
        member = self._phase_member
        units = [pcu.avx_unit for pcu in self.pcus]
        cohorts = self._phase_cohorts
        sim = self.sim
        # Lockstep fleets re-enter the same next cohort core after core;
        # remember the last (time -> entry) pair so the common case pays
        # one dict lookup per cohort, not one per core.
        last_t = -1
        last_cores = None
        # Cores defer their epoch bumps (advance_phase(bump=False));
        # each touched socket is bumped once after the loop. No segment
        # is integrated between two cores of one callback, so one bump
        # invalidates exactly what per-core bumps would have.
        touched: set[int] = set()
        add_touched = touched.add
        last_sid = -1
        for core in entry[1]:
            phase = core.advance_phase(False)
            sid = core.socket_id
            if sid != last_sid:
                add_touched(sid)
                last_sid = sid
            units[sid].on_phase_change(core, False)
            # _schedule_phase_advance, inlined for the hot loop. The
            # membership entry is overwritten (not popped first): no
            # cancel can run between the two points of this loop body.
            if phase is None or phase.duration_ns is None:
                member.pop(core.core_id, None)
                continue
            t = now_ns + phase.duration_ns
            if t != last_t:
                next_entry = cohorts.get(t)
                if next_entry is None:
                    event = sim.schedule_at(t, self._advance_cohort,
                                            label="phase-cohort")
                    next_entry = (event, [])
                    cohorts[t] = next_entry
                last_t = t
                last_cores = next_entry[1]
            last_cores.append(core)
            member[core.core_id] = t
        sockets = self.sockets
        for sid in touched:
            sockets[sid].epoch.bump()

    def _cancel_phase_event(self, core_id: int) -> None:
        t = self._phase_member.pop(core_id, None)
        if t is None:
            return
        entry = self._phase_cohorts.get(t)
        if entry is None:
            return
        event, cores = entry
        cores[:] = [c for c in cores if c.core_id != core_id]
        if not cores:
            # An empty cohort must not fire: a spurious event would
            # split an integration segment and perturb the float
            # accumulation order.
            event.cancel()
            del self._phase_cohorts[t]

    # ---- software control interfaces ---------------------------------------------------------

    def set_pstate(self, core_ids: list[int] | None,
                   f_hz: float | None) -> None:
        """cpufreq-like request: ``None`` = turbo/hardware-managed max.

        On pre-Haswell parts the request is carried out immediately
        (Section VI-A); on Haswell it waits for the next PCU grant
        opportunity.
        """
        targets = core_ids if core_ids is not None \
            else [c.core_id for c in self.all_cores]
        for core_id in targets:
            core = self.core(core_id)
            core.request_pstate(f_hz)
            if core.spec.pstate_granted_immediately:
                applied = f_hz if f_hz is not None else core.spec.nominal_hz
                self.sim.schedule_after(
                    core.spec.pstate_switch_time_ns,
                    lambda _t, c=core, f=applied: c.apply_frequency(f),
                    label=f"legacy-pstate-core{core_id}")

    def set_epb(self, epb: Epb, socket_ids: list[int] | None = None) -> None:
        for pcu in self.pcus:
            if socket_ids is None or pcu.socket.socket_id in socket_ids:
                pcu.epb = epb

    def set_turbo(self, enabled: bool) -> None:
        for pcu in self.pcus:
            pcu.turbo_enabled = enabled

    def set_eet(self, enabled: bool) -> None:
        for pcu in self.pcus:
            pcu.eet.enabled = enabled

    def set_uncore_limits(self, min_hz: float | None = None,
                          max_hz: float | None = None,
                          socket_ids: list[int] | None = None) -> None:
        """Narrow the uncore frequency window (MSR 0x620 semantics)."""
        for pcu in self.pcus:
            if socket_ids is None or pcu.socket.socket_id in socket_ids:
                pcu.set_uncore_limits(min_hz, max_hz)

    # ---- power views ----------------------------------------------------------------------------

    def dc_rapl_visible_w(self) -> float:
        total = 0.0
        for s in self.sockets:
            breakdown = s.evaluate_power()
            total += breakdown.package_w + breakdown.dram_w
        return total

    def ac_power_w(self) -> float:
        """Instantaneous wall power (what the LMG450 samples)."""
        return self.psu.ac_power_w(self.dc_rapl_visible_w())

    # ---- integration -----------------------------------------------------------------------------

    def integrate(self, t0_ns: int, t1_ns: int) -> None:
        any_active = self.any_core_active()
        fast = self.fastpath_enabled
        dc_w = 0.0
        stack_rates = self._stack_rates
        for sid, s in enumerate(self.sockets):
            rates = s.integrate(t0_ns, t1_ns, any_active)
            if rates is not None:
                if not fast:
                    # Reference path: each socket's own multiply-add, the
                    # ground truth the stacked accumulate is proven
                    # against (tests/test_perf_fastpath.py).
                    s._cnt_data += rates.rate_matrix * (
                        (t1_ns - t0_ns) / NS_PER_S)
                    s._cnt_res_flat[rates.res_flat] += t1_ns - t0_ns
                elif rates is not stack_rates[sid]:
                    self._install_rates(sid, rates)
                elif s.sanitize_enabled:
                    self._check_rate_stack(sid, rates)
            if s.last_breakdown is not None:
                # precomputed breakdown.package_w + breakdown.dram_w
                dc_w += s._last_dc_w
        if fast and t1_ns > t0_ns:
            # Every socket's counters in one vectorized multiply-add;
            # scratch avoids a temporary allocation per segment.
            np.multiply(self._rate_stack, (t1_ns - t0_ns) / NS_PER_S,
                        out=self._cnt_scratch)
            self._cnt_stack += self._cnt_scratch
            self._res_flat[self._res_index] += t1_ns - t0_ns
        ac_w = self.psu.ac_power_w(dc_w)
        self.ac_energy_j += ac_w * (t1_ns - t0_ns) / NS_PER_S

    def _rapl_refresh(self, now_ns: int) -> None:
        self.latch_rapl(now_ns)

    def latch_rapl(self, now_ns: int,
                   energies: list[tuple[float, float]] | None = None) -> None:
        """The RAPL refresh at ``now_ns``: latch every socket's energy
        into its MSR snapshot and emit the ``rapl-update`` records.
        ``energies`` — per socket, the (package, DRAM) joules a batch
        accumulated up to ``now_ns`` — stand in for the live values."""
        trace = self.sim.trace
        record = trace.wants("rapl-update")
        for s in self.sockets:
            if energies is None:
                s.rapl.refresh()
            else:
                s.rapl.latch_pkg_dram(*energies[s.socket_id])
            if record:
                trace.emit(
                    now_ns, f"rapl{s.socket_id}", "rapl-update",
                    socket=s.socket_id,
                    package=s.rapl.read_counter(RaplDomain.PACKAGE),
                    dram=s.rapl.read_counter(RaplDomain.DRAM))

    # ---- human-readable state dump ---------------------------------------------

    def summary(self) -> str:
        """One-screen state report: per-socket frequencies, power, states."""
        lines = [f"{self.spec.name} @ t={self.sim.now_ns / 1e9:.3f} s"]
        for socket in self.sockets:
            active = socket.active_cores()
            breakdown = socket.last_breakdown
            power = (f"{breakdown.package_w:.1f} W pkg + "
                     f"{breakdown.dram_w:.1f} W DRAM"
                     if breakdown is not None else "unmeasured")
            uncore = ("halted" if socket.uncore.halted
                      else f"{socket.uncore.freq_hz / 1e9:.2f} GHz")
            lines.append(
                f"  socket {socket.socket_id}: {len(active)}/"
                f"{len(socket.cores)} cores active, uncore {uncore}, "
                f"package {socket.package_cstate.name}, {power}")
            for core in active[:6]:
                phase = core.current_phase
                lines.append(
                    f"    core {core.core_id:2d}: "
                    f"{core.freq_hz / 1e9:.2f} GHz, "
                    f"{phase.name}, license {core.avx_license.value}")
            if len(active) > 6:
                lines.append(f"    ... {len(active) - 6} more active cores")
        lines.append(f"  wall power: {self.ac_power_w():.1f} W")
        return "\n".join(lines)


def build_node(
    sim: Simulator,
    spec: NodeSpec = HASWELL_TEST_NODE,
    epb: Epb = Epb.BALANCED,
    turbo_enabled: bool = True,
    eet_enabled: bool = True,
) -> Node:
    """Assemble a node, wire the PCUs, and start the periodic machinery."""
    measured_rapl = spec.cpu.microarch.codename == "haswell-ep"
    sockets = []
    for sid in range(spec.n_sockets):
        sockets.append(Socket.build(
            spec=spec.cpu,
            socket_id=sid,
            first_core_id=sid * spec.cpu.n_cores,
            voltage_offset_v=spec.socket_voltage_offsets_v[sid],
            measured_rapl=measured_rapl,
        ))
    node = Node(sim=sim, spec=spec, sockets=sockets, pcus=[],
                mbvr=Mbvr(), psu=PsuModel(spec))
    for socket in sockets:
        pcu = Pcu(sim=sim, socket=socket, node=node, epb=epb,
                  turbo_enabled=turbo_enabled, eet_enabled=eet_enabled)
        node.pcus.append(pcu)
        pcu.start()
    sim.add_integrator(node)
    if spec.cpu.rapl_update_period_ns > 0:
        node.rapl_task = sim.schedule_every(
            spec.cpu.rapl_update_period_ns, node._rapl_refresh,
            label="rapl-refresh")
    # Initial SVID programming of the three MBVR lanes (Section II-B).
    node.mbvr.apply(SvidCommand("VCCin", 1.8))
    node.mbvr.apply(SvidCommand("VCCD_01", 1.2))
    node.mbvr.apply(SvidCommand("VCCD_23", 1.2))
    # Post-build hooks: under chaos mode (run_paper --chaos) the fault
    # layer has registered an armer that gives every node a seeded
    # injector; with no hooks registered this is a no-op.
    buildhooks.run(sim, node)
    return node


def build_haswell_node(seed: int | None = None,
                       **kwargs) -> tuple[Simulator, Node]:
    """Convenience: a fresh simulator plus the paper's test node."""
    sim = Simulator(seed=seed)
    node = build_node(sim, HASWELL_TEST_NODE, **kwargs)
    return sim, node
