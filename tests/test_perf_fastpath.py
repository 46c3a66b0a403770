"""The steady-state fast path: epoch invalidation, parity, parallelism.

Three properties guard the optimization (docs/performance.md):

1. every rate-changing mutation bumps the socket epoch (and the node
   epoch through the parent chain), while idempotent writes do not;
2. the cached fast path is bit-identical to the uncached slow path —
   including under an armed chaos fault plan, over long TDP-bound
   Table V windows where the PCU serves almost every quantum from its
   replay plan, and on a pre-Haswell (Sandy Bridge) node;
3. a parallel (``jobs=4``) experiment suite reports exactly what the
   serial suite reports.
"""

from __future__ import annotations

import pytest

from repro.cstates.states import CState, PackageCState
from repro.engine import fastpath as fastpath_mod
from repro.engine.simulator import Simulator
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.experiments.table5_max_power import run_table5
from repro.faults import chaos
from repro.pcu import Epb
from repro.pcu.turbo import TdpLimiter
from repro.specs.node import HASWELL_TEST_NODE, SANDY_BRIDGE_TEST_NODE
from repro.system import buildhooks
from repro.system.core import AvxLicense
from repro.system.node import Node, build_haswell_node, build_node
from repro.units import NS_PER_S, ms, us
from repro.workloads.firestarter import firestarter
from repro.workloads import micro
from repro.workloads.base import Workload, WorkloadPhase


def _node() -> tuple[Simulator, Node]:
    return build_haswell_node(seed=4711)


def _phasey_workload() -> Workload:
    return Workload(name="phasey", phases=(
        WorkloadPhase(name="burst", duration_ns=us(150), power_activity=0.6,
                      ipc_parity=2.0, stall_fraction=0.05),
        WorkloadPhase(name="avx", duration_ns=us(120), power_activity=0.9,
                      avx_fraction=0.9, ipc_parity=1.4, stall_fraction=0.08,
                      l3_bytes_per_cycle=1.0),
        WorkloadPhase(name="nap", duration_ns=us(80), active=False,
                      idle_cstate="C1"),
    ), cyclic=True)


# ---- 1. epoch bumps ---------------------------------------------------------


class TestEpochBumps:
    def test_apply_frequency_bumps(self):
        _, node = _node()
        socket = node.sockets[0]
        core = socket.cores[0]
        before = socket.epoch.value
        core.apply_frequency(core.freq_hz + 100e6)
        assert socket.epoch.value > before

    def test_apply_same_frequency_does_not_bump(self):
        _, node = _node()
        socket = node.sockets[0]
        core = socket.cores[0]
        before = socket.epoch.value
        core.apply_frequency(core.freq_hz)
        assert socket.epoch.value == before

    def test_request_pstate_bumps(self):
        _, node = _node()
        socket = node.sockets[0]
        before = socket.epoch.value
        socket.cores[0].request_pstate(socket.spec.pstates_hz[0])
        assert socket.epoch.value > before

    def test_cstate_transitions_bump(self):
        _, node = _node()
        socket = node.sockets[0]
        core = socket.cores[0]            # boots parked in C6
        before = socket.epoch.value
        core.wake()
        after_wake = socket.epoch.value
        assert after_wake > before
        core.enter_cstate(CState.C3)
        assert socket.epoch.value > after_wake

    def test_avx_license_write_bumps(self):
        _, node = _node()
        socket = node.sockets[0]
        core = socket.cores[0]
        before = socket.epoch.value
        core.avx_license = AvxLicense.REQUESTING
        assert socket.epoch.value > before
        again = socket.epoch.value
        core.avx_license = AvxLicense.REQUESTING     # idempotent
        assert socket.epoch.value == again

    def test_workload_bind_and_phase_advance_bump(self):
        _, node = _node()
        socket = node.sockets[0]
        core = socket.cores[0]
        before = socket.epoch.value
        core.bind_workload(_phasey_workload())
        after_bind = socket.epoch.value
        assert after_bind > before
        core.advance_phase()
        assert socket.epoch.value > after_bind

    def test_uncore_frequency_and_halt_bump(self):
        _, node = _node()
        socket = node.sockets[0]
        uncore = socket.uncore
        before = socket.epoch.value
        uncore.set_frequency(socket.spec.uncore_max_hz)
        after_freq = socket.epoch.value
        assert after_freq > before
        uncore.halt()
        after_halt = socket.epoch.value
        assert after_halt > after_freq
        uncore.halt()                                # idempotent
        assert socket.epoch.value == after_halt
        uncore.resume()
        assert socket.epoch.value > after_halt

    def test_socket_bumps_propagate_to_node_epoch(self):
        _, node = _node()
        before = node.epoch.value
        node.sockets[1].cores[0].wake()
        assert node.epoch.value > before

    def test_epoch_settles_in_steady_state(self):
        """A settled steady workload stops mutating: the epoch freezes,
        so every segment integrates through the cached rates."""
        sim, node = _node()
        node.run_workload([c.core_id for c in node.all_cores],
                          micro.compute())
        sim.run_for(int(0.05 * NS_PER_S))            # settle grants/EET
        marks = [node.epoch.value]
        for _ in range(5):
            sim.run_for(int(0.01 * NS_PER_S))
            marks.append(node.epoch.value)
        assert marks[-1] == marks[1], f"epoch still moving: {marks}"


# ---- 2. fast/slow parity ----------------------------------------------------


def _run_scenario(fastpath: bool, chaos_seed: int | None = None) -> dict:
    """A mixed scenario with mid-run mutations; returns every observable
    counter/energy surface for exact comparison."""
    if chaos_seed is not None:
        chaos.activate(chaos_seed)
    try:
        sim, node = build_haswell_node(seed=99173)
    finally:
        if chaos_seed is not None:
            chaos.deactivate()
    node.set_fastpath(fastpath)
    ids = [c.core_id for c in node.all_cores]
    node.run_workload(ids[:8], micro.dgemm())
    node.run_workload(ids[8:16], _phasey_workload())
    sim.run_for(int(0.08 * NS_PER_S))
    node.set_pstate(ids[:4], 2.2e9)
    sim.run_for(int(0.06 * NS_PER_S))
    node.stop_workload(ids[8:16])
    sim.run_for(int(0.08 * NS_PER_S))
    return _surface(node)


def _surface(node: Node) -> dict:
    """Every observable counter/energy surface of a node, for exact
    comparison: per-core counters and residencies, per-socket uncore
    counters, RAPL energies and package residencies, and wall energy."""
    out: dict = {"ac_energy_j": node.ac_energy_j}
    for s in node.sockets:
        for c in s.cores:
            out[f"core{c.core_id}"] = c.counters.snapshot()
            out[f"core{c.core_id}-res"] = dict(c.counters.cstate_residency_ns)
        out[f"s{s.socket_id}-rapl"] = {
            d.name: s.rapl.true_energy_j(d) for d in s.rapl._energy_j}
        out[f"s{s.socket_id}-pkg"] = {
            p.name: s.package_residency_ns(p) for p in PackageCState}
        out[f"s{s.socket_id}-uncore"] = s.uncore.counters.snapshot()
    return out


def _mismatches(fast, slow) -> list[str]:
    return [k for k in fast if fast[k] != slow[k]]


class TestFastSlowParity:
    def test_bit_identical_without_chaos(self):
        fast = _run_scenario(fastpath=True)
        slow = _run_scenario(fastpath=False)
        mismatched = [k for k in fast if fast[k] != slow[k]]
        assert not mismatched, f"fast path diverged on {mismatched}"

    def test_bit_identical_under_chaos(self):
        fast = _run_scenario(fastpath=True, chaos_seed=20150406)
        slow = _run_scenario(fastpath=False, chaos_seed=20150406)
        mismatched = [k for k in fast if fast[k] != slow[k]]
        assert not mismatched, f"fast path diverged under chaos: {mismatched}"

    def test_env_knob_disables_fastpath(self, monkeypatch):
        from repro.engine import fastpath
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        assert not fastpath.enabled()
        sim = Simulator(seed=1)
        node = build_node(sim, HASWELL_TEST_NODE)
        assert not node.fastpath_enabled
        assert not node.pcus[0].fastpath_enabled


# ---- 2b. long windows: replay plan and node-wide accumulate -----------------


def _table5_run(fastpath: bool) -> tuple[list, list[dict]]:
    """Short TDP-bound Table V cells (FIRESTARTER, LINPACK, mprime on
    all cores, turbo, EPB balanced): the cells plus each cell node's
    full surface."""
    nodes: list[Node] = []

    def capture(_sim, node):
        nodes.append(node)

    fastpath_mod.set_enabled(fastpath)
    buildhooks.register(capture)
    try:
        result = run_table5(measure_s=2, window_s=1, settle_s=0.5,
                            epbs=(Epb.BALANCED,), settings=(None,))
    finally:
        buildhooks.unregister(capture)
        fastpath_mod.set_enabled(None)
    return result.cells, [_surface(n) for n in nodes]


def _steady_node_run(fastpath: bool, spec=HASWELL_TEST_NODE,
                     chaos_seed: int | None = None) -> dict:
    """FIRESTARTER on every core for 400 ms (optionally chaos-armed)."""
    if chaos_seed is not None:
        chaos.activate(chaos_seed)
    try:
        sim = Simulator(seed=5150)
        node = build_node(sim, spec)
    finally:
        if chaos_seed is not None:
            chaos.deactivate()
    node.set_fastpath(fastpath)
    node.run_workload([c.core_id for c in node.all_cores], firestarter())
    sim.run_for(ms(400))
    return _surface(node)


class TestLongWindowParity:
    def test_table5_cells_and_counters_bit_identical(self):
        fast_cells, fast = _table5_run(fastpath=True)
        slow_cells, slow = _table5_run(fastpath=False)
        assert [c.workload for c in fast_cells] == \
            ["FIRESTARTER", "LINPACK", "mprime"]
        assert fast_cells == slow_cells
        assert len(fast) == len(slow) == 3
        for cell, f, s in zip(fast_cells, fast, slow):
            mismatched = _mismatches(f, s)
            assert not mismatched, \
                f"{cell.workload}: fast path diverged on {mismatched}"

    def test_sandy_bridge_node_bit_identical(self):
        assert SANDY_BRIDGE_TEST_NODE.cpu.pcu_quantum_ns == 0
        fast = _steady_node_run(True, SANDY_BRIDGE_TEST_NODE)
        slow = _steady_node_run(False, SANDY_BRIDGE_TEST_NODE)
        assert not _mismatches(fast, slow)

    def test_chaos_armed_node_bit_identical(self):
        fast = _steady_node_run(True, chaos_seed=20150406)
        slow = _steady_node_run(False, chaos_seed=20150406)
        assert not _mismatches(fast, slow)

    def test_steady_replay_writes_nothing_and_skips_decide(self,
                                                           monkeypatch):
        decide_calls = []
        decide = TdpLimiter.decide

        def counted(self, *args, **kwargs):
            decide_calls.append(1)
            return decide(self, *args, **kwargs)

        monkeypatch.setattr(TdpLimiter, "decide", counted)
        sim, node = build_haswell_node(seed=5151)
        node.run_workload([c.core_id for c in node.all_cores], firestarter())
        sim.run_for(ms(100))
        ticks0 = sum(p.tick_count for p in node.pcus)
        calls0 = len(decide_calls)
        sim.run_for(ms(200))
        ticks = sum(p.tick_count for p in node.pcus) - ticks0
        calls = len(decide_calls) - calls0
        # Only full derivations decide; replays (the large majority in
        # a TDP-bound steady phase) draw their dither and write nothing.
        # Every apply bumps the epoch and forces one derivation, so few
        # decide calls also means few applies.
        assert ticks >= 780
        assert calls < ticks // 4
        assert all(p._plan is not None and p._plan.pairs is not None
                   for p in node.pcus)

    def test_tick_history_is_bounded(self):
        sim, node = build_haswell_node(seed=5152)
        sim.run_for(ms(2500))
        pcu = node.pcus[0]
        assert pcu.tick_count > pcu._tick_times.maxlen
        assert len(pcu._tick_times) == pcu._tick_times.maxlen


# ---- 3. parallel suite parity ----------------------------------------------
# Module-level builders: ProcessPoolExecutor pickles specs by reference,
# so they cannot be lambdas or closures.


def _exp_counters() -> str:
    sim, node = build_haswell_node(seed=101)
    node.run_workload([0, 1, 2], micro.compute())
    sim.run_for(int(0.02 * NS_PER_S))
    total = node.sockets[0].counter_total("instructions_core")
    return f"instructions={total!r}"


def _exp_energy() -> str:
    sim, node = build_haswell_node(seed=202)
    node.run_workload([c.core_id for c in node.all_cores], micro.dgemm())
    sim.run_for(int(0.02 * NS_PER_S))
    return f"ac_energy={node.ac_energy_j!r}"


def _exp_idle() -> str:
    sim, node = build_haswell_node(seed=303)
    sim.run_for(int(0.02 * NS_PER_S))
    return f"idle_energy={node.ac_energy_j!r}"


def _exp_pstate() -> str:
    sim, node = build_haswell_node(seed=404)
    node.run_workload([0, 1], micro.compute())
    node.set_pstate([0, 1], 1.2e9)
    sim.run_for(int(0.02 * NS_PER_S))
    return f"freq={node.core(0).freq_hz!r}"


_SUITE = [
    ExperimentSpec(name="counters", build=_exp_counters, timeout_s=120.0),
    ExperimentSpec(name="energy", build=_exp_energy, timeout_s=120.0),
    ExperimentSpec(name="idle", build=_exp_idle, timeout_s=120.0),
    ExperimentSpec(name="pstate", build=_exp_pstate, timeout_s=120.0),
]


class TestParallelSuite:
    def test_jobs4_report_identical_to_serial(self, tmp_path):
        def writer_for(tag):
            d = tmp_path / tag
            d.mkdir()

            def write(name, text):
                path = d / f"{name}.txt"
                path.write_text(text)
                return path
            return write

        serial = ExperimentRunner(_SUITE, jobs=1,
                                  artifact_writer=writer_for("serial")).run()
        parallel = ExperimentRunner(_SUITE, jobs=4,
                                    artifact_writer=writer_for("par")).run()
        assert serial.records() == parallel.records()
        for spec in _SUITE:
            a = (tmp_path / "serial" / f"{spec.name}.txt").read_text()
            b = (tmp_path / "par" / f"{spec.name}.txt").read_text()
            assert a == b, f"artifact {spec.name} differs"

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ExperimentRunner(_SUITE, jobs=0)
