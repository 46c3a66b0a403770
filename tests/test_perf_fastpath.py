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

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cstates.states import CState, PackageCState
from repro.engine import fastpath as fastpath_mod
from repro.engine import sanitize
from repro.engine.events import EventQueue
from repro.engine.simulator import Simulator
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.experiments.table5_max_power import run_table5
from repro.faults import chaos
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.instruments.lmg450 import Lmg450
from repro.pcu import Epb
from repro.pcu import pcu as pcu_mod
from repro.pcu.turbo import DITHER_ARGS, TdpLimiter
from repro.specs.node import HASWELL_TEST_NODE, SANDY_BRIDGE_TEST_NODE
from repro.system import buildhooks
from repro.system.core import AvxLicense
from repro.system import horizon as horizon_mod
from repro.system.node import Node, build_haswell_node, build_node
from repro.units import NS_PER_S, ms, us
from repro.workloads.firestarter import firestarter
from repro.workloads.mprime import mprime
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


def _table5_run(fastpath: bool) -> tuple[list, list[dict], list[Node]]:
    """Short TDP-bound Table V cells (FIRESTARTER, LINPACK, mprime on
    all cores, turbo, EPB balanced): the cells, each cell node's full
    surface, and the nodes."""
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
    return result.cells, [_surface(n) for n in nodes], nodes


def _steady_node_run(fastpath: bool, spec=HASWELL_TEST_NODE,
                     chaos_seed: int | None = None) -> tuple[dict, Node]:
    """FIRESTARTER on every core for 400 ms (optionally chaos-armed):
    the node's surface, and the node."""
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
    return _surface(node), node


class TestLongWindowParity:
    def test_table5_cells_and_counters_bit_identical(self):
        fast_cells, fast, fast_nodes = _table5_run(fastpath=True)
        slow_cells, slow, slow_nodes = _table5_run(fastpath=False)
        assert [c.workload for c in fast_cells] == \
            ["FIRESTARTER", "LINPACK", "mprime"]
        assert fast_cells == slow_cells
        assert len(fast) == len(slow) == 3
        for cell, f, s in zip(fast_cells, fast, slow):
            mismatched = _mismatches(f, s)
            assert not mismatched, \
                f"{cell.workload}: fast path diverged on {mismatched}"
        # stepping engaged on every fast cell, never on the reference
        for node in fast_nodes:
            ticks = sum(p.tick_count for p in node.pcus)
            assert node.horizon_stats.ticks > ticks // 2
        assert all(n.horizon_stats.taken == 0 for n in slow_nodes)

    def test_sandy_bridge_node_bit_identical(self):
        """Modeled RAPL backend: the batch forms its RAPL increments
        through it (energy times the workload bias)."""
        assert SANDY_BRIDGE_TEST_NODE.cpu.pcu_quantum_ns == 0
        fast, node = _steady_node_run(True, SANDY_BRIDGE_TEST_NODE)
        slow, _ = _steady_node_run(False, SANDY_BRIDGE_TEST_NODE)
        assert not _mismatches(fast, slow)
        assert node.horizon_stats.taken > 0

    def test_chaos_armed_node_bit_identical(self):
        fast, _ = _steady_node_run(True, chaos_seed=20150406)
        slow, _ = _steady_node_run(False, chaos_seed=20150406)
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


# ---- 2c. horizon stepping ---------------------------------------------------
# With the fast path on, a node whose PCUs are both held folds its ticks,
# EET polls and RAPL refreshes into batches (repro.system.horizon); the
# fast-path-off run is the per-event reference. Each case drives one
# stop reason and compares the whole observable state bit for bit: the
# surface, every PCU's tick/EET/draw state, the RAPL MSR snapshot, the
# MBVR state and the queued events in firing order.


def _stepping_state(sim: Simulator, node: Node) -> dict:
    out = _surface(node)
    out["now"] = sim.now_ns
    out["mbvr"] = node.mbvr.power_state
    for p in node.pcus:
        spread = pcu_mod.TICK_JITTER_NS + p.extra_tick_jitter_ns
        out[f"pcu{p.socket.socket_id}"] = (
            p.tick_count, list(p._tick_times), p.eet.poll_count,
            p.eet.trim_hz, p._eet_last_stall, p._eet_last_cycles,
            sanitize.unwrap_rng(p.rng).bit_generator.state,
            p._jitter_batch.peek(256, -spread, spread + 1).tolist(),
            p._dither_batch.peek(256, *DITHER_ARGS).tolist())
        out[f"s{p.socket.socket_id}-msr"] = [
            p.socket.rapl.read_counter(d) for d in p.socket.rapl._energy_j]
    live = sorted((t, seq, ev.label) for t, seq, ev in sim.queue._heap
                  if not ev.cancelled)
    out["queue"] = [(t, label) for t, _, label in live]
    return out


def _stepping_pair(drive, epb: Epb = Epb.BALANCED, workload=None,
                   seed: int = 5150) -> tuple[dict, dict, Node]:
    """``drive(sim, node)`` on a fast-path node and on a fast-path-off
    node; returns both states (plus what ``drive`` returned) and the
    stepping node."""
    runs = []
    for fast in (True, False):
        sim = Simulator(seed=seed)
        node = build_node(sim, HASWELL_TEST_NODE, epb=epb)
        node.set_fastpath(fast)
        node.run_workload([c.core_id for c in node.all_cores],
                          workload if workload is not None else firestarter())
        extra = drive(sim, node)
        state = _stepping_state(sim, node)
        state["drive"] = extra
        runs.append((state, node))
    (fast_state, fast_node), (slow_state, _) = runs
    return fast_state, slow_state, fast_node


def _assert_parity(fast: dict, slow: dict) -> None:
    assert not _mismatches(fast, slow), \
        f"stepping diverged on {_mismatches(fast, slow)}"


@dataclasses.dataclass
class _Period:
    """The period of a repeating series, as a batch stream reads it."""

    period_ns: int


class TestHorizonStepping:
    def test_run_limit_mid_horizon_at_odd_ns(self):
        def drive(sim, node):
            sim.run_for(ms(60))
            sim.run_for(ms(37) + 12_345)
            sim.run_for(777_777)
            sim.run_for(ms(23) + 1)
            sim.run_for(ms(31) + 4)
        fast, slow, node = _stepping_pair(drive)
        _assert_parity(fast, slow)
        assert fast["now"] % 2 == 1
        assert node.horizon_stats.stop_run_limit >= 3

    def test_lmg450_sample_mid_horizon(self):
        def drive(sim, node):
            sim.run_for(ms(60))
            meter = Lmg450(sim, node)
            meter.start()
            sim.run_for(ms(360))
            meter.stop()
            return list(meter.watts)
        fast, slow, node = _stepping_pair(drive)
        _assert_parity(fast, slow)
        assert len(fast["drive"]) == 7
        assert node.horizon_stats.stop_foreign >= 4

    def test_eet_trim_change(self):
        """mprime under EPB powersave, its stall fraction alternating
        between two 20 ms phases of equal power: the grants hold across
        a phase switch, so the nodes are held again before the first
        poll whose window sees the new phase moves the trim."""
        phase = mprime(phase_s=0.02).phases[0]
        workload = Workload(name="mprime-stall", cyclic=True, phases=(
            phase, dataclasses.replace(phase, name="mprime_stall",
                                       stall_fraction=0.45)))

        def drive(sim, node):
            sim.run_for(ms(400))
        fast, slow, node = _stepping_pair(drive, epb=Epb.POWERSAVE,
                                          workload=workload)
        _assert_parity(fast, slow)
        assert node.horizon_stats.stop_trim_change > 0

    def test_draw_refill_in_a_long_settle_window(self):
        def drive(sim, node):
            sim.run_for(ms(400))     # > 256 ticks = one 128 ms buffer
        fast, slow, node = _stepping_pair(drive)
        _assert_parity(fast, slow)
        stats = node.horizon_stats
        assert stats.stop_draw_refill > 0
        assert stats.stop_plan_break > 0 and stats.stop_cap > 0
        ticks = sum(p.tick_count for p in node.pcus)
        assert stats.ticks > ticks // 2
        assert stats.polls > 0 and stats.refreshes > 0
        assert stats.segments > stats.taken

    def test_knob_writes_between_windows(self):
        def drive(sim, node):
            sim.run_for(ms(150))
            node.set_epb(Epb.PERFORMANCE)
            sim.run_for(ms(100))
            for p in node.pcus:
                p.limiter.budget_w = p.spec.tdp_w - 10.0
            sim.run_for(ms(100))
            node.set_epb(Epb.BALANCED, socket_ids=[1])
            sim.run_for(ms(100) + 3)
        fast, slow, node = _stepping_pair(drive)
        _assert_parity(fast, slow)
        assert node.horizon_stats.taken > 0

    def test_chaos_armed_node_declines(self):
        """While a fault hook is registered (here an LMG450 dropout
        window) the stepper declines every offer; outside it, it steps.
        A PCU jitter window later widens and restores the tick spread,
        so the jitter buffer retunes twice under a held node."""
        window = (ms(100), ms(200))
        plan = FaultPlan(seed=1, horizon_ns=ms(400), events=(
            FaultEvent(window[0], FaultKind.LMG_DROPOUT,
                       (("duration_ns", window[1] - window[0]),)),
            FaultEvent(ms(250), FaultKind.PCU_JITTER,
                       (("duration_ns", ms(50)), ("extra_jitter_ns", 40_000),
                        ("socket", 1))),))

        def drive(sim, node):
            FaultInjector(sim, node, plan).arm()
            meter = Lmg450(sim, node)
            meter.start()
            sim.run_for(window[0] + ms(1))
            stats = node.horizon_stats
            marks = (stats.taken, stats.declined)
            sim.run_for(ms(98))      # inside the window
            during = (stats.taken - marks[0], stats.declined - marks[1])
            sim.run_for(ms(200))
            meter.stop()
            return during, list(meter.watts)
        fast, slow, node = _stepping_pair(drive)
        (taken, declined), _ = fast["drive"]
        assert taken == 0 and declined > 0
        fast["drive"] = fast["drive"][1]
        slow["drive"] = slow["drive"][1]
        _assert_parity(fast, slow)
        assert node.horizon_stats.taken > 0

    def test_ticks_tied_with_the_1ms_series(self, monkeypatch):
        """Zero tick jitter and both tick chains moved onto whole
        milliseconds: every other tick lands on the nanosecond of the
        EET polls and the RAPL refresh. The batch merge falls back to
        the general (time, seq) replay and still fires in queue order."""
        monkeypatch.setattr(pcu_mod, "TICK_JITTER_NS", 0)

        def drive(sim, node):
            sim.run_for(ms(60))
            for p in node.pcus:
                p.reschedule_tick((sim.now_ns // ms(1) + 1) * ms(1))
            sim.run_for(ms(200))
        fast, slow, node = _stepping_pair(drive)
        _assert_parity(fast, slow)
        assert node.horizon_stats.taken > 0

    def test_merge_fires_in_queue_order(self):
        """The batch merge equals the event queue itself firing the
        streams, each fired event pushing its successor: random tick
        chains on a 500 ns grid tie with each other and with the 1 ms
        series, and the pending events carry shuffled seqs."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            queue = EventQueue()
            n_streams = 5
            firsts = [int(rng.integers(1, 6)) * 500 for _ in range(2)]
            firsts.append(int(rng.integers(1, 4)) * 500)
            specs = []
            for sid in range(2):
                steps = rng.choice([1, 499, 500, 500, 501, 1000],
                                   size=int(rng.integers(0, 40)))
                specs.append(np.concatenate(
                    ([firsts[sid]], firsts[sid] + np.cumsum(steps))))
            specs += [None] * 3
            events = [None] * n_streams
            for i in rng.permutation(n_streams).tolist():
                first = firsts[min(i, 2)]
                events[i] = queue.push(first, lambda t: None, str(i))
            streams = [
                horizon_mod._Stream(horizon_mod._TICK, i, events[i],
                                    ticks=specs[i]) if i < 2 else
                horizon_mod._Stream(horizon_mod._POLL, i, events[i],
                                    task=_Period(1000))
                for i in range(n_streams)]
            end = int(rng.integers(600, 20_000))
            for stream in streams:
                stream.count_before(end)
            times = [stream.times() for stream in streams]
            owner = {id(events[i]): (i, 0) for i in range(n_streams)}
            fired_index, fired_times = [], []
            while True:
                event = queue.pop_next_until(end - 1)
                if event is None:
                    break
                i, k = owner[id(event)]
                fired_index.append(i)
                fired_times.append(event.time_ns)
                if k + 1 < len(times[i]):
                    successor = queue.push(times[i][k + 1], lambda t: None)
                    owner[id(successor)] = (i, k + 1)
            assert horizon_mod._merge(streams) == (fired_index, fired_times)

    def test_phase_churn_never_arms(self):
        sim, node = build_haswell_node(seed=5153)
        node.run_workload([c.core_id for c in node.all_cores],
                          micro.tick_heavy())
        sim.run_for(ms(100))
        stats = node.horizon_stats
        assert stats.taken == stats.declined == 0
        assert sim.stepper is None


class TestBatchedAccumulate:
    """One batch over random segment lengths equals the same segments
    integrated one ``Node.integrate`` call at a time, bit for bit."""

    @pytest.fixture(scope="class")
    def settled(self):
        sim, node = build_haswell_node(seed=5154)
        node.run_workload([c.core_id for c in node.all_cores], firestarter())
        sim.run_for(ms(60))
        any_active = node.any_core_active()
        rates = [s.steady_rates(any_active) for s in node.sockets]
        assert all(r is not None and node._stack_rates[sid] is r
                   for sid, r in enumerate(rates))
        return sim, node, rates

    @staticmethod
    def _save(node: Node):
        return (node._cnt_stack.copy(), node._res_stack.copy(),
                node.ac_energy_j,
                [(s.scalar_accumulators(), dict(s._residency_pkg_ns))
                 for s in node.sockets])

    @staticmethod
    def _restore(node: Node, saved) -> None:
        cnt, res, ac, sockets = saved
        node._cnt_stack[...] = cnt
        node._res_stack[...] = res
        node.ac_energy_j = ac
        for s, (values, pkg) in zip(node.sockets, sockets):
            s.fold_segments(values, 0)
            s._residency_pkg_ns.clear()
            s._residency_pkg_ns.update(pkg)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.integers(1, 3_000_000), min_size=1,
                    max_size=horizon_mod.MAX_SEGMENTS))
    def test_batch_equals_sequential_integrate(self, settled, lengths):
        sim, node, rates = settled
        saved = self._save(node)
        now = sim.now_ns
        seg_times = now + np.cumsum(np.array(lengths, dtype=np.int64))
        t0 = now
        for t1 in seg_times.tolist():
            node.integrate(t0, t1)
            t0 = t1
        sequential = _surface(node)
        self._restore(node, saved)
        horizon = node.horizon
        acc, observed = horizon._accumulate(now, seg_times.tolist(), rates)
        final = horizon_mod._sums(acc, len(lengths))
        horizon._commit([], final, int(seg_times[-1]) - now)
        # the observed (row-by-row) columns end where the sums end
        assert np.array_equal(observed[-1], final[horizon._observed])
        batched = _surface(node)
        self._restore(node, saved)
        assert not _mismatches(batched, sequential)

    def test_row_sums_equal_per_row_sums(self):
        """EET polls read their stall sums as row sums of a gather; on
        contiguous float64 rows that is the per-row ``.sum()``."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            rows, cols = rng.integers(1, 120), rng.integers(1, 30)
            data = np.cumsum(rng.random((rows, cols))
                             * 10.0 ** rng.integers(-3, 12), axis=0)
            pick = rng.integers(0, rows, size=rng.integers(1, 40))
            lo = rng.integers(0, cols)
            gathered = data[pick, lo:cols].sum(axis=1)
            assert np.array_equal(
                gathered, [data[r, lo:cols].sum() for r in pick])
            # a socket's aperf and stall rows side by side, 12 cores each
            data = np.cumsum(rng.random((rows, 4 * 12)), axis=0)
            lo = 24 * rng.integers(0, 2)
            picked = data[pick, lo:lo + 24].reshape(len(pick), 2, 12)
            assert np.array_equal(picked.sum(axis=2), [
                [data[r, lo + 12 * j:lo + 12 * j + 12].sum() for j in (0, 1)]
                for r in pick])


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
