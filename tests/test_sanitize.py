"""The runtime sanitizer: draw ledger and epoch-consistency checker."""

import numpy as np
import pytest

from repro.engine import sanitize
from repro.engine.rng import make_rng, spawn_rng
from repro.engine.simulator import Simulator
from repro.errors import EpochConsistencyError, SanitizeError
from repro.specs.node import HASWELL_TEST_NODE
from repro.system.counters import FIELD_ROW
from repro.system.node import Node, build_haswell_node, build_node
from repro.system.socket import Socket
from repro.units import ms
from repro.workloads import micro
from repro.workloads.firestarter import firestarter


@pytest.fixture
def sanitize_mode():
    sanitize.set_enabled(True)
    yield
    sanitize.set_enabled(None)


class TestDrawLedger:
    def test_wrapping_changes_no_drawn_value(self):
        bare = make_rng(42)
        wrapped = sanitize.wrap_rng(make_rng(42), sanitize.DrawLedger())
        assert np.array_equal(bare.normal(size=8), wrapped.normal(size=8))
        assert bare.integers(0, 100) == wrapped.integers(0, 100)

    def test_draws_are_recorded_and_collapsed(self):
        ledger = sanitize.DrawLedger()
        rng = sanitize.wrap_rng(make_rng(1), ledger)
        rng.random()
        rng.random()
        rng.normal()
        assert ledger.total_draws == 3
        # consecutive same-site random() draws collapse to one entry
        assert len(ledger.entries) == 3
        assert ledger.entries[0][1] == "random"
        assert ledger.entries[2][1] == "normal"

    def test_diff_reports_first_divergence(self):
        a, b = sanitize.DrawLedger(), sanitize.DrawLedger()
        a.record("x.py:1", "random")
        b.record("x.py:1", "random")
        assert a.diff(b) is None
        b.record("x.py:2", "normal")
        assert "x.py:2" in a.diff(b)

    def test_spawned_child_records_into_same_ledger(self):
        ledger = sanitize.DrawLedger()
        parent = sanitize.wrap_rng(make_rng(7), ledger)
        child = spawn_rng(parent)
        child.random()
        assert ledger.total_draws == 1

    def test_spawn_values_unchanged_by_wrapping(self):
        plain_child = spawn_rng(make_rng(7))
        ledgered_child = spawn_rng(
            sanitize.wrap_rng(make_rng(7), sanitize.DrawLedger()))
        assert plain_child.random() == ledgered_child.random()

    def test_error_hierarchy(self):
        assert issubclass(EpochConsistencyError, SanitizeError)

    def test_simulator_carries_ledger_only_in_sanitize_mode(self,
                                                            sanitize_mode):
        assert Simulator(seed=1).ledger is not None
        sanitize.set_enabled(False)
        assert Simulator(seed=1).ledger is None


class TestLedgerParity:
    def _ledger(self, fastpath):
        sim, node = build_haswell_node(seed=404)
        node.set_fastpath(fastpath)
        node.run_workload([0, 1], firestarter())
        sim.run_for(ms(5))
        return sim.ledger

    def test_fastpath_on_off_identical_ledgers(self, sanitize_mode):
        on, off = self._ledger(True), self._ledger(False)
        assert on is not None and on.total_draws > 0
        assert on.diff(off) is None
        assert on.render() == off.render()


class TestEpochChecker:
    def test_clean_run_passes_with_checks_performed(self, sanitize_mode):
        sim, node = build_haswell_node(seed=405)
        node.run_workload([0], firestarter())
        sim.run_for(ms(10))
        assert sum(s.sanitize_checks for s in node.sockets) > 0

    def test_setattr_bypass_is_caught(self, sanitize_mode, monkeypatch):
        # Stride 1 = check every cache-hit segment, so the stale window
        # between the bypass and the next legitimate epoch bump (which
        # would recompute and "heal" the cache) is always sampled.
        monkeypatch.setattr(sanitize, "EPOCH_CHECK_STRIDE", 1)
        sim, node = build_haswell_node(seed=406)
        node.run_workload([0], firestarter())
        sim.run_for(ms(5))
        # Corrupt the active core the forbidden way: the epoch never
        # bumps, so the cached rate matrix goes stale.
        core = node.core(0)
        object.__setattr__(core, "freq_hz", core.freq_hz * 0.5)
        with pytest.raises(EpochConsistencyError):
            sim.run_for(ms(10))

    def test_stale_rate_matrix_caught_under_vectorized_path(
            self, sanitize_mode, monkeypatch):
        """Corrupting the memoized SoA rate matrix itself is detected.

        The vectorized integration consumes the cached ``_SegmentRates``
        matrix directly; the sampled check must recompute through the
        same SoA path and compare against that cache — not against the
        scalar per-core views — or an in-place corruption would
        integrate silently forever.
        """
        monkeypatch.setattr(sanitize, "EPOCH_CHECK_STRIDE", 1)
        sim, node = build_haswell_node(seed=409)
        node.set_fastpath(True)
        node.run_workload([c.core_id for c in node.all_cores],
                          micro.tick_heavy())
        sim.run_for(ms(2))
        sock = node.sockets[0]
        assert sock._rates is not None
        sock._rates.rate_matrix[0, 0] += 1.0e6
        with pytest.raises(EpochConsistencyError, match="without an epoch"):
            sim.run_for(ms(5))

    def test_tick_heavy_field_bypass_caught_with_fastpath(
            self, sanitize_mode, monkeypatch):
        monkeypatch.setattr(sanitize, "EPOCH_CHECK_STRIDE", 1)
        sim, node = build_haswell_node(seed=410)
        node.set_fastpath(True)
        node.run_workload([c.core_id for c in node.all_cores],
                          micro.tick_heavy())
        sim.run_for(ms(2))
        core = node.core(0)
        object.__setattr__(core, "freq_hz", core.freq_hz * 0.5)
        with pytest.raises(EpochConsistencyError):
            sim.run_for(ms(5))

    def _steady_node(self, seed):
        """All 24 cores TDP-bound on FIRESTARTER, run until every PCU
        serves its ticks from a replay plan."""
        sim, node = build_haswell_node(seed=seed)
        node.run_workload([c.core_id for c in node.all_cores],
                          firestarter())
        sim.run_for(ms(60))
        assert all(p._plan is not None for p in node.pcus)
        return sim, node

    def test_clean_steady_replay_passes_plan_checks(self, sanitize_mode):
        sim, node = self._steady_node(seed=411)
        sim.run_for(ms(100))
        # every 64th plan-served tick is re-derived the slow way
        assert all(p._plan_ticks > sanitize.EPOCH_CHECK_STRIDE
                   for p in node.pcus)

    def test_stale_replay_plan_caught(self, sanitize_mode, monkeypatch):
        """A core frequency moved without an epoch bump leaves the PCU
        replay plan stale; the sampled slow re-derivation names it."""
        monkeypatch.setattr(sanitize, "EPOCH_CHECK_STRIDE", 1)
        # The socket's rate check would flag the same bypass at the next
        # segment; switch it off so the PCU's own check is what fires.
        monkeypatch.setattr(Socket, "_check_epoch_consistency",
                            lambda self, cached: None)
        sim, node = self._steady_node(seed=412)
        core = node.core(3)
        object.__setattr__(core, "freq_hz", core.freq_hz - 2e8)
        with pytest.raises(EpochConsistencyError,
                           match="socket 0 core 3: the PCU replay plan"):
            sim.run_for(ms(20))

    def test_clean_run_passes_rate_stack_checks(self, sanitize_mode):
        sim, node = self._steady_node(seed=413)
        assert node.sanitize_checks > 0

    def test_stale_rate_stack_caught(self, sanitize_mode, monkeypatch):
        """The counters advance from the node's copy of each socket's
        rates; a corrupted copy is caught even though the socket's own
        cached rates are intact."""
        sim, node = self._steady_node(seed=414)
        monkeypatch.setattr(sanitize, "EPOCH_CHECK_STRIDE", 1)
        node._rate_stack[1, 1, 5] += 1.0
        with pytest.raises(EpochConsistencyError,
                           match="socket 1: the node's rate stack"):
            sim.run_for(ms(5))

    def test_stale_residency_index_caught(self, sanitize_mode, monkeypatch):
        sim, node = self._steady_node(seed=415)
        monkeypatch.setattr(sanitize, "EPOCH_CHECK_STRIDE", 1)
        index, _base = node._res_slots[0]
        index[2] += 1
        with pytest.raises(EpochConsistencyError,
                           match=r"socket 0: the node's residency index"
                                 r" .* \(core column 2\)"):
            sim.run_for(ms(5))

    def test_clean_run_passes_horizon_checks(self, sanitize_mode):
        sim, node = self._steady_node(seed=416)
        sim.run_for(ms(300))
        assert node.horizon_stats.taken > 0
        assert node.horizon.sanitize_checks > 0

    def test_corrupt_rate_caught_by_horizon_check(self, sanitize_mode,
                                                  monkeypatch):
        """A horizon recomputes its committed accumulators with a scalar
        left-to-right loop over the sockets' cached rates; one rate
        corrupted in place in the stack the batch multiplies is caught
        there (the segment-level checks are off, so this one fires)."""
        monkeypatch.setattr(sanitize, "EPOCH_CHECK_STRIDE", 1)
        monkeypatch.setattr(Socket, "_check_epoch_consistency",
                            lambda self, cached: None)
        monkeypatch.setattr(Node, "_check_rate_stack",
                            lambda self, sid, rates: None)
        sim, node = self._steady_node(seed=417)
        node._rate_stack[0, FIELD_ROW["instructions_core"], 3] *= 1.0 + 1e-9
        with pytest.raises(EpochConsistencyError,
                           match="horizon at t=.* batched accumulator"):
            sim.run_for(ms(300))

    def test_stepping_ledger_equals_fastpath_off_ledger(self, sanitize_mode):
        """Folding ticks consumes the same draws from the same sites in
        the same order: the ledgers of a stepping run and of the
        per-event reference are identical."""
        ledgers = []
        for fast in (True, False):
            sim = Simulator(seed=418)
            node = build_node(sim, HASWELL_TEST_NODE)
            node.set_fastpath(fast)
            node.run_workload([c.core_id for c in node.all_cores],
                              firestarter())
            sim.run_for(ms(300))
            ledgers.append((sim.ledger, node.horizon_stats.taken))
        (stepped, taken), (reference, _) = ledgers
        assert taken > 0
        assert stepped.total_draws > 1000
        assert stepped.diff(reference) is None

    def test_sanctioned_write_is_not_flagged(self, sanitize_mode):
        sim, node = build_haswell_node(seed=407)
        node.run_workload([0], firestarter())
        sim.run_for(ms(5))
        node.set_pstate([0], node.spec.cpu.min_hz)  # bumps the epoch
        sim.run_for(ms(10))

    def test_set_sanitize_runtime_toggle(self):
        sim, node = build_haswell_node(seed=408)
        assert all(not s.sanitize_enabled for s in node.sockets)
        node.set_sanitize(True)
        assert all(s.sanitize_enabled for s in node.sockets)
        node.run_workload([0], firestarter())
        sim.run_for(ms(10))
        assert sum(s.sanitize_checks for s in node.sockets) > 0
