"""The per-socket Power Control Unit.

Ticks every ~500 us (:attr:`CpuSpec.pcu_quantum_ns`, with a small timing
jitter — the paper infers "regular intervals of about 500 us" driven by
an external source). Each tick re-derives every active core's frequency
(request, turbo bins, EPB, EET trim, AVX caps, TDP budget) and the
uncore frequency (UFS), then applies changes after the voltage-ramp
switching time. All cores of a socket change together; sockets tick on
independent phases — exactly the behaviour FTaLaT measures in Fig. 3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.engine import fastpath, sanitize
from repro.engine.rng import DrawBatch, spawn_rng
from repro.errors import ConfigurationError, EpochConsistencyError
from repro.engine.simulator import Simulator
from repro.pcu.avx import AvxUnit
from repro.pcu.eet import EetController
from repro.pcu.epb import Epb
from repro.pcu.turbo import (
    DITHER_ARGS,
    FrequencyDecision,
    OperatingPoint,
    TdpLimiter,
)
from repro.pcu.ufs import ufs_target_hz
from repro.specs.cpu import CpuSpec
from repro.units import us

if TYPE_CHECKING:
    from repro.system.node import Node
    from repro.system.socket import Socket

# Tick-to-tick timing jitter of the grant opportunities.
TICK_JITTER_NS = us(10)
# Recent tick times kept for tests/analysis (~2 s of quanta).
TICK_HISTORY = 4096


@dataclass(frozen=True)
class _ReplayPlan:
    """What a steady replay of the cached derivation needs per tick.

    ``pairs`` holds the distinct ``(target, freq_hz)`` pairs of the
    cores the dithered grant serves; a replay whose grants keep every
    pair within the apply threshold writes nothing. ``None`` means an
    undithered (idle-core) grant is itself over the threshold, so every
    replay goes through :meth:`Pcu._apply_decision`.
    """

    point: OperatingPoint
    uncore_hz: float | None        # clamped uncore grant; None = no write
    pairs: tuple[tuple[float, float], ...] | None


class Pcu:
    """Control loop of one socket."""

    def __init__(self, sim: Simulator, socket: "Socket", node: "Node",
                 epb: Epb = Epb.BALANCED, turbo_enabled: bool = True,
                 eet_enabled: bool = True,
                 budget_w: float | None = None,
                 fastpath_enabled: bool | None = None) -> None:
        self.sim = sim
        self.socket = socket
        self.node = node
        self.spec: CpuSpec = socket.spec
        self.epb = epb
        self.turbo_enabled = turbo_enabled
        self.eet = EetController(enabled=eet_enabled)
        self.limiter = TdpLimiter(self.spec, socket.power_model, budget_w)
        self.avx_unit = AvxUnit(sim=sim,
                                relax_delay_ns=self.spec.avx_relax_delay_ns)
        self.rng = spawn_rng(sim.rng)
        # Batched draw buffers over this PCU's stream. Tick jitter and
        # TDP dither are the two per-tick draw sites; prefilling them
        # block-wise replaces ~one generator call per tick with one per
        # 256 ticks. Values are identical to sequential draws while the
        # stream has a single live site (the canonical non-TDP-bound
        # scenarios); interleaved dither shifts which value lands where
        # but never the draw *order*, which is what the sanitizer ledger
        # and the fastpath parity guarantee are about.
        self._jitter_batch = DrawBatch(self.rng, "integers")
        self._dither_batch = DrawBatch(self.rng, "normal")
        self.tick_count = 0
        # PROCHOT#-style thermal throttle: while set, every grant is
        # clamped to this frequency (fault injection / thermal episodes).
        self.prochot_cap_hz: float | None = None
        # Software uncore-ratio limits (MSR_UNCORE_RATIO_LIMIT 0x620 via
        # the host interface). Default to the silicon range, so behaviour
        # is unchanged until software narrows the window.
        self.uncore_limit_min_hz: float = self.spec.uncore_min_hz
        self.uncore_limit_max_hz: float = self.spec.uncore_max_hz
        # Additional tick-timing jitter (fault injection: a disturbed
        # external tick source widens the grant-opportunity spread).
        self.extra_tick_jitter_ns: int = 0
        # Voltage-ramped frequency switches, batched per fire time: one
        # decision applies every changed core at now + switch_time, so
        # one heap event carries the whole socket's applies (per-core
        # order = insertion order = the order per-core events had).
        self._apply_batches: dict[int, tuple[object, dict]] = {}
        self._pending_apply: dict[int, int] = {}   # core id -> fire time
        self._tick_times: deque[int] = deque(maxlen=TICK_HISTORY)
        self._eet_last_stall = 0.0
        self._eet_last_cycles = 0.0
        # Steady-state fast path: when the node epoch and every control
        # knob are unchanged since the last tick, the per-core target
        # derivation is skipped and the limiter re-decides on the cached
        # inputs (consuming the same rng draws, so the event stream is
        # bit-identical either way).
        self.fastpath_enabled = (fastpath.enabled() if fastpath_enabled is None
                                 else fastpath_enabled)
        self._epoch = getattr(node, "epoch", None) or socket.epoch
        self._ctrl_key: tuple | None = None
        self._ctrl_sig: tuple | None = None
        self._ctrl_targets: dict[int, float] = {}
        self._ctrl_decide_targets: dict[int, float] = {}
        self._ctrl_activity = 0.0
        self._ctrl_ufs: float | None = None
        # Built on the first steady replay of a cached derivation.
        self._plan: _ReplayPlan | None = None
        self._plan_ticks = 0     # plan-served ticks (sanitize sampling)
        # Horizon stepping (repro.system.horizon) folds ticks and EET
        # polls by their handles; `held` says the next tick replays the
        # cached derivation through a built plan: the last tick was a
        # write-free replay, or a write-free derivation while every
        # other PCU of the node was held.
        self._tick_event = None
        self._eet_task = None
        self.held = False

    # ---- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        quantum = self.spec.pcu_quantum_ns
        if quantum <= 0:
            # Pre-Haswell: requests are carried out immediately (handled by
            # Node.set_pstate); still run a coarse control tick for TDP/UFS.
            quantum = us(500)
        phase = int(self.rng.integers(0, quantum))
        self._tick_event = self.sim.schedule_after(
            max(phase, 1), self._tick,
            label=f"pcu-tick-s{self.socket.socket_id}")
        if self.spec.eet_poll_period_ns > 0:
            self._eet_task = self.sim.schedule_every(
                self.spec.eet_poll_period_ns, self._eet_poll,
                label=f"eet-poll-s{self.socket.socket_id}")

    # ---- software control -----------------------------------------------------------

    def set_uncore_limits(self, min_hz: float | None = None,
                          max_hz: float | None = None) -> None:
        """Narrow (or restore) the uncore frequency window.

        The knob MSR_UNCORE_RATIO_LIMIT exposes: the UFS law still picks
        the target, but grants are clamped into ``[min_hz, max_hz]``.
        ``None`` leaves the respective bound unchanged.
        """
        new_min = self.uncore_limit_min_hz if min_hz is None else min_hz
        new_max = self.uncore_limit_max_hz if max_hz is None else max_hz
        if not (self.spec.uncore_min_hz <= new_min <= new_max
                <= self.spec.uncore_max_hz):
            raise ConfigurationError(
                f"uncore limits [{new_min / 1e9:.2f}, {new_max / 1e9:.2f}] "
                f"GHz outside the silicon range "
                f"[{self.spec.uncore_min_hz / 1e9:.2f}, "
                f"{self.spec.uncore_max_hz / 1e9:.2f}] GHz")
        self.uncore_limit_min_hz = new_min
        self.uncore_limit_max_hz = new_max

    def _clamp_uncore(self, f_hz: float) -> float:
        return min(max(f_hz, self.uncore_limit_min_hz),
                   self.uncore_limit_max_hz)

    # ---- periodic work --------------------------------------------------------------

    def _eet_poll(self, _now_ns: int) -> None:
        self.eet.poll(self._stall_fraction_windowed(), self.epb)

    def _stall_fraction_windowed(self) -> float:
        """Stall cycles over unhalted cycles since the previous poll.

        Hardware counts events over the interval; a phase that ended just
        before the poll still dominates the sample — the staleness that
        makes EET mis-clock fast phase-switchers (Section II-E).
        """
        stall = self.socket.counter_total("stall_cycles")
        cycles = self.socket.counter_total("aperf")
        d_stall = stall - self._eet_last_stall
        d_cycles = cycles - self._eet_last_cycles
        self._eet_last_stall = stall
        self._eet_last_cycles = cycles
        if d_cycles <= 0:
            return 0.0
        return min(d_stall / d_cycles, 1.0)

    def _stall_fraction(self) -> float:
        """Instantaneous activity-weighted stall fraction (UFS input)."""
        active = self.socket.active_cores()
        if not active:
            return 0.0
        return sum(c.current_phase.stall_fraction for c in active) / len(active)

    def _tick(self, now_ns: int) -> None:
        self.tick_count += 1
        self._tick_times.append(now_ns)
        self._control(now_ns)
        quantum = self.spec.pcu_quantum_ns or us(500)
        spread = TICK_JITTER_NS + self.extra_tick_jitter_ns
        jitter = int(self._jitter_batch.take(-spread, spread + 1))
        self._tick_event = self.sim.schedule_after(
            max(quantum + jitter, 1), self._tick,
            label=f"pcu-tick-s{self.socket.socket_id}")

    # ---- horizon stepping (repro.system.horizon) ------------------------------------

    @property
    def pending_tick(self):
        """The scheduled next tick's event handle."""
        return self._tick_event

    @property
    def eet_task(self):
        """The EET poll series (``None`` on parts without EET polling)."""
        return self._eet_task

    @property
    def draws_ledgered(self) -> bool:
        """True when this PCU's draws land in a sanitize ledger."""
        return self._jitter_batch.ledgered

    def _set_held(self, held: bool) -> None:
        self.held = held
        self.node.horizon.on_held(held)

    def horizon_ready(self) -> bool:
        """True when the next tick is a replay of the cached derivation
        whose plan writes nothing except through the dither: held, no
        knob or epoch moved since, no apply is pending and the uncore
        sits at its grant."""
        plan = self._plan
        if not (self.held and self.fastpath_enabled and plan is not None
                and plan.pairs is not None) or self._pending_apply:
            return False
        if self._control_key() != self._ctrl_key:
            return False
        uncore = self.socket.uncore
        if not (plan.uncore_hz is None or uncore.halted
                or uncore.freq_hz == plan.uncore_hz):
            return False
        event = self._tick_event
        return event is not None and not event.cancelled

    def peek_ticks(self, n: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Speculate up to ``n`` upcoming replay ticks from the buffered
        draws, consuming nothing.

        Returns ``(times, f_core, n_held)``: ``times`` has one entry
        more than ``f_core`` — the pending tick first, then each tick's
        successor — ``f_core[k]`` is tick ``k``'s dithered ceiling, and
        the first ``n_held`` ticks are replays that write nothing
        (:meth:`_plan_holds`). Fewer than ``n`` ticks come back when a
        draw buffer would refill or retune first. Only valid while
        :meth:`horizon_ready`.
        """
        plan = self._plan
        point = plan.point
        spread = TICK_JITTER_NS + self.extra_tick_jitter_ns
        jitter = self._jitter_batch.peek(n, -spread, spread + 1)
        if point.tdp_bound:
            draws = self._dither_batch.peek(len(jitter), *DITHER_ARGS)
            jitter = jitter[:len(draws)]
        else:
            draws = jitter
        quantum = self.spec.pcu_quantum_ns or us(500)
        times = np.empty(len(jitter) + 1, dtype=np.int64)
        times[0] = self._tick_event.time_ns
        steps = times[1:]
        np.add(jitter, quantum, out=steps)
        np.maximum(steps, 1, out=steps)
        np.add.accumulate(times, out=times)
        f_core = self.limiter.dither_many(point, draws)
        holds = np.ones(len(f_core), dtype=bool)
        threshold = self._APPLY_THRESHOLD_HZ
        for target, freq in plan.pairs:
            holds &= np.abs(np.minimum(target, f_core) - freq) < threshold
        n_held = len(f_core) if holds.all() else int(holds.argmin())
        return times, f_core, n_held

    def fold_ticks(self, times: np.ndarray, f_core: np.ndarray) -> None:
        """Carry out held ticks a stepper folded (at ``times``, under the
        dithered ceilings ``f_core``), minus their draws and successor
        (:meth:`commit_draws`, :meth:`reschedule_tick`); the MBVR state
        is the node's to re-select after its last folded tick."""
        self.tick_count += len(times)
        self._tick_times.extend(times.tolist())
        if self.socket.sanitize_enabled:
            for ceiling in f_core.tolist():
                self._check_plan(self._plan, ceiling)

    def eet_fractions(self, cycles: np.ndarray,
                      stall: np.ndarray) -> np.ndarray:
        """The windowed stall fractions successive polls reading these
        totals would compute (:meth:`_stall_fraction_windowed` as one
        vector expression, no state change)."""
        d_stall = np.empty_like(stall)
        d_stall[0] = stall[0] - self._eet_last_stall
        np.subtract(stall[1:], stall[:-1], out=d_stall[1:])
        d_cycles = np.empty_like(cycles)
        d_cycles[0] = cycles[0] - self._eet_last_cycles
        np.subtract(cycles[1:], cycles[:-1], out=d_cycles[1:])
        live = d_cycles > 0
        first = live.argmin()
        if live[first]:
            fractions = d_stall / d_cycles
            return np.minimum(fractions, 1.0, out=fractions)
        fractions = np.zeros_like(stall)
        fractions[live] = np.minimum(d_stall[live] / d_cycles[live], 1.0)
        return fractions

    def eet_commit(self, stall: np.ndarray, cycles: np.ndarray,
                   fractions: np.ndarray) -> None:
        """Carry out successive polls of which none but the last moves
        the trim (:meth:`EetController.first_change`)."""
        self._eet_last_stall = float(stall[-1])
        self._eet_last_cycles = float(cycles[-1])
        self.eet.poll_count += len(fractions) - 1
        self.eet.poll(float(fractions[-1]), self.epb)

    def commit_draws(self, n: int) -> None:
        """Consume the draws of ``n`` folded ticks, tick by tick."""
        dither = self._dither_batch if self._plan.point.tdp_bound else None
        jitter = self._jitter_batch
        if not jitter.ledgered:
            if dither is not None:
                dither.commit(n)
            jitter.commit(n)
            return
        for _ in range(n):
            if dither is not None:
                dither.commit()
            jitter.commit()

    def reschedule_tick(self, time_ns: int) -> None:
        """Replace the pending tick by the successor the last folded
        tick would have scheduled."""
        self._tick_event.cancel()
        self._tick_event = self.sim.schedule_at(
            time_ns, self._tick, label=f"pcu-tick-s{self.socket.socket_id}")

    # ---- the control decision ---------------------------------------------------------

    def _uncore_target(self, active: list) -> float | None:
        socket = self.socket
        spec = self.spec
        sleeping = socket.package_cstate.uncore_halted
        coupling = spec.microarch.uncore_coupling
        if coupling == "tied":
            if sleeping:
                return None
            f = max((c.freq_hz for c in active), default=spec.uncore_min_hz)
            return float(min(max(f, spec.uncore_min_hz), spec.uncore_max_hz))
        if coupling == "fixed":
            return None if sleeping else spec.uncore_min_hz
        fastest = self.node.system_fastest_setting()
        if fastest == "no-active-core":
            fastest = spec.min_hz
        max_stall = max((c.current_phase.stall_fraction for c in active),
                        default=0.0)
        return ufs_target_hz(
            spec,
            epb=self.epb,
            package_sleeping=sleeping,
            socket_has_active_core=bool(active),
            max_stall_fraction=max_stall,
            system_fastest_setting_hz=fastest,
        )

    def _control_key(self) -> tuple:
        """Everything the grant derivation depends on besides core/uncore
        state (which the node epoch already covers)."""
        return (self._epoch.value, self.epb, self.turbo_enabled,
                self.eet.trim_hz, self.prochot_cap_hz, self.limiter.budget_w,
                self.uncore_limit_min_hz, self.uncore_limit_max_hz)

    def _grant_signature(self) -> tuple:
        """Content image of the grant-relevant core/uncore state.

        The epoch in :meth:`_control_key` is a conservative proxy: any
        mutation anywhere bumps it, so churn-heavy workloads (phase
        flips every few hundred microseconds) never see two ticks under
        one epoch even when the control inputs cycled back to a point
        already derived. This signature captures the inputs themselves —
        per-core request/grant/AVX-cap/activity/stall and the package
        state — so equal signatures (with equal control knobs) imply
        byte-equal targets, decide inputs and UFS target, and the cached
        derivation can be replayed across epochs.
        """
        socket = self.socket
        parts: list = [socket.package_cstate,
                       self.node.system_fastest_setting()]
        for core in socket.cores:
            phase = core.current_phase
            if core.is_active and phase is not None and phase.active:
                parts.append((core.requested_hz, core.freq_hz,
                              core.avx_license.avx_capped or phase.uses_avx,
                              phase.power_activity, phase.stall_fraction))
            else:
                parts.append((core.requested_hz,
                              core.avx_license.avx_capped))
        return tuple(parts)

    def _build_plan(self) -> _ReplayPlan:
        point = self.limiter.solve(self._ctrl_decide_targets,
                                   self._ctrl_activity, self._ctrl_ufs)
        uncore_hz = (None if point.f_uncore is None
                     else self._clamp_uncore(point.f_uncore))
        dithered = ({} if point.f_common is None
                    else self._ctrl_decide_targets)
        targets = self._ctrl_targets
        pairs: set[tuple[float, float]] = set()
        for core in self.socket.cores:
            target = dithered.get(core.core_id)
            if target is not None:
                pairs.add((target, core.freq_hz))
            elif not (abs(targets[core.core_id] - core.freq_hz)
                      < self._APPLY_THRESHOLD_HZ):
                return _ReplayPlan(point, uncore_hz, None)
        return _ReplayPlan(point, uncore_hz, tuple(pairs))

    def _plan_holds(self, plan: _ReplayPlan, f_core: float) -> bool:
        """True when re-applying the grants under ``f_core`` writes
        nothing: no apply pending, every grant within the threshold of
        its core's frequency, the uncore already at its grant."""
        if plan.pairs is None or self._pending_apply:
            return False
        threshold = self._APPLY_THRESHOLD_HZ
        for target, freq in plan.pairs:
            if not abs(min(target, f_core) - freq) < threshold:
                return False
        uncore = self.socket.uncore
        return (plan.uncore_hz is None or uncore.halted
                or uncore.freq_hz == plan.uncore_hz)

    def _replay_cached(self) -> None:
        """Re-issue the cached derivation's grants.

        The dither is drawn exactly as the slow path draws it (same rng
        draws in the same order). When the replay plan shows the grants
        would change nothing, only the MBVR power state is re-selected;
        otherwise the grants are built from that same draw and applied.
        """
        plan = self._plan
        if plan is None:
            plan = self._plan = self._build_plan()
        f_core = self.limiter.dither(plan.point, self._dither_batch)
        if self._plan_holds(plan, f_core):
            if self.socket.sanitize_enabled:
                self._check_plan(plan, f_core)
            self.select_mbvr_state()
            if not self.held:
                self._set_held(True)
            return
        if self.held:
            self._set_held(False)
        self._apply_decision(
            self.limiter.grant(plan.point, self._ctrl_decide_targets, f_core),
            self._ctrl_targets)

    def _check_plan(self, plan: _ReplayPlan, f_core: float) -> None:
        """Sanitize mode: re-derive a plan-served tick the slow way.

        Every ``EPOCH_CHECK_STRIDE``-th plan-served tick recomputes the
        per-core grants and the apply decisions from the dither already
        drawn (no extra draw, so the ledger is unchanged) and raises if
        any of them would have written: a core or uncore field moved
        without an epoch bump, leaving the plan stale.
        """
        count = self._plan_ticks
        self._plan_ticks = count + 1
        if count % sanitize.EPOCH_CHECK_STRIDE != 0:
            return
        socket = self.socket
        grants = self.limiter.grant(plan.point, self._ctrl_decide_targets,
                                    f_core).core_targets_hz
        for core in socket.cores:
            granted = grants.get(core.core_id)
            if granted is None:
                granted = self._ctrl_targets[core.core_id]
            if not (abs(granted - core.freq_hz) < self._APPLY_THRESHOLD_HZ
                    and core.pending_freq_hz is None):
                raise EpochConsistencyError(
                    f"socket {socket.socket_id} core {core.core_id}: the "
                    f"PCU replay plan skipped a grant of "
                    f"{granted / 1e9:.4f} GHz against {core.freq_hz / 1e9:.4f}"
                    " GHz — a core field was mutated without an epoch bump")
        uncore = socket.uncore
        if (plan.uncore_hz is not None and not uncore.halted
                and uncore.freq_hz != plan.uncore_hz):
            raise EpochConsistencyError(
                f"socket {socket.socket_id} uncore: the PCU replay plan "
                f"skipped an uncore grant of {plan.uncore_hz / 1e9:.4f} GHz "
                f"against {uncore.freq_hz / 1e9:.4f} GHz — the uncore was "
                "mutated without an epoch bump")

    def _control(self, now_ns: int) -> None:
        socket = self.socket
        socket.sync_package_state(self.node.any_core_active())

        key = self._control_key()
        sig: tuple | None = None
        if self.fastpath_enabled:
            if key == self._ctrl_key:
                # Steady state: nothing moved since the last tick.
                self._replay_cached()
                return
            if self._ctrl_key is not None and key[1:] == self._ctrl_key[1:]:
                # The epoch moved but every control knob is unchanged;
                # coalesce if the grant inputs themselves cycled back to
                # the cached operating point (tick-heavy churn). Core
                # frequencies may have moved, so the plan is rebuilt.
                sig = self._grant_signature()
                if sig == self._ctrl_sig:
                    self._ctrl_key = key
                    self._plan = None
                    self._replay_cached()
                    return

        active = socket.active_cores()
        n_active = max(len(active), 1)

        # All cores get a grant — parked cores keep a granted p-state so
        # they resume at the requested frequency when woken (PCPS).
        # core_target_hz is pure and every input except (request,
        # avx-cap) is tick-constant, so lockstep fleets resolve one
        # target and share it across cores.
        targets: dict[int, float] = {}
        target_memo: dict[tuple, float] = {}
        for core in socket.cores:
            phase = core.current_phase
            avx_capped = (core.avx_license.avx_capped
                          or (phase is not None and phase.active
                              and phase.uses_avx))
            memo_key = (core.requested_hz, avx_capped)
            target = target_memo.get(memo_key)
            if target is None:
                target = target_memo[memo_key] = self.limiter.core_target_hz(
                    requested_hz=core.requested_hz,
                    n_active=n_active,
                    avx_capped=avx_capped,
                    epb=self.epb,
                    turbo_enabled=self.turbo_enabled,
                    eet_trim_hz=self.eet.trim_hz,
                )
            targets[core.core_id] = target

        if self.prochot_cap_hz is not None:
            # Thermal throttle episode: PROCHOT# clamps every core grant
            # regardless of requests, turbo, or budget headroom.
            cap = max(self.prochot_cap_hz, self.spec.min_hz)
            targets = {cid: min(t, cap) for cid, t in targets.items()}

        active_ids = {c.core_id for c in active}
        decide_targets = {cid: t for cid, t in targets.items()
                          if cid in active_ids} or targets
        activity_sum = sum(c.current_phase.power_activity for c in active)
        ufs_target = self._uncore_target(active)
        if ufs_target is not None:
            # Software ratio limits (0x620) clamp the UFS target before
            # the budget split, so TDP headroom freed by a lowered max
            # flows back to the cores — like the hardware knob.
            ufs_target = self._clamp_uncore(ufs_target)
        decision = self.limiter.decide(
            targets_hz=decide_targets,
            activity_sum=activity_sum,
            ufs_target_hz=ufs_target,
            rng=self._dither_batch,
        )
        # Cache the derivation under the key and signature observed
        # *before* this tick mutated anything (applying grants bumps the
        # epoch, forcing one more full derivation — conservative and
        # correct). `sig` is only non-None when the control knobs were
        # stable this tick; when a knob moved (EET trim drift, EPB
        # write) the signature could not be consulted next tick anyway
        # until the knobs settle, so skip computing it — a None
        # signature just forces the (bit-identical) full derivation.
        self._ctrl_key = key
        self._ctrl_sig = sig
        self._ctrl_targets = targets
        self._ctrl_decide_targets = decide_targets
        self._ctrl_activity = activity_sum
        self._ctrl_ufs = ufs_target
        self._plan = None
        self._apply_decision(decision, targets)
        if (not self._pending_apply
                and all(p.held for p in self.node.pcus if p is not self)
                and self._control_key() == key):
            # Nothing written: the next tick replays this derivation.
            # With every other PCU of the node held, build its plan now
            # and count as held, so a horizon can fold that tick.
            plan = self._plan = self._build_plan()
            if plan.pairs is not None:
                self._set_held(True)
        elif self.held:
            self._set_held(False)

    def _apply_decision(self, decision: FrequencyDecision,
                        targets: dict[int, float]) -> None:
        socket = self.socket
        for core in socket.cores:
            granted = decision.core_targets_hz.get(core.core_id)
            if granted is None:
                # Idle core: honor the request directly (no power at stake).
                granted = targets[core.core_id]
            self._apply_core_freq(core, granted)

        if decision.uncore_hz is not None and not socket.uncore.halted:
            # Clamp again on apply: a TDP-bound shrink may have pushed
            # the grant below the software minimum (both control paths
            # share this, keeping fast/slow bit-identical).
            uncore_hz = self._clamp_uncore(decision.uncore_hz)
            if abs(uncore_hz - socket.uncore.freq_hz) > 1e6:
                self.sim.trace.emit(
                    self.sim.now_ns, f"pcu{socket.socket_id}",
                    "uncore-apply", from_hz=socket.uncore.freq_hz,
                    to_hz=uncore_hz, tdp_bound=decision.tdp_bound)
            socket.uncore.set_frequency(uncore_hz)
        self.select_mbvr_state()

    def select_mbvr_state(self) -> None:
        socket = self.socket
        breakdown = socket.last_breakdown
        estimated_w = breakdown.package_w if breakdown is not None \
            else socket.evaluate_power().package_w
        self.node.mbvr.select_power_state(estimated_w)

    # Grant changes smaller than the TDP-control dither are absorbed by the
    # hardware duty-cycling and not worth a voltage ramp (also keeps the
    # event rate down: steady workloads schedule no apply events at all).
    _APPLY_THRESHOLD_HZ = 15e6

    def _apply_core_freq(self, core, granted_hz: float) -> None:
        """Schedule the voltage-ramped frequency switch (Fig. 4)."""
        if (abs(granted_hz - core.freq_hz) < self._APPLY_THRESHOLD_HZ
                and core.pending_freq_hz is None):
            return
        prev_t = self._pending_apply.pop(core.core_id, None)
        if prev_t is not None:
            self._drop_from_apply_batch(prev_t, core.core_id)
        core.pending_freq_hz = granted_hz
        t = self.sim.now_ns + self.spec.pstate_switch_time_ns
        entry = self._apply_batches.get(t)
        if entry is None:
            event = self.sim.schedule_at(
                t, self._finish_apply_batch,
                label=f"freq-apply-s{self.socket.socket_id}")
            entry = (event, {})
            self._apply_batches[t] = entry
        entry[1][core.core_id] = (core, granted_hz)
        self._pending_apply[core.core_id] = t

    def _drop_from_apply_batch(self, t: int, core_id: int) -> None:
        entry = self._apply_batches.get(t)
        if entry is None:
            return
        event, batch = entry
        batch.pop(core_id, None)
        if not batch:
            # An empty batch must not fire: a spurious event would split
            # an integration segment and perturb the accumulation order.
            event.cancel()
            del self._apply_batches[t]

    def _finish_apply_batch(self, now_ns: int) -> None:
        entry = self._apply_batches.pop(now_ns, None)
        if entry is None:
            return
        trace = self.sim.trace
        record = trace.wants("freq-apply")
        source = f"pcu{self.socket.socket_id}" if record else ""
        pending = self._pending_apply
        for core, f_hz in entry[1].values():
            previous = core.freq_hz
            core.apply_frequency(f_hz)
            pending.pop(core.core_id, None)
            if record:
                trace.emit(now_ns, source, "freq-apply",
                           core_id=core.core_id, from_hz=previous,
                           to_hz=f_hz)
