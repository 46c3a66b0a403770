"""Horizon stepping: one exact batch for a node's steady PCU phases.

In a TDP-bound steady phase (the Table V cells) both PCUs replay a
cached derivation whose plan writes nothing: each 500 us tick draws its
dither, finds every grant within the apply threshold and re-selects the
MBVR state. The EET polls (every 1 ms per socket) and the RAPL refresh
(every 1 ms) almost never change anything either. Between those events
nothing integration reads changes, so every segment integrates the same
cached rates — yet each event used to be dispatched on its own, with
the whole node integrated in between.

:class:`Horizon` is the node's :attr:`~repro.engine.simulator.Simulator.
stepper` while both PCUs are *held* (their next tick replays the cached
derivation through a built plan, with no apply pending). Offered the
clock before an event pops, it:

1. **speculates** — peeks each PCU's dither and jitter buffers, derives
   the tick times and checks each tick's plan holds as vectors; the EET
   and RAPL series are arithmetic;
2. **merges** the owned events (identified by their scheduling handles)
   in ``(time, seq)`` order up to the horizon end: the earliest of the
   next event the node does not own, the run's limit, the first tick
   whose plan does not hold or whose draws are not buffered, and
   :data:`MAX_SEGMENTS` segments;
3. **accumulates** every accumulator — the node's counter stack, each
   socket's uncore counters, package/DRAM/RAPL energy, and wall energy
   — with one ``np.add.accumulate`` over the per-segment increments,
   which adds left to right exactly like the per-segment ``+=``;
4. **walks** the events in order: EET polls take their stall sums from
   the accumulated rows (the same ``.sum()`` over the same contiguous
   rows), RAPL refreshes latch the accumulated energies and emit their
   ``rapl-update`` records; the committed prefix ends right after the
   first poll that moves the trim;
5. **commits** exactly what the per-event path leaves: the draws
   consumed, tick and poll counts, EET windows, the MBVR state of the
   last tick, the accumulators, ``now_ns``; it re-pushes only the
   successors of fired events, in the order their predecessors fired,
   and leaves unfired events untouched.

The stepper declines (counting it) while the fast path is off, while
any fault hook is registered, and when a batch would fold fewer than
:data:`MIN_FOLD_EVENTS` events. Under sanitize mode every
``EPOCH_CHECK_STRIDE``-th horizon recomputes its committed accumulators
from the sockets' cached rates with a scalar left-to-right loop.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.engine import sanitize
from repro.errors import EpochConsistencyError
from repro.system.counters import FIELD_ROW
from repro.units import NS_PER_S

if TYPE_CHECKING:
    from repro.system.node import Node

#: A batch folding fewer events than this is declined: short fleet and
#: service nodes, and the gaps between close breaking events, pay only
#: the entry check. The break-even on a Table V cell (see
#: docs/performance.md): a batch costs ~230 us plus ~1.6 us per folded
#: event, a held event dispatched on its own ~17 us, so batches pay
#: from ~15 events.
MIN_FOLD_EVENTS = 16
#: Segments per batch: bounds the accumulate buffer. Batched
#: accumulation beats per-segment integration from ~25 segments up.
MAX_SEGMENTS = 100

# Event streams a batch merges.
_TICK, _POLL, _REFRESH = 0, 1, 2
# Scalar accumulators per socket (Socket.scalar_accumulators order): the
# first five advance by rate x dt_s, the last two (RAPL package and DRAM
# energy) through the RAPL backend.
_N_SCALARS = 7
# Successor rank base: above every seq the event queue hands out here.
_RANK_BASE = 1 << 62
# An EET poll sums the aperf and stall rows of its socket's counters.
_ROW_APERF = FIELD_ROW["aperf"]
_ROW_STALL = FIELD_ROW["stall_cycles"]


@dataclass
class HorizonStats:
    """Write-only counters of the stepper.

    The simulation only increments them; tests, docs and benchmarks read
    them (the ``arch-sim-stats-read`` lint rule keeps every sim-core
    module from reading them back, so they cannot steer a run).
    """

    taken: int = 0          # batches committed
    ticks: int = 0          # PCU ticks folded
    polls: int = 0          # EET polls folded
    refreshes: int = 0      # RAPL refreshes folded
    segments: int = 0       # segments integrated in batches
    stop_foreign: int = 0   # ended at an event the node does not own
    stop_plan_break: int = 0    # ended before a tick whose plan writes
    stop_trim_change: int = 0   # ended after a poll that moved the trim
    stop_draw_refill: int = 0   # ended where a draw buffer refills
    stop_run_limit: int = 0     # ended at the run_until limit
    stop_cap: int = 0           # ended at MAX_SEGMENTS
    declined: int = 0       # fast path off, fault hook, or too short


class _Stream:
    """One owned event series: a PCU's ticks (times speculated from its
    draws) or a periodic series (``first + k * period``)."""

    __slots__ = ("kind", "sid", "event", "task", "first", "period", "ticks",
                 "f_core", "count", "pos", "rows", "fired")

    def __init__(self, kind: int, sid: int, event, task=None,
                 ticks: np.ndarray | None = None,
                 f_core: np.ndarray | None = None) -> None:
        self.kind = kind
        self.sid = sid
        self.event = event          # the pending event's handle
        self.task = task            # the periodic series' RepeatingEvent
        self.first = event.time_ns
        self.period = 0 if task is None else task.period_ns
        self.ticks = ticks          # tick times, each tick's successor last
        self.f_core = f_core        # each tick's dithered ceiling
        self.count = 0              # candidate events before the end
        self.pos: list[int] = []    # their positions in firing order
        self.rows: list[int] = []   # and the accumulated rows they read
        self.fired = 0              # events in the committed prefix

    def count_before(self, end: int) -> int:
        """Set and return :attr:`count`: the events before ``end`` (at
        most MAX_SEGMENTS + 1 of a periodic series — more cannot fit
        under the segment cap)."""
        if self.ticks is not None:
            self.count = int(self.ticks.searchsorted(end))
        elif self.first < end:
            self.count = min(-(-(end - self.first) // self.period),
                             MAX_SEGMENTS + 1)
        else:
            self.count = 0
        return self.count

    def times(self) -> list[int]:
        """The candidate event times."""
        if self.ticks is not None:
            return self.ticks[:self.count].tolist()
        return list(range(self.first, self.first + self.count * self.period,
                          self.period))

    def successor(self) -> int:
        """Time of the event after the last fired one."""
        if self.ticks is not None:
            return int(self.ticks[self.fired])
        return self.first + self.fired * self.period


def _sums(acc: np.ndarray, row: int) -> np.ndarray:
    """Every accumulator after ``row`` segments: row 0 plus the first
    ``row`` increment rows, added row after row (a reduce along the
    slow axis adds each row in turn; pairwise summation is only used
    along the fast one)."""
    return np.add.reduce(acc[:row + 1], axis=0)


def _merge(streams: list[_Stream]) -> tuple[list[int], list[int]]:
    """Every counted event (:meth:`_Stream.count_before`) in firing
    order: ``(stream indices, times)``.

    Replays the queue's ``(time, seq)`` order with a heap: a fired
    event's successor gets the next seq — after everything already
    queued, in firing order — so it ranks by its predecessor's firing.
    """
    times_of = [s.times() for s in streams]
    heap = [(t[0], s.event.seq, i)
            for i, (s, t) in enumerate(zip(streams, times_of)) if t]
    heapq.heapify(heap)
    pos = [0] * len(streams)
    index: list[int] = []
    times: list[int] = []
    rank = _RANK_BASE
    while heap:
        t, _, i = heapq.heappop(heap)
        index.append(i)
        times.append(t)
        pos[i] += 1
        if pos[i] < len(times_of[i]):
            heapq.heappush(heap, (times_of[i][pos[i]], rank, i))
        rank += 1
    return index, times


class Horizon:
    """The node's horizon stepper (see the module docstring)."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.horizon_stats = HorizonStats()
        self._step = self.step          # the bound method installed
        n_sockets = len(node.sockets)
        # The node's stacks, flat: (socket, field, core) per column.
        self._cnt_flat = node._cnt_stack.reshape(-1)
        self._rate_flat = node._rate_stack.reshape(-1)
        n_fields, n_cores = node._cnt_stack.shape[1:]
        n_stack = node._cnt_stack.size
        # Accumulate buffer columns: the counter stack, each socket's
        # scalar accumulators, wall energy.
        self._n_stack = n_stack
        self._ac_col = n_stack + _N_SCALARS * n_sockets
        # The columns read mid-batch, accumulated row by row: what an
        # EET poll sums (per socket, its aperf row then its stall row)
        # and the RAPL pairs a refresh latches. Every other column only
        # needs its sum at the committed row.
        self._n_cores = n_cores
        self._n_eet = 2 * n_cores * n_sockets
        self._observed = np.array(
            [(sid * n_fields + row) * n_cores + core
             for sid in range(n_sockets) for row in (_ROW_APERF, _ROW_STALL)
             for core in range(n_cores)]
            + [n_stack + _N_SCALARS * sid + j
               for sid in range(n_sockets) for j in (5, 6)], dtype=np.intp)
        # A short batch declined: nothing can fold before this time.
        self._skip_until = -1
        self._sanitize_horizons = 0
        self.sanitize_checks = 0

    # ---- arming ---------------------------------------------------------------

    def on_held(self, held: bool) -> None:
        """A PCU's held flag flipped: install the stepper once every PCU
        of the node is held, remove it as soon as one is not."""
        sim = self.node.sim
        if held:
            if sim.stepper is None and all(p.held for p in self.node.pcus):
                sim.stepper = self._step
        elif sim.stepper is self._step:
            sim.stepper = None

    # ---- one batch --------------------------------------------------------------

    def step(self, limit_ns: int) -> None:
        """Fold the owned events before the horizon end into one batch
        (or decline); leaves the clock at the last folded event."""
        node = self.node
        sim = node.sim
        if sim.now_ns < self._skip_until:
            return
        if not node.fastpath_enabled or sim.has_fault_hooks():
            self.horizon_stats.declined += 1
            return
        any_active = node.any_core_active()
        rates = []
        for sid, pcu in enumerate(node.pcus):
            if not pcu.horizon_ready():
                return
            socket_rates = pcu.socket.steady_rates(any_active)
            if socket_rates is None \
                    or node._stack_rates[sid] is not socket_rates:
                return
            rates.append(socket_rates)

        # 1. speculate: the owned series and the end each allows
        streams, end, reason = self._speculate(limit_ns)
        events = sum(stream.count_before(end) for stream in streams)
        if events < MIN_FOLD_EVENTS:
            if events:
                self._decline(end, limit_ns)
            return
        # 2. merge; number the segments, capped at MAX_SEGMENTS
        index, times = _merge(streams)
        now = sim.now_ns
        rows: list[int] = []        # accumulated row each event reads
        seg_times: list[int] = []
        last = now
        row = 0
        for k, t in enumerate(times):
            if t != last:
                if row == MAX_SEGMENTS:
                    reason = "cap"
                    break
                seg_times.append(t)
                last = t
                row += 1
            rows.append(row)
            stream = streams[index[k]]
            stream.pos.append(k)
            stream.rows.append(row)
        if len(rows) < MIN_FOLD_EVENTS:
            self._decline(end, limit_ns)
            return

        # 3. accumulate; 4. walk; 5. commit
        sanitized = any(s.sanitize_enabled for s in node.sockets)
        if sanitized:
            for sid, socket_rates in enumerate(rates):
                node.check_segment(sid, socket_rates)
        acc, observed = self._accumulate(now, seg_times, rates)
        committed, reason = self._walk(streams, index, rows, times,
                                       observed, reason)
        row = rows[committed - 1]
        t_last = times[committed - 1]
        final = _sums(acc, row)
        self._commit(streams, final, t_last - now)
        if sanitized:
            self._check(acc, final, row, now, seg_times, rates)
        sim.now_ns = t_last

        stats = self.horizon_stats
        stats.taken += 1
        stats.segments += row
        for stream in streams:
            if stream.kind == _TICK:
                stats.ticks += stream.fired
            elif stream.kind == _POLL:
                stats.polls += stream.fired
            else:
                stats.refreshes += stream.fired
        if reason == "foreign":
            stats.stop_foreign += 1
        elif reason == "plan_break":
            stats.stop_plan_break += 1
        elif reason == "trim_change":
            stats.stop_trim_change += 1
        elif reason == "draw_refill":
            stats.stop_draw_refill += 1
        elif reason == "run_limit":
            stats.stop_run_limit += 1
        else:
            stats.stop_cap += 1

    def _decline(self, end: int, limit_ns: int) -> None:
        """A batch too short to pay: until the event that ends it fires,
        a later offer can only find the same end or an earlier one."""
        self.horizon_stats.declined += 1
        self._skip_until = min(end, limit_ns)

    def _speculate(self, limit_ns: int) -> tuple[list[_Stream], int, str]:
        """The owned series — both tick chains (times and held prefix
        from the buffered draws), the EET polls and the RAPL refreshes —
        and the horizon end (exclusive) with its reason."""
        node = self.node
        streams: list[_Stream] = []
        end = limit_ns + 1
        reason = "run_limit"
        for sid, pcu in enumerate(node.pcus):
            ticks, f_core, n_held = pcu.peek_ticks(MAX_SEGMENTS + 1)
            streams.append(_Stream(_TICK, sid, pcu.pending_tick,
                                   ticks=ticks, f_core=f_core))
            stop = int(ticks[n_held])
            if stop < end:
                end = stop
                if n_held < len(f_core):
                    reason = "plan_break"
                elif n_held <= MAX_SEGMENTS:
                    reason = "draw_refill"
                else:
                    reason = "cap"
        periodic = [(_POLL, sid, pcu.eet_task)
                    for sid, pcu in enumerate(node.pcus)]
        periodic.append((_REFRESH, -1, node.rapl_task))
        series = []
        for kind, sid, task in periodic:
            event = None if task is None else task.pending
            if event is not None and not event.cancelled:
                series.append(_Stream(kind, sid, event, task=task))
        # Same-time periodic events fire in pending-seq order.
        series.sort(key=lambda stream: stream.event.seq)
        streams.extend(series)
        foreign = node.sim.queue.first_other(
            tuple(stream.event for stream in streams))
        if foreign is not None and foreign[0] < end:
            end, reason = foreign[0], "foreign"
        return streams, end, reason

    # ---- accumulate -------------------------------------------------------------

    def _accumulate(self, now: int, seg_times: list[int],
                    rates: list) -> tuple[np.ndarray, np.ndarray]:
        """The accumulators and their per-segment increments, row 0 the
        live values and row ``k`` the ``k``-th segment's increment (the
        product the per-segment path forms: ``rate * dt_s``, RAPL
        through its backend, wall energy as ``ac_w * dt_ns / NS_PER_S``);
        and the columns read mid-batch, summed row by row.

        Adding left to right is what keeps the batch exact:
        ``np.add.accumulate`` for the observed columns, and :func:`_sums`
        for the committed ones.
        """
        node = self.node
        n_stack, ac_col = self._n_stack, self._ac_col
        acc = np.empty((len(seg_times) + 1, ac_col + 1))
        dt_ns = np.array([t1 - t0 for t0, t1 in zip([now, *seg_times],
                                                    seg_times)])
        dt_s = dt_ns / NS_PER_S

        # Row 0: the live accumulators.
        row0 = acc[0]
        row0[:n_stack] = self._cnt_flat
        start = []
        rated = []
        dc_w = 0.0
        for socket, socket_rates in zip(node.sockets, rates):
            start += socket.scalar_accumulators()
            rated += socket.scalar_rates(socket_rates)
            rated += rated[-2:]         # RAPL: package, DRAM energy
            dc_w += socket_rates.dc_w
        start.append(node.ac_energy_j)
        row0[n_stack:] = start

        # Rows 1..K: the increments.
        dt_col = dt_s[:, None]
        np.multiply(dt_col, self._rate_flat, out=acc[1:, :n_stack])
        np.multiply(dt_col, rated, out=acc[1:, n_stack:ac_col])
        for sid, (socket, socket_rates) in enumerate(zip(node.sockets,
                                                         rates)):
            lo = n_stack + _N_SCALARS * sid
            energy = acc[1:, lo + 3:lo + 5]
            rapl = socket.rapl.backend.accumulate(energy, socket_rates.bias)
            if rapl is not energy:      # a measuring backend passes through
                acc[1:, lo + 5:lo + 7] = rapl
        acc[1:, ac_col] = node.psu.ac_power_w(dc_w) * dt_ns / NS_PER_S
        observed = acc[:, self._observed]
        np.add.accumulate(observed, axis=0, out=observed)
        return acc, observed

    # ---- the ordered walk -----------------------------------------------------

    def _walk(self, streams: list[_Stream], index: list[int],
              rows: list[int], times: list[int], observed: np.ndarray,
              reason: str) -> tuple[int, str]:
        """Carry out the folded events in firing order; returns how many
        are committed and the stop reason.

        Each EET poll reads the stall and unhalted-cycle sums of the
        accumulated row at its time — row sums over a contiguous gather,
        equal to the per-row ``.sum()`` of ``Socket.counter_total`` —
        and the prefix ends right after the first poll that moves the
        trim.
        """
        node = self.node
        pcus = node.pcus
        committed = len(rows)
        n_cores = self._n_cores
        samples = []
        for stream in streams:
            if stream.kind != _POLL or not stream.pos:
                continue
            pcu = pcus[stream.sid]
            lo = 2 * n_cores * stream.sid
            picked = observed[stream.rows, lo:lo + 2 * n_cores]
            sums = picked.reshape(len(picked), 2, n_cores).sum(axis=2)
            cycles, stall = sums[:, 0], sums[:, 1]
            fractions = pcu.eet_fractions(cycles, stall)
            first = pcu.eet.first_change(fractions, pcu.epb)
            if first < len(stream.pos) and stream.pos[first] < committed:
                committed, reason = stream.pos[first] + 1, "trim_change"
            samples.append((pcu, stream.pos, stall, cycles, fractions))
        for pcu, pos, stall, cycles, fractions in samples:
            n = bisect.bisect_left(pos, committed)
            if n:
                pcu.eet_commit(stall[:n], cycles[:n], fractions[:n])

        ledgered = pcus[0].draws_ledgered
        for stream in streams:
            pos = stream.pos
            if pos and pos[-1] >= committed:
                del pos[bisect.bisect_left(pos, committed):]
                del stream.rows[len(pos):]
            stream.fired = n = len(pos)
            if not n:
                continue
            if stream.kind == _TICK:
                pcu = pcus[stream.sid]
                pcu.fold_ticks(stream.ticks[:n], stream.f_core[:n])
                if not ledgered:
                    pcu.commit_draws(n)
            elif stream.kind == _REFRESH:
                # Only the last latch survives; every refresh still
                # emits its record when the trace wants them.
                every = node.sim.trace.wants("rapl-update")
                self._latch(observed, stream.rows if every else stream.rows[-1:],
                            [times[k] for k in (pos if every else pos[-1:])])
        if ledgered:
            # One draw record per tick, across sockets in firing order.
            for i in index[:committed]:
                if streams[i].kind == _TICK:
                    pcus[streams[i].sid].commit_draws(1)
        return committed, reason

    def _latch(self, observed: np.ndarray, rows: list[int],
               times: list[int]) -> None:
        """RAPL refreshes at ``times``, from the accumulated ``rows``."""
        node = self.node
        n_sockets = len(node.sockets)
        lo = self._n_eet
        for row, t in zip(rows, times):
            energy = observed[row, lo:lo + 2 * n_sockets].tolist()
            node.latch_rapl(t, [(energy[2 * sid], energy[2 * sid + 1])
                                for sid in range(n_sockets)])

    # ---- commit -----------------------------------------------------------------

    def _commit(self, streams: list[_Stream], final: np.ndarray,
                dt_ns: int) -> None:
        """Store the committed sums, re-select the MBVR state as the last
        folded tick did, and push the successors of the fired events in
        the order their predecessors fired."""
        node = self.node
        pcus = node.pcus
        n_stack = self._n_stack
        values = final.tolist()
        node.store_counter_stack(final[:n_stack], dt_ns)
        for sid, socket in enumerate(node.sockets):
            lo = n_stack + _N_SCALARS * sid
            socket.fold_segments(values[lo:lo + _N_SCALARS], dt_ns)
        node.ac_energy_j = values[self._ac_col]

        fired = sorted((s for s in streams if s.fired),
                       key=lambda s: s.pos[-1])
        ticks = [s for s in fired if s.kind == _TICK]
        if ticks:
            pcus[ticks[-1].sid].select_mbvr_state()
        for stream in fired:
            if stream.kind == _TICK:
                pcus[stream.sid].reschedule_tick(stream.successor())
            else:
                stream.task.fast_forward(stream.successor() - stream.period)

    # ---- sanitize ---------------------------------------------------------------

    def _check(self, acc: np.ndarray, final: np.ndarray, row: int, now: int,
               seg_times: list[int], rates: list) -> None:
        """Sanitize mode: on every ``EPOCH_CHECK_STRIDE``-th horizon,
        recompute the committed accumulators from the sockets' cached
        rates with a scalar left-to-right loop over the segments.

        The batch multiplies the node's rate stack; this loop reads each
        socket's own cached rates, so a stale stack, a corrupted rate
        or a batched accumulate that lost bit parity all raise.
        """
        count = self._sanitize_horizons
        self._sanitize_horizons = count + 1
        if count % sanitize.EPOCH_CHECK_STRIDE != 0:
            return
        self.sanitize_checks += 1
        node = self.node
        n_stack, ac_col = self._n_stack, self._ac_col
        n_fields, n_cores = node._cnt_stack.shape[1:]
        times = [now, *seg_times[:row]]
        dts = [(t1 - t0) for t0, t1 in zip(times, times[1:])]
        start = acc[0].tolist()
        got = final.tolist()

        def scalar_sum(col: int, increments) -> None:
            total = start[col]
            for inc in increments:
                total += inc
            if total != got[col]:
                raise EpochConsistencyError(
                    f"horizon at t={now} ns: batched accumulator column "
                    f"{col} holds {got[col]!r}, the scalar recompute "
                    f"{total!r} — the batch integrated stale or corrupt "
                    "rates")

        dc_w = 0.0
        for sid, (socket, socket_rates) in enumerate(zip(node.sockets,
                                                         rates)):
            matrix = socket_rates.rate_matrix
            for field in range(n_fields):
                for core in range(n_cores):
                    rate = float(matrix[field, core])
                    scalar_sum((sid * n_fields + field) * n_cores + core,
                               (rate * (dt / NS_PER_S) for dt in dts))
            lo = n_stack + _N_SCALARS * sid
            rated = socket.scalar_rates(socket_rates)
            for j, rate in enumerate(rated):
                scalar_sum(lo + j, (rate * (dt / NS_PER_S) for dt in dts))
            backend = socket.rapl.backend
            for j, rate in enumerate(rated[3:]):
                scalar_sum(lo + 5 + j, (
                    backend.accumulate(rate * (dt / NS_PER_S),
                                       socket_rates.bias) for dt in dts))
            dc_w += socket_rates.dc_w
        ac_w = node.psu.ac_power_w(dc_w)
        scalar_sum(ac_col, (ac_w * dt / NS_PER_S for dt in dts))
