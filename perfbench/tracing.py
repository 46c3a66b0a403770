"""Span tracing for the benchmark's traced runs (``--trace 1``).

Nothing under ``src/`` changes: :func:`install` rebinds public ``repro``
entry points (functions in every module that imported them, methods on
their classes) to thin wrappers that record a span around each call,
and wraps :meth:`EventQueue.push` so every dispatched event action is
timed under its label family (``pcu-tick`` → ``pcu.tick``, ...).
:func:`uninstall`-style undo restores the originals.

Spans live in memory as four flat arrays (parent index, name index,
start, end) and are written out once, as ``.npz`` files in the trace
directory. Forked pool workers leave through ``os._exit``, so they
flush after each top-level call (``fleet.shard``, ``service.task``).
Each process's spans form their own trees; :func:`load_spans` reads
them all back and :func:`span_stats` turns them into per-name count,
busy seconds and self seconds.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# repro-lint: disable=det-wallclock — span timestamps are host time measured around the simulator, never fed back into it
clock = time.perf_counter

#: Event label family → span name. Labels carry a ``-s<socket>`` or
#: ``-core<id>`` suffix that is dropped first.
EVENT_SPANS = {
    "pcu-tick": "pcu.tick",
    "eet-poll": "pcu.eet",
    "freq-apply": "pcu.apply",
    "avx-grant": "pcu.avx",
    "avx-relax": "pcu.avx",
    "phase-cohort": "system.phase",
    "rapl-refresh": "power.rapl",
    "lmg450-sample": "instruments.sample",
    "likwid-sample": "instruments.sample",
}
OTHER_EVENT_SPAN = "engine.other_event"

#: Spans that are dispatched event actions (``engine.events`` counts them).
EVENT_SPAN_NAMES = frozenset(EVENT_SPANS.values()) | {OTHER_EVENT_SPAN}


def event_span_name(label: str) -> str:
    family = label
    for sep in ("-s", "-core"):
        head, found, tail = family.rpartition(sep)
        if found and tail.isdigit():
            family = head
            break
    return EVENT_SPANS.get(family, OTHER_EVENT_SPAN)


class SpanRecorder:
    """Synchronous span stack for one process.

    A span's index is its id; its parent is the span open when it
    began (-1 for a root). The name may be chosen when the span ends.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self._flushes = 0
        # Name ids are baked into the wrappers, so they outlive reset().
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop the spans recorded so far (a forked child starts here)."""
        self.pid = os.getpid()
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.nodes: list = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name_id: int) -> int:
        idx = len(self.t0)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(name_id)
        self.t1.append(0.0)
        stack.append(idx)
        self.t0.append(clock())
        return idx

    def end(self, idx: int, name_id: int | None = None) -> None:
        self.t1[idx] = clock()
        self._stack.pop()
        if name_id is not None:
            self.name[idx] = name_id

    def span(self, name: str, fn: Callable, *args, **kwargs):
        nid = self.name_id(name)
        idx = self.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def flush(self) -> Path | None:
        """Write and drop what this process recorded; None if nothing."""
        for node in self.nodes:
            self.counts["pcu.ticks"] += sum(p.tick_count for p in node.pcus)
        self.nodes.clear()
        if not self.t0 and not self.counts:
            return None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._flushes += 1
        path = self.out_dir / f"spans-{self.pid}-{self._flushes}.npz"
        np.savez(path,
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 t0=np.frombuffer(self.t0, dtype=np.float64),
                 t1=np.frombuffer(self.t1, dtype=np.float64),
                 names=np.asarray(self.names, dtype=str),
                 count_keys=np.asarray(list(self.counts), dtype=str),
                 count_values=np.asarray(list(self.counts.values()),
                                         dtype=np.float64))
        self.reset()
        return path


# ---- span arithmetic ---------------------------------------------------------

@dataclass(frozen=True)
class SpanSet:
    """One process's spans: parallel arrays, index = span id."""

    parent: np.ndarray      # int64, -1 for a root
    name: np.ndarray        # int64 index into names
    t0: np.ndarray
    t1: np.ndarray
    names: list[str]
    counts: dict[str, float]


@dataclass
class SpanStat:
    count: int = 0
    busy_s: float = 0.0     # duration, outermost spans of the name only
    self_s: float = 0.0     # duration minus the time child spans cover


def self_times(spans: SpanSet) -> np.ndarray:
    """Each span's duration minus its direct children's durations.

    Spans come from one synchronous stack per process, so the children
    of one span never overlap and their union is their sum.
    """
    dur = spans.t1 - spans.t0
    child = np.zeros_like(dur)
    has_parent = spans.parent >= 0
    np.add.at(child, spans.parent[has_parent], dur[has_parent])
    return dur - child


def span_stats(span_sets: list[SpanSet]) -> tuple[dict[str, SpanStat],
                                                  dict[str, float]]:
    """Per-name stats and summed counters over every process's spans."""
    stats: dict[str, SpanStat] = {}
    counts: Counter[str] = Counter()
    for spans in span_sets:
        counts.update(spans.counts)
        if not len(spans.t0):
            continue
        dur = spans.t1 - spans.t0
        own = self_times(spans)
        parent_name = np.where(spans.parent >= 0,
                               spans.name[np.maximum(spans.parent, 0)], -1)
        outermost = parent_name != spans.name
        n_names = len(spans.names)
        count = np.bincount(spans.name, minlength=n_names)
        busy = np.bincount(spans.name, weights=dur * outermost,
                           minlength=n_names)
        self_s = np.bincount(spans.name, weights=own, minlength=n_names)
        for i, name in enumerate(spans.names):
            st = stats.setdefault(name, SpanStat())
            st.count += int(count[i])
            st.busy_s += float(busy[i])
            st.self_s += float(self_s[i])
    return stats, dict(counts)


def load_spans(trace_dir: Path) -> list[SpanSet]:
    out = []
    for path in sorted(Path(trace_dir).glob("spans-*.npz")):
        with np.load(path) as data:
            out.append(SpanSet(
                parent=data["parent"], name=data["name"],
                t0=data["t0"], t1=data["t1"],
                names=[str(n) for n in data["names"]],
                counts=dict(zip((str(k) for k in data["count_keys"]),
                                (float(v) for v in data["count_values"])))))
    return out


# ---- wrappers ----------------------------------------------------------------

#: The active recorder and the unwrapped pool entry points. Module-level
#: because pool workers receive the entry points by reference (pickled by
#: qualified name) and inherit this state through fork.
_RECORDER: SpanRecorder | None = None
_ORIGINALS: dict[str, Callable] = {}


def _top_level(name: str, fn: Callable, args: tuple, kwargs: dict):
    """A pool worker's call: forked children drop the spans they
    inherited, and flush their own before the worker can ``os._exit``."""
    rec = _RECORDER
    in_worker = os.getpid() != _ORIGINALS["main_pid"]
    if in_worker and rec.pid != os.getpid():
        rec.reset()
    try:
        return rec.span(name, fn, *args, **kwargs)
    finally:
        if in_worker:
            rec.flush()


def traced_run_shard(*args, **kwargs):
    """Pool entry point standing in for ``repro.fleet.worker.run_shard``."""
    return _top_level("fleet.shard", _ORIGINALS["run_shard"], args, kwargs)


def traced_execute_task(*args, **kwargs):
    """Pool entry point standing in for ``repro.service.core.execute_task``."""
    return _top_level("service.task", _ORIGINALS["execute_task"], args,
                      kwargs)


def _rebind_function(orig: Callable, replacement: Callable,
                     undo: list) -> None:
    """Point every loaded ``repro`` module's reference at ``replacement``."""
    for mod in list(sys.modules.values()):
        if mod is None or not mod.__name__.startswith("repro"):
            continue
        for attr in [a for a, v in vars(mod).items() if v is orig]:
            # repro-lint: disable=epoch-bypass — rebinds a module or class attribute to a wrapper, never a model field
            setattr(mod, attr, replacement)
            undo.append((mod, attr, orig))


def _rebind_method(cls: type, attr: str, replacement: Callable,
                   undo: list) -> None:
    undo.append((cls, attr, cls.__dict__[attr]))
    # repro-lint: disable=epoch-bypass — rebinds a module or class attribute to a wrapper, never a model field
    setattr(cls, attr, replacement)


def _spanned(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    nid = rec.name_id(name)
    begin, end = rec.begin, rec.end

    def wrapper(*args, **kwargs):
        idx = begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            end(idx)

    wrapper.__wrapped__ = fn
    return wrapper


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap the layers' public entry points; returns the undo function."""
    global _RECORDER
    from repro.conformance import run_scenario
    from repro.engine import EventQueue, Simulator
    from repro.engine.rng import DrawBatch
    from repro.fleet import CheckpointStore, FleetSupervisor, aggregate
    from repro.fleet import run_shard, simulate_node
    from repro.memory import SocketBandwidthModel
    from repro.pcu import TdpLimiter
    from repro.power import PowerModel, RaplBank
    from repro.service import ResultCache
    from repro.service.core import execute_task
    from repro.system import Socket, build_node

    undo: list = []
    _RECORDER = rec
    _ORIGINALS.update(run_shard=run_shard, execute_task=execute_task,
                      main_pid=os.getpid())

    # engine: every dispatched event, timed under its label family
    push = EventQueue.push
    begin, end = rec.begin, rec.end
    event_ids: dict[str, int] = {}

    def traced_push(self, time_ns, action, label=""):
        nid = event_ids.get(label)
        if nid is None:
            nid = event_ids[label] = rec.name_id(event_span_name(label))

        def timed_action(now_ns):
            idx = begin(nid)
            try:
                action(now_ns)
            finally:
                end(idx)
        return push(self, time_ns, timed_action, label)

    _rebind_method(EventQueue, "push", traced_push, undo)
    _rebind_method(Simulator, "run_until",
                   _spanned(rec, "engine.run", Simulator.run_until), undo)
    take = DrawBatch.take
    counts = rec.counts

    def counted_take(self, *args):
        counts["engine.rng_takes"] += 1
        return take(self, *args)

    _rebind_method(DrawBatch, "take", counted_take, undo)

    # pcu, system, power, memory
    _rebind_method(TdpLimiter, "decide",
                   _spanned(rec, "pcu.decide", TdpLimiter.decide), undo)
    _rebind_method(Socket, "integrate",
                   _spanned(rec, "system.integrate", Socket.integrate), undo)
    build_span = _spanned(rec, "system.build", build_node)

    def traced_build_node(*args, **kwargs):
        node = build_span(*args, **kwargs)
        rec.nodes.append(node)
        return node

    _rebind_function(build_node, traced_build_node, undo)
    _rebind_method(RaplBank, "accumulate_pkg_dram",
                   _spanned(rec, "power.rapl", RaplBank.accumulate_pkg_dram),
                   undo)
    for attr in ("socket_power", "core_power_w", "core_power_w_array",
                 "uncore_power_w", "dram_power_w", "package_power_at",
                 "solve_uncore_for_budget", "solve_core_for_budget"):
        _rebind_method(PowerModel, attr, _spanned(
            rec, "power.model", getattr(PowerModel, attr)), undo)
    for attr in ("solve", "solve_soa", "solve_uniform"):
        _rebind_method(SocketBandwidthModel, attr, _spanned(
            rec, "memory.solve", getattr(SocketBandwidthModel, attr)), undo)

    # conformance, fleet, service
    _rebind_function(run_scenario,
                     _spanned(rec, "conformance.run", run_scenario), undo)
    _rebind_function(simulate_node,
                     _spanned(rec, "fleet.node", simulate_node), undo)
    _rebind_function(run_shard, traced_run_shard, undo)
    _rebind_function(aggregate, _spanned(rec, "fleet.aggregate", aggregate),
                     undo)
    _rebind_method(CheckpointStore, "write_shard", _spanned(
        rec, "fleet.ckpt", CheckpointStore.write_shard), undo)
    _rebind_method(FleetSupervisor, "run",
                   _spanned(rec, "fleet.sweep", FleetSupervisor.run), undo)
    _rebind_function(execute_task, traced_execute_task, undo)
    _rebind_method(ResultCache, "put", _spanned(
        rec, "service.cache_put", ResultCache.put), undo)
    get = ResultCache.get
    hit_id = rec.name_id("service.cache_hit")
    miss_id = rec.name_id("service.cache_miss")

    def traced_get(self, cache_key):
        idx = begin(miss_id)
        entry = None
        try:
            entry = get(self, cache_key)
            return entry
        finally:
            end(idx, hit_id if entry is not None else None)

    _rebind_method(ResultCache, "get", traced_get, undo)

    def uninstall() -> None:
        global _RECORDER
        for owner, attr, orig in reversed(undo):
            # repro-lint: disable=epoch-bypass — rebinds a module or class attribute to a wrapper, never a model field
            setattr(owner, attr, orig)
        undo.clear()
        _RECORDER = None

    return uninstall
