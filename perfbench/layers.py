"""Per-layer metrics of a traced run, from its spans and counters.

Each metric names the ``src/repro`` package whose public entry points
the span wraps (see ``tracing.install``). Counts are exact; times are
host seconds with tracing on, so read them as shares, not as the
untraced cost. ``busy`` is the duration of the outermost span of a
name, ``self`` that duration minus the time its child spans cover.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from tracing import EVENT_SPAN_NAMES, SpanStat, load_spans, span_stats


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer(trace_dir: Path, wl, ops_a: list,
              ops_b: list) -> dict[str, tuple[float, str, str]]:
    """Every per-layer metric: name → (value, unit, base counts)."""
    stats, counts = span_stats(load_spans(trace_dir))

    def st(name: str) -> SpanStat:
        return stats.get(name, SpanStat())

    events = sum(s.count for n, s in stats.items() if n in EVENT_SPAN_NAMES)
    run, tick = st("engine.run"), st("pcu.tick")
    ticks = counts.get("pcu.ticks", 0.0)
    integ = st("system.integrate")
    sweep, shard = st("fleet.sweep"), st("fleet.shard")
    hit, miss = st("service.cache_hit"), st("service.cache_miss")
    gets = hit.count + miss.count
    done_a = [w for w, r, _ in ops_a if r is not None]
    done_b = [(w, r) for w, r, _ in ops_b if r is not None]
    wall_a = statistics.median(done_a) if done_a else 0.0
    wall_b = statistics.median(w for w, _ in done_b) if done_b else 0.0
    cached = [r.extra["cached_ms"] for _, r in done_b
              if "cached_ms" in r.extra]
    pings = [r.extra["ping_ms"] for _, r in done_b if "ping_ms" in r.extra]
    jobs = getattr(wl, "JOBS", 1)

    def rate(span: SpanStat, unit_word: str) -> tuple[float, str, str]:
        return (span.busy_s, "s", f"over {span.count} {unit_word}")

    return {
        "engine.events": (events, "count", "dispatched event actions"),
        "engine.us_per_event": (_ratio(run.busy_s, events, 1e6), "us",
                                f"{run.busy_s:.3f} s in run loops / "
                                f"{events} events"),
        "engine.self_s": (run.self_s, "s", "run loop outside its children"),
        "engine.rng_takes": (counts.get("engine.rng_takes", 0.0), "count",
                             "DrawBatch.take calls"),
        "pcu.ticks": (ticks, "count", "Pcu.tick_count, summed"),
        "pcu.tick_s": rate(tick, "tick events"),
        "pcu.us_per_tick": (_ratio(tick.busy_s, ticks, 1e6), "us",
                            f"{tick.busy_s:.3f} s / {ticks:.0f} ticks"),
        "pcu.decide_calls": (st("pcu.decide").count, "count",
                             "TdpLimiter.decide"),
        "pcu.decide_s": rate(st("pcu.decide"), "calls"),
        "pcu.eet_polls": (st("pcu.eet").count, "count", "eet-poll events"),
        "pcu.eet_s": rate(st("pcu.eet"), "polls"),
        "pcu.avx_changes": (st("pcu.avx").count, "count",
                            "avx-grant/avx-relax events"),
        "pcu.avx_s": rate(st("pcu.avx"), "events"),
        "pcu.apply_events": (st("pcu.apply").count, "count",
                             "freq-apply events"),
        "pcu.apply_s": rate(st("pcu.apply"), "events"),
        "system.integrate_calls": (integ.count, "count", "Socket.integrate"),
        "system.integrate_s": rate(integ, "segments"),
        "system.us_per_segment": (_ratio(integ.busy_s, integ.count, 1e6),
                                  "us", f"{integ.busy_s:.3f} s / "
                                  f"{integ.count} segments"),
        "system.phase_events": (st("system.phase").count, "count",
                                "phase-cohort events"),
        "system.phase_s": rate(st("system.phase"), "events"),
        "system.node_builds": (st("system.build").count, "count",
                               "build_node"),
        "system.build_s": rate(st("system.build"), "builds"),
        "power.rapl_calls": (st("power.rapl").count, "count",
                             "RaplBank.accumulate_pkg_dram + rapl-refresh"),
        "power.rapl_s": rate(st("power.rapl"), "calls"),
        "power.model_s": rate(st("power.model"), "PowerModel calls"),
        "memory.solves": (st("memory.solve").count, "count",
                          "SocketBandwidthModel.solve*"),
        "memory.solve_s": rate(st("memory.solve"), "solves"),
        "instruments.samples": (st("instruments.sample").count, "count",
                                "lmg450/likwid sample events"),
        "instruments.sample_s": rate(st("instruments.sample"), "samples"),
        "fleet.nodes": (st("fleet.node").count, "count", "simulate_node"),
        "fleet.node_s": rate(st("fleet.node"), "nodes"),
        "fleet.shard_s": rate(shard, "shards"),
        "fleet.ckpt_writes": (st("fleet.ckpt").count, "count",
                              "CheckpointStore.write_shard"),
        "fleet.ckpt_s": rate(st("fleet.ckpt"), "writes"),
        "fleet.aggregate_s": rate(st("fleet.aggregate"), "aggregations"),
        "fleet.pool_idle_s": (max(jobs * sweep.busy_s - shard.busy_s, 0.0)
                              if sweep.count else 0.0, "s",
                              f"{jobs} workers x {sweep.busy_s:.3f} s of "
                              f"sweeps - {shard.busy_s:.3f} s of shards"),
        "fleet.pool_rebuilds": (getattr(wl, "pool_rebuilds", 0), "count",
                                "from the sweeps' run reports"),
        "service.tasks_run": (st("service.task").count, "count",
                              "execute_task"),
        "service.task_s": rate(st("service.task"), "tasks"),
        "conformance.run_s": rate(st("conformance.run"), "run_scenario calls"),
        "service.cache_put_s": rate(st("service.cache_put"), "puts"),
        "service.cache_gets": (gets, "count", "ResultCache.get"),
        "service.cache_hits": (hit.count, "count", "verified hits"),
        "service.hit_ratio": (_ratio(hit.count, gets), "ratio",
                              f"{hit.count} hits / {gets} gets"),
        "service.cache_get_s": (hit.busy_s + miss.busy_s, "s",
                                f"over {gets} gets"),
        "service.ping_ms": (statistics.median(pings) if pings else 0.0, "ms",
                            f"median of {len(pings)} pings"),
        "service.overhead_ms": (
            statistics.median(cached) - _ratio(hit.busy_s, len(cached), 1e3)
            if cached else 0.0, "ms",
            f"median cached job {statistics.median(cached) if cached else 0:.3f}"
            f" ms - hit time per job"),
        "trace.overhead_pct": (_ratio(wall_b - wall_a, wall_a, 100.0), "%",
                               f"median op {wall_b:.4f} s traced vs "
                               f"{wall_a:.4f} s untraced"),
    }


#: Spans whose self time is mostly waiting on other processes (the
#: benchmark's own operations, the fleet supervisor's pool loop); they
#: are left out of the layer shares.
WAITING_SPANS = frozenset({"bench.op", "fleet.sweep"})


def print_layer_table(trace_dir: Path) -> None:
    """Count, busy s, self s and µs per op per span, and layer shares."""
    stats, _ = span_stats(load_spans(trace_dir))
    total_self = sum(s.self_s for n, s in stats.items()
                     if n not in WAITING_SPANS)
    layers: dict[str, float] = {}
    print("spans (traced half)")
    print(f"  {'span':<22} {'count':>9} {'busy s':>9} {'self s':>9} "
          f"{'us/op':>9}")
    for name in sorted(stats):
        s = stats[name]
        print(f"  {name:<22} {s.count:>9} {s.busy_s:>9.3f} {s.self_s:>9.3f} "
              f"{_ratio(s.busy_s, s.count, 1e6):>9.2f}")
        if name not in WAITING_SPANS:
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + s.self_s
    print("layer self-time shares")
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {self_s:>9.3f} s  "
              f"{_ratio(self_s, total_self, 100.0):5.1f} %")
