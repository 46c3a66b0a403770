#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the simulator and its services.

    python3 perfbench/run.py --workload steady-tdp --seed 1 --seconds 20 --trace 0

Workloads (``workloads.py``): ``steady-tdp``, ``phase-churn``,
``fleet-sweep``, ``service-mixed``. A run sets the workload up several
times (the median is ``setup_s``), then runs operations on inputs drawn
from ``--seed`` until ``--seconds`` have passed, with a fixed CPU kernel
(``probe.py``) timed around and inside them, checks every output digest
against ``digests.json`` and prints a report. ``op_cost`` is the
operations' host time in kernel runs: it follows the program, where raw
wall time on a shared host follows the host's speed too. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured with tracing off.
* ``--trace 1``: the per-layer metrics. The run spends half its time
  untraced and half replaying the same inputs with span tracing on
  (``tracing.py``); the traced outputs must digest identically, and the
  ratio of the two halves' operation times is ``trace.overhead_pct``.

Exit status: 0 when every output check passed, 1 when one failed (the
JSON line still reports it), 2 when the benchmark cannot run at all —
for example outside a checkout that holds ``src/repro``.
"""

from __future__ import annotations

import time

# repro-lint: disable=det-wallclock — set-up time is measured from process start; the simulator never sees it
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracing import clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["steady-tdp", "phase-churn", "fleet-sweep",
                                 "service-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(wl, inputs: list, seconds: float, probe: SpeedProbe,
            limit: int | None = None, on_op=None) -> tuple[list, list[float]]:
    """Run operations for about ``seconds`` (at least ``wl.MIN_OPS``).

    Another operation starts only while it is expected, at the median
    pace so far (think time and speed probe included), to end within
    ``seconds``. ``probe`` samples before the first operation, inside
    each (if it samples inside) and after each one's think time.
    Returns ``(ops, probe_s)``: ``(wall_s, OpResult | None, error)`` per
    operation, its wall time less the samples taken inside it, and the
    mean of the samples from just before it to just after it. An
    operation that raises ends the loop.
    """
    out = []
    probe_s = []
    probe.sample()
    t_start = clock()
    i = 0
    while limit is None or i < limit:
        inp = inputs[i % len(inputs)]
        first = len(probe.samples) - 1
        t0 = clock()
        try:
            with probe.during():
                result = on_op(wl.run_op, inp) if on_op else wl.run_op(inp)
        except Exception as exc:  # noqa: BLE001 — report, count, stop
            out.append((clock() - t0 - probe.in_op_s, None,
                        f"{type(exc).__name__}: {exc}"))
            probe_s.append(statistics.fmean(probe.samples[first:]))
            break
        out.append((clock() - t0 - probe.in_op_s, result, None))
        i += 1
        if wl.THINK_S:
            # repro-lint: disable=det-wallclock — the closed loop's think time, outside the timed operation
            time.sleep(wl.THINK_S)
        probe.sample()
        probe_s.append(statistics.fmean(probe.samples[first:]))
        pace = (statistics.median(wall for wall, _, _ in out) + wl.THINK_S
                + probe.samples[-1] * probe.reps)
        if i >= wl.MIN_OPS and clock() - t_start + pace > seconds:
            break
    return out, probe_s


def op_cost(ops: list, probe_s: list[float]) -> float:
    """Operation host time in speed-probe kernel runs: the run's total
    operation time over the total of each operation's probe time."""
    done = [(wall, p) for (wall, result, _), p in zip(ops, probe_s)
            if result is not None]
    total = sum(p for _, p in done)
    return sum(wall for wall, _ in done) / total if total else 0.0


def check_outputs(ops: list, expected: dict[str, str]) -> tuple[int, int,
                                                                list[str]]:
    """(attempted units, failed units, failure messages)."""
    attempted = failed = 0
    messages: list[str] = []
    for _wall, result, error in ops:
        if result is None:
            attempted += 1
            failed += 1
            messages.append(error)
            continue
        problems = list(result.failures)
        if result.key is not None:
            want = expected.get(result.key)
            if want is None:
                problems.append(f"{result.key}: no recorded digest")
            elif want != result.digest:
                problems.append(f"{result.key}: digest {result.digest[:16]} "
                                f"!= recorded {want[:16]}")
        attempted += result.units
        if problems:
            failed += result.units
            messages.extend(problems)
    return attempted, failed, messages


def end_to_end(ops: list, probe_s: list[float],
               setup_s: float) -> dict[str, tuple]:
    """The end-to-end metrics, then the raw host-time lines.

    Only ``setup_s``, ``op_cost`` and ``peak_rss_mb`` are gated
    (``BENCHMARK.json``); the raw wall-clock lines follow the host's
    speed as much as the program's and are printed for reading.
    """
    done = [(wall, r) for wall, r, _ in ops if r is not None]
    if not done:
        return {}
    walls = [w for w, _ in done]
    q1, _, q3 = (statistics.quantiles(walls, n=4) if len(walls) > 1
                 else walls * 3)
    note = f"median of {len(walls)} operations, quartiles {q1:.4g}-{q3:.4g}"
    return {
        "setup_s": (setup_s, "s", "imports + median set-up"),
        "op_cost": (op_cost(ops, probe_s), "probes",
                    f"operation s / speed-probe s, {len(walls)} operations, "
                    f"probe median {statistics.median(probe_s) * 1e3:.3f} ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "this process or any child"),
        "wall_s": (statistics.median(walls), "s", note),
        "sim_s_per_wall_s": (statistics.median(r.sim_s / w for w, r in done),
                             "sim-s/s", "simulated s delivered per host s"),
        "nodes_per_s": (statistics.median(r.nodes / w for w, r in done),
                        "nodes/s", "node simulations delivered per host s"),
    }


#: The end-to-end metrics the JSON line reports (``BENCHMARK.json``).
GATED = ("setup_s", "op_cost", "peak_rss_mb")


def print_table(title: str, rows: dict[str, tuple]) -> None:
    print(title)
    for name, row in rows.items():
        value, unit, *note = row
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<26} {shown:>14} {unit:<8} {note[0] if note else ''}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not DIGESTS.is_file():
        print(f"error: {ROOT} holds no src/repro or no {DIGESTS.name}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the benchmark: {exc}", file=sys.stderr)
        return 2
    import_s = clock() - T_START
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]

    state_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        return run_benchmark(args, WORKLOADS[args.workload](state_dir),
                             state_dir, import_s, expected)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
        try:
            state_dir.parent.rmdir()
        except OSError:
            pass    # another run still uses it


def run_benchmark(args: argparse.Namespace, wl, state_dir: Path,
                  import_s: float, expected: dict[str, str]) -> int:
    trace_dir = state_dir / "trace"
    ops_a: list = []
    ops_b: list = []
    probes_a: list[float] = []
    try:
        setups = []
        for k in range(wl.SET_UPS):
            if k:
                wl.tear_down()
            t0 = clock()
            wl.set_up()
            setups.append(clock() - t0)
        setup_s = import_s + statistics.median(setups)
        inputs = wl.inputs(args.seed)
        budget = args.seconds / 2 if args.trace else args.seconds
        with SpeedProbe(wl.PROBE_REPS, wl.PROBE_EVERY_S,
                        procs=wl.JOBS) as probe:
            ops_a, probes_a = measure(wl, inputs, budget, probe)
        if args.trace:
            recorder = tracing.SpanRecorder(trace_dir)
            uninstall = tracing.install(recorder)
            try:
                wl.trace_into(trace_dir)
                # No samples inside traced operations: the spans would
                # count them as the program's time.
                with SpeedProbe(wl.PROBE_REPS, procs=wl.JOBS) as probe:
                    ops_b, _ = measure(
                        wl, inputs, budget, probe, limit=len(ops_a),
                        on_op=lambda fn, inp: recorder.span("bench.op", fn,
                                                            inp))
            finally:
                uninstall()
                recorder.flush()
    finally:
        wl.tear_down()

    attempted, failed, failures = check_outputs(ops_a + ops_b, expected)
    for i, ((_, a, _), (_, b, _)) in enumerate(zip(ops_a, ops_b)):
        if a is not None and b is not None and a.digest != b.digest:
            failed += b.units
            failures.append(f"operation {i}: traced digest {b.digest[:16]} "
                            f"!= untraced {a.digest[:16]}")

    e2e = end_to_end(ops_a, probes_a, setup_s)
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(ops_a)} operations"
          + (f" untraced, {len(ops_b)} traced" if args.trace else ""))
    done_a = [r for _, r, _ in ops_a if r is not None]
    print_table("end-to-end (tracing off)", {
        **e2e,
        "fail_ratio": (failed / max(attempted, 1), "ratio",
                       f"{failed} of {attempted} failed"),
        **(wl.summary(done_a) if done_a else {}),
    })
    rows = {name: e2e[name] for name in GATED if name in e2e}
    if args.trace:
        rows = layers.per_layer(trace_dir, wl, ops_a, ops_b)
        layers.print_layer_table(trace_dir)
        print_table("per-layer (traced half)", rows)
    for message in failures:
        print(f"FAILED: {message}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": row[0], "unit": row[1]}
                                  for name, row in rows.items()}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
