"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The workloads run here at tiny sizes (class constants patched down), so
the digests they check come from a table the test records first.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    workloads.SteadyTdp: {"MEASURE_S": 1.0, "WINDOW_S": 0.5,
                          "POOL": (101, 202), "SET_UPS": 2},
    workloads.PhaseChurn: {"WINDOW_S": 0.01, "POOL": (1, 2, 3),
                           "SET_UPS": 2},
    workloads.FleetSweep: {"N_NODES": 4, "POOL": (1, 2), "SET_UPS": 2},
    workloads.ServiceMixed: {"MEASURE_MS": 1, "SET_UPS": 2},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and record a digest table for the sizes."""
    for cls, attrs in TINY.items():
        for attr, value in attrs.items():
            monkeypatch.setattr(cls, attr, value)
    digests = {}
    for cls in TINY:
        if hasattr(cls, "POOL"):
            wl = cls(tmp_path / "record")
            for inp in cls.POOL:
                result = wl.run_op(inp)
                digests[result.key] = result.digest
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"digests": digests}), encoding="utf-8")
    monkeypatch.setattr(run, "DIGESTS", path)
    return digests


def run_bench(workload: str, seed: int, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "0.01", "--trace", str(trace)])
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


def metric_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(tiny, workload, trace, kind):
    rc, result = run_bench(workload, seed=1, trace=trace)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == metric_units(kind)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_other_seed_changes_inputs(tmp_path):
    for cls in TINY:
        wl = cls(tmp_path)
        assert wl.inputs(1) != wl.inputs(2)
        assert wl.inputs(1) == wl.inputs(1)


def test_other_seed_keeps_metric_set(tiny):
    _, one = run_bench("phase-churn", seed=1, trace=0)
    _, two = run_bench("phase-churn", seed=2, trace=0)
    assert one["metrics"].keys() == two["metrics"].keys()


def test_digest_check_rejects_perturbed_output(tiny, tmp_path):
    wl = workloads.PhaseChurn(tmp_path)
    result = wl.run_op(1)
    ops = [(0.1, result, None)]
    assert run.check_outputs(ops, tiny) == (1, 0, [])
    perturbed = dict(tiny)
    flipped = "0" if result.digest[0] != "0" else "1"
    perturbed[result.key] = flipped + result.digest[1:]
    attempted, failed, messages = run.check_outputs(ops, perturbed)
    assert (attempted, failed) == (1, 1)
    assert "digest" in messages[0]
    _, failed, messages = run.check_outputs(ops, {})
    assert failed == 1 and "no recorded digest" in messages[0]


def test_recorded_digests_cover_every_pool():
    recorded = json.loads((BENCH / "digests.json").read_text())["digests"]
    for cls in (workloads.SteadyTdp, workloads.PhaseChurn,
                workloads.FleetSweep):
        for inp in cls.POOL:
            assert f"{cls.name}:{inp}" in recorded


def test_op_cost_sets_operations_against_their_probe_time():
    done = workloads.OpResult(key=None, digest="", sim_s=1.0, nodes=1,
                              units=1)
    ops = [(4.0, done, None), (5.0, done, None), (7.0, None, "boom")]
    # A failed operation counts on neither side.
    assert run.op_cost(ops, [2.0, 2.5, 1.0]) == 9.0 / 4.5
    assert run.op_cost(ops[2:], [1.0]) == 0.0


def test_probe_samples_inside_an_operation_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = probe.SpeedProbe(reps=1, every_s=0.02)
    t0 = tracing.clock()
    with sampler.during():
        while tracing.clock() - t0 < 0.3:
            pass
    assert len(sampler.samples) >= 3
    assert 0.0 < sampler.in_op_s < tracing.clock() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Without ``every_s`` nothing samples inside.
    quiet = probe.SpeedProbe(reps=1)
    with quiet.during():
        pass
    assert quiet.samples == [] and quiet.in_op_s == 0.0


def test_self_time_arithmetic_on_synthetic_tree():
    #   A [0,10] ── B [1,4]
    #            └─ C [5,9] ── D [6,7]
    #   X [20,25] ── X [21,23]   (a name nested in itself)
    names = ["A", "B", "C", "D", "X"]
    spans = tracing.SpanSet(
        parent=np.array([-1, 0, 0, 2, -1, 4]),
        name=np.array([0, 1, 2, 3, 4, 4]),
        t0=np.array([0.0, 1.0, 5.0, 6.0, 20.0, 21.0]),
        t1=np.array([10.0, 4.0, 9.0, 7.0, 25.0, 23.0]),
        names=names, counts={"n": 2.0})
    assert tracing.self_times(spans).tolist() == [3.0, 3.0, 3.0, 1.0, 3.0,
                                                   2.0]
    stats, counts = tracing.span_stats([spans, spans])
    assert counts == {"n": 4.0}
    got = {n: (s.count, s.busy_s, s.self_s) for n, s in stats.items()}
    assert got == {"A": (2, 20.0, 6.0), "B": (2, 6.0, 6.0),
                   "C": (2, 8.0, 6.0), "D": (2, 2.0, 2.0),
                   "X": (4, 10.0, 10.0)}


def test_recorder_builds_the_tree_it_is_given(tmp_path, monkeypatch):
    ticks = iter(float(t) for t in range(100))
    monkeypatch.setattr(tracing, "clock", lambda: next(ticks))
    rec = tracing.SpanRecorder(tmp_path)
    outer = rec.begin(rec.name_id("outer"))          # t0 = 0
    rec.span("inner", lambda: None)                  # 1 .. 2
    rec.end(outer, rec.name_id("renamed"))           # t1 = 3
    rec.flush()
    (spans,) = tracing.load_spans(tmp_path)
    assert spans.parent.tolist() == [-1, 0]
    assert [spans.names[i] for i in spans.name] == ["renamed", "inner"]
    assert tracing.self_times(spans).tolist() == [2.0, 1.0]


def test_event_labels_map_to_layer_spans():
    assert tracing.event_span_name("pcu-tick-s1") == "pcu.tick"
    assert tracing.event_span_name("lmg450-sample") == "instruments.sample"
    assert tracing.event_span_name("legacy-pstate-core7") == \
        tracing.OTHER_EVENT_SPAN


def test_install_restores_every_wrapped_entry_point(tmp_path):
    from repro.engine import EventQueue
    from repro.fleet import supervisor
    from repro.system import Socket, node

    before = (EventQueue.push, Socket.integrate, node.build_node,
              supervisor.run_shard)
    uninstall = tracing.install(tracing.SpanRecorder(tmp_path))
    try:
        assert EventQueue.push is not before[0]
        assert supervisor.run_shard is tracing.traced_run_shard
    finally:
        uninstall()
    assert (EventQueue.push, Socket.integrate, node.build_node,
            supervisor.run_shard) == before


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run.main(["--workload", "phase-churn", "--seed", "1",
                       "--seconds", "1"])
    assert rc == 2 and "src/repro" in err.getvalue()
