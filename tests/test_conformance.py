"""Tentpole tests: the trace record/replay conformance subsystem.

Covers the schema catalog (validation + digest pinning), canonical
JSONL round-trips, same-manifest determinism, golden-trace replay,
cross-mode parity, and — the negative case the differential driver
exists for — that an injected divergence is pinpointed by event index
with surrounding context rather than reported as a bare boolean.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.conformance import (
    CHAOS_PROFILES,
    SCHEMA_HISTORY,
    SCHEMA_VERSION,
    Trace,
    current_digest,
    diff_traces,
    make_manifest,
    record,
    record_to_file,
    replay,
    replay_file,
    validate_event,
)
from repro.conformance.recorder import event_line
from repro.conformance.replay import check_schema_compat
from repro.conformance.schema import EVENT_SCHEMAS, compute_digest
from repro.errors import ConformanceError, TraceSchemaError
from repro.system import buildhooks
from repro.units import ms

GOLDEN = Path(__file__).parent / "golden" / "scenario_default.trace.jsonl"
#: Share of the steady-tdp golden's PCU ticks folded by horizon stepping
#: must clear this floor (measured share in docs/performance.md).
STEADY_TDP_FOLDED_TICKS_FLOOR = 0.75
STEADY_TDP_GOLDEN = (Path(__file__).parent / "golden"
                     / "scenario_steady_tdp.trace.jsonl")

FAST = make_manifest(seed=17, measure_ns=ms(5))


class TestSchema:
    def test_digest_history_pins_current_table(self):
        assert SCHEMA_VERSION in SCHEMA_HISTORY
        assert current_digest() == SCHEMA_HISTORY[SCHEMA_VERSION]
        assert compute_digest(EVENT_SCHEMAS) == current_digest()

    def test_validate_accepts_well_formed_event(self):
        validate_event("freq-apply",
                       {"core_id": 3, "from_hz": 1.2e9, "to_hz": 2.5e9})

    @pytest.mark.parametrize("payload", [
        {"core_id": 3, "from_hz": 1.2e9},                     # missing
        {"core_id": 3, "from_hz": 1.2e9, "to_hz": 2.5e9,
         "extra": 1},                                         # unknown
        {"core_id": "3", "from_hz": 1.2e9, "to_hz": 2.5e9},   # wrong type
        {"core_id": True, "from_hz": 1.2e9, "to_hz": 2.5e9},  # bool != int
    ])
    def test_validate_rejects_malformed_payloads(self, payload):
        with pytest.raises(ConformanceError):
            validate_event("freq-apply", payload)

    def test_validate_rejects_unknown_kind(self):
        with pytest.raises(ConformanceError):
            validate_event("no-such-kind", {})


class TestCanonicalRoundTrip:
    def test_jsonl_round_trip_is_byte_identical(self):
        trace = record(FAST)
        text = trace.to_jsonl()
        parsed = Trace.from_jsonl(text)
        assert parsed.events == trace.events
        assert parsed.manifest == trace.manifest
        assert parsed.to_jsonl() == text

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = record_to_file(FAST, path)
        assert replay_file(path).match
        assert Trace.from_jsonl(path.read_text()).events == trace.events

    def test_foreign_jsonl_rejected(self):
        with pytest.raises(ConformanceError):
            Trace.from_jsonl('{"format":"something-else"}\n')
        with pytest.raises(ConformanceError):
            Trace.from_jsonl("")


class TestDeterminism:
    def test_same_manifest_records_identical_bytes(self):
        assert record(FAST).to_jsonl() == record(FAST).to_jsonl()

    def test_replay_of_fresh_recording_matches(self):
        report = replay(record(FAST))
        assert report.match, report.render()
        assert report.divergence is None

    def test_recording_is_nonempty_and_typed(self):
        counts = record(FAST).kind_counts()
        assert counts.get("run-end") == 1
        assert counts.get("rapl-update", 0) > 0
        assert set(counts) <= set(EVENT_SCHEMAS)


class TestGoldenTrace:
    def test_golden_schema_is_current(self):
        trace = Trace.from_jsonl(GOLDEN.read_text())
        check_schema_compat(trace)      # must not raise

    def test_golden_replays_bit_identically(self):
        report = replay_file(GOLDEN)
        assert report.match, report.render()
        # Byte-identical, not merely event-equal.
        trace = Trace.from_jsonl(GOLDEN.read_text())
        assert record(trace_manifest(trace)).to_jsonl() == GOLDEN.read_text()


class TestSteadyTdpGolden:
    """The long TDP-bound steady phase: FIRESTARTER on all 24 cores,
    turbo, EPB balanced, 300 ms — almost every PCU quantum replays the
    cached grant, so this trace pins the replay path down."""

    def test_manifest_is_a_long_unchaotic_steady_phase(self):
        manifest = trace_manifest(
            Trace.from_jsonl(STEADY_TDP_GOLDEN.read_text()))
        assert manifest.workload == "steady-tdp"
        assert manifest.measure_ns >= ms(300)
        assert manifest.fault_plan is None and not manifest.chaos_profile

    def test_replays_bit_identically(self):
        text = STEADY_TDP_GOLDEN.read_text()
        report = replay_file(STEADY_TDP_GOLDEN)
        assert report.match, report.render()
        trace = Trace.from_jsonl(text)
        assert record(trace_manifest(trace)).to_jsonl() == text

    def test_every_core_is_loaded_and_grants_dither(self):
        trace = Trace.from_jsonl(STEADY_TDP_GOLDEN.read_text())
        applied = {e.payload["core_id"] for e in trace.of_kind("freq-apply")}
        assert applied == set(range(24))

    def test_replay_folds_most_ticks_into_horizons(self):
        """The byte-identical replay above runs through horizon
        stepping: most PCU ticks (0.89 when measured, see
        docs/performance.md) are folded into batches, and so are the
        EET polls and the RAPL refreshes whose records the trace pins."""
        nodes = []

        def capture(_sim, node):
            nodes.append(node)

        buildhooks.register(capture)
        try:
            record(trace_manifest(
                Trace.from_jsonl(STEADY_TDP_GOLDEN.read_text())))
        finally:
            buildhooks.unregister(capture)
        [node] = nodes
        stats = node.horizon_stats
        ticks = sum(p.tick_count for p in node.pcus)
        assert stats.ticks / ticks >= STEADY_TDP_FOLDED_TICKS_FLOOR
        assert stats.polls > 0 and stats.refreshes > 0


def trace_manifest(trace: Trace):
    from repro.conformance import ScenarioManifest

    return ScenarioManifest.from_dict(trace.manifest)


class TestModeParity:
    def test_fastpath_off_is_event_identical(self):
        baseline = record(FAST)
        slowpath = record(dataclasses.replace(FAST, fastpath=False))
        assert diff_traces(baseline, slowpath) is None

    def test_hostif_variant_differs_only_in_hostif_writes(self):
        baseline = record(FAST)
        hostif = record(dataclasses.replace(FAST, variant="hostif"))
        assert hostif.of_kind("hostif-write"), \
            "hostif variant recorded no hostif-write events"
        assert not baseline.of_kind("hostif-write")
        assert diff_traces(baseline, hostif,
                           ignore_kinds=frozenset({"hostif-write"})) is None

    def test_chaos_profile_changes_the_stream(self):
        # The golden manifest's parameters: known to fire faults inside
        # the window (seed 17's 5 ms window happens to fire none).
        quiet = make_manifest(seed=271, measure_ns=ms(10))
        chaotic = record(make_manifest(
            seed=271, measure_ns=ms(10),
            chaos_profile=sorted(CHAOS_PROFILES)[0]))
        assert chaotic.of_kind("fault-fire")
        assert diff_traces(record(quiet), chaotic) is not None


class TestSanitizerLedgerEvents:
    def test_sanitized_recording_includes_rng_draws(self):
        trace = record(dataclasses.replace(FAST, sanitize=True))
        draws = trace.of_kind("rng-draw")
        assert draws
        for draw in draws:
            assert set(draw.payload) == {"count", "method", "site"}
        assert replay(trace).match


class TestDivergencePinpointing:
    """The negative case: an injected divergence must be localized."""

    def tampered(self, trace: Trace, index: int) -> Trace:
        events = list(trace.events)
        target = events[index]
        data = dict(target.payload)
        key = sorted(data)[0]
        data[key] = data[key] + 1 if isinstance(data[key], (int, float)) \
            else data[key] + "x"
        events[index] = dataclasses.replace(target, payload=data)
        return dataclasses.replace(trace, events=events)

    def test_tampered_event_is_pinpointed_with_context(self):
        trace = record(FAST)
        index = len(trace.events) // 2
        divergence = diff_traces(trace, self.tampered(trace, index))
        assert divergence is not None
        assert divergence.index == index
        assert divergence.expected == event_line(trace.events[index])
        assert divergence.expected != divergence.actual
        assert divergence.context == tuple(
            event_line(r) for r in trace.events[index - 3:index])
        rendered = divergence.render()
        assert f"first divergence at event #{index}" in rendered
        assert "expected" in rendered and "actual" in rendered

    def test_truncated_trace_reports_end_of_trace(self):
        trace = record(FAST)
        short = dataclasses.replace(trace, events=list(trace.events[:-1]))
        divergence = diff_traces(trace, short)
        assert divergence is not None
        assert divergence.index == len(trace.events) - 1
        assert divergence.actual == "<end of trace>"

    def test_replay_reports_injected_divergence(self):
        trace = record(FAST)
        report = replay(self.tampered(trace, 0))
        assert not report.match
        assert report.divergence is not None
        assert report.divergence.index == 0
        assert "first divergence at event #0" in report.render()

    def test_seed_change_diverges_before_run_end(self):
        other = dataclasses.replace(FAST, seed=FAST.seed + 1)
        divergence = diff_traces(record(FAST), record(other))
        assert divergence is not None


class TestSchemaCompatRefusal:
    def test_tampered_digest_refused(self):
        trace = record(FAST)
        stale = dataclasses.replace(trace, schema_digest="0" * 16)
        with pytest.raises(TraceSchemaError):
            check_schema_compat(stale)

    def test_future_version_refused(self):
        trace = record(FAST)
        future = dataclasses.replace(trace,
                                     schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(TraceSchemaError):
            check_schema_compat(future)

    def test_tampered_header_fails_replay_loudly(self, tmp_path):
        path = tmp_path / "stale.jsonl"
        record_to_file(FAST, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_digest"] = "f" * 16
        path.write_text("\n".join(
            [json.dumps(header, sort_keys=True, separators=(",", ":")),
             *lines[1:]]) + "\n")
        with pytest.raises(TraceSchemaError):
            replay_file(path)
