#!/usr/bin/env python
"""Regenerate the committed golden conformance trace.

Run from the repository root after an intentional wire-format change
(schema version bump) or behaviour change that legitimately alters the
canonical scenario's event stream:

    PYTHONPATH=src python scripts/regen_golden_trace.py

The golden manifest is deliberately recorded **without** the sanitizer's
RNG ledger: ledger sites are ``path:line`` and would make the committed
trace churn on unrelated source edits. Replay-time ledger checking is
covered by the differential sweep instead (``make conformance``).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.conformance.replay import record_to_file, replay_file  # noqa: E402
from repro.conformance.scenario import make_manifest  # noqa: E402
from repro.units import ms  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: The committed golden scenarios.
#:
#: * ``scenario_default`` — default seed, 10 ms, direct API, fastpath
#:   on, NUMA-link chaos so fault-fire events are part of the stream.
#: * ``scenario_tick_heavy`` — every core churning through sub-quantum
#:   compute/AVX/nap phases under TDP-bound turbo, 2 ms: the high-churn
#:   regime of the vectorized hot path (dithered freq-apply decisions,
#:   dense c-state traffic).
#: * ``scenario_steady_tdp`` — FIRESTARTER on all 24 cores, turbo on,
#:   EPB balanced, 300 ms (600 PCU quanta per socket): the long
#:   TDP-bound steady phase of Table V, where almost every quantum
#:   replays the cached grant.
GOLDENS = {
    "scenario_default.trace.jsonl": make_manifest(
        seed=271, measure_ns=ms(10), fastpath=True, variant="direct",
        chaos_profile="numa-link", sanitize=False),
    "scenario_tick_heavy.trace.jsonl": make_manifest(
        seed=271, measure_ns=ms(2), fastpath=True, variant="direct",
        workload="tick-heavy", sanitize=False),
    "scenario_steady_tdp.trace.jsonl": make_manifest(
        seed=271, measure_ns=ms(300), fastpath=True, variant="direct",
        workload="steady-tdp", sanitize=False),
}


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    failed = False
    for name, manifest in GOLDENS.items():
        golden = GOLDEN_DIR / name
        trace = record_to_file(manifest, golden)
        print(f"wrote {golden.relative_to(REPO_ROOT)}: "
              f"{len(trace.events)} events, schema v{trace.schema_version} "
              f"({trace.schema_digest})")
        report = replay_file(golden)
        print(report.render())
        failed |= not report.match
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
