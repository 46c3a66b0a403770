"""``python -m repro.conformance`` — the ``make conformance`` gate.

Two checks, both hard-fail:

1. replay the committed golden trace (bit-identical event stream under
   the current tree, schema version/digest verified first);
2. run the differential sweep: 4 execution modes x {no chaos, every
   chaos profile} plus the tick-heavy and steady-tdp workloads, serial
   vs ``jobs=N``, under the runtime sanitizer so
   RNG draw ledgers are part of the compared stream.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.conformance.differential import run_differential
from repro.conformance.replay import replay_file
from repro.errors import ConformanceError
from repro.units import ms

DEFAULT_GOLDENS = (
    Path("tests/golden/scenario_default.trace.jsonl"),
    Path("tests/golden/scenario_tick_heavy.trace.jsonl"),
    Path("tests/golden/scenario_steady_tdp.trace.jsonl"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description="replay the golden trace and run the differential "
                    "conformance sweep")
    parser.add_argument("--golden", type=Path, action="append",
                        default=None,
                        help="golden trace(s) to replay; repeatable "
                             "(default: the committed goldens under "
                             "tests/golden/)")
    parser.add_argument("--skip-golden", action="store_true",
                        help="skip the golden-trace replay")
    parser.add_argument("--measure-ms", type=int, default=10,
                        help="simulated time per differential run "
                             "(default 10 ms)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the parallel pass "
                             "(default 4)")
    parser.add_argument("--no-sanitize", action="store_true",
                        help="leave the RNG draw ledger out of the "
                             "differential traces")
    args = parser.parse_args(argv)

    failed = False
    if not args.skip_golden:
        goldens = args.golden if args.golden else list(DEFAULT_GOLDENS)
        for golden in goldens:
            if not golden.exists():
                print(f"error: golden trace {golden} not found "
                      "(run scripts/regen_golden_trace.py)", file=sys.stderr)
                return 2
            try:
                report = replay_file(golden)
            except ConformanceError as exc:
                print(f"golden replay error: {exc}", file=sys.stderr)
                return 1
            print(report.render())
            failed |= not report.match

    diff = run_differential(measure_ns=ms(args.measure_ms), jobs=args.jobs,
                            sanitize=not args.no_sanitize)
    print(diff.render())
    failed |= not diff.ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
