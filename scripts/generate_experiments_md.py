#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from a full paper-vs-measured run.

Usage: python scripts/generate_experiments_md.py [--full] [--out PATH]
       python scripts/generate_experiments_md.py --check

``--check`` is the paper-claims gate: it regenerates into a temporary
file and exits 1 when any claim is not ok, or when the regenerated text
differs by a single byte from the committed file (``--out``).
"""

import argparse
import sys
import tempfile
from pathlib import Path

from repro.validation.report import write_experiments_md


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-length runs (slower)")
    parser.add_argument("--out", default=Path(__file__).parents[1]
                        / "EXPERIMENTS.md")
    parser.add_argument("--check", action="store_true",
                        help="regenerate into a temporary file; fail on "
                             "a claim that is not ok or on any byte "
                             "difference from --out")
    args = parser.parse_args()
    if not args.check:
        results = write_experiments_md(args.out, quick=not args.full)
        n_ok = sum(1 for r in results if r.ok)
        print(f"wrote {args.out}: {n_ok}/{len(results)} claims ok")
        return
    with tempfile.TemporaryDirectory() as tmp:
        fresh_path = Path(tmp) / "EXPERIMENTS.md"
        results = write_experiments_md(fresh_path, quick=not args.full)
        fresh = fresh_path.read_bytes()
    failed = [r for r in results if not r.ok]
    for result in failed:
        print(f"claim not ok: {result.expectation.experiment} "
              f"{result.expectation.quantity}: measured "
              f"{result.measured:.4g} {result.expectation.unit}, paper "
              f"{result.expectation.paper_value:g}")
    stale = fresh != Path(args.out).read_bytes()
    if stale:
        print(f"{args.out} differs from a fresh regeneration; run "
              "scripts/generate_experiments_md.py and commit the result")
    print(f"{len(results) - len(failed)}/{len(results)} claims ok, "
          f"{args.out} {'stale' if stale else 'up to date'}")
    sys.exit(1 if failed or stale else 0)


if __name__ == "__main__":
    main()
