#!/usr/bin/env python3
"""Record the output digests the benchmark checks against.

    python3 perfbench/record_digests.py [workload ...]

Runs every pooled input of the named workloads (default: all pooled
ones) once, untraced, and rewrites their entries in ``digests.json``.
Run it only after a change that is meant to alter simulated outputs;
the recorded digests are the benchmark's correctness reference.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

DIGESTS = HERE / "digests.json"


def main(argv: list[str]) -> int:
    names = argv or [n for n, w in WORKLOADS.items() if hasattr(w, "POOL")]
    data = (json.loads(DIGESTS.read_text(encoding="utf-8"))
            if DIGESTS.exists() else {"format": "perfbench-digests",
                                      "digests": {}})
    state_dir = HERE.parent / ".perfbench" / "record"
    status = 0
    try:
        for name in names:
            wl = WORKLOADS[name](state_dir)
            for inp in wl.POOL:
                result = wl.run_op(inp)
                data["digests"][result.key] = result.digest
                print(f"{result.key}: {result.digest[:16]}"
                      + "".join(f"\n  FAILED: {f}" for f in result.failures))
                status |= bool(result.failures)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    data["digests"] = dict(sorted(data["digests"].items()))
    DIGESTS.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
