"""Run ``repro-service`` in this process, optionally with span tracing.

    python3 perfbench/service_server.py [--trace-dir DIR] <repro-service args>

The benchmark's ``service-mixed`` workload starts the service through
this file so that a traced run can wrap the server's and its pool
workers' entry points (see ``tracing.py``). Without ``--trace-dir`` it
is exactly ``repro-service``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv: list[str]) -> int:
    from repro.service.cli import main as service_main

    recorder = None
    if argv[:1] == ["--trace-dir"]:
        from tracing import SpanRecorder, install
        recorder = SpanRecorder(Path(argv[1]))
        install(recorder)
        argv = argv[2:]
    try:
        return service_main(argv)
    finally:
        if recorder is not None:
            recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
