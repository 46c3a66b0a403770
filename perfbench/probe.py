"""A fixed CPU kernel that reads the host's current speed.

On a shared host the same operation can take 25 % longer for tens of
seconds at a time, because the host itself slows down. ``run.py`` runs
this kernel around operations, and inside single-process ones, and
reports an operation's cost in kernel runs (``op_cost``): a slower host
stretches both alike, so the ratio follows the program and not the host.

The kernel mixes what the simulator spends its time on: interpreted
method calls, attribute and dict traffic, float arithmetic and small
numpy array operations. It never changes, so ``op_cost`` from two
commits compares the programs.
"""

from __future__ import annotations

import contextlib
import signal
import subprocess
import sys

import numpy as np

from tracing import clock

#: Loop iterations of one kernel run (about 10 ms on a 2-vCPU host).
ITERATIONS = 16_000


class _Accumulator:
    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: float) -> float:
        self.total += value
        self.count += 1
        return self.total


def _kernel() -> float:
    acc = _Accumulator()
    table: dict[int, float] = {}
    row = np.arange(64, dtype=np.float64)
    for i in range(ITERATIONS):
        table[i & 127] = acc.add(i * 0.5 + table.get((i + 1) & 127, 0.0))
        if i & 7 == 0:
            row = row * 0.999 + 1.0
            acc.add(float(row.sum()))
    return acc.total


class SpeedProbe:
    """Samples of the host's seconds per kernel run.

    :meth:`sample` runs the kernel ``reps`` times and records the mean.
    With ``procs`` > 1 it runs the kernel in ``procs`` processes at once
    (this one and helpers) and records the mean over all of them: an
    operation that keeps that many cores busy slows when the host slows
    any of them, and a one-core sample would miss that. Use the probe as
    a context manager; leaving it stops the helpers.

    Inside :meth:`during`, with ``every_s`` > 0, a ``SIGALRM`` timer
    interrupts the operation every ``every_s`` host seconds to sample
    too; ``in_op_s`` is the host time those samples took, which the
    caller takes off the operation's time. Only an operation that runs
    in this process alone may be sampled inside: the kernel would
    otherwise compete for the cores with the operation's other
    processes.
    """

    def __init__(self, reps: int, every_s: float = 0.0,
                 procs: int = 1) -> None:
        self.reps = reps
        self.every_s = every_s
        self.procs = procs
        self.samples: list[float] = []
        self.in_op_s = 0.0
        self._armed = False
        self._helpers: list[subprocess.Popen] = []

    def __enter__(self) -> SpeedProbe:
        for _ in range(self.procs - 1):
            self._helpers.append(subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True, bufsize=1))
        # A first sample waits for the helpers to start and warms the
        # kernel everywhere; it is not kept.
        self.sample()
        self.samples.clear()
        return self

    def __exit__(self, *exc) -> None:
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []

    def sample(self) -> float:
        """Take one sample; returns the host seconds it took here."""
        for helper in self._helpers:
            helper.stdin.write(f"{self.reps}\n")
        took = _timed(self.reps)
        per_run = [took] + [float(h.stdout.readline())
                            for h in self._helpers]
        self.samples.append(sum(per_run) / len(per_run) / self.reps)
        return took

    def _on_alarm(self, _signum, _frame) -> None:
        self.in_op_s += self.sample()
        # The timer is one-shot and re-armed only after the sample, so
        # samples never nest; a signal still pending when ``during``
        # disarms samples once more and does not re-arm.
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, self.every_s)

    @contextlib.contextmanager
    def during(self):
        """Sample inside the ``with`` body, every ``every_s`` seconds."""
        self.in_op_s = 0.0
        if not self.every_s:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.every_s)
        try:
            yield
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _timed(reps: int) -> float:
    t0 = clock()
    for _ in range(reps):
        _kernel()
    return clock() - t0


def _helper() -> None:
    """A helper process: for each line ``reps`` on standard input, run
    the kernel that often and answer with the host seconds taken."""
    for line in sys.stdin:
        print(repr(_timed(int(line))), flush=True)


if __name__ == "__main__":
    _helper()
