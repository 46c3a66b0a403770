"""Event primitives for the simulator.

Events are ordered by (time, sequence number) so same-time events run in
scheduling order — a deterministic tie-break that keeps every simulation
run bit-reproducible.

The heap stores plain ``(time_ns, seq, event)`` tuples rather than the
events themselves: tuple comparison of two ints runs entirely in C,
while a rich-comparison dunder on the event class would execute Python
bytecode on every sift — at hundreds of thousands of heap operations per
simulated second the difference is a measurable slice of the tick-heavy
budget. ``seq`` is unique, so the comparison never reaches the event.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    ``action`` receives the event's firing time (integer ns). Cancelled
    events stay in the heap but are skipped when popped (lazy deletion).
    """

    __slots__ = ("time_ns", "seq", "action", "label", "cancelled")

    def __init__(self, time_ns: int, seq: int,
                 action: Callable[[int], None], label: str = "") -> None:
        self.time_ns = time_ns
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return (f"Event(t={self.time_ns}, seq={self.seq}, "
                f"label={self.label!r}{state})")


class EventQueue:
    """Min-heap of events with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)

    def push(self, time_ns: int, action: Callable[[int], None], label: str = "") -> Event:
        if time_ns < 0:
            raise SimulationError(f"cannot schedule event at negative time {time_ns}")
        time_ns = int(time_ns)
        event = Event(time_ns, next(self._counter), action, label)
        heapq.heappush(self._heap, (time_ns, event.seq, event))
        return event

    def peek_time(self) -> int | None:
        """Firing time of the next live event, or None if empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def first_other(self, owned) -> tuple[int, int] | None:
        """``(time_ns, seq)`` of the earliest live event whose handle is
        not in ``owned``, or None. A linear scan of the heap: steppers
        call it once per batch, and the heap holds a few dozen events."""
        best = None
        for entry in self._heap:
            event = entry[2]
            if event.cancelled or event in owned:
                continue
            if best is None or entry < best:
                best = entry
        return None if best is None else (best[0], best[1])

    def pop(self) -> Event | None:
        """Pop the next live event, or None if empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def pop_next_until(self, t_ns: int) -> Event | None:
        """Pop the next live event firing at or before ``t_ns``.

        Returns None (leaving the event queued) when the next live event
        fires later, or when the queue is empty. One heap traversal
        serves what a ``peek_time`` + ``pop`` pair did — the run loop's
        per-event cost is mostly this walk.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            head = heap[0]
            if head[2].cancelled:
                pop(heap)
                continue
            if head[0] > t_ns:
                return None
            pop(heap)
            return head[2]
        return None
