"""Deterministic random-number policy.

All stochastic elements of the simulation (meter noise, measurement
jitter, random FTaLaT delays) derive from a single seed via
``numpy.random.Generator`` spawning, so every experiment is exactly
reproducible and independent sub-streams never alias.

Hot draw sites go through :class:`DrawBatch`, which refills a seeded
buffer with one vectorized generator call and hands values out one per
:meth:`~DrawBatch.take`. numpy's ``Generator`` produces the identical
value stream (and identical post-call generator state) for
``integers(lo, hi, size=N)`` as for ``N`` sequential single draws, so a
batch whose draw site is the only consumer of its parent stream yields
byte-identical simulations — only cheaper. Sanitize-mode draw-order
accounting happens per ``take``, exactly like a direct generator call;
the refill itself draws from the unwrapped stream and is invisible to
the ledger by design (the ``rng-batch-bypass`` lint rule keeps everyone
else out of the buffer).

A stepper that folds many ticks into one batch (``repro.system.horizon``)
reads the buffered values ahead with :meth:`DrawBatch.peek` and then
consumes exactly the prefix it used with :meth:`DrawBatch.commit`: the
cursor, the generator state and the ledger end where the same number of
``take`` calls would have left them.
"""

from __future__ import annotations

import sys

import numpy as np

DEFAULT_SEED = 0x9A5735

#: Draws fetched per DrawBatch refill. Large enough to amortize the
#: generator call, small enough that a retune (draw args changed, e.g. a
#: PCU_JITTER fault widening the tick spread) discards little work.
DRAW_BATCH_BLOCK = 256

_NO_DRAWS = np.empty(0)


def make_rng(seed: int | None = None) -> np.random.Generator:
    """A fresh root generator (``DEFAULT_SEED`` if none given).

    This module is the sanctioned birthplace of every generator: the
    ``det-seed-flow`` rule exempts it (``rng-factories`` in
    pyproject.toml) and polices everyone else.
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def spawn_rng(parent: np.random.Generator) -> np.random.Generator:
    """An independent child stream of ``parent``.

    Spawning from a sanitize-mode ledgered stream yields a child that
    records into the same ledger (see :mod:`repro.engine.sanitize`);
    the drawn values are identical either way.
    """
    from repro.engine import sanitize

    ledger = sanitize.ledger_of(parent)
    child = np.random.default_rng(
        sanitize.unwrap_rng(parent).bit_generator.seed_seq.spawn(1)[0])
    if ledger is not None:
        return sanitize.wrap_rng(child, ledger)
    return child


class DrawBatch:
    """A pre-filled buffer of draws from one (generator, method) pair.

    ``take(*args)`` is the **only** sanctioned way to consume the buffer:
    it records the caller's site in the parent's sanitize ledger exactly
    like a direct ``rng.method(*args)`` call would, refills with one
    vectorized draw when the buffer runs dry, and retunes (discarding
    the remainder deterministically) whenever the draw arguments change.
    Direct indexing into ``_prefill``/``_prefill_cursor`` from outside
    this module bypasses draw-order accounting and is rejected by the
    ``rng-batch-bypass`` lint rule.
    """

    __slots__ = ("_parent", "_method", "_block", "_prefill",
                 "_prefill_args", "_prefill_cursor", "_site")

    def __init__(self, parent, method: str,
                 block: int = DRAW_BATCH_BLOCK) -> None:
        if block < 1:
            raise ValueError("DrawBatch block must be >= 1")
        self._parent = parent
        self._method = method
        self._block = int(block)
        self._prefill: np.ndarray | None = None
        self._prefill_args: tuple = ()
        self._prefill_cursor = 0
        self._site: str | None = None   # ledger site of the last take

    def take(self, *args):
        """One draw of ``method(*args)`` from the buffer (numpy scalar)."""
        prefill = self._prefill
        cursor = self._prefill_cursor
        if prefill is None or cursor >= self._block \
                or args != self._prefill_args:
            from repro.engine import sanitize
            bare = sanitize.unwrap_rng(self._parent)
            prefill = self._prefill = getattr(bare, self._method)(
                *args, size=self._block)
            self._prefill_args = args
            cursor = 0
        self._prefill_cursor = cursor + 1
        ledger = getattr(self._parent, "_ledger", None)
        if ledger is not None:
            from repro.engine import sanitize
            site = self._site = sanitize._site_of(sys._getframe(1))
            ledger.record(site, self._method)
        return prefill[cursor]

    def peek(self, n: int, *args) -> np.ndarray:
        """The next (at most ``n``) values ``take(*args)`` would return
        without a refill or retune, left unconsumed.

        Empty when the very next ``take`` would refill (buffer spent or
        never filled) or retune (``args`` differ). The result is a view
        into the buffer: read it, never write it, and use it before the
        next ``take``/``commit``.
        """
        prefill = self._prefill
        if prefill is None:
            return _NO_DRAWS
        if args != self._prefill_args:
            return prefill[:0]
        cursor = self._prefill_cursor
        return prefill[cursor:cursor + n]

    @property
    def ledgered(self) -> bool:
        """True when draws are recorded in a sanitize ledger."""
        return getattr(self._parent, "_ledger", None) is not None

    def commit(self, n: int = 1) -> None:
        """Consume ``n`` peeked values, exactly as ``n`` ``take`` calls
        from the site of the last ``take`` would: same cursor, same
        ledger records (one per draw, so a caller that interleaves
        draw sites commits one draw at a time, in draw order)."""
        cursor = self._prefill_cursor + n
        if self._prefill is None or cursor > self._block:
            raise ValueError(f"cannot commit {n} draws past the buffer")
        self._prefill_cursor = cursor
        ledger = getattr(self._parent, "_ledger", None)
        if ledger is not None and n:
            if self._site is None:
                raise ValueError("commit before any take: no ledger site")
            for _ in range(n):
                ledger.record(self._site, self._method)
