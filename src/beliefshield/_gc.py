"""A pause of Python's cyclic garbage collector for the bulk builders.

Loading a scenario, running a batch and reading a trace each build
tens to hundreds of thousands of containers that stay alive until the
call returns. By default, every 700 net allocations the collector
traverses the young ones, finds nothing to free, and promotes them; on
a 1.4 MB scenario file that was about a third of the load's time.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager


@contextmanager
def paused_gc() -> Iterator[None]:
    """Turn off automatic cyclic collection for the body, and on exit
    restore the state found on entry, also when the body raises. If
    collection was already off, it stays off.

    - The switch is process-wide: while a body runs, no thread's
      cycles are collected automatically.
    - Never hold it across a `yield`. A generator suspended inside the
      body would leave collection off for as long as its consumer runs,
      and one that is abandoned turns it back on only when it is closed
      or freed.
    - Objects are still freed by reference counting; only cycles wait.
      The callers build trees that point one way: YAML nodes and the
      scenario's maps, arrays, frozen dataclasses and generated barrier
      functions (whose globals do not hold them), episode traces whose
      steps hold beliefs and verdicts, and decoded trace records. No
      object they build refers back to one that holds it, so the pause
      defers no garbage (`tests/test_gc.py` checks that the
      collector finds nothing after each of them).
    - The skipped collections leave work behind: what the body built
      must be traversed once to be promoted out of the young
      generations. So on exit, if it turns collection back on, it
      collects generations 0 and 1 at once, which moves the survivors
      straight to the oldest generation, inside the caller's call. Left
      to the automatic collector, a young collection would move them
      only to generation 1, and a later generation-1 collection, in
      whatever runs next (the audit, after a read), would traverse them
      all again.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect(1)
