"""The record behind --stats: the counters and wall times of a block of calls.

Inside `with recorded() as record:` every refinement run appends a dict
to record.runs, every Evaluator made in the block counts its preimage
searches into record.searches, every document load counts into
record.load, and every timed(key) block adds its wall time to
record.times[key].  Outside a recorded() block those places read one
ContextVar and count or time nothing.  A nested block records its own
work; the outer one picks up again after it.

The timed blocks do not nest: no key's time includes another key's or
a refinement's wall_s.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

# the wall-time keys of a record, in the order --stats reports them
LAYERS = ("load_s", "graph_s", "quotient_s", "witness_s", "validate_s", "eval_s", "write_s",
          "pairs_s", "explain_s", "closure_s")


@dataclass
class SearchCounters:
    """Deterministic work counts of preimage searches."""

    searches: int = 0
    passes: int = 0      # numpy passes, one per frontier that is not walked
    pass_edges: int = 0  # edges the numpy passes read
    walked: int = 0      # cells the walk expanded one at a time
    walk_edges: int = 0  # edges the walk read


@dataclass
class LoadCounters:
    """Deterministic counts of document loads: the bytes read, and the
    reference lists read straight from the bytes (scanned) or from the
    parsed JSON lists (declined)."""

    bytes: int = 0
    scanned: int = 0
    declined: int = 0


@dataclass
class Record:
    """One dict per refinement run (function, feature set, element, edge
    and block counts, counters, wall_s), the search and load counters, and
    the wall time in seconds of each of LAYERS."""

    runs: list = field(default_factory=list)
    searches: SearchCounters = field(default_factory=SearchCounters)
    load: LoadCounters = field(default_factory=LoadCounters)
    times: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))


_RECORD: ContextVar[Record | None] = ContextVar("record", default=None)
# the record of the innermost recorded() block in force, or None
current = _RECORD.get


@contextmanager
def recorded():
    """Record the work of the block into a fresh Record, yielded."""
    token = _RECORD.set(Record())
    try:
        yield current()
    finally:
        _RECORD.reset(token)


@contextmanager
def timed(key: str):
    """Add the wall time of the block, or of each call of the decorated
    function, to times[key] of the current record."""
    record = current()
    if record is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        record.times[key] += time.perf_counter() - start
