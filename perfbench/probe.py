"""A fixed reference workload that measures how fast the host is right now.

The benchmark's host shares its cores with other machines' work, and its
speed changes by up to a factor of two from one minute to the next as
that work comes and goes.  :func:`reference_run` times a small
discrete-event simulation written here, in the benchmark's own files: a
heap of timed events, generator processes, frozen-dataclass ids in
dicts and an event log -- the same kinds of interpreter work the
simulator under test does, but code that no change to the program can
make faster or slower.  It keeps a few megabytes live, well under the
simulator's own peak, so it does not move ``peak_rss_mb``.  The benchmark divides each repetition's wall time
by the reference time measured next to it, so a change of host speed
cancels and a change of the program does not.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Tuple

#: Reference-workload seconds on a quiet host; times are reported as
#: seconds on a host where :func:`reference_run` takes this long.
REFERENCE_S = 0.30

#: Processes, and events each one waits for, in one reference run.
PROCESSES = 1000
STEPS = 160
#: Log records kept; older ones are overwritten.
LOG_SIZE = 8192


@dataclass(frozen=True, order=True)
class _Id:
    index: int


@dataclass
class _Record:
    time: float
    process: _Id
    block: _Id
    size: int


def _process(pid: _Id, blocks: Dict[_Id, int], log: List[Any],
             ids: "itertools.count[int]") -> Generator[float, float, int]:
    held = 0
    now = 0.0
    previous = None
    for step in range(STEPS):
        block = _Id(next(ids))
        size = (pid.index * 7919 + step * 104729) % 65536
        blocks[block] = size
        log[block.index % LOG_SIZE] = _Record(now, pid, block, size)
        if previous is not None:
            held += blocks.pop(previous)
        previous = block
        now = yield 0.001 * (1 + (pid.index + step) % 17)
    return held + blocks.pop(previous)


def _simulate() -> Tuple[int, int]:
    queue: List[Tuple[float, int, Any]] = []
    seq = itertools.count()
    blocks: Dict[_Id, int] = {}
    log: List[Any] = [None] * LOG_SIZE
    ids = itertools.count()
    for index in range(PROCESSES):
        gen = _process(_Id(index), blocks, log, ids)
        heapq.heappush(queue, (next(gen), next(seq), gen))
    total = 0
    while queue:
        now, _, gen = heapq.heappop(queue)
        try:
            delay = gen.send(now)
        except StopIteration as stop:
            total += stop.value
        else:
            heapq.heappush(queue, (now + delay, next(seq), gen))
    return total, len(blocks)


def reference_run() -> float:
    """Wall seconds of one run of the reference workload."""
    start = time.perf_counter()
    _simulate()
    return time.perf_counter() - start
