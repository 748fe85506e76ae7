"""Span tracer for the traced run: wrappers around each layer's entry points.

:class:`Tracer` installs wrappers on the entry points of the ``repro``
modules listed in :data:`LAYERS` and removes them again; the
program itself is not changed.  Each wrapped call records a span (name,
start, end, parent span, thread, run id) in memory; :meth:`Tracer.write`
writes them out as gzipped JSONL when the run ends.

Self time is a span's duration minus the part its child spans cover,
charged per span name as spans close.  Three kinds of entry point:

- plain calls: one span per call;
- generator functions (``NodeManager.ensure_local``): one span per
  resumption, so the time spent across all of the generator's steps is
  counted, not only its creation;
- *park* points, where a thread waits while another runs:
  ``DriverHost.block_on`` (a driver waits for the simulation) and
  ``DriverHost._hand_off`` (the controller waits for a driver).  Their
  duration is subtracted from the parent like any child's but is never
  self time -- the work done meanwhile is charged to the other thread's
  spans.  ``block_on``'s total is reported as ``futures.driver.parked_s``.

Only one thread runs simulator code at a time (drivers hand off
cooperatively), so self times summed over every layer stay within the
traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import threading
import time
from array import array
from typing import Any, Dict, Iterator, List, Tuple

import repro.futures.driver
import repro.futures.node_manager
import repro.futures.object_store
import repro.futures.runtime
import repro.futures.scheduler
import repro.futures.spilling
import repro.jobs.admission
import repro.jobs.manager
import repro.obs.events
import repro.obs.registry
import repro.simcore.engine
import repro.simcore.resources
import repro.sort.job
import repro.sort.ops
import repro.streaming.job
import repro.streaming.rounds

#: layer -> [(owner, attribute, kind)]; kind is "call", "gen" or "park".
#: The owner is a class, or the module a function is looked up from at
#: call time (``repro.sort.job`` imports the shuffle variants by name).
LAYERS: Dict[str, List[Tuple[Any, str, str]]] = {
    "simcore.engine": [(repro.simcore.engine.Environment, "step", "call")],
    "simcore.resources": [
        (repro.simcore.resources.BandwidthResource, "transfer", "call"),
    ],
    "futures.object_store": [
        (repro.futures.object_store.ObjectStore, name, "call")
        for name in ("allocate", "try_allocate", "free", "pump")
    ],
    "futures.spilling": [
        (repro.futures.spilling.SpillManager, name, "call")
        for name in ("kick", "restore_read")
    ],
    "futures.node_manager": [
        (repro.futures.node_manager.NodeManager, "ensure_local", "gen"),
    ],
    "futures.runtime": [
        (repro.futures.runtime.Runtime, name, "call")
        for name in ("submit_task", "get", "wait", "put")
    ],
    "futures.scheduler": [
        (repro.futures.scheduler.Scheduler, name, "call")
        for name in ("dispatch", "task_done")
    ],
    # ``run`` is the controller loop (stepping the engine, picking the
    # next runnable driver); in its ``_hand_off`` the controller waits
    # while a driver thread runs, so that wait is a park too.
    "futures.driver": [
        (repro.futures.driver.DriverHost, "run", "call"),
        (repro.futures.driver.DriverHost, "_hand_off", "park"),
        (repro.futures.driver.DriverHost, "block_on", "park"),
        (repro.futures.driver.DriverHost, "spawn", "call"),
    ],
    "obs.events": [(repro.obs.events.EventBus, "emit", "call")],
    "obs.registry": [
        (repro.obs.registry.MetricRegistry, name, "call")
        for name in ("counter", "gauge_set", "observe")
    ],
    "shuffle": [
        (repro.sort.job, name, "call")
        for name in (
            "simple_shuffle", "push_based_shuffle", "riffle_shuffle",
            "magnet_shuffle",
        )
    ],
    "sort.ops": [
        (repro.sort.ops.SortOps, name, "call")
        for name in ("map", "merge", "merge_columns", "reduce")
    ],
    "sort.validate": [(repro.sort.job, "validate_sorted_output", "call")],
    "jobs.admission": [
        (repro.jobs.admission.AdmissionController, name, "call")
        for name in ("submit", "admit_ready", "release", "cancel")
    ],
    "jobs": [
        (repro.jobs.manager.JobManager, name, "call")
        for name in ("submit", "drive")
    ],
    "streaming": [
        (repro.streaming.rounds.RoundDriver, "submit_round", "call"),
        (repro.streaming.job, "run_streaming_job", "call"),
    ],
}


def _owner_name(owner: Any) -> str:
    """``SortOps`` for a class, ``job`` for the module ``repro.sort.job``."""
    return owner.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Records spans of one run; install, run, remove, then read."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: span-name table: index -> (layer, "Owner.attr", kind)
        self.names: List[Tuple[str, str, str]] = []
        # One entry per span, in start order (the span id is the index).
        self.span_name = array("H")
        self.span_thread = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Per span name: calls, and self (or parked) seconds.
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self._stacks: Dict[int, List[list]] = {}
        self._threads: Dict[int, int] = {}
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- install / remove -----------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, entries in LAYERS.items():
            for owner, attr, kind in entries:
                original = owner.__dict__[attr]
                nid = len(self.names)
                self.names.append((layer, f"{_owner_name(owner)}.{attr}", kind))
                self.calls.append(0)
                self.self_s.append(0.0)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(nid, original, kind))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- span bookkeeping -------------------------------------------------------
    def _open(self, nid: int) -> list:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
            self._threads[ident] = len(self._threads)
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_thread.append(self._threads[ident])
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        frame = [sid, nid, 0.0, 0.0, stack]
        stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        frame[3] = start
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        sid, nid, child, start, stack = frame
        stack.pop()
        self.span_end[sid] = end
        duration = end - start
        if stack:
            stack[-1][2] += duration
        self.self_s[nid] += duration - child

    def _wrap(self, nid: int, original: Any, kind: str) -> Any:
        if kind == "gen" and not inspect.isgeneratorfunction(original):
            raise TypeError(f"{self.names[nid][1]} is not a generator function")
        tracer = self
        calls = self.calls

        if kind == "gen":
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                calls[nid] += 1
                return tracer._resumptions(nid, original(*args, **kwargs))
            return wrapper

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[nid] += 1
            frame = tracer._open(nid)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(frame)
        return wrapper

    def _resumptions(self, nid: int, gen: Iterator[Any]) -> Iterator[Any]:
        """Drive ``gen`` step by step, one span per resumption; values,
        exceptions and close() pass through unchanged."""
        value: Any = None
        error: Any = None
        while True:
            frame = self._open(nid)
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(error)
            except StopIteration as stop:
                self._close(frame)
                return stop.value
            except BaseException:
                self._close(frame)
                raise
            self._close(frame)
            error = None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                error, value = exc, None

    # -- results ------------------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """layer -> {"calls", "self_s"} summed over its names (parks
        count as calls but add no self time)."""
        out: Dict[str, Dict[str, float]] = {}
        for nid, (layer, _name, kind) in enumerate(self.names):
            row = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += self.calls[nid]
            if kind != "park":
                row["self_s"] += self.self_s[nid]
        return out

    def calls_of(self, name: str) -> int:
        """Calls of one entry point, by its ``Owner.attr`` name."""
        return self.calls[self._nid(name)]

    def seconds_of(self, name: str) -> float:
        """Self (or, for a park, parked) seconds of one entry point."""
        return self.self_s[self._nid(name)]

    def _nid(self, name: str) -> int:
        return [label for _layer, label, _kind in self.names].index(name)

    def check_nesting(self) -> List[str]:
        """Problems with span nesting: each span closed, within its
        parent's interval, on its parent's thread."""
        problems = []
        for sid in range(self.span_count):
            start, end = self.span_start[sid], self.span_end[sid]
            if end < start or end == 0.0:
                problems.append(f"span {sid} never closed")
                continue
            parent = self.span_parent[sid]
            if parent < 0:
                continue
            if self.span_thread[parent] != self.span_thread[sid]:
                problems.append(f"span {sid} has a parent on another thread")
            elif not (
                self.span_start[parent] <= start
                and end <= self.span_end[parent]
            ):
                problems.append(f"span {sid} escapes its parent {parent}")
            if len(problems) >= 20:
                break
        return problems

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line (gzip)."""
        names = [label for _layer, label, _kind in self.names]
        run = self.run_id
        with gzip.open(path, "wt", compresslevel=1) as out:
            for sid in range(self.span_count):
                out.write(
                    f'{{"id":{sid},"name":"{names[self.span_name[sid]]}",'
                    f'"start":{self.span_start[sid]!r},"end":{self.span_end[sid]!r},'
                    f'"parent":{self.span_parent[sid]},'
                    f'"thread":{self.span_thread[sid]},"run":"{run}"}}\n'
                )
