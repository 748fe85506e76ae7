"""One incremental fold of the event stream into per-node resource state.

:class:`NodeFold` consumes :class:`~repro.obs.events.ObsEvent` records
one at a time and keeps the five per-node tracks of
:data:`NODE_TRACKS`:

- ``cpu`` -- executing task attempts (``task.run`` opens one; the
  attempt's finish, failure or retry -- or its node's death, executor
  failure or removal -- closes it);
- ``disk`` -- in-flight disk requests: spill writes, spill restores and
  direct ``output_to_disk`` writes (each ``*.begin`` to its ``*.end``);
- ``nic`` -- in-flight transfers touching the node, as source or
  destination;
- ``store`` -- object-store occupancy in bytes: ``object.create``,
  successful ``transfer.end`` and ``spill.restore.end`` add the object
  (sized from the event or its begin), successful ``spill.write.end``
  and ``object.evict`` remove it, never below zero (an approximation:
  spill writes report fused-file bytes, not per-object residency);
- ``spill_queue`` -- allocations parked under memory pressure
  (``store.pressure`` opens, the matching ``object.create`` or
  ``spill.fallback`` closes).

:meth:`NodeFold.apply` reports every write as a :class:`Write` --
``(track, node, value)`` plus whether it closes an interval opened at
the same instant -- and each reader renders the writes its own way:
the usage timeline (:func:`repro.obs.perf.usage.derive_usage`) records
step tracks, the live sampler (:class:`repro.obs.live.TimeSeriesSampler`)
keeps gauges it samples at fixed intervals.  Given per-node
``store_caps`` the fold clamps store adds at capacity; without them the
store track is the raw sum, which overshoots: a restored or fetched
copy that later leaves memory by cache eviction emits no event.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.obs.events import ObsEvent

#: Per-node track names, in display order.
NODE_TRACKS = ("cpu", "disk", "nic", "store", "spill_queue")

#: Begin kinds of the paired disk and network intervals -> their track.
_BEGIN_TRACK = {
    "spill.write.begin": "disk",
    "spill.restore.begin": "disk",
    "disk.write.begin": "disk",
    "transfer.begin": "nic",
}
_END_KINDS = (
    "spill.write.end", "spill.restore.end", "disk.write.end", "transfer.end"
)


class Write(NamedTuple):
    """One write of a node track's value."""

    track: str
    node: str
    value: float
    #: True when the write closes an interval opened at this same
    #: instant (a zero-length attempt or request): the pair changed
    #: nothing.
    instant: bool = False


class NodeFold:
    """Per-node resource state, folded one event at a time."""

    def __init__(self, store_caps: Optional[Dict[str, float]] = None) -> None:
        self._caps = dict(store_caps or {})  # node -> store clamp bytes
        self._values: Dict[Tuple[str, str], float] = {}  # (track, node)
        #: task -> (node, start) of its executing attempt.
        self._running: Dict[str, Tuple[str, float]] = {}
        #: begin seq -> (track, nodes, bytes, start) of an open request.
        self._open: Dict[int, Tuple[str, Tuple[str, ...], float, float]] = {}
        self._residency: Dict[str, Dict[str, float]] = {}  # obj -> node -> B
        self._parked: Dict[str, List[str]] = {}  # node -> parked obj ids
        self._writes: List[Write] = []

    def apply(self, event: ObsEvent) -> List[Write]:
        """Fold one event in; returns the writes it made, in order."""
        self._writes = writes = []
        kind = event.kind
        node = event.node
        if kind == "task.run":
            if event.task is not None and node is not None:
                self._end_attempt(event.task, event.ts)  # superseded
                self._running[event.task] = (node, event.ts)
                self._bump("cpu", node, +1.0)
        elif kind in ("task.finish", "task.fail", "task.retry"):
            self._end_attempt(event.task, event.ts)
        elif kind in ("node.death", "executor.failure") or (
            kind == "cluster.membership"
            and event.attrs.get("action") == "remove"
        ):
            doomed = [t for t, (n, _) in self._running.items() if n == node]
            for task in doomed:
                self._end_attempt(task, event.ts)
        elif kind in _BEGIN_TRACK:
            track = _BEGIN_TRACK[kind]
            src = event.attrs.get("src") if track == "nic" else None
            nodes = tuple(str(n) for n in (node, src) if n is not None)
            if nodes:
                size = float(event.attrs.get("bytes", 0.0))
                self._open[event.seq] = (track, nodes, size, event.ts)
                for n in nodes:
                    self._bump(track, n, +1.0)
        elif kind in _END_KINDS:
            self._end_request(event)
        elif kind == "object.create":
            size = float(event.attrs.get("bytes", 0.0))
            self._store_add(node, event.obj, size)
            self._unpark(node, event.obj)
        elif kind == "object.evict":
            if event.obj is not None:
                for where, size in self._residency.pop(event.obj, {}).items():
                    self._bump("store", where, -size)
        elif kind == "store.pressure":
            if node is not None:
                self._parked.setdefault(node, []).append(event.obj or "")
                self._bump("spill_queue", node, +1.0)
        elif kind == "spill.fallback":
            self._unpark(node, event.obj)
        return writes

    # -- transitions -------------------------------------------------------
    def _bump(
        self, track: str, node: str, delta: float, instant: bool = False
    ) -> None:
        key = (track, node)
        value = max(0.0, self._values.get(key, 0.0) + delta)
        if track == "store" and node in self._caps:
            value = min(value, self._caps[node])
        self._values[key] = value
        self._writes.append(Write(track, node, value, instant))

    def _end_attempt(self, task: Optional[str], ts: float) -> None:
        """Close the executing attempt of ``task``, if any."""
        running = self._running.pop(task, None) if task is not None else None
        if running is not None:
            node, start = running
            self._bump("cpu", node, -1.0, start >= ts)

    def _end_request(self, event: ObsEvent) -> None:
        """Close a disk request or transfer; settle its store bytes."""
        opened = self._open.pop(event.cause, None)
        if opened is not None:
            track, nodes, size, start = opened
            for n in nodes:
                self._bump(track, n, -1.0, start >= event.ts)
        else:  # begin unseen: a disk end still closes on its own node
            size = 0.0
            if event.kind != "transfer.end" and event.node is not None:
                self._bump("disk", event.node, -1.0)
        ok = event.attrs.get("ok", True)
        if event.kind == "spill.write.end":
            if ok and event.node is not None:
                self._bump("store", event.node, -size)
        elif event.kind == "spill.restore.end" or (
            event.kind == "transfer.end" and ok
        ):
            self._store_add(event.node, event.obj, size)

    def _store_add(
        self, node: Optional[str], obj: Optional[str], size: float
    ) -> None:
        if node is None or size <= 0:
            return
        if obj is not None:
            self._residency.setdefault(obj, {})[node] = size
        self._bump("store", node, size)

    def _unpark(self, node: Optional[str], obj: Optional[str]) -> None:
        parked = self._parked.get(node) if node is not None else None
        if parked and obj in parked:
            parked.remove(obj)
            self._bump("spill_queue", node, -1.0)
