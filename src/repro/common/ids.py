"""Typed identifiers for nodes, tasks, and objects.

The runtime tracks per-task and per-object metadata explicitly (the paper's
"each task and object is an independent unit"), so identifiers appear in
nearly every subsystem and are hashed on every hot path.  They are
``int`` subclasses with empty ``__slots__`` -- hashing, equality and
ordering run at C speed -- with a type tag that renders stably in logs
(``T00042``, ``O00317``, ``N003``).

Because an id *is* an ``int``, it inherits ``int`` semantics that a
reader used to opaque handles should keep in mind:

- ``NodeId(0)`` (the driver node), ``TaskId(0)`` and ``ObjectId(0)`` are
  falsy.  Test ids against ``None`` (``if node is None``), never by
  truthiness.
- Ids of different kinds compare and hash equal when their indices
  match: ``NodeId(3) == TaskId(3) == 3``.  Never mix kinds as keys of one
  dict or members of one set.
- ``json`` encodes an id as its bare integer (``3``), even with
  ``default=str``, because the encoder handles ``int`` subclasses itself
  and never calls ``default``.  Stringify ids explicitly (``str(node)``
  is ``"N003"``) before writing them to JSON; the event bus does.

``str``, ``repr`` and ``f"{id}"`` render the tagged form; ``.index`` is
the plain integer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar


class _BaseId(int):
    """An integer identity with a short printable prefix."""

    __slots__ = ()
    _PREFIX: ClassVar[str] = "?"
    _WIDTH: ClassVar[int] = 5

    @property
    def index(self) -> int:
        """The id as a plain ``int``."""
        return int(self)

    def __str__(self) -> str:
        return f"{self._PREFIX}{int(self):0{self._WIDTH}d}"

    __repr__ = __str__


class NodeId(_BaseId):
    __slots__ = ()
    _PREFIX = "N"
    _WIDTH = 3


class TaskId(_BaseId):
    __slots__ = ()
    _PREFIX = "T"


class ObjectId(_BaseId):
    __slots__ = ()
    _PREFIX = "O"


@dataclass
class IdGenerator:
    """Monotonic id factory, one per runtime instance.

    Keeping the counters on an instance (not module globals) makes runs
    reproducible: two runtimes constructed in the same process hand out the
    same id sequences.
    """

    _tasks: "itertools.count[int]" = field(default_factory=itertools.count)
    _objects: "itertools.count[int]" = field(default_factory=itertools.count)
    _nodes: "itertools.count[int]" = field(default_factory=itertools.count)

    def next_task_id(self) -> TaskId:
        return TaskId(next(self._tasks))

    def next_object_id(self) -> ObjectId:
        return ObjectId(next(self._objects))

    def next_node_id(self) -> NodeId:
        return NodeId(next(self._nodes))
