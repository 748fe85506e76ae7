"""The runtime's one metric store: counters, gauges, and histograms.

Counters are kept once.  :attr:`MetricRegistry.totals` holds the flat
global value of every counter -- ``Runtime.counters`` *is* this object,
so an unattributed ``counters.add`` stays a single dict update -- and a
:meth:`MetricRegistry.counter` call with a ``node`` and/or ``job``
dimension also adds to that dimension's value.  ``Runtime.job_stats()``
and the jobs layer's per-job metrics read the job axis back
(:meth:`MetricRegistry.dimension`), so per-job values sum exactly to the
global for every counter ever charged to a job -- the accounting
invariant the chaos checker's metric-dimension family asserts.

``snapshot()`` captures everything as plain nested dicts and
``delta()`` closes a measurement interval against a previous snapshot.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.core import Counters, Histogram

#: The dimension key used for the undimensioned (global) series.
GLOBAL_DIM = "<all>"

#: Job dimension for work carrying no job id (plain single-driver runs,
#: or background restores not tied to any task).
UNATTRIBUTED_JOB = "<unattributed>"

_AXES = ("node", "job")


def _dims(node: Any, job: Optional[str]) -> Tuple[Tuple[str, str], ...]:
    """Normalised (axis, value) pairs for the populated dimensions."""
    out: List[Tuple[str, str]] = []
    if node is not None:
        out.append(("node", str(node)))
    if job is not None:
        out.append(("job", str(job)))
    return tuple(out)


class MetricRegistry:
    """Per-run metric store with node and job dimensions."""

    def __init__(self) -> None:
        #: Flat global counter totals (``Runtime.counters``).
        self.totals = Counters()
        self._totals = self.totals._values  # the same dict, for writes
        # axis -> dim value -> counter name -> number
        self._jobs: Dict[str, Dict[str, float]] = {}
        self._axes = {"node": {}, "job": self._jobs}
        self._gauges: Dict[str, Dict[str, Dict[str, float]]] = {}
        # (name, axis, dim value) -> Histogram
        self._histograms: Dict[Tuple[str, str, str], Histogram] = {}

    # -- counters ------------------------------------------------------------
    def counter(
        self,
        name: str,
        amount: float = 1.0,
        *,
        node: Any = None,
        job: Optional[str] = None,
    ) -> None:
        """Add to a monotonic counter: the global total and, when given,
        the node's and the job's value (job ids are strings)."""
        self._totals[name] += amount
        if job is not None:
            values = self._jobs.get(job)
            if values is None:
                values = self._jobs[job] = defaultdict(float)
            values[name] += amount
        if node is not None:
            nodes = self._axes["node"]
            key = str(node)
            if key not in nodes:
                nodes[key] = defaultdict(float)
            nodes[key][name] += amount

    def counter_total(self, name: str) -> float:
        """The global value of a counter (0 if never touched)."""
        return self.totals.get(name)

    def counter_by(self, name: str, axis: str) -> Dict[str, float]:
        """One counter along one axis (``"node"`` or ``"job"``):
        dim value -> number, for the dim values that charged it."""
        return {
            dim: values[name]
            for dim, values in self._axis(axis).items()
            if name in values
        }

    def dimension(self, axis: str) -> Dict[str, Dict[str, float]]:
        """Every counter along one axis: dim value -> name -> number."""
        return {dim: dict(values) for dim, values in self._axis(axis).items()}

    def counters_for(self, axis: str, value: Any) -> Dict[str, float]:
        """Every counter charged to one dim value ({} if none)."""
        return dict(self._axis(axis).get(str(value), {}))

    def counter_names(self) -> List[str]:
        """Every counter name ever written, sorted."""
        return sorted(self._totals)

    def _axis(self, axis: str) -> Dict[str, Dict[str, float]]:
        if axis not in _AXES:
            raise ValueError(f"unknown axis {axis!r}; expected one of {_AXES}")
        return self._axes[axis]

    # -- gauges --------------------------------------------------------------
    def gauge_set(
        self,
        name: str,
        value: float,
        *,
        node: Any = None,
        job: Optional[str] = None,
    ) -> None:
        """Set a point-in-time gauge (store occupancy, queue depth).

        The global series holds the *sum* over the most specific
        populated dimension, recomputed on every write, so per-node
        gauges aggregate the way occupancy should.
        """
        series = self._gauges.setdefault(name, {})
        dims = _dims(node, job)
        if not dims:
            series.setdefault(GLOBAL_DIM, {})[GLOBAL_DIM] = float(value)
            return
        for axis, dim_value in dims:
            series.setdefault(axis, {})[dim_value] = float(value)
        # Re-derive the global as the sum over the first populated axis.
        axis = dims[0][0]
        series.setdefault(GLOBAL_DIM, {})[GLOBAL_DIM] = sum(
            series[axis].values()
        )

    def gauge(self, name: str, *, node: Any = None, job: Optional[str] = None) -> float:
        """Read a gauge (the global sum when no dimension is given)."""
        series = self._gauges.get(name, {})
        dims = _dims(node, job)
        if not dims:
            return series.get(GLOBAL_DIM, {}).get(GLOBAL_DIM, 0.0)
        axis, value = dims[0]
        return series.get(axis, {}).get(value, 0.0)

    # -- histograms ------------------------------------------------------------
    def observe(
        self,
        name: str,
        value: float,
        *,
        node: Any = None,
        job: Optional[str] = None,
    ) -> None:
        """Record a sample into the global histogram and each populated
        dimension's histogram."""
        keys = [(name, GLOBAL_DIM, GLOBAL_DIM)]
        keys.extend((name, axis, dim) for axis, dim in _dims(node, job))
        for key in keys:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(
                    f"{key[0]}[{key[1]}={key[2]}]"
                )
            hist.record(value)

    def histogram(
        self, name: str, *, node: Any = None, job: Optional[str] = None
    ) -> Histogram:
        """The histogram for one series (empty if never observed)."""
        dims = _dims(node, job)
        key = (name, *dims[0]) if dims else (name, GLOBAL_DIM, GLOBAL_DIM)
        return self._histograms.get(key) or Histogram(name)

    # -- snapshot / delta ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Everything as nested plain dicts (JSON-serialisable); counters
        and gauges read name -> axis -> dim value -> number, the global
        under ``GLOBAL_DIM`` on both levels."""
        counters = {
            name: {GLOBAL_DIM: {GLOBAL_DIM: total}}
            for name, total in self._totals.items()
        }
        for axis, dims in self._axes.items():
            for dim, values in dims.items():
                for name, value in values.items():
                    counters[name].setdefault(axis, {})[dim] = value
        return {
            "counters": counters,
            "gauges": {
                name: {axis: dict(vals) for axis, vals in series.items()}
                for name, series in self._gauges.items()
            },
            "histograms": {
                f"{name}[{axis}={dim}]": hist.snapshot()
                for (name, axis, dim), hist in self._histograms.items()
            },
        }

    def delta(self, previous: Dict[str, Any]) -> Dict[str, Any]:
        """Counter movement since ``previous`` (a :meth:`snapshot`).

        Gauges and histograms are point-in-time / cumulative summaries,
        so the delta reports only counters; untouched series drop out.
        """
        prev = previous.get("counters", {})
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for name, series in self.snapshot()["counters"].items():
            for axis, values in series.items():
                for dim, value in values.items():
                    before = prev.get(name, {}).get(axis, {}).get(dim, 0.0)
                    moved = value - before
                    if moved:
                        out.setdefault(name, {}).setdefault(axis, {})[dim] = moved
        return {"counters": out}

    def __repr__(self) -> str:
        return (
            f"<MetricRegistry counters={len(self._totals)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )
