"""The benchmark's workloads: inputs from a seed, one run, its checks.

Each workload is a closed loop with one client: the benchmark submits
one sort job (or one streaming fleet) and waits for it.  Inputs are a
pure function of ``(workload, seed, size)``; the program under test
receives only those generated inputs.

Only public entry points of ``repro`` are called here.  The simulated
results a run produces (JCT, record latency, counters) are the
reproduction's outputs; :func:`model_digest` hashes them so a change to
the model shows, but nothing here tunes or gates on them.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster import D3_2XLARGE, I3_2XLARGE, NodeSpec
from repro.futures import Runtime
from repro.jobs import JobState
from repro.sort import SortJobConfig, run_sort
from repro.streaming import (
    make_sources,
    open_loop_workload,
    run_open_loop,
    streaming_node_spec,
)

#: Object stores of the paper's instance types are scaled down by this
#: factor, as in the Fig 4 sort benchmarks (data:memory ratios preserved).
STORE_SCALE = 10


def scaled_node(base: NodeSpec) -> NodeSpec:
    """A paper instance type with its object store scaled down."""
    return base.with_object_store(max(1, base.object_store_bytes // STORE_SCALE))


@dataclass
class SortShape:
    node: NodeSpec
    num_nodes: int
    variant: str
    partitions: int
    #: Input size as a multiple of the cluster's aggregate object store.
    data_ratio: float
    output_to_disk: bool


@dataclass
class FleetShape:
    num_nodes: int
    tenants: int
    duration_s: float
    window_s: float


#: (workload, size) -> shape.  ``full`` is what the benchmark measures,
#: sized so one repetition takes one to two seconds and a run's median
#: rests on 15 or more of them; ``tiny`` is the smoke mode its own test
#: runs in a few seconds.
SHAPES: Dict[str, Dict[str, Any]] = {
    "sort-allpairs": {
        "full": SortShape(scaled_node(I3_2XLARGE), 10, "simple", 100, 0.3, False),
        "tiny": SortShape(scaled_node(I3_2XLARGE), 4, "simple", 16, 0.3, False),
    },
    "sort-external": {
        "full": SortShape(scaled_node(D3_2XLARGE), 20, "push*", 200, 3.0, True),
        "tiny": SortShape(scaled_node(D3_2XLARGE), 4, "push*", 24, 3.0, True),
    },
    "stream-fleet": {
        "full": FleetShape(4, 200, 12.0, 6.0),
        "tiny": FleetShape(2, 8, 12.0, 6.0),
    },
}


@dataclass
class Outcome:
    """What one run of a workload produced, checked."""

    #: Jobs attempted (1 for a sort, one per tenant for the fleet).
    attempted: int
    #: Human-readable descriptions of every job that raised or failed
    #: its correctness check.
    failures: List[str]
    #: Simulated outputs (reported, never gated).
    model: Dict[str, float]
    #: Values hashed into :func:`model_digest`.
    digest_fields: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Prepared:
    """A constructed runtime plus the generated inputs for one run."""

    runtime: Runtime
    inputs: Any
    #: Runs the program on the inputs and checks its outputs.
    execute: Callable[["Prepared"], Outcome]


def prepare(workload: str, seed: int, size: str = "full") -> Prepared:
    """Generate the inputs for ``seed`` and construct the Runtime."""
    shape = SHAPES[workload][size]
    if isinstance(shape, SortShape):
        rt = Runtime.create(shape.node, shape.num_nodes)
        data_bytes = int(
            shape.data_ratio * shape.node.object_store_bytes * shape.num_nodes
        )
        config = SortJobConfig(
            variant=shape.variant,
            num_partitions=shape.partitions,
            partition_bytes=data_bytes // shape.partitions,
            virtual=True,
            output_to_disk=shape.output_to_disk,
            seed=seed,
        )
        return Prepared(rt, config, _execute_sort)
    rt = Runtime.create(streaming_node_spec(), shape.num_nodes)
    tenants, specs = open_loop_workload(
        seed, shape.tenants, duration_s=shape.duration_s, window_s=shape.window_s
    )
    return Prepared(rt, (tenants, specs), _execute_fleet)


def _execute_sort(prepared: Prepared) -> Outcome:
    rt = prepared.runtime
    failures: List[str] = []
    model: Dict[str, float] = {}
    try:
        result = run_sort(rt, prepared.inputs)
    except Exception as exc:  # noqa: BLE001 - counted as a failed job
        failures.append(f"sort raised {type(exc).__name__}: {exc}")
    else:
        if not result.validated:
            failures.append("sort output was not validated")
        model = {"sim_jct_s": result.sort_seconds}
    return _finish(rt, 1, failures, model)


def _execute_fleet(prepared: Prepared) -> Outcome:
    rt = prepared.runtime
    tenants, specs = prepared.inputs
    failures: List[str] = []
    model: Dict[str, float] = {}
    try:
        report = run_open_loop(specs, tenants, runtime=rt)
    except Exception as exc:  # noqa: BLE001 - every job counts as failed
        failures.extend(
            f"{spec.name}: fleet raised {type(exc).__name__}: {exc}"
            for spec in specs
        )
    else:
        by_name = {job.spec.name: job for job in report.jobs}
        for spec in specs:
            problem = _check_stream_job(spec, by_name.get(spec.name))
            if problem is not None:
                failures.append(f"{spec.name}: {problem}")
        model = {
            "sim_jct_s": report.duration,
            "latency_p50_s": report.latency.get("p50", 0.0),
            "latency_p99_s": report.latency.get("p99", 0.0),
            "records": report.records,
        }
    return _finish(rt, len(specs), failures, model)


def _check_stream_job(spec: Any, job: Any) -> Optional[str]:
    """None when ``job`` is DONE and made visible exactly the records its
    sources generate (recomputed here from the spec's seed)."""
    if job is None:
        return "job missing from the report"
    if job.state is not JobState.DONE:
        return f"ended {job.state.name}, not DONE"
    stream = spec.stream
    sources = make_sources(
        seed=spec.seed,
        num_sources=spec.num_maps,
        rate_hz=stream.rate_hz,
        duration_s=stream.duration_s,
        keys=stream.keys,
        bytes_per_record=stream.bytes_per_record,
    )
    generated = sum(source.num_records for source in sources)
    output = job.output
    visible = int(output.latency.get("count", 0)) if output.latency else 0
    if output.records != generated or visible != generated:
        return (
            f"sources generated {generated} records, job windowed "
            f"{output.records}, {visible} became visible"
        )
    return None


def engine_steps(rt: Runtime) -> int:
    """Events the engine has processed: scheduled minus still queued.

    The engine keeps no processed-event count, so this reads its
    sequence counter (whose repr is ``count(n)``) and queue; both are
    private and only read, so an untraced run stays untouched.
    """
    scheduled = int(repr(rt.env._seq)[len("count("):-1])
    return scheduled - len(rt.env._queue)


def _finish(
    rt: Runtime, attempted: int, failures: List[str], model: Dict[str, float]
) -> Outcome:
    stats = rt.stats()
    # Latencies are record latencies of the fleet; a sort has none and
    # reports 0 so every workload prints the same metric set.
    model = {
        "sim_s": rt.now,
        "sim_jct_s": 0.0,
        "latency_p50_s": 0.0,
        "latency_p99_s": 0.0,
        "tasks": stats.get("tasks_finished", 0),
        **model,
    }
    fields = {
        "model": model,
        "counters": {k: stats[k] for k in sorted(stats)},
        "engine_steps": engine_steps(rt),
        "bus_events": len(rt.bus.events),
    }
    return Outcome(attempted, failures, model, fields)


def model_digest(outcome: Outcome) -> str:
    """A short hash of the run's simulated outputs (floats by repr, so
    any bit of difference shows)."""
    text = json.dumps(outcome.digest_fields, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def timed_execute(prepared: Prepared) -> Tuple[Outcome, float]:
    """(outcome, wall seconds from the call into the program until its
    output is checked)."""
    start = time.perf_counter()
    outcome = prepared.execute(prepared)
    return outcome, time.perf_counter() - start
