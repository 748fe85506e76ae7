"""Simulator-throughput benchmark: host cost of running the reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sort-allpairs --seed 0 --seconds 40 --trace 0

Without ``--workload`` it runs every workload in turn.

Each workload is one closed-loop job (a sort) or fleet (streaming
tenants), submitted by one client that waits for it.  A run's
repetitions execute one after another in a single child process, each
on a freshly constructed Runtime, while another still fits in
``--seconds`` (at least :data:`MIN_REPS`).  Each metric is the median
over the repetitions; ``setup_s`` is the median over that child and
:data:`SETUP_PROBES` set-up-only children, each a fresh process.

Times are in reference-host seconds.  The host's speed changes by up to
a factor of two from minute to minute, with other machines' load, so
before each repetition the child times a fixed reference workload
(:mod:`probe`), and ``wall_s`` is the median of each repetition's wall
time over its reference time, times :data:`probe.REFERENCE_S`;
``setup_s`` is scaled by the median reference time the same way.  The
raw host times are printed as samples.

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics of the traced ones (times
in host seconds, not scaled), plus ``trace.overhead_frac`` (traced over
untraced wall time, minus one).
Spans of the last traced repetition go to ``.perfbench-out/``.

Every run is checked: sort outputs are validated, every streaming job
must end DONE having made visible exactly the records its sources
generate, and all repetitions of a run -- traced or not -- must produce
the same ``model.digest``.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--size tiny`` is the smoke mode: the same workloads shrunk to run in
about a second each.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from probe import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sort-allpairs", "sort-external", "stream-fleet")

#: Fewest repetitions an untraced run makes, however short
#: ``--seconds``.
MIN_REPS = 3
#: Set-up-only children per untraced run, so ``setup_s`` is a median
#: over SETUP_PROBES + 1 fresh processes.
SETUP_PROBES = 4
#: A child that runs this long past its budget is killed and the run fails.
CHILD_TIMEOUT_S = 90.0

#: (name, unit, better) of every end-to-end metric (``--trace 0``).
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

#: (name, unit, better) of every per-layer metric (``--trace 1``).
PER_LAYER = [
    ("simcore.engine.steps", "count", "lower"),
    ("simcore.engine.self_s", "s", "lower"),
    ("simcore.resources.transfers", "count", "lower"),
    ("simcore.resources.bytes", "bytes", "lower"),
    ("simcore.resources.self_s", "s", "lower"),
    ("simcore.resources.sim_busy_s", "sim_s", "lower"),
    ("futures.object_store.allocs", "count", "lower"),
    ("futures.object_store.frees", "count", "lower"),
    ("futures.object_store.evictions", "count", "lower"),
    ("futures.object_store.self_s", "s", "lower"),
    ("futures.spilling.spills", "count", "lower"),
    ("futures.spilling.restores", "count", "lower"),
    ("futures.spilling.bytes_per_file", "bytes/file", "higher"),
    ("futures.spilling.self_s", "s", "lower"),
    ("futures.node_manager.fetches", "count", "lower"),
    ("futures.node_manager.remote_frac", "ratio", "lower"),
    ("futures.node_manager.self_s", "s", "lower"),
    ("futures.runtime.submits", "count", "lower"),
    ("futures.runtime.waits", "count", "lower"),
    ("futures.runtime.self_s", "s", "lower"),
    ("futures.scheduler.dispatches", "count", "lower"),
    ("futures.scheduler.self_s", "s", "lower"),
    ("futures.driver.handoffs", "count", "lower"),
    ("futures.driver.parked_s", "s", "lower"),
    ("futures.driver.self_s", "s", "lower"),
    ("obs.events.emits", "count", "lower"),
    ("obs.events.retained", "count", "lower"),
    ("obs.events.self_s", "s", "lower"),
    ("obs.registry.calls", "count", "lower"),
    ("obs.registry.self_s", "s", "lower"),
    ("shuffle.self_s", "s", "lower"),
    ("sort.ops.self_s", "s", "lower"),
    ("sort.validate_s", "s", "lower"),
    ("jobs.admission.calls", "count", "lower"),
    ("jobs.admission.self_s", "s", "lower"),
    ("jobs.self_s", "s", "lower"),
    ("streaming.rounds", "count", "lower"),
    ("streaming.self_s", "s", "lower"),
    ("model.sim_s", "sim_s", "lower"),
    ("model.sim_jct_s", "sim_s", "lower"),
    ("model.latency_p50_s", "sim_s", "lower"),
    ("model.latency_p99_s", "sim_s", "lower"),
    ("model.tasks", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.attributed_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


# ---------------------------------------------------------------------------
# child: the repetitions of one run, in one process
# ---------------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import probe
    import workloads

    prepared = workloads.prepare(args.workload, args.seed, args.size)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # Cycles of a reference run and repetitions (untraced, or untraced
    # then traced) while one more cycle still fits the budget.
    reps: List[Dict[str, Any]] = []
    cycle = (False, True) if args.trace else (False,)
    at_least = 1 if args.trace else MIN_REPS
    deadline = args.spawned_at + args.budget
    lengths: List[float] = []
    last_tracer = None
    while len(lengths) < at_least or time.monotonic() + median(lengths) <= deadline:
        begun = time.monotonic()
        gc.collect()
        reference_s = probe.reference_run()
        for trace in cycle:
            if reps:
                prepared = workloads.prepare(args.workload, args.seed, args.size)
            rep, tracer = repetition(workloads, prepared, args, trace)
            rep["reference_s"] = reference_s
            reps.append(rep)
            last_tracer = tracer or last_tracer
        lengths.append(time.monotonic() - begun)
    result: Dict[str, Any] = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reps": reps,
    }
    if last_tracer is not None:
        result["spans"] = last_tracer.span_count
        if args.spans_out:
            last_tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


def repetition(workloads: Any, prepared: Any, args: argparse.Namespace,
               trace: bool) -> Tuple[Dict[str, Any], Any]:
    """Run the program once on ``prepared`` and check it; returns the
    repetition's record and, when traced, its tracer."""
    # Collect the previous repetition's garbage outside the timed part.
    gc.collect()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}/seed{args.seed}/{args.size}")
        tracer.install()
    try:
        outcome, wall_s = workloads.timed_execute(prepared)
    finally:
        if tracer is not None:
            tracer.remove()
    rep: Dict[str, Any] = {
        "wall_s": wall_s,
        "traced": trace,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "digest": workloads.model_digest(outcome),
    }
    if tracer is not None:
        layers = layer_metrics(tracer, prepared.runtime, outcome, wall_s)
        problems = tracer.check_nesting()
        steps = workloads.engine_steps(prepared.runtime)
        if steps != layers["simcore.engine.steps"]:
            problems.append(
                f"traced {layers['simcore.engine.steps']} engine steps, "
                f"but the engine processed {steps}"
            )
        if layers["trace.attributed_frac"] > 1:
            problems.append(
                f"layer self times sum to {layers['trace.attributed_frac']:.4f}"
                " of the traced wall time"
            )
        rep["layers"] = layers
        rep["problems"] = problems
    return rep, tracer


def layer_metrics(tracer: Any, rt: Any, outcome: Any, wall_s: float) -> Dict[str, float]:
    """Per-layer counts and self times of one traced repetition."""
    layers = tracer.layer_totals()
    calls = tracer.calls_of
    stats = rt.stats()
    spill_files = stats.get("spill_files", 0)
    ensure_local = calls("NodeManager.ensure_local")
    links = [
        link for node in rt.cluster.nodes
        for link in (node.disk, node.nic_in, node.nic_out)
    ]
    out = {
        "simcore.engine.steps": calls("Environment.step"),
        "simcore.resources.transfers": calls("BandwidthResource.transfer"),
        "simcore.resources.bytes": sum(link.bytes_served for link in links),
        "simcore.resources.sim_busy_s": sum(link.busy_seconds for link in links),
        "futures.object_store.allocs": (
            calls("ObjectStore.allocate") + calls("ObjectStore.try_allocate")
        ),
        "futures.object_store.frees": calls("ObjectStore.free"),
        "futures.object_store.evictions": sum(
            manager.store.cached_evictions for manager in rt.node_managers.values()
        ),
        "futures.spilling.spills": spill_files,
        "futures.spilling.restores": calls("SpillManager.restore_read"),
        "futures.spilling.bytes_per_file": (
            stats.get("spill_bytes_written", 0) / spill_files if spill_files else 0.0
        ),
        "futures.node_manager.fetches": stats.get("fetched_objects", 0),
        "futures.node_manager.remote_frac": (
            stats.get("fetched_objects", 0) / ensure_local if ensure_local else 0.0
        ),
        "futures.runtime.submits": calls("Runtime.submit_task"),
        "futures.runtime.waits": calls("Runtime.get") + calls("Runtime.wait"),
        "futures.scheduler.dispatches": calls("Scheduler.dispatch"),
        "futures.driver.handoffs": calls("DriverHost.block_on"),
        "futures.driver.parked_s": tracer.seconds_of("DriverHost.block_on"),
        "obs.events.emits": calls("EventBus.emit"),
        "obs.events.retained": len(rt.bus.events),
        "obs.registry.calls": layers["obs.registry"]["calls"],
        "sort.validate_s": layers["sort.validate"]["self_s"],
        "jobs.admission.calls": layers["jobs.admission"]["calls"],
        "streaming.rounds": calls("RoundDriver.submit_round"),
        "trace.wall_s": wall_s,
    }
    for layer, row in layers.items():
        if layer != "sort.validate":
            out[f"{layer}.self_s"] = row["self_s"]
    attributed = sum(row["self_s"] for row in layers.values())
    out["trace.attributed_frac"] = attributed / wall_s
    for key in ("sim_s", "sim_jct_s", "latency_p50_s", "latency_p99_s", "tasks"):
        out[f"model.{key}"] = outcome.model[key]
    return out


# ---------------------------------------------------------------------------
# parent: repetitions, medians, checks, report
# ---------------------------------------------------------------------------
class ChildFailed(RuntimeError):
    """A repetition's process crashed or timed out (not a failed job)."""


def spawn(args: argparse.Namespace, *, setup_only: bool = False,
          budget: float = 0.0, spans_out: str = "") -> Dict[str, Any]:
    """Run a child interpreter (a set-up probe, or the repetitions of
    one run within ``budget`` seconds of its start); returns its result."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--trace", str(int(args.trace)),
        "--budget", repr(budget), "--spans-out", spans_out,
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.monotonic())]
    # A fixed hash seed keeps dict and set layouts, and so the host work
    # they cost, the same from one run to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = budget + CHILD_TIMEOUT_S
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout,
            cwd=str(ROOT), env=env,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child ran past {timeout:g}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"child exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def run_untraced(args: argparse.Namespace) -> Dict[str, Any]:
    start = time.monotonic()
    setups = [spawn(args, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    child = spawn(args, budget=args.seconds - (time.monotonic() - start))
    setups.append(child["setup_s"])
    reps = child["reps"]
    walls = [rep["wall_s"] for rep in reps]
    references = [rep["reference_s"] for rep in reps]
    # Each repetition in reference-host seconds: its wall time over the
    # reference run of its own cycle, times REFERENCE_S.
    scaled = [rep["wall_s"] / rep["reference_s"] * REFERENCE_S for rep in reps]
    metrics = {
        "wall_s": median(scaled),
        "setup_s": median(setups) / median(references) * REFERENCE_S,
        "peak_rss_mb": child["peak_rss_mb"],
    }
    samples = {"host wall_s": walls, "host setup_s": setups,
               "reference_s": references}
    return {"reps": reps, "metrics": metrics, "samples": samples,
            "problems": []}


def run_traced(args: argparse.Namespace) -> Dict[str, Any]:
    out_dir = Path(args.spans_dir) if args.spans_dir else ROOT / ".perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_out = str(out_dir / f"{args.workload}.spans.jsonl.gz")
    child = spawn(args, budget=args.seconds, spans_out=spans_out)
    plain = [rep for rep in child["reps"] if not rep["traced"]]
    traced = [rep for rep in child["reps"] if rep["traced"]]
    problems = [problem for rep in traced for problem in rep["problems"]]
    metrics = {
        name: median([rep["layers"][name] for rep in traced])
        for name, _unit, _better in PER_LAYER
        if name != "trace.overhead_frac"
    }
    metrics["trace.overhead_frac"] = (
        median([rep["wall_s"] for rep in traced])
        / median([rep["wall_s"] for rep in plain]) - 1.0
    )
    samples = {"trace.wall_s": [rep["wall_s"] for rep in traced],
               "untraced wall_s": [rep["wall_s"] for rep in plain]}
    return {"reps": child["reps"], "metrics": metrics, "samples": samples,
            "problems": problems, "spans_out": spans_out,
            "spans": child["spans"]}


def recorded_digest(workload: str, seed: int, size: str) -> Optional[str]:
    expected = json.loads((HERE / "expected.json").read_text())
    return expected["digests"].get(size, {}).get(workload, {}).get(str(seed))


def parent_main(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    try:
        run = run_traced(args) if args.trace else run_untraced(args)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    reps = run["reps"]
    attempted = sum(rep["attempted"] for rep in reps)
    failures = [f for rep in reps for f in rep["failures"]]
    digests = sorted({rep["digest"] for rep in reps})
    problems = list(run["problems"])
    if len(digests) != 1:
        problems.append(f"model.digest differs between repetitions: {digests}")

    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {int(args.trace)}  repetitions {len(reps)}")
    for name, values in run["samples"].items():
        print(f"  samples {name}: " + " ".join(f"{v:.4f}" for v in values))
    for name, value in run["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    failed_frac = len(failures) / attempted
    print(f"  failed_frac = {failed_frac:.6g} ratio "
          f"({len(failures)} of {attempted} jobs)")
    recorded = recorded_digest(args.workload, args.seed, args.size)
    note = ("no recorded value for this seed" if recorded is None
            else "matches the recorded value" if digests == [recorded]
            else f"differs from the recorded {recorded}: the model changed")
    print(f"  model.digest = {digests[0] if len(digests) == 1 else digests} ({note})")
    if args.trace:
        print(f"  spans: {run['spans']} written to {run['spans_out']}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in run["metrics"].items()
        },
    }))
    return 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="the workload to run (default: each in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans-dir", default="",
                        help="where traced runs write spans "
                             "(default: .perfbench-out/ at the repo root)")
    # Internal: one repetition in a child process.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", default="", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()
    if args.child:
        return child_main(args)
    if args.workload is not None:
        return parent_main(args)
    codes = [
        parent_main(argparse.Namespace(**{**vars(args), "workload": workload}))
        for workload in WORKLOADS
    ]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
