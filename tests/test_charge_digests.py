"""Pinned per-job and global counter values.

Every charge (task-attributed via ``Runtime.charge_task``,
object-attributed spill I/O via ``Runtime.charge_object``) and every
unattributed counter lands in ``rt.stats()`` and ``rt.job_stats()``.
These tests hash both, as sorted JSON, for two multi-job runs and
compare against digests recorded before the counter store was folded
into the metric registry, so any change to a per-job or global value
-- or to the set of keys -- shows.
"""

import hashlib
import json

from repro.chaos import FaultKind, matrix_plan
from repro.chaos.harness import default_node_spec
from repro.common.units import MIB
from repro.futures import RetryPolicy, Runtime
from repro.jobs import mixed_workload, run_jobs

SPILL_STATS_DIGEST = (
    "5e7d01d14fa6bbd04fe4301f1f30fa14008320e606228c3c3cd2ebb06a244840"
)
SPILL_JOB_STATS_DIGEST = (
    "45a77cefc3b061e872ee728952d1cff0157e8fb7490be33549cea7927b6155ff"
)
CHAOS_STATS_DIGEST = (
    "3bab1762dea87b1e5dcf1e2d6f2f7d3360bfa5a8d87c69f25112b2ae77ec7277"
)
CHAOS_JOB_STATS_DIGEST = (
    "947662c7a0f7740368bcce85b4fe5bae3afb2beb5df80836eabd717f56b8fa67"
)


def _digest(value):
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _spill_job(rt, chunks):
    produce = rt.remote(lambda: bytes(MIB), compute=0.01)
    refs = [produce.remote() for _ in range(chunks)]
    rt.get(refs)
    return chunks


def _spilling_two_job_run():
    rt = Runtime.create(default_node_spec().with_object_store(4 * MIB), 2)

    def driver():
        handles = [
            rt.spawn_driver(_spill_job, rt, 10, name=f"job:{label}", label=label)
            for label in ("tenant-a/sort", "tenant-b/sort")
        ]
        return [rt.join_driver(h) for h in handles]

    assert rt.run(driver) == [10, 10]
    rt.env.run()
    return rt


def test_spilling_run_counters_are_pinned():
    rt = _spilling_two_job_run()
    stats, job_stats = rt.stats(), rt.job_stats()
    # The run exercises both charge paths in both jobs.
    assert stats["spill_bytes_written"] > 0 and stats["spill_bytes_read"] > 0
    for label in ("tenant-a/sort", "tenant-b/sort"):
        assert job_stats[label]["tasks_finished"] == 10
        assert job_stats[label]["spill_bytes_read"] > 0
    assert _digest(stats) == SPILL_STATS_DIGEST
    assert _digest(job_stats) == SPILL_JOB_STATS_DIGEST


def test_chaos_jobs_run_counters_are_pinned():
    tenants, specs = mixed_workload(2, num_jobs=4)
    report = run_jobs(
        specs,
        tenants,
        plan=matrix_plan(FaultKind.NODE_CRASH, seed=2),
        retry_policy=RetryPolicy(max_attempts=8),
    )
    assert report.ok
    assert report.stats["tasks_resubmitted"] > 0
    assert len(report.job_stats) >= 4
    assert _digest(report.stats) == CHAOS_STATS_DIGEST
    assert _digest(report.job_stats) == CHAOS_JOB_STATS_DIGEST
