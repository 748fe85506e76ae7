"""The fair-share dispatch pump: heap picks equal the min-scan picks.

``FairShareDispatchPolicy`` keeps the jobs with parked work in a heap
keyed by ``(vtime, job)`` and checks entries lazily when it pops them.
``_MinScanFairShare`` keeps the original rule -- rescan every job queue
and take the ``min`` over the eligible ones -- and random operation
sequences must get identical answers from both.
"""

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.futures.policies.base import DispatchContext, DispatchOutcome
from repro.futures.policies.defaults import FairShareDispatchPolicy
from repro.futures.task import TaskPhase
from repro.jobs import JobManager, JobSpec, JobState, TenantQuota, TenantSpec

from tests.conftest import make_runtime


class _MinScanFairShare(FairShareDispatchPolicy):
    """Reference selection rule: scan every job queue per launch."""

    def _eligible(self, job_id):
        if not self._queues[job_id]:
            return False
        tenant = self._tenant_of.get(job_id)
        if tenant is None:
            return True
        cap = self._tenant_caps.get(tenant)
        return cap is None or self._inflight_by_tenant[tenant] < cap

    def _pump(self, ctx):
        launch, picks = [], []
        while len(self._inflight) < ctx.total_slots:
            candidates = [job for job in self._queues if self._eligible(job)]
            if not candidates:
                break
            best = min(candidates, key=lambda job: (self._vtime[job], job))
            record = self._queues[best].popleft()
            if record.phase in (TaskPhase.FINISHED, TaskPhase.FAILED):
                continue
            self._vclock = self._vtime[best]
            self._vtime[best] += 1.0 / self._weights[best]
            self._inflight[record] = best
            self._inflight_by_job[best] = self._inflight_by_job.get(best, 0) + 1
            tenant = self._tenant_of.get(best)
            if tenant is not None:
                self._inflight_by_tenant[tenant] += 1
            launch.append(record)
            picks.append(best)
        return DispatchOutcome(launch=launch, picks=tuple(picks))


class _Record:
    """The slice of a ``TaskRecord`` the dispatch policy reads."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.phase = TaskPhase.WAITING_DEPS

    def __repr__(self) -> str:
        return self.name


_JOBS = ("a", "b", "c")

#: One policy call (or a record state change between calls): kind, job,
#: index, weight, tenant, cap, flag.  Kinds, tenants and caps are
#: weighted so queues fill past the slot budget and tenants hit caps.
_op = st.tuples(
    st.sampled_from(
        ["submit"] * 5 + ["done"] * 3 + ["register"] * 3 + ["unregister"] * 2
        + ["reregister"] * 2 + ["fail_parked"] * 2 + ["retry", "slots"]
    ),
    st.sampled_from(_JOBS),
    st.integers(0, 50),
    st.sampled_from([1.0, 2.0, 0.5]),
    st.sampled_from(["t0", "t0", "t1", None]),
    st.sampled_from([1, 2, None, 1]),
    st.booleans(),
)


def _outcome(outcome: DispatchOutcome):
    return ([r.name for r in outcome.launch], outcome.picks, outcome.parked)


def _check_against_min_scan(ops) -> None:
    """Apply ``ops`` to both policies; every call must agree."""
    heap, scan = FairShareDispatchPolicy(), _MinScanFairShare()
    ctx = DispatchContext(total_slots=2)
    parked: List[_Record] = []
    launched: List[_Record] = []
    registered = set()
    serial = 0
    for op in ops:
        kind, job, index, weight, tenant, cap, flag = op
        results = []
        if kind == "register":
            if job in registered:
                continue
            registered.add(job)
            for policy in (heap, scan):
                policy.register_job(
                    job, weight=weight, tenant=tenant, tenant_task_slots=cap
                )
        elif kind == "submit":
            record = _Record(f"r{serial}")
            serial += 1
            job_id = job if job in registered else None
            for policy in (heap, scan):
                results.append(_outcome(policy.submit(record, job_id, ctx)))
            if results[0][2] is not None:
                parked.append(record)
        elif kind == "retry" and launched:
            # A slot-holding task is re-submitted after an executor loss.
            record = launched[index % len(launched)]
            job_id = heap._inflight.get(record)
            for policy in (heap, scan):
                results.append(_outcome(policy.submit(record, job_id, ctx)))
        elif kind == "done" and launched:
            record = launched.pop(index % len(launched))
            record.phase = TaskPhase.FINISHED
            for policy in (heap, scan):
                results.append(_outcome(policy.task_done(record, ctx)))
        elif kind == "fail_parked" and parked:
            # Often the oldest parked task, likely at its queue's head.
            record = parked.pop(0 if flag else index % len(parked))
            record.phase = TaskPhase.FAILED if index % 2 else TaskPhase.FINISHED
        elif kind in ("unregister", "reregister"):
            registered.discard(job)
            for policy in (heap, scan):
                results.append(_outcome(policy.unregister_job(job, ctx)))
            if kind == "reregister":
                # The same id again, at the current virtual clock.
                registered.add(job)
                for policy in (heap, scan):
                    policy.register_job(
                        job, weight=weight, tenant=tenant,
                        tenant_task_slots=cap,
                    )
        elif kind == "slots":
            ctx = DispatchContext(total_slots=1 + index % 4)
        if results:
            assert results[0] == results[1], op
            for name in results[0][0]:
                record = next((r for r in parked if r.name == name), None)
                if record is not None:
                    parked.remove(record)
                    launched.append(record)
        assert heap._vclock == scan._vclock
        for job in _JOBS:
            assert heap.queued_tasks(job) == scan.queued_tasks(job)
            assert heap.inflight_tasks(job) == scan.inflight_tasks(job)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_op, min_size=10, max_size=80))
def test_heap_pump_matches_min_scan(ops) -> None:
    _check_against_min_scan(ops)


def _step(kind, job="a", index=0, weight=1.0, tenant=None, cap=None,
          flag=False):
    return (kind, job, index, weight, tenant, cap, flag)


#: Hand-written sequences for the cases random ones reach rarely.
_EDGE_CASES = {
    # b's entry from its first registration is still queued at vtime 0
    # when b re-registers at the clock (1.0); it must not be picked.
    "reregistered-id": [
        _step("slots"),  # one slot
        _step("register", "a"), _step("register", "b"),
        _step("submit", "a"), _step("done"), _step("submit", "a"),
        _step("submit", "b"), _step("unregister", "b"),
        _step("register", "b"), _step("submit", "b"), _step("done"),
    ],
    # Dropping a parked task that failed must keep its job's later
    # tasks in the running.
    "dropped-head-record": [
        _step("slots"),
        _step("register", "a"),
        _step("submit", "a"), _step("submit", "a"), _step("submit", "a"),
        _step("fail_parked", flag=True, index=1), _step("done"),
    ],
    # A finishing task takes tenant t0 below its cap of one.
    "tenant-unblock": [
        _step("register", "a", tenant="t0", cap=1),
        _step("register", "b", tenant="t0"),
        _step("submit", "a"), _step("submit", "b"), _step("done"),
    ],
    # Registering b raises tenant t0's cap from one to two.
    "cap-overwrite": [
        _step("slots", index=3),  # four slots
        _step("register", "a", tenant="t0", cap=1),
        _step("register", "c"),
        _step("submit", "a"), _step("submit", "a"),
        _step("register", "b", tenant="t0", cap=2),
        _step("submit", "c"),
    ],
}


@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
def test_heap_pump_matches_min_scan_on_edge_cases(case) -> None:
    _check_against_min_scan(_EDGE_CASES[case])


def test_tenant_cap_blocks_and_unblocks_in_vtime_order() -> None:
    """A job popped while its tenant is at its cap waits out of the heap
    and competes again, at its old vtime, once a slot of that tenant
    frees."""
    policy = FairShareDispatchPolicy()
    ctx = DispatchContext(total_slots=4)
    policy.register_job("a", tenant="t", tenant_task_slots=1)
    policy.register_job("b", tenant="t")
    policy.register_job("c")
    first = _Record("a0")
    assert _outcome(policy.submit(first, "a", ctx))[0] == ["a0"]
    policy.submit(_Record("b0"), "b", ctx)  # blocked: tenant t is at 1
    policy.submit(_Record("c0"), "c", ctx)
    assert policy.queued_tasks("b") == 1
    assert "b" in policy._blocked["t"]
    first.phase = TaskPhase.FINISHED
    outcome = policy.task_done(first, ctx)
    assert _outcome(outcome)[:2] == (["b0"], ("b",))
    assert policy._blocked == {}


def test_fleet_leaves_no_per_job_bookkeeping() -> None:
    """Every per-job map of the policy is empty once a fleet has run, so
    the bookkeeping does not grow with the number of jobs admitted."""
    manager = JobManager(make_runtime(num_nodes=2, store_mib=256))
    for t in range(3):
        manager.add_tenant(TenantSpec(
            name=f"t{t}", quota=TenantQuota(max_task_slots=2 + t)
        ))
    for i in range(9):
        manager.submit(JobSpec(
            name=f"j{i}", tenant=f"t{i % 3}", variant="simple",
            num_maps=4, num_reduces=2, values_per_part=8, seed=i,
        ))
    jobs = manager.run()
    assert all(job.state is JobState.DONE for job in jobs)
    policy = manager.fair.dispatch_policy
    assert policy._queues == {}
    assert policy._weights == {}
    assert policy._tenant_of == {}
    assert policy._vtime == {}
    assert policy._inflight == {}
    assert policy._inflight_by_job == {}
    assert policy._blocked == {}
    assert all(manager.fair.inflight_tasks(job.job_id) == 0 for job in jobs)
