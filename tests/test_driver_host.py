"""The driver/simulation handoff: misuse, deadlocks, sequential runs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.futures.driver import DriverError, DriverHost
from repro.simcore import Environment

from tests.conftest import make_runtime


class TestDriverHost:
    def test_result_and_time_flow(self):
        env = Environment()
        host = DriverHost(env)

        def driver():
            host.block_on(env.timeout(5.0, value="woke"))
            return env.now

        assert host.run(driver) == 5.0

    def test_block_on_returns_event_value(self):
        env = Environment()
        host = DriverHost(env)

        def driver():
            return host.block_on(env.timeout(1.0, value=123))

        assert host.run(driver) == 123

    def test_failed_event_raises_in_driver(self):
        env = Environment()
        host = DriverHost(env)
        gate = env.event()
        env.call_later(1.0, lambda: gate.fail(ValueError("nope")))

        def driver():
            with pytest.raises(ValueError, match="nope"):
                host.block_on(gate)
            return "survived"

        assert host.run(driver) == "survived"

    def test_deadlock_reported(self):
        env = Environment()
        host = DriverHost(env)
        never = env.event()

        def driver():
            host.block_on(never)

        with pytest.raises(DriverError, match="deadlock"):
            host.run(driver)

    def test_block_on_outside_driver_rejected(self):
        env = Environment()
        host = DriverHost(env)
        with pytest.raises(DriverError):
            host.block_on(env.timeout(1.0))

    def test_sequential_runs_reuse_host(self):
        rt = make_runtime(num_nodes=1)
        inc = rt.remote(lambda x: x + 1)
        first = rt.run(lambda: rt.get(inc.remote(1)))
        second = rt.run(lambda: rt.get(inc.remote(first)))
        assert (first, second) == (2, 3)
        # simulated time accumulates across runs
        assert rt.now > 0

    def test_driver_exception_cleans_up_for_next_run(self):
        rt = make_runtime(num_nodes=1)

        def bad():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            rt.run(bad)
        assert rt.run(lambda: "fine") == "fine"


# -- handoff order: ready queue vs the linear scan it replaced -------------


class _LinearScanHost(DriverHost):
    """Reference selection rule: scan every driver in spawn order."""

    def _next_runnable(self):
        for channel in self._order:
            if channel.runnable:
                return channel
        return None


#: One driver step: sleep, wait on a shared gate (possibly already
#: processed or failed), re-wait on the last processed wake, spawn the
#: next child, join the oldest unjoined child, or fail after joining.
_op = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.5, 1.0])),
    st.tuples(st.just("gate"), st.integers(0, 3)),
    st.tuples(st.just("again")),
    st.tuples(st.just("spawn")),
    st.tuples(st.just("join")),
    st.tuples(st.just("fail")),
)
_schedule = st.fixed_dictionaries(
    {
        "programs": st.lists(
            st.lists(_op, max_size=6), min_size=1, max_size=10
        ),
        # (trigger time, succeeds?) of each shared gate event
        "gates": st.lists(
            st.tuples(st.sampled_from([0.0, 0.5, 1.5]), st.booleans()),
            min_size=4,
            max_size=4,
        ),
    }
)


def _children(programs):
    """Static spawn tree: driver i's k-th spawn starts the next unused
    program (None once programs run out)."""
    nxt, out = 1, []
    for program in programs:
        kids = []
        for op in program:
            if op[0] == "spawn":
                kids.append(nxt if nxt < len(programs) else None)
                nxt += 1
        out.append(kids)
    return out


def _run_schedule(host_cls, schedule):
    """Run ``schedule`` on a fresh host; return (handoffs, result,
    final time, events scheduled)."""
    env = Environment()
    host = host_cls(env)
    programs = schedule["programs"]
    children = _children(programs)
    gates = []
    for when, ok in schedule["gates"]:
        gate = env.event()
        if ok:
            env.call_later(when, lambda g=gate: g.succeed("open"))
        else:
            env.call_later(when, lambda g=gate: g.fail(ValueError("closed")))
        gates.append(gate)
    handoffs = []
    hand_off = host._hand_off

    def recording_hand_off(channel):
        handoffs.append((channel.name, env.now))
        hand_off(channel)

    host._hand_off = recording_hand_off

    def body(index):
        log, handles = [], []
        kids = iter(children[index])
        last = None

        def wait(event):
            nonlocal last
            try:
                log.append(host.block_on(event))
            except ValueError as exc:
                log.append(f"err:{exc}")
            last = event

        def join_oldest():
            try:
                log.append(host.join(handles.pop(0)))
            except RuntimeError as exc:
                log.append(f"failed:{exc}")

        def join_all():
            while handles:
                join_oldest()

        for op in programs[index]:
            if op[0] == "sleep":
                wait(env.timeout(op[1]))
            elif op[0] == "gate":
                wait(gates[op[1]])
            elif op[0] == "again" and last is not None:
                wait(last)  # already processed: straight back to the queue
            elif op[0] == "spawn":
                kid = next(kids)
                if kid is not None:
                    handles.append(host.spawn(body, kid, name=f"d{kid}"))
            elif op[0] == "join" and handles:
                join_oldest()
            elif op[0] == "fail" and index > 0:
                join_all()
                raise RuntimeError(f"d{index}")
        join_all()
        return (index, env.now, log)

    result = host.run(body, 0)
    return handoffs, result, env.now, next(env._seq)


@settings(max_examples=60, deadline=None)
@given(_schedule)
def test_ready_queue_handoff_order_matches_linear_scan(schedule):
    assert _run_schedule(DriverHost, schedule) == _run_schedule(
        _LinearScanHost, schedule
    )


def test_wake_callback_of_aborted_run_does_not_leak_into_next_run():
    env = Environment()
    host = DriverHost(env)
    late = env.event()

    def stuck():
        host.spawn(lambda: host.block_on(late), name="orphan")
        host.block_on(env.timeout(0.0))  # the orphan parks on ``late``
        raise KeyError("primary gives up")

    with pytest.raises(KeyError):
        host.run(stuck)
    # The orphan's wake fires during the next run; it must not be
    # scheduled there (its index would name another driver).
    env.call_later(0.5, lambda: late.succeed("late"))
    order = []
    hand_off = host._hand_off
    host._hand_off = lambda channel: (order.append(channel.name), hand_off(channel))

    def driver():
        host.block_on(env.timeout(1.0))
        return "ok"

    assert host.run(driver) == "ok"
    assert order == ["driver", "driver"]
