"""Edge cases in the simulation engine not covered by the basics."""

import pytest

from repro.simcore import Environment
from repro.simcore.events import AnyOf, Event


def test_any_of_fails_only_when_all_children_fail():
    env = Environment()
    a, b = env.event(), env.event()
    caught = []

    def proc():
        try:
            yield env.any_of([a, b])
        except KeyError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.call_later(1.0, lambda: a.fail(KeyError("first")))
    env.call_later(2.0, lambda: b.fail(KeyError("second")))
    env.run()
    assert caught == ["'first'"]  # first error observed wins


def test_any_of_succeeds_despite_one_failure():
    env = Environment()
    a, b = env.event(), env.event()
    results = []

    def proc():
        value = yield env.any_of([a, b])
        results.append((env.now, value))

    env.process(proc())
    env.call_later(1.0, lambda: a.fail(KeyError("oops")))
    env.call_later(2.0, lambda: b.succeed("ok"))
    env.run()
    assert results == [(2.0, "ok")]


def test_event_value_before_trigger_rejected():
    env = Environment()
    with pytest.raises(RuntimeError):
        env.event().value


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_run_until_in_past_rejected():
    env = Environment()
    env.call_later(5.0, lambda: None)
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_interrupt_before_first_step_kills_process():
    env = Environment()
    log = []

    def body():
        log.append("ran")
        yield env.timeout(1.0)

    proc = env.process(body())
    proc.interrupt("early")
    env.run()
    # The process never caught the interrupt: it dies without running
    # further, and nothing after the yield executes.
    assert proc.triggered
    assert not proc.ok


def test_callback_ordering_is_fifo_at_same_time():
    env = Environment()
    order = []
    for tag in ("a", "b", "c"):
        env.call_later(1.0, lambda t=tag: order.append(t))
    env.run()
    assert order == ["a", "b", "c"]


def test_add_callback_on_processed_event_fires_later_same_time():
    env = Environment()
    gate = env.event()
    gate.succeed("v")
    env.run(until=2.0)
    seen = []
    gate.add_callback(lambda e: seen.append((env.now, e.value)))
    assert seen == []  # deferred to the next step, not synchronous
    env.run()
    assert seen == [(2.0, "v")]


def test_peek_on_empty_queue_is_inf():
    assert Environment().peek() == float("inf")


def test_process_completion_event_exposes_ok():
    env = Environment()

    def fine():
        yield env.timeout(1.0)
        return "x"

    proc = env.process(fine())
    env.run()
    assert proc.ok and proc.value == "x"


def test_all_of_with_processed_child_fails_on_same_instant_failure():
    # A child already processed at construction used to knock the
    # pending count out of step, so the AllOf fired while ``c`` was only
    # triggered and read its error out of ``Environment.step``.
    env = Environment()
    a = env.event()
    a.succeed("a")
    env.run()
    b, c = env.event(), env.event()
    both = env.all_of([a, b, c])

    def trigger():
        b.succeed("b")
        c.fail(ValueError("c failed"))

    env.call_later(1.0, trigger)
    env.run()
    assert both.processed and not both.ok
    assert isinstance(both.exception, ValueError)


def test_all_of_with_processed_child_waits_for_every_child():
    env = Environment()
    a = env.event()
    a.succeed("a")
    env.run()
    b, c = env.event(), env.event()
    both = env.all_of([a, b, c])

    def trigger():
        b.succeed("b")
        c.succeed("c")

    env.call_later(1.0, trigger)
    # Runs right after the AllOf has seen ``b``; ``c`` is triggered but
    # not yet processed, so the AllOf must not have fired yet.
    seen = []
    b.add_callback(lambda e: seen.append(both.triggered))
    env.run()
    assert seen == [False]
    assert both.value == ["a", "b", "c"]


def test_all_of_over_processed_children_reports_a_failed_one():
    env = Environment()
    a, b = env.event(), env.event()
    a.succeed("a")
    b.fail(KeyError("b"))
    env.run()
    both = env.all_of([a, b])
    env.run()
    assert both.processed and not both.ok
    assert isinstance(both.exception, KeyError)
