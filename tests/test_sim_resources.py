"""Unit tests for FIFO resources and broadcast events."""

import pytest

from repro.sim import (
    Delay,
    Engine,
    Resource,
    Service,
    SimEvent,
    SimulationError,
    Wait,
)


def _run_jobs(capacity, durations):
    """Run one job per duration through a shared resource; return finish times."""
    eng = Engine()
    resource = Resource(eng, capacity=capacity)
    finished = {}

    def job(name, duration):
        yield Service(resource, duration)
        finished[name] = eng.now

    for i, duration in enumerate(durations):
        eng.process(job(i, duration))
    eng.run()
    return finished


class TestService:
    def test_single_server_serializes_fifo(self):
        finished = _run_jobs(1, [2.0, 1.0, 1.0])
        # FIFO: job 1 waits for job 0 even though it is shorter.
        assert finished == {0: 2.0, 1: 3.0, 2: 4.0}

    def test_two_servers_overlap(self):
        finished = _run_jobs(2, [2.0, 1.0, 1.0])
        assert finished == {0: 2.0, 1: 1.0, 2: 2.0}

    def test_capacity_bounds_concurrency(self):
        eng = Engine()
        resource = Resource(eng, capacity=2)
        peak = [0]

        def job():
            yield Service(resource, 1.0)

        def monitor():
            for _ in range(10):
                peak[0] = max(peak[0], resource.busy)
                yield Delay(0.25)

        for _ in range(6):
            eng.process(job())
        eng.process(monitor())
        eng.run()
        assert peak[0] == 2

    def test_zero_duration_service(self):
        finished = _run_jobs(1, [0.0, 0.0])
        assert finished == {0: 0.0, 1: 0.0}

    def test_negative_duration_rejected(self):
        eng = Engine()
        resource = Resource(eng, capacity=1)
        with pytest.raises(SimulationError):
            Service(resource, -1.0)

    def test_jobs_served_counter(self):
        eng = Engine()
        resource = Resource(eng, capacity=1)

        def job():
            yield Service(resource, 1.0)

        for _ in range(4):
            eng.process(job())
        eng.run()
        assert resource.jobs_served == 4

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), capacity=0)


class TestUtilization:
    def test_fully_busy_single_server(self):
        eng = Engine()
        resource = Resource(eng, capacity=1)

        def job():
            yield Service(resource, 5.0)

        eng.process(job())
        eng.run()
        assert resource.busy_time() == pytest.approx(5.0)
        assert resource.utilization() == pytest.approx(1.0)

    def test_half_busy(self):
        eng = Engine()
        resource = Resource(eng, capacity=1)

        def job():
            yield Delay(5.0)
            yield Service(resource, 5.0)

        eng.process(job())
        eng.run()
        assert resource.utilization() == pytest.approx(0.5)

    def test_multi_server_utilization_normalized_by_capacity(self):
        eng = Engine()
        resource = Resource(eng, capacity=2)

        def job():
            yield Service(resource, 4.0)

        eng.process(job())  # only one of two servers busy
        eng.run()
        assert resource.utilization() == pytest.approx(0.5)


class TestSimEvent:
    def test_wait_then_trigger(self):
        eng = Engine()
        event = SimEvent(eng)
        log = []

        def waiter(name):
            value = yield Wait(event)
            log.append((name, value, eng.now))

        def trigger():
            yield Delay(2.0)
            event.trigger("payload")

        eng.process(waiter("w1"))
        eng.process(waiter("w2"))
        eng.process(trigger())
        eng.run()
        assert log == [("w1", "payload", 2.0), ("w2", "payload", 2.0)]

    def test_wait_on_already_triggered_event_resumes_immediately(self):
        eng = Engine()
        event = SimEvent(eng)
        event.trigger(7)
        log = []

        def waiter():
            value = yield Wait(event)
            log.append((value, eng.now))

        eng.process(waiter())
        eng.run()
        assert log == [(7, 0.0)]

    def test_double_trigger_rejected(self):
        eng = Engine()
        event = SimEvent(eng)
        event.trigger()
        with pytest.raises(SimulationError):
            event.trigger()

    def test_waiter_count(self):
        eng = Engine()
        event = SimEvent(eng)

        def waiter():
            yield Wait(event)

        eng.process(waiter())
        eng.run(until=0.5)
        assert event.waiter_count == 1
        event.trigger()
        eng.run()
        assert event.waiter_count == 0
