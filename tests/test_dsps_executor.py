"""The bolt working thread: a FIFO server on the simulator's call lane."""

import pytest

from repro.dsps import AllGrouping, Bolt, DspsSystem, Spout, Topology, storm_config
from repro.dsps.comm import Envelope
from repro.dsps.tuples import AddressedTuple, StreamTuple
from repro.net import Cluster
from repro.net import cpu as cats
from repro.trace import MemoryTracer

SERVICE_S = 50e-6


class IdleSpout(Spout):
    def next_tuple(self):  # pragma: no cover - arrivals are empty
        return {}, None, 100


class RelayBolt(Bolt):
    """Forwards every tuple downstream, so a lost execution shows up as
    a missing emit."""

    base_service_s = SERVICE_S

    def __init__(self):
        self.executed = []

    def execute(self, tup, collector):
        self.executed.append(tup.tuple_id)
        collector.emit(values=tup.values, anchor=tup)


class Sink(Bolt):
    pass


def make_system(config, tracer=None):
    """A broadcast spout -> relay -> sink chain, with no arrivals: the
    tests feed the relay executor by hand."""
    topo = Topology("server")
    topo.add_spout("src", IdleSpout)
    topo.add_bolt("relay", RelayBolt, parallelism=2,
                  inputs={"src": AllGrouping()})
    topo.add_bolt("sink", Sink, parallelism=1,
                  inputs={"relay": AllGrouping()}, terminal=True)
    system = DspsSystem(topo, config, cluster=Cluster(2, 1, 16),
                        arrivals={"src": lambda _now: None}, tracer=tracer)
    system.start()
    system.sim.run(until=1e-9)  # bootstrap the spout and sending threads
    return system


def spout_tuple(system, seq):
    """A one-to-many spout tuple to both relays, registered with the
    acker like a real emission."""
    spout = system.spout_executors[0]
    tup = StreamTuple(stream="src", values={"seq": seq}, payload_bytes=100,
                      created_at=system.sim.now, source_operator="src")
    tasks = system.placement.tasks_of["relay"]
    system.reliability.register(
        spout, Envelope(tuple=tup, dst_operator="relay", dst_tasks=tasks,
                        one_to_many=True)
    )
    return tup


def relay(system):
    return system.operator_executors("relay")[0]


def processing_cpu(executor):
    return executor.cpu.busy_s.get(cats.PROCESSING, 0.0)


def test_exactly_once_duplicate_queued_behind_original_is_suppressed():
    system = make_system(storm_config().with_overrides(delivery="exactly_once"))
    ex = relay(system)
    tup = spout_tuple(system, 1)
    ex.accept(AddressedTuple(ex.task_id, tup))
    # a replayed copy lands while the original is in service
    assert ex.accept(AddressedTuple(ex.task_id, tup))
    assert ex.busy and ex.queued == 1
    system.sim.run(until=system.sim.now + 10 * SERVICE_S)
    assert ex.bolt.executed == [tup.tuple_id]
    assert system.reliability.duplicates_suppressed == 1
    assert system.reliability.duplicate_executions == 0
    # the duplicate was dropped at service start: one service charged
    assert processing_cpu(ex) == pytest.approx(SERVICE_S)
    assert not ex.busy and ex.queued == 0


def test_crash_mid_service_charges_cpu_and_drops_output_ack_and_backlog():
    system = make_system(storm_config().with_overrides(delivery="at_least_once"))
    ex = relay(system)
    acks = []
    notify = system.reliability.notify_executed
    system.reliability.notify_executed = (
        lambda task, tup: acks.append(task) or notify(task, tup)
    )
    for seq in (1, 2, 3):
        ex.accept(AddressedTuple(ex.task_id, spout_tuple(system, seq)))
    assert ex.queued == 2
    sim = system.sim
    sim.schedule_call(SERVICE_S / 2,
                      lambda: system.crash_machine(ex.machine_id))
    sim.run(until=sim.now + 0.75 * SERVICE_S)
    # the backlog died with the machine; the tuple in service runs on
    assert ex.busy and ex.queued == 0
    sim.run(until=sim.now + 10 * SERVICE_S)
    # its CPU was spent, but its output and ack died
    assert processing_cpu(ex) == pytest.approx(SERVICE_S)
    assert ex.bolt.executed == [] and ex.emitted == 0 and ex.processed == 0
    assert acks == []
    assert not ex.busy


def test_traced_bolt_costs_one_engine_event_per_executed_tuple(monkeypatch):
    from repro.sim import Simulator

    system = make_system(storm_config(), tracer=MemoryTracer(categories=()))
    sink = system.operator_executors("sink")[0]
    assert not sink._lazy  # traced: the per-tuple server
    n = 25
    for seq in range(n):
        tup = StreamTuple(stream="relay", values={"seq": seq},
                          payload_bytes=100, source_operator="relay")
        sink.accept(AddressedTuple(sink.task_id, tup))
    steps = [0]
    step = Simulator.step

    def counted(sim):
        steps[0] += 1
        step(sim)

    monkeypatch.setattr(Simulator, "step", counted)
    system.sim.run()
    assert sink.processed == n
    assert steps[0] == n
