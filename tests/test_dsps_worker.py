"""Worker receive-path edge cases."""

import pytest

from repro.dsps import Bolt, DspsSystem, ShuffleGrouping, Spout, Topology, storm_config
from repro.dsps.tuples import AddressedTuple, StreamTuple
from repro.net import Cluster
from repro.workloads import ConstantArrivals


class OneSpout(Spout):
    def next_tuple(self):
        return {}, None, 100


class SinkBolt(Bolt):
    pass


def make_system():
    topo = Topology("t")
    topo.add_spout("src", OneSpout)
    topo.add_bolt("sink", SinkBolt, parallelism=4, inputs={"src": ShuffleGrouping()})
    return DspsSystem(
        topo,
        storm_config(),
        cluster=Cluster(2, 1, 16),
        arrivals={"src": ConstantArrivals(100.0)},
    )


def test_dispatch_to_unhosted_task_raises():
    system = make_system()
    worker = system.workers[0]
    ghost = AddressedTuple(
        9999, StreamTuple(stream="s", values={}, payload_bytes=10)
    )
    with pytest.raises(LookupError):
        worker.dispatch_local(ghost)


def test_workers_host_only_their_tasks():
    system = make_system()
    for machine_id, worker in system.workers.items():
        for task_id in worker.executors:
            assert system.placement.machine_of[task_id] == machine_id


def test_control_messages_ignored_without_handler():
    """A control message with no registered handler is dropped, not a
    crash (non-adaptive systems never install one)."""
    system = make_system()
    system.start()

    def send_control(sim):
        from repro.net.cpu import CpuAccount

        cpu = CpuAccount(sim, "test")
        yield from system.control_send(0, 1, {"op": "noop"}, cpu)

    system.sim.process(send_control(system.sim))
    system.sim.run(until=0.05)  # must not raise
    assert system.workers[1].messages_received >= 1


def test_worker_counts_dispatches():
    system = make_system()
    system.run_measured(warmup_s=0.0, measure_s=0.5)
    total = sum(w.dispatched for w in system.workers.values())
    assert total == pytest.approx(system.metrics.emitted["src"], abs=2)


# ----------------------------------------------------------------------
# the receive thread: a closed-form FIFO server on the _Call lane
# ----------------------------------------------------------------------
def make_relay_system(**kwargs):
    """RDMC shape, one sink per machine: a relayed packet dispatches once
    and posts once per child."""
    from repro.dsps import AllGrouping
    from repro.dsps.presets import rdmc_config

    topo = Topology("relay")
    topo.add_spout("src", OneSpout)
    topo.add_bolt("sink", SinkBolt, parallelism=6,
                  inputs={"src": AllGrouping()}, terminal=True)
    return DspsSystem(topo, rdmc_config(), cluster=Cluster(8, 1, 16), **kwargs)


def relay_message(system, endpoint):
    """The wire message a tree endpoint receives from its parent."""
    from repro.net.message import WireMessage

    service = system.multicast_services[0]
    tup = StreamTuple(stream="src", values={}, payload_bytes=100)
    packet, size = system.comm.endpoint_packet(service, endpoint, tup)
    prof = system.transport.profile(system.transport.data_verb)
    return WireMessage(payload=packet, size_bytes=size, src_machine=0,
                       dst_machine=service.machine_of(endpoint),
                       recv_cpu_s=prof.receiver_cpu_s)


def endpoint_with(system, relays: bool):
    """A leaf, or an endpoint whose children are all on other machines;
    with its worker and children."""
    service = system.multicast_services[0]
    for ep in service.endpoints:
        children = service.tree.children(ep)
        here = service.machine_of(ep)
        if bool(children) == relays and all(
            service.machine_of(c) != here for c in children
        ):
            return ep, system.workers[here], children
    raise AssertionError("no such endpoint")


def received(msg):
    return msg.recv_cpu_s + msg.payload.deserialize_cpu_s


def test_receive_thread_serves_data_and_control_in_fifo_order():
    from repro.net.message import WireMessage

    system = make_relay_system()
    leaf, worker, _ = endpoint_with(system, relays=False)
    log = []
    worker.dispatch_local = lambda at: log.append((worker.sim.now, at.task_id))
    worker.add_control_handler(lambda p: log.append((worker.sim.now, p)))
    first, last = relay_message(system, leaf), relay_message(system, leaf)
    control = WireMessage(payload="ping", size_bytes=64, src_machine=0,
                          dst_machine=worker.machine_id, kind="control",
                          recv_cpu_s=3e-6)
    for msg in (first, control, last):
        worker.receive(msg)
    assert worker.busy and len(worker.backlog) == 2
    system.sim.run()
    t1 = received(first)
    t2 = t1 + control.recv_cpu_s
    assert [p for _t, p in log] == [leaf[1], "ping", leaf[1]]
    assert [t for t, _p in log] == pytest.approx([t1, t2, t2 + received(last)])
    assert worker.messages_received == 3
    assert not worker.busy and not worker.backlog


def test_next_message_waits_for_receive_deserialize_and_relay_posts():
    system = make_relay_system()
    endpoint, worker, children = endpoint_with(system, relays=True)
    rnic = system.transport.rnics[worker.machine_id]
    dispatched, posts = [], []
    worker.dispatch_local = lambda at: dispatched.append(worker.sim.now)
    post = rnic.post
    rnic.post = lambda wr: posts.append(system.sim.now) or post(wr)
    first, second = relay_message(system, endpoint), relay_message(system, endpoint)
    worker.receive(first)
    worker.receive(second)
    system.sim.run()
    post_cpu = system.transport.profile(system.transport.data_verb).sender_cpu_s
    t1 = received(first)
    first_posts = [t1 + (i + 1) * post_cpu for i in range(len(children))]
    # relay children are posted back to back, one post CPU apart, and
    # the next message starts only after the last post
    assert posts[: len(children)] == pytest.approx(first_posts)
    assert dispatched == pytest.approx([t1, first_posts[-1] + received(second)])
    assert len(posts) == 2 * len(children)


def test_crash_mid_service_drops_backlog_and_dead_letters_relays():
    from repro.trace import MemoryTracer

    tracer = MemoryTracer()
    system = make_relay_system(tracer=tracer, arrivals={"src": lambda _: None})
    checker = system.attach_checker(mode="strict")
    endpoint, worker, children = endpoint_with(system, relays=True)
    first, queued = relay_message(system, endpoint), relay_message(system, endpoint)
    system.start()
    sim = system.sim
    sim.schedule_call(0.0, lambda: worker.receive(first))
    sim.schedule_call(0.0, lambda: worker.receive(queued))
    # crash inside the first message's receive CPU
    sim.schedule_call(first.recv_cpu_s / 2,
                      lambda: system.crash_machine(worker.machine_id))
    sim.run(until=1e-3)
    assert worker.crashed and not worker.busy and not worker.backlog
    assert worker.messages_received == 1  # the queued message died
    # the in-service message finished: its relays died at the paused NIC
    dead = [r["reason"] for r in tracer.records
            if r["kind"] == "net.dead" and r["src"] == worker.machine_id]
    assert dead == ["crash_egress"] * len(children)
    assert checker.finalize().ok  # fabric_conservation held throughout


def test_engine_events_per_copy_on_the_fig03_shape(monkeypatch):
    """The fig03 relay fan-out (RDMC, 480 sinks on 30 machines) costs at
    most 4.5 engine events per delivered copy: a receive call, a relay
    post and an RNIC->NIC->wire call per message, plus the sinks' shared
    drain timer.  Event counts do not depend on the machine, so the bound
    is exact."""
    from repro.dsps import AllGrouping
    from repro.dsps.presets import rdmc_config
    from repro.sim import Simulator

    topo = Topology("fig03")
    topo.add_spout("src", OneSpout)
    topo.add_bolt("sink", SinkBolt, parallelism=480,
                  inputs={"src": AllGrouping()}, terminal=True)
    gaps = iter([1 / 6000] * 5)
    system = DspsSystem(topo, rdmc_config(), cluster=Cluster(30, 1, 16),
                        arrivals={"src": lambda _now: next(gaps, None)})
    steps = [0]
    step = Simulator.step

    def counted(sim):
        steps[0] += 1
        step(sim)

    monkeypatch.setattr(Simulator, "step", counted)
    system.start()
    system.sim.run()
    copies = sum(ex.processed for ex in system.operator_executors("sink"))
    assert copies == 5 * 480
    assert steps[0] / copies <= 4.5
