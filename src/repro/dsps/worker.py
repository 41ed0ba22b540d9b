"""Worker processes: one per machine, hosting task threads.

The worker is the fabric's receiver for its machine and runs the
**receive thread**: take a wire message, pay the receive CPU (kernel TCP
path or RDMA completion) and deserialization, dispatch locally to
executor incoming-queues, and (for multicast packets) relay to the
cascading endpoints — all on this thread, exactly like the "specialized
receiving thread" + dispatcher of Section 4.

The receive thread is a FIFO single server computed in closed form, not
a process: a message delivered while the thread is idle starts service
at once, otherwise it waits in the backlog until the thread is done with
the one before.  Service is a sequence of steps (see
:mod:`repro.dsps.comm`): the receive + deserialize CPU, then one call
that dispatches and takes up the relay sends, each a post CPU time
followed by the post.  Every CPU span costs one ``_Call`` on the
simulator, and nothing else does; a full ring or WR queue blocks the
thread on its admission event.

Control-plane packets (``kind="control"``) are fanned out to registered
handlers (the multicast controller, the replay coordinator).  Heartbeat
pings are answered by the worker itself, so liveness reflects the
machine, not any single component.

A crash drops the backlog; the message in service finishes, into halted
executors and a paused NIC.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, Dict, Iterator, List

from repro.dsps.tuples import AddressedTuple
from repro.net import cpu as cats
from repro.net.cpu import CpuAccount
from repro.net.message import WireMessage
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsps.comm import Step
    from repro.dsps.executor import BoltExecutor
    from repro.dsps.system import DspsSystem


@dataclass(frozen=True)
class HeartbeatPing:
    """Liveness probe from a failure detector to a worker machine."""

    reply_to: int
    seq: int


@dataclass(frozen=True)
class HeartbeatAck:
    """A worker's reply to a :class:`HeartbeatPing`."""

    machine: int
    seq: int


class Worker:
    """One worker process on one machine."""

    def __init__(self, system: "DspsSystem", machine_id: int):
        self.system = system
        self.sim = system.sim
        self.machine_id = machine_id
        self.cpu = CpuAccount(self.sim, f"worker[{machine_id}]")
        #: messages delivered while the receive thread is busy, FIFO
        self.backlog: Deque[WireMessage] = deque()
        #: the message in service: its step iterators, innermost last
        self._steps: List[Iterator["Step"]] = []
        #: the action that runs when the current CPU span ends
        self._action: Callable = None
        self.busy = False
        system.fabric.bind(machine_id, self.receive)
        #: local task id -> executor (filled by the system during build).
        self.executors: Dict[int, "BoltExecutor"] = {}
        #: handlers for control-plane packets (controller, acker, ...);
        #: every handler sees every control payload and filters by type.
        self._control_handlers: List[Callable] = []
        #: True while this machine is crashed.
        self.crashed = False
        self.messages_received = 0
        self.dispatched = 0
        self.heartbeats_answered = 0

    # ------------------------------------------------------------------
    def add_control_handler(self, handler: Callable) -> None:
        """Register a control-plane payload handler."""
        self._control_handlers.append(handler)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Machine crash: everything buffered in this process is lost."""
        self.crashed = True
        self.backlog.clear()

    def on_recover(self) -> None:
        self.crashed = False

    # ------------------------------------------------------------------
    def dispatch_local(self, at: AddressedTuple) -> None:
        """Hand a tuple to a locally hosted executor."""
        executor = self.executors.get(at.task_id)
        if executor is None:
            raise LookupError(
                f"task {at.task_id} is not hosted on machine {self.machine_id}"
            )
        self.cpu.charge(self.system.costs.dispatch_cpu_s, cats.DISPATCH)
        self.dispatched += 1
        self.system.metrics.multicast.on_receive(at.tuple.tuple_id, at.task_id)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                "worker.dispatch",
                self.sim.now,
                id=at.tuple.tuple_id,
                task=at.task_id,
                machine=self.machine_id,
            )
        executor.accept(at)
        flow = self.system.flow
        if flow is not None:
            # Return the sender's credit reservation for this copy.
            flow.on_dispatch(executor)

    # ------------------------------------------------------------------
    # the receive thread
    # ------------------------------------------------------------------
    def receive(self, msg: WireMessage) -> None:
        """Fabric delivery: serve ``msg`` now, or queue it."""
        if self.busy:
            self.backlog.append(msg)
        else:
            self._serve(msg)

    def _serve(self, msg: WireMessage) -> None:
        self.busy = True
        self.messages_received += 1
        steps = self._message_steps(msg)
        self._steps.append(steps)
        # The first CPU span ends on the event queue even when it is
        # zero, so service never runs inside the fabric's delivery.
        cpu_s, self._action = next(steps)
        self.sim.schedule_call(cpu_s, self._act)

    def _message_steps(self, msg: WireMessage) -> Iterator["Step"]:
        payload = msg.payload
        cpu = self.cpu
        recv = msg.recv_cpu_s
        cpu.charge(recv, cats.NETWORK)
        if msg.kind == "control":
            yield recv, partial(self._on_control, payload)
            return
        # A sliced WR carries several packets, each deserialized in turn;
        # the receive CPU runs into the first one's.
        packets = getattr(payload, "packets", None) or (payload,)
        for packet in packets:
            deser = packet.deserialize_cpu_s
            cpu.charge(deser, cats.DESERIALIZATION)
            yield recv + deser, partial(packet.deliver, self)
            recv = 0.0

    def _act(self) -> None:
        """A CPU span ended: run its action and go on."""
        self._run(self._action())

    def _resume(self, _event: Event) -> None:
        self._run(None)

    def _run(self, more) -> None:
        """Take up what an action returned, then run steps until one
        needs CPU time or blocks; at the end, serve the next message."""
        stack = self._steps
        while True:
            if more is not None:
                if isinstance(more, Event):
                    more.callbacks.append(self._resume)
                    return
                stack.append(more)
            if not stack:
                break
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                more = None
                continue
            cpu_s, action = step
            if cpu_s > 0:
                self._action = action
                self.sim.schedule_call(cpu_s, self._act)
                return
            more = action()
        if self.backlog:
            self._serve(self.backlog.popleft())
        else:
            self.busy = False

    def _on_control(self, payload) -> None:
        if isinstance(payload, HeartbeatPing):
            self.sim.process(self._answer_heartbeat(payload))
        else:
            for handler in self._control_handlers:
                handler(payload)

    def _answer_heartbeat(self, ping: HeartbeatPing):
        if self.crashed:
            return
        self.heartbeats_answered += 1
        yield from self.system.control_send(
            self.machine_id,
            ping.reply_to,
            HeartbeatAck(machine=self.machine_id, seq=ping.seq),
            self.cpu,
        )
