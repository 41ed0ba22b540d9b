"""Communication modes: how an emitted tuple crosses the cluster.

Three mechanisms, matching the paper's design space:

* **Instance-oriented** (Storm, RDMA-based Storm): the data item is
  serialized once *per destination instance* and sent as an independent
  message.  (As a pure event-count optimization, messages of one emit
  bound for the same machine are coalesced into one wire packet whose
  size/CPU equal the sum of the individual messages — the economics are
  bit-identical to sending them back to back.)
* **Worker-oriented** (Whale, Section 3.5): destinations are grouped by
  worker; the data item is serialized once per *worker* into a
  ``BatchTuple`` whose header carries the destination task ids; the
  receiving worker's dispatcher fans it out locally.
* **Relay multicast** (Section 3.2): a :class:`MulticastService` holds a
  multicast tree over *endpoints* (workers, or instances for the RDMC
  baseline); the source sends only to the root's children and each
  endpoint's worker relays the already-serialized bytes onward.

Stream slicing (MMS/WTL, Section 4) wraps the RDMA data path when
enabled: serialized messages to the same machine are buffered and posted
as a single work request.

Relaying and local delivery are written as **steps** so that one code
path serves both kinds of simulated thread: a step is ``(cpu_s,
action)`` — the thread is busy for ``cpu_s`` (already charged to its
account), then calls ``action()``, which returns ``None``, an event to
wait for (a full ring or WR queue), or an iterator of further steps to
run first (a packet delivered on this machine relays onward).  A
worker's receive thread runs steps on the simulator's ``_Call`` lane
(:class:`~repro.dsps.worker.Worker`); an executor's sending thread runs
them as a process (:func:`run_steps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.multicast import (
    MulticastTree,
    SOURCE,
    build_binomial_tree,
    build_nonblocking_tree,
    build_sequential_tree,
    plan_reattach,
    plan_repair,
)
from repro.net import cpu as cats
from repro.net.slicing import StreamSlicer
from repro.dsps.tuples import AddressedTuple, StreamTuple
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsps.executor import Executor
    from repro.dsps.system import DspsSystem
    from repro.dsps.worker import Worker
    from repro.sim.engine import Simulator

#: ``(cpu_s, action)``; see the module docstring.
Step = Tuple[float, Callable[[], Any]]


def run_steps(sim: "Simulator", steps: Iterator[Step]) -> Iterator:
    """Run steps on the calling process (a generator to ``yield from``)."""
    stack = [steps]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        cpu_s, action = step
        if cpu_s > 0:
            yield sim.timeout(cpu_s)
        more = action()
        if more is not None:
            if isinstance(more, Event):
                yield more
            else:
                stack.append(more)


# ----------------------------------------------------------------------
# outbound envelope (what sits in an executor's transfer queue)
# ----------------------------------------------------------------------
@dataclass
class Envelope:
    """One emitted tuple plus its routing decision."""

    tuple: StreamTuple
    dst_operator: str
    dst_tasks: List[int]
    #: True when this envelope came from a one-to-many (all) grouping.
    one_to_many: bool = False
    #: True for a selective replay (exactly-once point repair): deliver
    #: only to ``dst_tasks``, bypassing the multicast tree.
    selective: bool = False


# ----------------------------------------------------------------------
# wire packet payloads
# ----------------------------------------------------------------------
@dataclass
class InstancePacket:
    """Coalesced instance-oriented messages for one machine: each entry is
    an independently-serialized single-destination message."""

    tuples: List[AddressedTuple]
    deserialize_cpu_s: float  # total for all entries

    def deliver(self, worker: "Worker") -> None:
        """Dispatch every entry (deserialization is already paid)."""
        for at in self.tuples:
            worker.dispatch_local(at)


@dataclass
class WorkerPacket:
    """One Whale WorkerMessage: data item serialized once + dstIds."""

    tuple: StreamTuple
    dst_tasks: List[int]
    deserialize_cpu_s: float
    #: relay coordinates: (service, endpoint id) when part of a multicast.
    relay: Optional[Tuple["MulticastService", Any]] = None

    def deliver(self, worker: "Worker") -> Optional[Iterator[Step]]:
        """Dispatch locally (deserialization is already paid); returns
        the relay steps that follow, for a multicast packet."""
        for task_id in self.dst_tasks:
            worker.dispatch_local(AddressedTuple(task_id, self.tuple))
        if self.relay is None:
            return None
        service, endpoint = self.relay
        return service.relay_from(worker, endpoint, self.tuple)


@dataclass
class PacketGroup:
    """Several packets delivered in one sliced work request; the
    receiver deserializes and delivers them one by one."""

    packets: List[Any]


# ----------------------------------------------------------------------
# multicast service
# ----------------------------------------------------------------------
class MulticastService:
    """Shared relay state for one one-to-many edge (src task -> operator).

    Endpoints are ``("w", machine_id)`` for worker-level trees (Whale) or
    ``("t", task_id)`` for instance-level trees (the RDMC baseline without
    worker-oriented communication).
    """

    def __init__(
        self,
        system: "DspsSystem",
        src_task: int,
        dst_operator: str,
        structure: str,
        d_star: int,
        worker_level: bool,
    ):
        self.system = system
        self.src_task = src_task
        self.dst_operator = dst_operator
        self.structure = structure
        self.d_star = d_star
        self.worker_level = worker_level
        placement = system.placement
        dst_tasks = placement.tasks_of[dst_operator]
        src_machine = placement.machine_of[src_task]
        self._tasks_of_endpoint: Dict[Any, List[int]] = {}
        self._machine_of_endpoint: Dict[Any, int] = {}
        if worker_level:
            for machine in placement.machines_hosting(dst_operator):
                ep = ("w", machine)
                self._tasks_of_endpoint[ep] = placement.colocated_tasks(
                    dst_operator, machine
                )
                self._machine_of_endpoint[ep] = machine
        else:
            for task in dst_tasks:
                ep = ("t", task)
                self._tasks_of_endpoint[ep] = [task]
                self._machine_of_endpoint[ep] = placement.machine_of[task]
        self.src_machine = src_machine
        self.tree = self._build(list(self._tasks_of_endpoint))
        #: event set while a dynamic switch is in progress (source pauses).
        self.paused_until = None  # type: Optional[Any]
        self.switch_count = 0
        #: endpoints excised from the tree because their machine is
        #: suspected/crashed; restored on recovery.
        self._detached: set = set()
        self.repair_count = 0
        self.reattach_count = 0

    # ------------------------------------------------------------------
    def _build(self, endpoints: Sequence[Any]) -> MulticastTree:
        if self.structure == "sequential":
            return build_sequential_tree(endpoints)
        if self.structure == "binomial":
            return build_binomial_tree(endpoints)
        if self.structure == "nonblocking":
            return build_nonblocking_tree(endpoints, d_star=self.d_star)
        raise ValueError(f"unknown structure {self.structure!r}")

    # ------------------------------------------------------------------
    @property
    def endpoints(self) -> List[Any]:
        return list(self._tasks_of_endpoint)

    def endpoints_on_machine(self, machine_id: int) -> List[Any]:
        return [
            ep
            for ep, m in self._machine_of_endpoint.items()
            if m == machine_id
        ]

    def tasks_of(self, endpoint: Any) -> List[int]:
        return self._tasks_of_endpoint[endpoint]

    def machine_of(self, endpoint: Any) -> int:
        return self._machine_of_endpoint[endpoint]

    def source_out_degree(self) -> int:
        return self.tree.out_degree(SOURCE)

    # ------------------------------------------------------------------
    def send_from_source(
        self, executor: "Executor", tup: StreamTuple
    ) -> Iterator:
        """Source side: transmit ``tup`` to the root's direct children."""
        if self.paused_until is not None and not self.paused_until.processed:
            # Dynamic switching in progress: output rate drops to zero
            # until the structure settles (Theorem 4's premise).
            yield self.paused_until
        comm = self.system.comm
        for child in self.tree.children(SOURCE):
            yield from comm.send_to_endpoint(
                executor.cpu, self.src_machine, self, child, tup
            )

    def relay_from(
        self, worker: "Worker", endpoint: Any, tup: StreamTuple
    ) -> Iterator[Step]:
        """Relay side: the steps forwarding already-serialized bytes to
        the children, one send after another on ``worker``'s account."""
        if endpoint not in self.tree:
            # Stale in-flight packet: the endpoint was repaired out of
            # the tree while this message was on the wire.  Local
            # dispatch already happened; nothing left to relay.
            return
        comm = self.system.comm
        src_machine = self.machine_of(endpoint)
        for child in self.tree.children(endpoint):
            packet, size_bytes = comm.endpoint_packet(self, child, tup)
            yield comm.transmit_step(
                worker.cpu, src_machine, self.machine_of(child), packet,
                size_bytes,
            )

    # ------------------------------------------------------------------
    def apply_tree(self, new_tree: MulticastTree) -> None:
        """Install a rewired tree (same endpoint set)."""
        if sorted(map(repr, new_tree.destinations())) != sorted(
            map(repr, self.tree.destinations())
        ):
            raise ValueError("rewired tree changes the endpoint set")
        self.tree = new_tree
        self.switch_count += 1

    # ------------------------------------------------------------------
    # failure repair (tree self-healing)
    # ------------------------------------------------------------------
    def detach_endpoint(self, endpoint: Any):
        """Excise a failed endpoint, reattaching its orphaned subtrees.

        Returns the :class:`~repro.multicast.SwitchPlan` applied, or
        ``None`` when the endpoint was already detached.  Each applied
        rewire is traced as ``switch.repair``.
        """
        if endpoint not in self._tasks_of_endpoint:
            raise ValueError(f"unknown endpoint {endpoint!r}")
        if endpoint in self._detached or endpoint not in self.tree:
            return None
        new_tree, plan = plan_repair(self.tree, endpoint, self.d_star)
        self.tree = new_tree
        self._detached.add(endpoint)
        self.repair_count += 1
        self._trace_repair(plan, endpoint)
        return plan

    def reattach_endpoint(self, endpoint: Any):
        """Re-admit a recovered endpoint as a leaf; returns the plan
        applied, or ``None`` when the endpoint was never detached."""
        if endpoint not in self._tasks_of_endpoint:
            raise ValueError(f"unknown endpoint {endpoint!r}")
        if endpoint not in self._detached:
            return None
        new_tree, plan = plan_reattach(self.tree, endpoint, self.d_star)
        self.tree = new_tree
        self._detached.discard(endpoint)
        self.reattach_count += 1
        self._trace_repair(plan, endpoint)
        return plan

    def _trace_repair(self, plan, endpoint: Any) -> None:
        tracer = self.system.sim.tracer
        if tracer is None:
            return
        now = self.system.sim.now
        for op in plan.ops:
            tracer.emit(
                "switch.repair",
                now,
                direction=plan.status,
                endpoint=endpoint,
                node=op.node,
                old_parent=op.old_parent,
                new_parent=op.new_parent,
                src_task=self.src_task,
                dst_operator=self.dst_operator,
            )
        if not plan.ops:
            # A leaf failure detaches with zero rewires; still record it.
            tracer.emit(
                "switch.repair",
                now,
                direction=plan.status,
                endpoint=endpoint,
                node=endpoint,
                old_parent=None,
                new_parent=None,
                src_task=self.src_task,
                dst_operator=self.dst_operator,
            )


# ----------------------------------------------------------------------
# the communication engine
# ----------------------------------------------------------------------
class CommEngine:
    """Implements the configured communication mode for a system."""

    def __init__(self, system: "DspsSystem"):
        self.system = system
        self.config = system.config
        self.costs = system.costs
        self.ser = system.serialization
        # (src executor id, dst machine) -> slicer, when slicing is on.
        self._slicers: Dict[Tuple[int, int], StreamSlicer] = {}

    def _trace_serialize(
        self, src_machine: int, dst_machine: int, nbytes: int,
        cpu_s: float, n_messages: int = 1,
    ) -> None:
        tracer = self.system.sim.tracer
        if tracer is not None:
            tracer.emit(
                "net.serialize",
                self.system.sim.now,
                src=src_machine,
                dst=dst_machine,
                bytes=nbytes,
                cpu_s=cpu_s,
                n_messages=n_messages,
            )

    # ------------------------------------------------------------------
    # top-level send (called by the executor's send thread)
    # ------------------------------------------------------------------
    def send(self, executor: "Executor", env: Envelope) -> Iterator:
        """Transmit one envelope.  Returns the number of direct
        transmissions the source performed (its effective out-degree)."""
        service = self.system.multicast_service(executor.task_id, env.dst_operator)
        if env.one_to_many and service is not None and not env.selective:
            yield from service.send_from_source(executor, env.tuple)
            return service.source_out_degree()
        n = yield from self._send_direct(executor, env)
        return n

    # ------------------------------------------------------------------
    def _send_direct(self, executor: "Executor", env: Envelope) -> Iterator:
        """Point-to-point send per destination machine: one message per
        destination task (instance-oriented), or one BatchTuple carrying
        the destination task ids (worker-oriented)."""
        placement = self.system.placement
        src_machine = executor.machine_id
        tup = env.tuple
        by_machine: Dict[int, List[int]] = {}
        for task in env.dst_tasks:
            by_machine.setdefault(placement.machine_of[task], []).append(task)
        sends = 0
        for machine, tasks in sorted(by_machine.items()):
            if machine == src_machine:
                # Intra-worker transfer: no serialization, no network.
                yield from executor.cpu.work(
                    self.costs.dispatch_cpu_s * len(tasks), cats.DISPATCH
                )
                for task in tasks:
                    self.system.workers[machine].dispatch_local(
                        AddressedTuple(task, tup)
                    )
                continue
            if self.config.worker_oriented:
                n = 1
                msg_bytes = self.ser.batch_message_bytes(
                    tup.payload_bytes, len(tasks)
                )
                serialize_cpu = self.ser.serialize_batch_message(
                    tup.payload_bytes, len(tasks)
                )
                packet = WorkerPacket(
                    tuple=tup,
                    dst_tasks=list(tasks),
                    deserialize_cpu_s=self.costs.deserialize_time(msg_bytes),
                )
            else:
                # One serialization + one network send *per task*.
                n = len(tasks)
                one = self.ser.instance_message_bytes(tup.payload_bytes)
                msg_bytes = n * one
                serialize_cpu = n * self.costs.serialize_time(one)
                packet = InstancePacket(
                    tuples=[AddressedTuple(t, tup) for t in tasks],
                    deserialize_cpu_s=n * self.costs.deserialize_time(one),
                )
            yield from executor.cpu.work(serialize_cpu, cats.SERIALIZATION)
            self._trace_serialize(
                src_machine, machine, msg_bytes, serialize_cpu, n
            )
            yield from self._transmit(
                executor.cpu, src_machine, machine, packet, msg_bytes, n
            )
            sends += n
        return sends

    # ------------------------------------------------------------------
    # multicast endpoint send (source or relay)
    # ------------------------------------------------------------------
    def endpoint_packet(
        self, service: MulticastService, endpoint: Any, tup: StreamTuple
    ) -> Tuple[WorkerPacket, int]:
        """The message one multicast endpoint receives, and its size: a
        BatchTuple for a worker endpoint, or a single-destination message
        on an instance-level tree (the RDMC baseline)."""
        tasks = service.tasks_of(endpoint)
        if self.config.worker_oriented:
            msg_bytes = self.ser.batch_message_bytes(tup.payload_bytes, len(tasks))
        else:
            msg_bytes = self.ser.instance_message_bytes(tup.payload_bytes)
        packet = WorkerPacket(
            tuple=tup,
            dst_tasks=list(tasks),
            deserialize_cpu_s=self.costs.deserialize_time(msg_bytes),
            relay=(service, endpoint),
        )
        return packet, msg_bytes

    def send_to_endpoint(
        self,
        cpu_account,
        src_machine: int,
        service: MulticastService,
        endpoint: Any,
        tup: StreamTuple,
    ) -> Iterator:
        """Source side: serialize and send one tree edge (a generator for
        the sending thread; relays use :meth:`transmit_step`)."""
        dst_machine = service.machine_of(endpoint)
        packet, msg_bytes = self.endpoint_packet(service, endpoint, tup)
        if self.config.worker_oriented:
            serialize_cpu = self.ser.serialize_batch_message(
                tup.payload_bytes, len(packet.dst_tasks)
            )
        else:
            serialize_cpu = self.costs.serialize_time(msg_bytes)
        yield from cpu_account.work(serialize_cpu, cats.SERIALIZATION)
        self._trace_serialize(src_machine, dst_machine, msg_bytes, serialize_cpu)
        yield from self._transmit(
            cpu_account, src_machine, dst_machine, packet,
            size_bytes=msg_bytes, n_messages=1,
        )

    # ------------------------------------------------------------------
    # transport shim (+ optional slicing)
    # ------------------------------------------------------------------
    def transmit_step(
        self,
        cpu_account,
        src_machine: int,
        dst_machine: int,
        packet: Any,
        size_bytes: int,
        n_messages: int = 1,
    ) -> Step:
        """One send of ``packet`` as a step on the caller's thread."""
        if src_machine == dst_machine:
            # Same machine: no network; the calling thread deserializes
            # and dispatches, then relays onward.
            worker = self.system.workers[dst_machine]
            deser = packet.deserialize_cpu_s
            worker.cpu.charge(deser, cats.DESERIALIZATION)
            return deser, partial(packet.deliver, worker)
        if self.config.slicing and self.config.transport == "rdma":
            return 0.0, partial(
                self._slice, cpu_account, src_machine, dst_machine, packet,
                size_bytes,
            )
        transport = self.system.transport
        cpu_s, post = transport.begin(
            src_machine, dst_machine, packet, size_bytes, cpu_account
        )
        if n_messages > 1:
            # The per-message send path runs once per coalesced message.
            if self.config.transport == "tcp":
                extra, category = self.costs.tcp_send_cpu_s, cats.NETWORK
            else:
                extra = transport.profile(transport.data_verb).sender_cpu_s
                category = cats.RDMA_POST
            extra *= n_messages - 1
            cpu_account.charge(extra, category)
            cpu_s += extra
        return cpu_s, post

    def _transmit(
        self,
        cpu_account,
        src_machine: int,
        dst_machine: int,
        packet: Any,
        size_bytes: int,
        n_messages: int,
    ) -> Iterator:
        step = self.transmit_step(
            cpu_account, src_machine, dst_machine, packet, size_bytes,
            n_messages,
        )
        yield from run_steps(self.system.sim, iter((step,)))

    def _slice(
        self, cpu_account, src_machine: int, dst_machine: int,
        packet: Any, size_bytes: int,
    ) -> None:
        key = (src_machine, dst_machine)
        slicer = self._slicers.get(key)
        if slicer is None:
            slicer = StreamSlicer(
                self.system.sim,
                mms_bytes=self.config.costs.mms_bytes,
                wtl_s=self.config.costs.wtl_s,
                on_flush=lambda items, nbytes, k=key: self._flush(k, items, nbytes),
            )
            self._slicers[key] = slicer
        # The per-tuple recv-side cost rides inside the packet; the WR post
        # cost is paid once per flush (charged to the flusher below).
        slicer.add((packet, cpu_account), size_bytes)

    def _flush(self, key: Tuple[int, int], items: List[Any], nbytes: int) -> None:
        src_machine, dst_machine = key
        # Charge the post cost to the account of the last contributor
        # (whoever's add() triggered the flush, or the timer's victim);
        # nobody waits for the post.
        cpu_s, post = self.system.transport.begin(
            src_machine, dst_machine, PacketGroup([p for p, _ in items]),
            nbytes, items[-1][1],
        )
        self.system.sim.schedule_call(cpu_s, post)

    def flush_all_slicers(self) -> None:
        """Flush pending slices (end of run)."""
        for slicer in self._slicers.values():
            slicer.flush_now()
