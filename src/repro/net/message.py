"""Wire message model, and what the transports share.

A :class:`WireMessage` is what actually crosses a link: an opaque byte
blob of ``size_bytes`` with enough metadata for the receiver to account
its CPU and for the metrics layer to count traffic.  The logical content
(tuple, BatchTuple, ControlMessage, ...) rides in ``payload`` untouched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Optional

from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event

#: ``post()`` of a begun send: ``None`` once the message is on its way,
#: or an event the sending thread must wait on (full ring or WR queue).
Post = Callable[[], Optional["Event"]]

_msg_ids = itertools.count()


def reset_ids() -> None:
    """Restart message-id allocation (called per system build so traces
    are reproducible regardless of prior runs in the process)."""
    global _msg_ids
    _msg_ids = itertools.count()


@dataclass
class WireMessage:
    """One message on the wire."""

    payload: Any
    size_bytes: int
    src_machine: int
    dst_machine: int
    #: "data" | "control" | "ack" — control traffic is Whale's tree rewiring.
    kind: str = "data"
    #: CPU seconds the receiver must spend to take delivery (kernel TCP
    #: receive path, or RDMA completion reaping; 0 for one-sided verbs).
    recv_cpu_s: float = 0.0
    #: Simulated time the message entered the transport.
    sent_at: float = 0.0
    #: Invoked by the fabric at delivery time (used by the RNIC layer to
    #: recycle ring memory regions once the wire has consumed them).
    on_delivered: Optional[Callable[["WireMessage"], None]] = None
    msg_id: int = field(default_factory=lambda: next(_msg_ids))

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"negative message size: {self.size_bytes}")


class Transport:
    """Machine-to-machine messaging over one fabric (subclassed by the
    TCP and RDMA transports).  ``begin(src, dst, payload, size, cpu,
    kind)`` starts one send: it charges ``cpu`` for the sender's side and
    returns ``(cpu_s, post)``; the caller's thread is busy for ``cpu_s``,
    then calls ``post()`` to hand the message to the wire."""

    def __init__(self, sim, fabric, costs):
        self.sim = sim
        self.fabric = fabric
        self.costs = costs
        self._inboxes: Dict[int, Store] = {}

    def _send(self, cpu_s: float, post: Post) -> Iterator:
        """A begun send on a process: the sender's CPU time, then the
        post, waiting while the post is blocked."""
        if cpu_s > 0:
            yield self.sim.timeout(cpu_s)
        wait = post()
        if wait is not None:
            yield wait

    def _message(
        self, src_machine: int, dst_machine: int, payload: Any,
        size_bytes: int, kind: str, recv_cpu_s: float,
        verb: Optional[str] = None,
    ) -> WireMessage:
        """Trace one post and build its wire message."""
        tracer = self.sim.tracer
        if tracer is not None:
            via = {"verb": verb} if verb is not None else {}
            tracer.emit(
                "net.post", self.sim.now, transport=self.name, **via,
                src=src_machine, dst=dst_machine, msg_kind=kind,
                bytes=size_bytes,
            )
        return WireMessage(
            payload=payload,
            size_bytes=size_bytes,
            src_machine=src_machine,
            dst_machine=dst_machine,
            kind=kind,
            recv_cpu_s=recv_cpu_s,
        )

    def _post_kernel(
        self, src_machine: int, dst_machine: int, payload: Any,
        size_bytes: int, kind: str, verb: Optional[str] = None,
    ) -> None:
        """The kernel TCP path: straight onto the wire, no ring, no RNIC."""
        self.fabric.send(
            self._message(
                src_machine, dst_machine, payload, size_bytes, kind,
                self.costs.tcp_recv_cpu_s, verb,
            )
        )

    def bind_inbox(self, machine_id: int) -> Store:
        """Create (once) and return a delivery inbox for a machine, for
        consumers that take messages with ``get()`` events."""
        inbox = self._inboxes.get(machine_id)
        if inbox is None:
            inbox = Store(self.sim)
            self._inboxes[machine_id] = inbox
            self.fabric.bind(machine_id, inbox.try_put)
        return inbox
