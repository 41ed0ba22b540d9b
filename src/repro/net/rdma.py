"""RDMA transport: verbs over the InfiniBand fabric through per-machine RNICs.

Whale uses two verb families (Section 4):

* **two-sided send/recv** — for control messages (tree rewiring), where
  the receiver cannot know data addresses in advance;
* **one-sided read** — for the multicast data path, where the ring memory
  region gives destinations sequential access to data addresses, so reads
  stay pipelined and the *data sender* pays almost no CPU.

Each verb has an *effective per-message profile* (sender CPU, receiver
CPU); see :class:`repro.net.costs.CostModel` for calibration notes.  All
verbs traverse the RNIC work-request queue and, when ``use_ring`` is on,
hold a ring memory region until the fabric consumes the message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple

from repro.net import cpu as cpu_categories
from repro.net.costs import CostModel
from repro.net.cpu import CpuAccount
from repro.net.fabric import Fabric
from repro.net.message import Post, Transport
from repro.net.rnic import Rnic, WorkRequest
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Verb(enum.Enum):
    """RDMA operation kinds."""

    SEND = "send"  # two-sided send/recv
    WRITE = "write"  # one-sided write
    READ = "read"  # one-sided read (receiver-initiated, ring-prefetched)


@dataclass(frozen=True)
class VerbProfile:
    """Effective per-message CPU costs of a verb in Whale's pipeline."""

    verb: Verb
    sender_cpu_s: float
    receiver_cpu_s: float

    @staticmethod
    def from_costs(costs: CostModel, verb: Verb) -> "VerbProfile":
        if verb is Verb.SEND:
            return VerbProfile(
                verb,
                sender_cpu_s=costs.rdma_post_cpu_s + costs.rdma_send_credit_cpu_s,
                receiver_cpu_s=costs.rdma_twosided_recv_cpu_s,
            )
        if verb is Verb.WRITE:
            return VerbProfile(
                verb,
                sender_cpu_s=costs.rdma_post_cpu_s,
                receiver_cpu_s=costs.rdma_write_poll_cpu_s,
            )
        if verb is Verb.READ:
            return VerbProfile(
                verb,
                sender_cpu_s=costs.rdma_read_sender_cpu_s,
                receiver_cpu_s=costs.rdma_read_receiver_cpu_s,
            )
        raise ValueError(f"unknown verb {verb!r}")


class RdmaTransport(Transport):
    """Machine-to-machine RDMA with selectable verbs.

    Parameters
    ----------
    data_verb:
        Verb used for data messages.  ``Verb.SEND`` models RDMA-based
        Storm (naive two-sided replacement of TCP); ``Verb.READ`` models
        Whale's optimized primitives ("Whale_DiffVerbs").
    control_verb:
        Verb for control messages; Whale always uses two-sided SEND here
        because control receivers cannot learn addresses from the ring.
    """

    name = "rdma"

    def __init__(
        self,
        sim: "Simulator",
        fabric: Fabric,
        costs: CostModel,
        data_verb: Verb = Verb.SEND,
        control_verb: Verb = Verb.SEND,
        use_ring: bool = True,
        ring_capacity_bytes: int = 8 * 1024 * 1024,
    ):
        super().__init__(sim, fabric, costs)
        self.data_verb = data_verb
        self.control_verb = control_verb
        self.use_ring = use_ring
        self.rnics: Dict[int, Rnic] = {
            m.machine_id: Rnic(
                sim,
                m.machine_id,
                fabric,
                costs,
                ring_capacity_bytes=ring_capacity_bytes,
            )
            for m in fabric.cluster
        }
        self._profiles: Dict[Verb, VerbProfile] = {
            v: VerbProfile.from_costs(costs, v) for v in Verb
        }
        #: machines currently reached via the TCP degraded path.
        self._degraded: set = set()

    # ------------------------------------------------------------------
    def profile(self, verb: Verb) -> VerbProfile:
        return self._profiles[verb]

    # ------------------------------------------------------------------
    # degraded mode (failure suspicion) + crash handling
    # ------------------------------------------------------------------
    def set_degraded(self, machine_id: int, degraded: bool) -> None:
        """Toggle the RDMA->TCP fallback for one peer.

        While a peer is suspected its RDMA channel state (queue pairs,
        ring addresses) cannot be trusted, so traffic to it falls back to
        the kernel TCP path: full kernel send/recv CPU, no ring memory
        region, no RNIC work-request pipeline.  Reverted on recovery.
        """
        if degraded:
            self._degraded.add(machine_id)
        else:
            self._degraded.discard(machine_id)

    def is_degraded(self, machine_id: int) -> bool:
        return machine_id in self._degraded

    def on_machine_crash(self, machine_id: int) -> None:
        """Reset the crashed machine's RNIC (WR queue + ring)."""
        self.rnics[machine_id].reset()

    def begin(
        self,
        src_machine: int,
        dst_machine: int,
        payload: Any,
        size_bytes: int,
        cpu: CpuAccount,
        kind: str = "data",
        verb: Optional[Verb] = None,
    ) -> Tuple[float, Post]:
        """Start one send: the verb's sender CPU, then ``post()`` takes a
        ring region and posts a WR.

        Applies ring-memory-region backpressure: if the ring (or the WR
        queue) is full, ``post()`` returns an event and the caller's
        thread waits for it — the RDMA analogue of a full transfer queue.
        A suspected peer is reached over the kernel TCP path instead.
        """
        if verb is None:
            verb = self.data_verb if kind == "data" else self.control_verb
        if (
            src_machine != dst_machine
            and (dst_machine in self._degraded or src_machine in self._degraded)
        ):
            cpu_s = self.costs.tcp_send_cpu_s
            cpu.charge(cpu_s, cpu_categories.NETWORK)
            return cpu_s, partial(
                self._post_kernel, src_machine, dst_machine, payload,
                size_bytes, kind, "tcp-fallback",
            )
        prof = self._profiles[verb]
        cpu.charge(prof.sender_cpu_s, cpu_categories.RDMA_POST)
        return prof.sender_cpu_s, partial(
            self._post, src_machine, dst_machine, payload, size_bytes, kind,
            verb, prof.receiver_cpu_s,
        )

    def send(
        self,
        src_machine: int,
        dst_machine: int,
        payload: Any,
        size_bytes: int,
        cpu: CpuAccount,
        kind: str = "data",
        verb: Optional[Verb] = None,
    ) -> Iterator:
        """Send one message from a process (generator; see :meth:`begin`)."""
        return self._send(
            *self.begin(
                src_machine, dst_machine, payload, size_bytes, cpu, kind, verb
            )
        )

    def _post(
        self, src_machine: int, dst_machine: int, payload: Any,
        size_bytes: int, kind: str, verb: Verb, recv_cpu_s: float,
    ) -> Optional[Event]:
        msg = self._message(
            src_machine, dst_machine, payload, size_bytes, kind, recv_cpu_s,
            verb.value,
        )
        if src_machine == dst_machine:
            # Loopback bypasses the RNIC entirely.
            self.fabric.send(msg)
            return None
        rnic = self.rnics[src_machine]
        if not (self.use_ring and size_bytes > 0):
            return rnic.post(WorkRequest(msg))
        granted = rnic.ring.alloc(size_bytes)
        if granted.callbacks is None:
            return rnic.post(WorkRequest(msg, ring_bytes=size_bytes))
        # Ring full: post the WR once a region is recycled.
        done = Event(self.sim)

        def _post_wr(_ev) -> None:
            admitted = rnic.post(WorkRequest(msg, ring_bytes=size_bytes))
            if admitted is None:
                done.succeed()
            else:
                admitted.callbacks.append(lambda _e: done.succeed())

        granted.callbacks.append(_post_wr)
        return done
