"""RNIC model: per-machine work-request pipeline.

Senders post :class:`WorkRequest`\\ s; the RNIC services them FIFO (DMA
setup takes :attr:`CostModel.rnic_wr_service_s` per WR) and injects the
wire message into the InfiniBand fabric.  If the WR carries a ring memory
region, the region is recycled when the fabric reports delivery —
modelling the paper's "each memory region can be reused after consumed by
the RNIC coordinator".

The service pipeline is an arithmetic FIFO server in tandem with the
NIC (:class:`~repro.net.fabric.NicPort`): at admission the RNIC computes
when its DMA of the WR ends and books the message on the NIC to arrive
then, so a WR costs no event of its own — the NIC's single arrival call
covers DMA, egress and propagation.  Uncontended posts are admitted
inline (``post`` returns ``None``); only a full WR queue hands the poster
an event to wait on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from repro.net.costs import CostModel
from repro.net.fabric import Fabric
from repro.net.message import WireMessage
from repro.net.ring import RingMemoryRegion
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

_START, _DONE, _WR = 0, 1, 2


@dataclass
class WorkRequest:
    """One posted RDMA work request."""

    message: WireMessage
    #: Ring region size to recycle on delivery (0 = none attached).
    ring_bytes: int = 0


class Rnic:
    """One machine's RDMA NIC: WR queue + DMA service pipeline."""

    def __init__(
        self,
        sim: "Simulator",
        machine_id: int,
        fabric: Fabric,
        costs: CostModel,
        ring_capacity_bytes: int = 8 * 1024 * 1024,
        wr_queue_depth: int = 4096,
    ):
        self.sim = sim
        self.machine_id = machine_id
        self.fabric = fabric
        self.costs = costs
        self.ring = RingMemoryRegion(sim, ring_capacity_bytes)
        self._depth = wr_queue_depth
        #: admitted WRs whose DMA has not ended, FIFO: the head with
        #: ``start <= now`` is in DMA service
        self._pending: Deque[list] = deque()
        #: posts blocked on a full WR queue, FIFO
        self._waiters: Deque[Tuple[Event, WorkRequest]] = deque()
        self._wake_armed = False
        self._busy_until = sim.now
        self.wrs_posted = 0

    # ------------------------------------------------------------------
    def post(self, wr: WorkRequest) -> Optional[Event]:
        """Post a work request: ``None`` when admitted, else an event
        that triggers once the full WR queue admits it."""
        self.wrs_posted += 1
        if wr.ring_bytes > 0:
            wr.message.on_delivered = self._recycle
        # The WR queue holds up to ``depth`` WRs *behind* the one in
        # service, so total unfinished admits up to depth + 1.
        if self._waiters or self._unfinished() > self._depth:
            ev = Event(self.sim)
            self._waiters.append((ev, wr))
            self._arm_wake()
            return ev
        self._admit(wr)
        return None

    def _unfinished(self) -> int:
        """Admitted WRs whose DMA has not ended (retires the rest)."""
        pending = self._pending
        now = self.sim.now
        while pending and pending[0][_DONE] <= now:
            pending.popleft()
        return len(pending)

    @property
    def queue_depth(self) -> int:
        """WRs queued behind the one in DMA service."""
        n = self._unfinished()
        return n - 1 if n else 0

    def reset(self) -> int:
        """Crash handling, after the NIC paused: drop queued work
        requests and re-register the ring from scratch.  Returns the
        number of dropped WRs.

        The WR in DMA service, if any, still reaches the NIC when its DMA
        ends (it was already past the queue); queued WRs never reach the
        fabric; blocked posters are admitted dead — their WRs are dropped
        but the post event succeeds, as with the old ``Store.clear``
        contract.
        """
        sim = self.sim
        now = sim.now
        self._unfinished()
        pending = self._pending
        fabric = self.fabric
        zombie = None
        if pending and pending[0][_START] <= now:
            zombie = pending.popleft()
        dropped = len(pending)
        while pending:
            pending.popleft()[_WR].message.on_delivered = None
        while self._waiters:
            ev, wr = self._waiters.popleft()
            wr.message.on_delivered = None
            dropped += 1
            ev.succeed()
        if zombie is not None:
            # The paused NIC took its booking back: it reaches the NIC
            # when its DMA ends, as a fresh send.
            pending.append(zombie)
            self._busy_until = zombie[_DONE]
            msg = zombie[_WR].message
            sim.schedule_call(zombie[_DONE] - now, lambda: fabric.send(msg))
        else:
            self._busy_until = now
        self.ring.reset()
        return dropped

    # ------------------------------------------------------------------
    def _admit(self, wr: WorkRequest) -> None:
        now = self.sim.now
        start = self._busy_until
        if start < now:
            start = now
        done = start + self.costs.rnic_wr_service_s
        self._busy_until = done
        self._pending.append([start, done, wr])
        self.fabric.send(wr.message, done - now)

    def _arm_wake(self) -> None:
        # Blocked posters wait for the head WR's DMA to end.
        if not self._wake_armed and self._pending:
            self._wake_armed = True
            self.sim.schedule_call(
                self._pending[0][_DONE] - self.sim.now, self._wake
            )

    def _wake(self) -> None:
        self._wake_armed = False
        while self._waiters and self._unfinished() <= self._depth:
            ev, wr = self._waiters.popleft()
            self._admit(wr)
            ev.succeed()
        if self._waiters:
            self._arm_wake()

    def _recycle(self, _msg: WireMessage) -> None:
        if self.ring.outstanding:
            # Zero outstanding regions happen only after a crash reset()
            # forgot the in-flight message's region wholesale.
            self.ring.free_oldest()
