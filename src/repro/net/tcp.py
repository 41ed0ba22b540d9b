"""TCP/IP transport over the Ethernet fabric.

Every message costs the sender a full kernel network-stack traversal
(syscall, data copies, protocol processing) and the receiver likewise —
the "packet processing with multi-layer network protocol" CPU slice that
dominates the upstream instance in the paper's Fig. 2d.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Iterator, Tuple

from repro.net import cpu as cpu_categories
from repro.net.costs import CostModel
from repro.net.cpu import CpuAccount
from repro.net.fabric import Fabric
from repro.net.message import Post, Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class TcpTransport(Transport):
    """Instance-level transport API over a TCP/Ethernet fabric."""

    name = "tcp"

    def __init__(self, sim: "Simulator", fabric: Fabric, costs: CostModel):
        super().__init__(sim, fabric, costs)

    # ------------------------------------------------------------------
    # fault-handling API parity with RdmaTransport
    # ------------------------------------------------------------------
    def set_degraded(self, machine_id: int, degraded: bool) -> None:
        """No-op: TCP *is* the degraded mode the RDMA transport falls
        back to, so suspicion changes nothing on this transport."""

    def is_degraded(self, machine_id: int) -> bool:
        return False

    def on_machine_crash(self, machine_id: int) -> None:
        """No per-machine sender state to reset on the TCP transport."""

    # ------------------------------------------------------------------
    def begin(
        self,
        src_machine: int,
        dst_machine: int,
        payload: Any,
        size_bytes: int,
        cpu: CpuAccount,
        kind: str = "data",
    ) -> Tuple[float, Post]:
        """The kernel send path: the caller's thread is busy for it, then
        the message goes on the wire and the transfer proceeds
        asynchronously."""
        cpu_s = self.costs.tcp_send_cpu_s
        cpu.charge(cpu_s, cpu_categories.NETWORK)
        return cpu_s, partial(
            self._post_kernel, src_machine, dst_machine, payload, size_bytes,
            kind,
        )

    def send(
        self,
        src_machine: int,
        dst_machine: int,
        payload: Any,
        size_bytes: int,
        cpu: CpuAccount,
        kind: str = "data",
    ) -> Iterator:
        """Send one message from a process (generator): the caller's
        thread blocks only for the kernel send path."""
        return self._send(
            *self.begin(src_machine, dst_machine, payload, size_bytes, cpu, kind)
        )
