"""The NIC and its PCIe attachment.

Requests reach the server through a PCIe link (the NIC sits on
``pcie0``): the inbound DMA is a link transfer whose latency includes
any L0s/L1 wake — which is exactly how IO traffic wakes the package
out of PC1A/PC6 in the paper's architecture (the link's ``InL0s``
edge is the wake event). Responses are outbound transfers on the
same link.
"""

from __future__ import annotations

from typing import Callable

from repro.iolink.link import IoLink
from repro.sim.engine import Simulator
from repro.workloads.base import Request


class Nic:
    """Network interface: inbound requests, outbound responses."""

    def __init__(
        self,
        sim: Simulator,
        link: IoLink,
        deliver: Callable[[Request], None],
    ):
        self.sim = sim
        self.link = link
        self.deliver = deliver
        self.received = 0
        self.responses_sent = 0

    def receive(self, request: Request) -> None:
        """A request arrives from the wire; DMA it across the link."""
        self.received += 1
        if request.arrival_ns is None:
            request.arrival_ns = self.sim.now
        self.link.transfer(max(64, request.wire_bytes), self._delivered, request)

    def _delivered(self, request: Request) -> None:
        request.dispatched_ns = self.sim.now
        self.deliver(request)

    def send_response(self, request: Request) -> None:
        """Push the response back out on the link."""
        self.responses_sent += 1
        self.link.transfer(max(64, request.response_bytes))
