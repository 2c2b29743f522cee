"""The IO Generator (paper Fig. 1, software part).

Turns a :class:`~repro.workload.spec.WorkloadSpec` into block-layer traffic:

- *closed loop* (default): keeps ``spec.outstanding`` requests in flight,
  reissuing as completions arrive — this measures the device's natural
  service rate (how the paper drives most experiments);
- *open loop* (Fig. 8): Poisson arrivals at ``spec.requested_iops``; if the
  host-side backlog reaches :data:`MAX_BACKLOG` further arrivals are shed
  (the submission queue is full), which is what lets *responded* IOPS saturate
  below *requested* IOPS;
- *sequence mode* (Fig. 9): paired accesses where the second op targets the
  address of the first once it completes.

Every write travels with a :class:`~repro.workload.packet.DataPacket`
(Fig. 2) whose header the generator keeps updated; completed packets are the
Analyzer's input.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.host.block_layer import BlockRequest, RequestState
from repro.host.system import HostSystem
from repro.rand import RandomStreams, exponential_interarrival, uniform_int
from repro.workload.packet import DataPacket
from repro.workload.sequences import AccessPair, pair_for
from repro.workload.spec import AccessPattern, WorkloadSpec

MAX_BACKLOG = 512
"""Host-side requests waiting to dispatch before open-loop arrivals are shed."""


class IOGenerator:
    """Issues spec-shaped traffic into a host system.

    The generator is restartable: campaigns stop it at each power fault and
    start it again once the device recovers.  Packet ids keep increasing
    across restarts so tokens never collide.
    """

    def __init__(
        self,
        host: HostSystem,
        spec: WorkloadSpec,
        streams: RandomStreams,
    ) -> None:
        self.host = host
        self.spec = spec
        self.rng = streams.stream("iogen")
        self.running = False
        self._next_packet_id = 1
        self._seq_cursor_lpn = 0
        self._pair: Optional[AccessPair] = (
            pair_for(spec.sequence) if spec.sequence else None
        )
        self._arrival_event = None
        # Ledgers.
        self.packets: Dict[int, DataPacket] = {}
        self.completed_writes: List[DataPacket] = []
        self.completed_reads: List[DataPacket] = []
        self.failed_packets: List[DataPacket] = []
        # Statistics.
        self.issued = 0
        self.completions = 0
        self.io_errors = 0
        self.shed_arrivals = 0

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Begin issuing traffic (device should be READY)."""
        if self.running:
            return
        self.running = True
        if self.spec.open_loop:
            self._schedule_arrival()
        else:
            for _ in range(self.spec.outstanding):
                self._issue_next()

    def stop(self) -> None:
        """Stop issuing; in-flight requests still complete (or error)."""
        self.running = False
        if self._arrival_event is not None:
            self._arrival_event.cancel()
            self._arrival_event = None

    # -- address/size synthesis --------------------------------------------------------

    def _draw_size_pages(self) -> int:
        if self.spec.fixed_size:
            return self.spec.size_min_pages
        return uniform_int(
            self.rng, self.spec.size_min_pages, self.spec.size_max_pages
        )

    def _draw_address(self, size_pages: int) -> int:
        spec = self.spec
        if spec.pattern is AccessPattern.SEQUENTIAL:
            if self._seq_cursor_lpn + size_pages > spec.wss_pages:
                self._seq_cursor_lpn = 0
            lpn = self._seq_cursor_lpn
            self._seq_cursor_lpn += size_pages
            return lpn
        span = spec.wss_pages - size_pages
        return self.rng.randint(0, max(0, span))

    def _draw_is_write(self) -> bool:
        if self.spec.read_fraction <= 0.0:
            return True
        if self.spec.read_fraction >= 1.0:
            return False
        return self.rng.random() >= self.spec.read_fraction

    # -- issue paths --------------------------------------------------------------------

    def _schedule_arrival(self) -> None:
        assert self.spec.requested_iops is not None
        gap_s = exponential_interarrival(self.rng, self.spec.requested_iops)
        self._arrival_event = self.host.kernel.schedule(
            max(1, round(gap_s * 1_000_000)), self._arrival_fired
        )

    def _arrival_fired(self) -> None:
        self._arrival_event = None
        if not self.running:
            return
        if self.host.block.backlog >= MAX_BACKLOG:
            # Submission queue full: arrivals are shed.  Rather than model
            # each shed arrival as its own event (at 30k IOPS that would
            # dominate the simulation), account for the whole 5 ms window
            # and re-check afterwards.
            assert self.spec.requested_iops is not None
            window_s = 0.005
            self.shed_arrivals += max(1, round(self.spec.requested_iops * window_s))
            self._arrival_event = self.host.kernel.schedule(
                round(window_s * 1_000_000), self._arrival_fired
            )
            return
        self._issue_next()
        self._schedule_arrival()

    def _issue_next(self) -> None:
        if not self.running:
            return
        if self._pair is not None:
            self._issue_pair_first()
            return
        size_pages = self._draw_size_pages()
        lpn = self._draw_address(size_pages)
        self._issue(lpn, size_pages, self._draw_is_write(), reissue_on_done=True)

    def _issue_pair_first(self) -> None:
        assert self._pair is not None
        size_pages = self._draw_size_pages()
        lpn = self._draw_address(size_pages)
        pair = self._pair

        def first_done(request: BlockRequest, packet: DataPacket) -> None:
            self._record_completion(request, packet)
            # Second access lands on the completed request's address.
            if self.running and request.state is RequestState.COMPLETED:
                self._issue(
                    lpn, size_pages, pair.second_is_write, reissue_on_done=True
                )
            elif self.running:
                self._maybe_reissue()

        self._issue(lpn, size_pages, pair.first_is_write, on_done=first_done)

    def _issue(
        self,
        lpn: int,
        size_pages: int,
        is_write: bool,
        reissue_on_done: bool = False,
        on_done=None,
    ) -> DataPacket:
        packet = DataPacket(
            packet_id=self._next_packet_id,
            address_lpn=lpn,
            page_count=size_pages,
            is_write=is_write,
            queue_time=self.host.kernel.now,
        )
        self._next_packet_id += 1
        self.packets[packet.packet_id] = packet
        self.issued += 1

        if on_done is not None:
            def callback(request: BlockRequest) -> None:
                on_done(request, packet)
        else:
            def callback(request: BlockRequest) -> None:
                self._record_completion(request, packet)
                if reissue_on_done:
                    self._maybe_reissue()

        if is_write:
            self.host.write(lpn, packet.data_checksums, on_done=callback)
        else:
            self.host.read(lpn, size_pages, on_done=callback)
        return packet

    def _maybe_reissue(self) -> None:
        if not self.running or self.spec.open_loop:
            return
        if not self.host.ssd.is_ready:
            # Device detached: stop the closed loop; the campaign restarts
            # the generator after recovery.  (Prevents a synchronous
            # error-reissue-error recursion during the fault.)
            return
        self._issue_next()

    # -- completion accounting --------------------------------------------------------------

    def _record_completion(self, request: BlockRequest, packet: DataPacket) -> None:
        self.completions += 1
        packet.complete_time = request.complete_time
        if request.state is RequestState.COMPLETED:
            if packet.is_write:
                self.completed_writes.append(packet)
            else:
                self.completed_reads.append(packet)
                packet.final_checksums = list(request.tokens)
        else:
            self.io_errors += 1
            packet.not_issued = True
            packet.complete_time = -1
            self.failed_packets.append(packet)

    # -- campaign helpers ---------------------------------------------------------------------

    def drain_ledgers(self):
        """Hand completed/failed packets to the Analyzer and reset the lists.

        Returns ``(completed_writes, completed_reads, failed)``.
        """
        writes, self.completed_writes = self.completed_writes, []
        reads, self.completed_reads = self.completed_reads, []
        failed, self.failed_packets = self.failed_packets, []
        for packet in writes + reads + failed:
            self.packets.pop(packet.packet_id, None)
        return writes, reads, failed

    @property
    def inflight(self) -> int:
        """Packets issued whose completion callback has not fired yet."""
        return self.issued - self.completions
