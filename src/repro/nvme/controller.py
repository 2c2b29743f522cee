"""The NVMe-style controller front-end over :class:`~repro.ssd.device.SsdDevice`.

The controller owns the queue pairs, translates NVM commands into the
device's native :class:`~repro.ssd.command.IoCommand`, and posts one
completion entry per admitted command.  Completion ≡ acknowledgement: the
instant a CQE lands in the completion queue is the only moment a write
counts as acked, and the ``on_submission`` / ``on_completion`` hooks fire
at exactly the submission and CQE-post instants so a command log can
record both sides of every exchange.

The admin path mirrors Get Log Page: log page 0x02 returns the SMART /
Health Information snapshot (power cycles, unsafe shutdowns, media errors)
built from the same counters ``repro.ssd.smart`` reports, and
:meth:`NvmeController.shutdown_notify` models the CC.SHN shutdown
notification — flush, checkpoint, then arm the device so the next power
removal does not count as unsafe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import NvmeQueueError
from repro.nvme.command import NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus
from repro.nvme.queue import QueuePair
from repro.ssd.command import CommandStatus, IoCommand
from repro.ssd.device import SsdDevice
from repro.ssd.smart import SmartLog
from repro.workload.checksum import TOKEN_ZERO, page_token

SMART_LOG_PAGE = 0x02
"""Get Log Page identifier of the SMART / Health Information log."""


@dataclass(frozen=True)
class NvmeHealthLog:
    """The SMART / Health Information log page (0x02), model edition.

    ``unsafe_shutdowns`` is the field dirty-power-cycle qualification
    asserts on (pynvme reads it at byte offsets 144..159 of the real page);
    ``smart`` carries the full vendor-attribute snapshot for anything the
    NVMe page does not name.
    """

    critical_warning: int
    power_cycles: int
    unsafe_shutdowns: int
    unexpected_power_losses: int
    media_errors: int
    host_reads_completed: int
    host_writes_completed: int
    smart: SmartLog

    def as_dict(self) -> Dict[str, int]:
        """Flat name -> value mapping (health fields + SMART attributes)."""
        log = {
            "critical_warning": self.critical_warning,
            "power_cycles": self.power_cycles,
            "unsafe_shutdowns": self.unsafe_shutdowns,
            "unexpected_power_losses": self.unexpected_power_losses,
            "media_errors": self.media_errors,
            "host_reads_completed": self.host_reads_completed,
            "host_writes_completed": self.host_writes_completed,
        }
        log.update(self.smart.as_dict())
        return log


class NvmeController:
    """Queue-pair front-end plus admin path for one SSD.

    Example
    -------
    >>> from repro.host.system import HostSystem
    >>> host = HostSystem(seed=7)
    >>> host.boot()
    >>> ctrl = NvmeController(host.ssd)
    >>> qpair = ctrl.create_io_qpair(depth=8)
    >>> cid = ctrl.submit(qpair, NvmeCommand(NvmeOpcode.WRITE, slba=0, nlb=2))
    >>> ctrl.ring_doorbell(qpair)
    1
    >>> host.run_for_ms(50)
    >>> [c.cid for c in ctrl.reap(qpair)] == [cid]
    True
    """

    def __init__(self, device: SsdDevice) -> None:
        self.device = device
        self.kernel = device.kernel
        self._next_qid = 1
        self.qpairs: List[QueuePair] = []
        # Observation hooks (the stress harness wires its command log here).
        self.on_submission: Optional[Callable[[NvmeCommand], None]] = None
        self.on_completion: Optional[Callable[[NvmeCompletion], None]] = None

    # -- queue management ---------------------------------------------------------

    def create_io_qpair(self, depth: int = 64) -> QueuePair:
        """Allocate one submission/completion queue pair of ``depth``."""
        qpair = QueuePair(self._next_qid, depth)
        self._next_qid += 1
        self.qpairs.append(qpair)
        return qpair

    # -- IO path ------------------------------------------------------------------

    def submit(self, qpair: QueuePair, command: NvmeCommand) -> int:
        """Place a command in the submission queue; returns its cid.

        The entry is not seen by the device until :meth:`ring_doorbell`.
        WRITE commands with no explicit payload get unique per-page tokens
        derived from the cid; WRITE ZEROES always carries the zero token.
        """
        cid = qpair.assign_cid(command)
        if command.opcode is NvmeOpcode.WRITE_ZEROES:
            command.tokens = [TOKEN_ZERO] * command.nlb
        elif command.opcode is NvmeOpcode.WRITE and not command.tokens:
            command.tokens = [page_token(cid, offset) for offset in range(command.nlb)]
        command.submit_time = self.kernel.now
        qpair.sq.push(command)
        qpair.submitted += 1
        if self.on_submission is not None:
            self.on_submission(command)
        return cid

    def ring_doorbell(self, qpair: QueuePair) -> int:
        """Tell the controller the SQ tail moved; returns commands admitted."""
        return self._pump(qpair)

    def reap(self, qpair: QueuePair, max_entries: Optional[int] = None) -> List[NvmeCompletion]:
        """Consume posted completions, freeing CQ slots for more admissions."""
        completions = qpair.cq.reap(max_entries)
        if completions:
            self._pump(qpair)
        return completions

    def abort_backlog(self, qpair: QueuePair) -> List[NvmeCompletion]:
        """Error-complete every not-yet-admitted SQ entry (link-down abort).

        After a power fault the device errors its own queue, but entries
        still sitting in the host-side submission queue never reached it;
        the host stack completes those internally.  They go through the
        ``on_completion`` hook like any CQE (an aborted command is an
        observable non-acknowledgement) but bypass the completion queue.
        """
        aborted: List[NvmeCompletion] = []
        for command in qpair.sq.drain():
            completion = NvmeCompletion(
                cid=command.cid,
                opcode=command.opcode,
                status=NvmeStatus.ABORTED_POWER_LOSS,
                slba=command.slba,
                nlb=command.nlb,
                complete_time=self.kernel.now,
            )
            qpair.completed_error += 1
            if self.on_completion is not None:
                self.on_completion(completion)
            aborted.append(completion)
        return aborted

    def _pump(self, qpair: QueuePair) -> int:
        admitted = 0
        while len(qpair.sq) and qpair.can_admit():
            self._issue(qpair, qpair.sq.pop())
            admitted += 1
        return admitted

    def _issue(self, qpair: QueuePair, command: NvmeCommand) -> None:
        qpair.outstanding[command.cid] = command

        def finish(io: IoCommand) -> None:
            qpair.outstanding.pop(command.cid, None)
            status = NvmeStatus.from_command_status(io.status)
            completion = NvmeCompletion(
                cid=command.cid,
                opcode=command.opcode,
                status=status,
                slba=command.slba,
                nlb=command.nlb,
                complete_time=self.kernel.now,
                tokens=list(io.tokens) if command.opcode is NvmeOpcode.READ else None,
            )
            if status is NvmeStatus.SUCCESS:
                qpair.completed_ok += 1
            else:
                qpair.completed_error += 1
            qpair.cq.post(completion)
            if self.on_completion is not None:
                self.on_completion(completion)

        if command.opcode is NvmeOpcode.FLUSH:
            io = IoCommand.flush(on_complete=finish, tag=command.cid)
        elif command.opcode is NvmeOpcode.READ:
            io = IoCommand.read(command.slba, command.nlb, on_complete=finish, tag=command.cid)
        else:  # WRITE / WRITE_ZEROES both program tokens at an address
            io = IoCommand.write(
                command.slba, command.tokens, on_complete=finish, tag=command.cid
            )
        self.device.submit(io)

    # -- admin path ---------------------------------------------------------------

    def identify(self) -> Dict[str, object]:
        """Identify Controller, model edition."""
        config = self.device.config
        return {
            "model": config.name,
            "capacity_bytes": config.capacity_bytes,
            "cell": config.cell.name,
            "queue_depth": config.queue_depth,
            "power_loss_protection": config.supercap is not None,
            "write_cache": config.cache_enabled,
        }

    def get_log_page(self, page_id: int) -> NvmeHealthLog:
        """Admin Get Log Page (only the SMART / Health page is implemented)."""
        if page_id != SMART_LOG_PAGE:
            raise NvmeQueueError(f"unsupported log page 0x{page_id:02x}")
        return self.get_log_page_smart()

    def get_log_page_smart(self) -> NvmeHealthLog:
        """The SMART / Health Information snapshot (log page 0x02)."""
        device = self.device
        smart = device.smart_log()
        return NvmeHealthLog(
            critical_warning=0,
            power_cycles=device.power_cycles,
            unsafe_shutdowns=device.unsafe_shutdowns,
            unexpected_power_losses=device.unclean_losses,
            media_errors=device.chip.uncorrectable_reads,
            host_reads_completed=device.reads_ok,
            host_writes_completed=device.writes_ok,
            smart=smart,
        )

    def shutdown_notify(self) -> IoCommand:
        """Model CC.SHN: flush volatile state, then arm a clean shutdown.

        Returns the FLUSH command; once it completes (run the kernel), the
        next power removal is orderly — neither the unexpected-power-loss
        nor the unsafe-shutdown SMART counter moves.
        """

        def armed(io: IoCommand) -> None:
            if io.status is CommandStatus.OK:
                self.device.arm_clean_shutdown()

        flush = IoCommand.flush(on_complete=armed)
        self.device.submit(flush)
        return flush
