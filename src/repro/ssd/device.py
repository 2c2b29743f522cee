"""The integrated SSD device model.

See the package docstring for the power-behaviour overview.  The device runs
two internal processes while READY:

- the **dispatcher** serves host commands in FIFO order through a single
  command processor (its per-command overhead is what caps random-write
  IOPS — the saturation the paper measures in Fig. 8);
- the **flusher** destages the write cache to flash in parallel batches,
  carrying precise per-page planned commit times so that a power fault can
  be resolved page-exactly: pages whose commit instant had passed are
  durable (at whatever voltage the rail had *at that instant*), the pages
  in flight are torn mid-ISPP, the rest die with the DRAM.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.cache import FlushPolicy, SupercapBackup, WriteCache
from repro.errors import ConfigurationError, ProtocolError
from repro.ftl import Ftl, FtlConfig, RecoveryReport
from repro.ftl.ftl import WritePlan
from repro.ftl.mapping import contiguous_runs
from repro.nand import (
    CellKind,
    CorruptionModel,
    EccScheme,
    FlashChip,
    NandGeometry,
    NandTiming,
)
from repro.nand.chip import CORRUPT_TOKEN, PageState
from repro.power.psu import AtxPsu, PsuState
from repro.rand import RandomStreams
from repro.sim import Kernel, Process, Signal
from repro.ssd.command import CommandOp, CommandStatus, IoCommand
from repro.ssd.power_state import DevicePowerState, PowerThresholds
from repro.units import GIB, KIB, MSEC


@dataclass(frozen=True)
class SsdConfig:
    """Full device specification (one row of the paper's Table I).

    All component configs are immutable; build variants with
    ``dataclasses.replace``.
    """

    name: str = "generic-mlc"
    capacity_bytes: int = 128 * GIB
    cell: CellKind = CellKind.MLC
    ecc: EccScheme = EccScheme.bch()
    timing: NandTiming = NandTiming()
    corruption: CorruptionModel = CorruptionModel()
    ftl: FtlConfig = FtlConfig()
    flush: FlushPolicy = FlushPolicy()
    cache_enabled: bool = True
    thresholds: PowerThresholds = PowerThresholds()
    interface_overhead_us: int = 140
    link_mib_per_sec: int = 550
    queue_depth: int = 32
    current_draw_amps: float = 1.0
    init_time_us: int = 400 * MSEC
    recovery_time_us: int = 0
    supercap: Optional[SupercapBackup] = None
    release_year: Optional[int] = None

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("capacity must be positive")
        if self.interface_overhead_us < 0 or self.link_mib_per_sec <= 0:
            raise ConfigurationError("bad interface parameters")
        if self.queue_depth <= 0:
            raise ConfigurationError("queue depth must be positive")
        if not 0.0 < self.current_draw_amps < 10.0:
            raise ConfigurationError("implausible current draw")
        if self.recovery_time_us < 0:
            raise ConfigurationError("recovery time cannot be negative")

    def transfer_us(self, nbytes: int) -> int:
        """Host-link transfer time for ``nbytes``."""
        return round(nbytes / (self.link_mib_per_sec * KIB * KIB) * 1_000_000)


@dataclass
class _FlushBatch:
    """Bookkeeping for one in-flight destage batch."""

    plans: List[WritePlan]
    tokens: List[int]  # one per page of the plans, in plan order
    start_us: int
    page_write_us: int
    parallelism: int

    @property
    def total_pages(self) -> int:
        """Pages in the batch."""
        return len(self.tokens)

    def commit_time(self, batch_index: int) -> int:
        """Planned commit instant of the batch's ``batch_index``-th page."""
        round_number = batch_index // self.parallelism
        return self.start_us + (round_number + 1) * self.page_write_us

    def committed_prefix(self, now: int) -> int:
        """Number of leading pages whose commit instant has passed."""
        full_rounds = max(0, (now - self.start_us) // self.page_write_us)
        return min(self.total_pages, full_rounds * self.parallelism)

    def started_count(self, now: int) -> int:
        """Pages whose program pulse train had begun by ``now``."""
        if now <= self.start_us:
            return 0
        rounds_started = (now - self.start_us + self.page_write_us - 1) // self.page_write_us
        return min(self.total_pages, rounds_started * self.parallelism)

    @property
    def duration_us(self) -> int:
        """Wall time of the whole batch."""
        rounds = -(-self.total_pages // self.parallelism)
        return rounds * self.page_write_us


@dataclass
class PowerFaultDamage:
    """Per-fault internal damage summary (forensics / tests)."""

    dirty_pages_lost: int = 0
    inflight_pages_torn: int = 0
    inflight_pages_corrupted: int = 0
    collateral_pages_corrupted: int = 0
    stranded_map_updates: int = 0
    commands_errored: int = 0
    supercap_pages_saved: int = 0


class SsdDevice:
    """A complete SSD wired to a PSU rail.

    Example
    -------
    >>> from repro.sim import Kernel
    >>> from repro.power import AtxPsu
    >>> k = Kernel()
    >>> psu = AtxPsu(k); psu.mains_on()
    >>> ssd = SsdDevice(k, SsdConfig(), psu, RandomStreams(1))
    >>> psu.set_ps_on(True); k.run()
    >>> ssd.state
    <DevicePowerState.READY: 'ready'>
    """

    def __init__(
        self,
        kernel: Kernel,
        config: SsdConfig,
        psu: AtxPsu,
        streams: RandomStreams,
        name: str = "",
    ) -> None:
        self.kernel = kernel
        self.config = config
        self.psu = psu
        self.name = name or config.name
        self.streams = streams
        geometry = NandGeometry.for_capacity(config.capacity_bytes)
        self._backup_power = False  # supercap holding the internals up
        self.chip = FlashChip(
            geometry,
            cell=config.cell,
            timing=config.timing,
            ecc=config.ecc,
            corruption=config.corruption,
            rng=streams.stream("nand"),
            voltage_source=self._internal_volts_now,
        )
        self.ftl = Ftl(kernel, self.chip, config.ftl, streams.stream("ftl"))
        self.cache = WriteCache()
        self.parallelism = geometry.planes
        self.page_write_us = config.timing.page_write_us(config.cell, geometry.page_size)
        self.page_read_us = config.timing.page_read_us(geometry.page_size)

        self.state = DevicePowerState.OFF
        self._unclean_shutdown = False
        self._clean_shutdown_armed = False
        self._queue: Deque[IoCommand] = deque()
        self._current_cmd: Optional[IoCommand] = None
        self._arrival = Signal(f"{self.name}.arrival")
        self._dirty = Signal(f"{self.name}.dirty")
        self._drain = Signal(f"{self.name}.drain")
        self.ready_signal = Signal(f"{self.name}.ready")
        self._dispatcher: Optional[Process] = None
        self._flusher: Optional[Process] = None
        self._active_batch: Optional[_FlushBatch] = None
        self._init_event = None
        self._recovery_event = None
        self.last_recovery: Optional[RecoveryReport] = None
        self.last_damage: Optional[PowerFaultDamage] = None

        # Statistics.
        self.commands_ok = 0
        self.commands_errored = 0
        self.reads_ok = 0
        self.writes_ok = 0
        self.power_cycles = 0
        self.unclean_losses = 0
        self.unsafe_shutdowns = 0
        self.recovery_interruptions = 0

        psu.attach_load(self)
        thresholds = config.thresholds
        psu.watch_threshold(
            thresholds.detach_volts, self._on_detach, on_rising=self._on_rail_up
        )
        psu.watch_threshold(thresholds.brownout_volts, self._on_brownout)

    # -- internal rail -----------------------------------------------------------

    def _internal_volts_now(self) -> float:
        """Voltage the controller/NAND actually see right now.

        A PLP (supercap) drive switches to its capacitor bank the moment the
        external rail sags below the detach threshold, so its internals keep
        seeing nominal voltage; everything else rides the PSU waveform.
        """
        if self._backup_power:
            return 5.0
        return self.psu.voltage()

    def _batch_volts(
        self, batch: _FlushBatch, lo: int, hi: int
    ) -> Union[float, List[float]]:
        """Voltage the internals saw at the commit instants of pages ``lo:hi``.

        One value while the rail cannot move (the supercap holds it, or the
        PSU is ``ON``, which reads nominal at every instant of its episode),
        else one waveform sample per page.
        """
        if self._backup_power:
            return 5.0
        psu = self.psu
        if psu.state is PsuState.ON:
            return psu.V_NOMINAL
        return [psu.voltage_at(batch.commit_time(index)) for index in range(lo, hi)]

    # -- PSU load protocol ---------------------------------------------------------

    def current_draw_amps(self) -> float:
        """Load presented to the 5 V rail."""
        if self.state in (DevicePowerState.OFF, DevicePowerState.DEAD):
            return 0.02  # leakage only
        return self.config.current_draw_amps

    # -- host interface ---------------------------------------------------------------

    def submit(self, command: IoCommand) -> None:
        """Queue a command; completion is reported via ``command.on_complete``.

        Commands submitted while the device is not READY fail immediately
        with IO_ERROR — the host-visible unavailability the paper measures.
        """
        command.submit_time = self.kernel.now
        self._clean_shutdown_armed = False  # new work voids a shutdown notification
        if self.state is not DevicePowerState.READY:
            self._complete(command, CommandStatus.IO_ERROR)
            return
        max_pages = self.chip.geometry.total_pages
        if command.op is not CommandOp.FLUSH and command.lpn + command.page_count > max_pages:
            raise ProtocolError(
                f"command beyond device capacity ({command.lpn}+{command.page_count})"
            )
        self._queue.append(command)
        self._arrival.fire()

    def arm_clean_shutdown(self) -> None:
        """Record an NVMe-style shutdown notification (CC.SHN).

        Callers must have drained volatile state first (FLUSH); the next
        power removal is then an *orderly* shutdown: it neither marks the
        device unclean nor bumps the unsafe-shutdown SMART counter.  Any
        subsequently submitted command disarms the notification.
        """
        self._clean_shutdown_armed = True

    def peek_run(self, lpn: int, count: int) -> List[Optional[int]]:
        """Zero-time forensic read of ``count`` pages from ``lpn``.

        Per page, the data token visible there: the dirty-cache token if
        buffered, the flash token if mapped and correctable,
        :data:`CORRUPT_TOKEN` if unreadable, or None when the page reads as
        erased/unmapped.  The maps are resolved once for the run, and the
        flash pages go through :meth:`FlashChip.inspect_run`, so the read
        has no side effect: no counter, SMART attribute, read disturb or
        random draw moves.  Every auditor reads through here.
        """
        ppas = self.ftl.lookup_run(lpn, count)
        if not (self.config.cache_enabled and self.cache.dirty_count):
            return self.chip.inspect_run(ppas)
        cached = list(map(self.cache.peek, range(lpn, lpn + count)))
        for offset, token in enumerate(cached):
            if token is not None:
                ppas[offset] = None  # the flash copy is not read
        tokens = self.chip.inspect_run(ppas)
        return [
            token if token is not None else flash
            for token, flash in zip(cached, tokens)
        ]

    def peek(self, lpn: int) -> Optional[int]:
        """:meth:`peek_run` of one page."""
        return self.peek_run(lpn, 1)[0]

    # -- completion plumbing -------------------------------------------------------------

    def _complete(self, command: IoCommand, status: CommandStatus) -> None:
        if command.done:
            return
        command.status = status
        command.complete_time = self.kernel.now
        if status is CommandStatus.OK:
            self.commands_ok += 1
            if command.op is CommandOp.READ:
                self.reads_ok += 1
            elif command.op is CommandOp.WRITE:
                self.writes_ok += 1
        else:
            self.commands_errored += 1
        if command.on_complete is not None:
            command.on_complete(command)

    # -- dispatcher process -----------------------------------------------------------------

    def _dispatcher_body(self):
        config = self.config
        while True:
            if not self._queue:
                yield self._arrival
                continue
            command = self._queue.popleft()
            self._current_cmd = command
            transfer = (
                config.transfer_us(command.bytes)
                if command.op in (CommandOp.READ, CommandOp.WRITE)
                else 0
            )
            yield config.interface_overhead_us + transfer
            if command.op is CommandOp.WRITE:
                if config.cache_enabled:
                    # Admission throttle (oversized requests admit once the
                    # cache drains — see FlushPolicy.throttled).
                    while self.config.flush.throttled(
                        self.cache.dirty_count, command.page_count
                    ):
                        self._dirty.fire()
                        yield self._drain
                    self.cache.insert_run(command.lpn, command.tokens)
                    self._dirty.fire()
                    self._complete(command, CommandStatus.OK)
                else:
                    # Write-through: durable before ACK (cache disabled).
                    yield from self._write_through(command)
            elif command.op is CommandOp.READ:
                tokens, nand_pages = self._host_read(command.lpn, command.page_count)
                if nand_pages:
                    rounds = -(-nand_pages // self.parallelism)
                    yield rounds * self.page_read_us
                command.tokens = tokens
                self._complete(command, CommandStatus.OK)
            elif command.op is CommandOp.TRIM:
                if config.cache_enabled:
                    self.cache.discard(command.lpn, command.page_count)
                self.ftl.trim_range(command.lpn, command.page_count)
                self._complete(command, CommandStatus.OK)
            elif command.op is CommandOp.FLUSH:
                # A batch the flusher has already taken out of the cache
                # (dirty_count no longer sees it) records its map updates
                # only when it lands — FLUSH must wait for it, or the
                # checkpoint would miss acked data still in flight.
                while self.cache.dirty_count > 0 or self._active_batch is not None:
                    self._dirty.fire()
                    yield self._drain
                self.ftl.checkpoint()
                self._complete(command, CommandStatus.OK)
            self._current_cmd = None

    def _host_read(self, lpn: int, count: int) -> Tuple[List[int], int]:
        """Tokens a host READ of ``count`` pages from ``lpn`` returns, and how
        many of those pages missed the cache.

        Dirty pages hit the write cache; the misses resolve through the maps
        once for the run.  An unmapped page reads 0 without touching the
        chip; a mapped one goes through :meth:`FlashChip.read_page`, with its
        counters, read disturb and draws, in page order.
        """
        tokens = (
            self.cache.read_run(lpn, count)
            if self.config.cache_enabled
            else [None] * count
        )
        misses = tokens.count(None)
        if misses:
            read_page = self.chip.read_page
            for offset, ppa in enumerate(self.ftl.lookup_run(lpn, count)):
                if tokens[offset] is not None:
                    continue
                if ppa is None:
                    tokens[offset] = 0
                    continue
                result = read_page(ppa)
                if result.state is PageState.ERASED:
                    tokens[offset] = 0
                elif not result.ok:
                    tokens[offset] = CORRUPT_TOKEN
                else:
                    tokens[offset] = result.token
        return tokens, misses

    def _write_through(self, command: IoCommand):
        batch = self._build_batch(
            range(command.lpn, command.lpn + command.page_count), command.tokens
        )
        self._active_batch = batch
        yield (batch.start_us - self.kernel.now) + batch.duration_us
        self._commit_batch_full(batch)
        self._active_batch = None
        self._complete(command, CommandStatus.OK)

    # -- flusher process --------------------------------------------------------------------

    def _flusher_body(self):
        policy = self.config.flush
        while True:
            if self.cache.dirty_count == 0:
                yield self._dirty
                continue
            if self.cache.dirty_count < policy.batch_pages and policy.linger_us > 0:
                yield policy.linger_us  # small-write aggregation window
            lpns, tokens = self.cache.take_batch(policy.batch_pages)
            if not lpns:
                continue
            batch = self._build_batch(lpns, tokens)
            self._active_batch = batch
            yield (batch.start_us - self.kernel.now) + batch.duration_us
            self._commit_batch_full(batch)
            self._active_batch = None
            self._drain.fire()

    def _build_batch(self, lpns: Sequence[int], tokens: List[int]) -> _FlushBatch:
        """Split a page list into contiguous runs and allocate flash for them."""
        plans = [
            self.ftl.prepare_write(range(start, start + count))
            for start, count in contiguous_runs(lpns)
        ]
        extra_us = self.ftl.consume_background_us()
        return _FlushBatch(
            plans=plans,
            tokens=tokens,
            start_us=self.kernel.now + extra_us,
            page_write_us=self.page_write_us,
            parallelism=self.parallelism,
        )

    def _commit_batch_full(self, batch: _FlushBatch) -> None:
        self.ftl.commit_batch(
            batch.plans, batch.tokens, self._batch_volts(batch, 0, batch.total_pages)
        )

    def _resolve_batch_partial(self, batch: _FlushBatch, damage: PowerFaultDamage) -> None:
        """Page-exact resolution of a batch torn by brownout.

        The pages whose commit instants had passed commit as one prefix;
        the pages whose pulse trains had begun are torn in one
        :meth:`FlashChip.apply_interruption_batch`.  Every committed page
        precedes every torn one, so the draws keep batch page order.
        """
        now = self.kernel.now
        committed = batch.committed_prefix(now)
        started = batch.started_count(now)
        if committed:
            self.ftl.commit_batch(
                batch.plans, batch.tokens[:committed], self._batch_volts(batch, 0, committed)
            )
        if started > committed:
            ppas = list(chain.from_iterable(plan.ppas for plan in batch.plans))
            torn: List[Tuple[int, float, int]] = []
            for index in range(committed, started):
                progress_base = batch.commit_time(index) - batch.page_write_us
                progress = (now - progress_base) / batch.page_write_us
                progress = min(1.0, max(0.0, progress))
                torn.append((ppas[index], progress, batch.tokens[index]))
            report = self.chip.apply_interruption_batch(torn)
            damage.inflight_pages_torn += len(torn)
            damage.inflight_pages_corrupted += len(report.corrupted_pages)
            damage.collateral_pages_corrupted += len(report.collateral_pages)
        # Later pages never reached the array; their data dies with DRAM.
        damage.dirty_pages_lost += batch.total_pages - started

    # -- power-event handlers ------------------------------------------------------------------

    def _on_detach(self, volts: float) -> None:
        if self.state not in (
            DevicePowerState.READY,
            DevicePowerState.INITIALIZING,
            DevicePowerState.RECOVERING,
        ):
            return
        was_booting = self.state is not DevicePowerState.READY
        was_recovering = self.state is DevicePowerState.RECOVERING
        self.state = DevicePowerState.DETACHED
        if self._init_event is not None:
            self._init_event.cancel()
            self._init_event = None
        if self._recovery_event is not None:
            self._recovery_event.cancel()
            self._recovery_event = None
        if was_recovering:
            # Power loss *during* recovery: the rebuild never applied, so the
            # stranded journal entries stay on media untouched and the next
            # power-on re-enters recovery from exactly that state.
            self.recovery_interruptions += 1
            self.ftl.recovery.note_interrupted()
        if was_booting:
            return
        # Host side: the link is gone.  Every outstanding command errors.
        damage = PowerFaultDamage()
        if self._dispatcher is not None:
            self._dispatcher.kill()
            self._dispatcher = None
        if self._current_cmd is not None and not self._current_cmd.done:
            self._complete(self._current_cmd, CommandStatus.IO_ERROR)
            damage.commands_errored += 1
            self._current_cmd = None
        while self._queue:
            self._complete(self._queue.popleft(), CommandStatus.IO_ERROR)
            damage.commands_errored += 1
        self.last_damage = damage
        # Internals (flusher, journal timer) keep running — PLP drives hand
        # over to the capacitor bank, everything else rides the sagging rail.
        if self.config.supercap is not None:
            self._backup_power = True

    def _on_brownout(self, volts: float) -> None:
        if self.state is not DevicePowerState.DETACHED:
            return
        self.state = DevicePowerState.DEAD
        if self._clean_shutdown_armed:
            # Orderly shutdown (NVMe CC.SHN acknowledged): the cache and
            # journal were drained before the rail fell, so this power
            # removal is neither unclean nor unsafe.
            self._clean_shutdown_armed = False
            if self._flusher is not None and self._flusher.alive:
                self._flusher.kill()
            self._flusher = None
            if self._dispatcher is not None and self._dispatcher.alive:
                self._dispatcher.kill()
            self._dispatcher = None
            self._backup_power = False
            self.ftl.power_loss()
            self.chip.power_loss()
            self.last_damage = self.last_damage or PowerFaultDamage()
            return
        self.unclean_losses += 1
        self.unsafe_shutdowns += 1
        self._unclean_shutdown = True
        damage = self.last_damage or PowerFaultDamage()
        # Supercap (if fitted) destages what its energy budget allows.
        if self.config.supercap is not None:
            saved = self._supercap_destage(self.config.supercap)
            damage.supercap_pages_saved = saved
        if self._flusher is not None and self._flusher.alive:
            batch = self._active_batch
            self._flusher.kill()
            if batch is not None:
                self._resolve_batch_partial(batch, damage)
                self._active_batch = None
        self._flusher = None
        if self._dispatcher is not None and self._dispatcher.alive:
            # Write-through path may have a batch in flight too.
            batch = self._active_batch
            self._dispatcher.kill()
            if batch is not None:
                self._resolve_batch_partial(batch, damage)
                self._active_batch = None
            self._dispatcher = None
        lost = self.cache.drop_all()
        damage.dirty_pages_lost += len(lost)
        damage.stranded_map_updates = self.ftl.journal.pending_count
        self._backup_power = False  # the capacitor bank is spent
        self.ftl.power_loss()
        self.chip.power_loss()
        self.last_damage = damage

    def _supercap_destage(self, supercap: SupercapBackup) -> int:
        budget_pages = supercap.destageable_pages(self.page_write_us, self.parallelism)
        saved = 0
        while saved < budget_pages and self.cache.dirty_count > 0:
            lpns, tokens = self.cache.take_batch(
                min(self.config.flush.batch_pages, budget_pages - saved)
            )
            if not lpns:
                break
            batch = self._build_batch(lpns, tokens)
            # Supercap keeps the internals at nominal voltage while it lasts.
            self.ftl.commit_batch(batch.plans, batch.tokens, 5.0)
            saved += batch.total_pages
        if self.cache.dirty_count == 0:
            self.ftl.checkpoint()  # clean map on the way down
        return saved

    def _on_rail_up(self, volts: float) -> None:
        if self.state not in (DevicePowerState.OFF, DevicePowerState.DEAD, DevicePowerState.DETACHED):
            return
        self.state = DevicePowerState.INITIALIZING
        self._backup_power = False  # external rail is back
        self.power_cycles += 1
        self._init_event = self.kernel.schedule(self.config.init_time_us, self._init_done)

    def _init_done(self) -> None:
        self._init_event = None
        if self.state is not DevicePowerState.INITIALIZING:
            return
        self.chip.power_on()
        if self._unclean_shutdown and self.config.recovery_time_us > 0:
            # Recovery takes wall time: the OOB scan runs while RECOVERING
            # and its result is applied atomically at the end of the window.
            # A power loss inside the window cancels the application; the
            # stranded updates stay on media for the next attempt.
            self.state = DevicePowerState.RECOVERING
            self._recovery_event = self.kernel.schedule(
                self.config.recovery_time_us, self._recovery_done
            )
            return
        self._finish_bringup()

    def _recovery_done(self) -> None:
        self._recovery_event = None
        if self.state is not DevicePowerState.RECOVERING:
            return
        self._finish_bringup()

    def _finish_bringup(self) -> None:
        if self._unclean_shutdown:
            self.last_recovery = self.ftl.power_on_recover()
            self._unclean_shutdown = False
        else:
            self.ftl.start()
        self.state = DevicePowerState.READY
        self._queue.clear()
        self._dispatcher = Process(
            self.kernel, self._dispatcher_body(), name=f"{self.name}.dispatcher"
        )
        self._flusher = Process(
            self.kernel, self._flusher_body(), name=f"{self.name}.flusher"
        )
        self.ready_signal.fire()

    # -- introspection -------------------------------------------------------------------------

    @property
    def is_ready(self) -> bool:
        """True while the device accepts host commands."""
        return self.state is DevicePowerState.READY

    def smart_log(self):
        """SMART-style health snapshot (see :mod:`repro.ssd.smart`)."""
        from repro.ssd.smart import collect_smart

        return collect_smart(self)

    def stats(self) -> Dict:
        """Counters snapshot."""
        return {
            "state": self.state.value,
            "commands_ok": self.commands_ok,
            "commands_errored": self.commands_errored,
            "reads_ok": self.reads_ok,
            "writes_ok": self.writes_ok,
            "power_cycles": self.power_cycles,
            "unclean_losses": self.unclean_losses,
            "unsafe_shutdowns": self.unsafe_shutdowns,
            "recovery_interruptions": self.recovery_interruptions,
            "cache_dirty": self.cache.dirty_count,
            "ftl": self.ftl.stats(),
        }
