"""A cache topology: SSD cache tier in front of a durable backing store.

This is the enterprise system of Ahmadian et al.'s follow-up study
(PAPERS.md, arXiv:1912.01555): host writes land in an SSD cache tier
(one leg, or two mirrored legs, each a
:class:`~repro.host.system.HostSystem` on the topology's kernel) backed
by a slow-but-durable array (:class:`~repro.topology.backing.BackingStore`).
Three cache policies decide when a write is acknowledged:

- ``wb`` (write-back): ACK once every cache leg holds the data; a destage
  daemon drains the dirty ledger to the backing store in
  ``FlushPolicy.batch_pages`` batches, and admission stalls once
  ``FlushPolicy.max_dirty_pages`` pages are dirty;
- ``wt`` (write-through): the write warms the cache legs but the ACK waits
  for the backing-store commit;
- ``wa`` (write-around): the cache is bypassed entirely.

Power domains are explicit: ``shared_power=True`` puts every cache leg
*and* the backing store on one PDU (a fault takes the whole rack section);
``shared_power=False`` gives each leg its own rail and keeps the backing
store on a never-faulted rail, so faults hit one cache leg at a time.

After each fault/recovery round-trip, :meth:`CacheTopology.audit_and_reset`
classifies every acknowledged host write by where its live pages survived:

====================  =====================================================
verdict               meaning
====================  =====================================================
``intact``            every live page still at its ack-time durable home
``recovered``         a device lost its copy, but another tier has it
``lost``              some live page exists nowhere — application-visible
====================  =====================================================
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.flush import FlushPolicy
from repro.errors import ConfigurationError
from repro.ftl.mapping import contiguous_runs
from repro.host.block_layer import BlockRequest
from repro.host.system import (
    BROWNOUT_TIMEOUT_US,
    READY_TIMEOUT_US,
    HostSystem,
    power_on_together,
)
from repro.power.controller import PowerController
from repro.rand import RandomStreams
from repro.sim import Kernel
from repro.ssd.device import SsdConfig
from repro.ssd.power_state import DevicePowerState
from repro.topology.backing import BackingStore

POLICIES = ("wb", "wt", "wa")


@dataclass(frozen=True)
class CycleAudit:
    """Per-cycle classification of every acknowledged host write."""

    acked: int
    intact: int
    recovered: int
    lost: int
    io_errors: int


class CacheTopology:
    """SSD cache tier + backing store under one simulation kernel.

    Each cache leg is a :class:`~repro.host.system.HostSystem` on the
    topology's kernel: ``cache-0`` alone, or ``mirror-a`` and ``mirror-b``
    at ``seed`` and ``seed + 1``.  With ``shared_power`` every leg and the
    backing store hang off one PDU controller; otherwise each leg has its
    own and the backing store a third.

    All simulation state is a pure function of the constructor arguments,
    so a topology cycle is reproducible from ``(config, seed)`` alone —
    the property the engine's ``jobs=1 ≡ jobs=N`` guarantee rests on.
    """

    def __init__(
        self,
        *,
        device: SsdConfig,
        policy: str = "wb",
        mirror_cache: bool = False,
        shared_power: bool = False,
        destage: Optional[FlushPolicy] = None,
        seed: int = 0,
    ) -> None:
        if policy not in POLICIES:
            raise ConfigurationError(f"unknown cache policy {policy!r}")
        self.policy = policy
        self.mirror_cache = mirror_cache
        self.shared_power = shared_power
        self.destage = destage if destage is not None else FlushPolicy()
        self.kernel = Kernel()
        self.streams = RandomStreams(seed)

        self.pdu: Optional[PowerController] = (
            PowerController(self.kernel) if shared_power else None
        )
        names = ("mirror-a", "mirror-b") if mirror_cache else ("cache-0",)
        self.legs = [
            HostSystem(
                config=device,
                seed=seed + index,
                kernel=self.kernel,
                power=self.pdu,
                name=name,
            )
            for index, name in enumerate(names)
        ]
        backing_power = self.pdu if shared_power else PowerController(self.kernel)
        self.backing = BackingStore(self.kernel, backing_power)

        # Host-visible state, reset every cycle by audit_and_reset().
        self.dirty: "OrderedDict[int, int]" = OrderedDict()  # lpn -> token (WB)
        self.acked: List[Tuple[int, int, List[int]]] = []  # (order, lpn, tokens)
        self.in_flight = 0
        self.io_errors = 0
        self._ack_order = 0
        self._destage_pending = 0
        self._next_token = 1
        # Lifetime statistics.
        self.writes_submitted = 0
        self.pages_destaged = 0

    # -- lifecycle ---------------------------------------------------------------------

    def boot(self) -> None:
        """Power every domain on and wait for all cache legs."""
        self.restore()

    def run_for(self, duration_us: int) -> None:
        """Advance simulated time."""
        self.kernel.run(until=self.kernel.now + duration_us)

    # -- host write path ---------------------------------------------------------------

    def alloc_tokens(self, count: int) -> List[int]:
        """Fresh verification tokens — unique for the topology's lifetime,
        so stale pages from earlier cycles can never alias a later audit."""
        start = self._next_token
        self._next_token += count
        return list(range(start, start + count))

    def admission_throttled(self, incoming_pages: int) -> bool:
        """Whether a WB host write must wait for the dirty ledger to drain."""
        if self.policy != "wb":
            return False
        return self.destage.throttled(len(self.dirty), incoming_pages)

    def submit_host_write(self, lpn: int, tokens: List[int]) -> None:
        """One application write; the ACK point depends on the policy."""
        self.writes_submitted += 1
        self.in_flight += 1
        if self.policy == "wb":
            self._submit_write_back(lpn, tokens)
            return
        if self.policy == "wt":
            # Warm the cache legs (best-effort: a leg failure must not fail
            # a write whose durability contract is the backing store).
            for leg in self.legs:
                if leg.ssd.is_ready:
                    leg.write(lpn, tokens)
        self.backing.submit_write(
            lpn, list(tokens), lambda ok: self._host_done(lpn, tokens, ok)
        )

    def _submit_write_back(self, lpn: int, tokens: List[int]) -> None:
        state = {"pending": len(self.legs), "ok": True}

        def leg_done(request: BlockRequest) -> None:
            state["pending"] -= 1
            state["ok"] = state["ok"] and request.ok
            if state["pending"] == 0:
                if state["ok"]:
                    for offset, token in enumerate(tokens):
                        self.dirty[lpn + offset] = token
                self._host_done(lpn, tokens, state["ok"])

        for leg in self.legs:
            leg.write(lpn, tokens, on_done=leg_done)

    def _host_done(self, lpn: int, tokens: List[int], ok: bool) -> None:
        self.in_flight -= 1
        if ok:
            self.acked.append((self._ack_order, lpn, list(tokens)))
            self._ack_order += 1
        else:
            self.io_errors += 1

    # -- destage daemon (WB) -----------------------------------------------------------

    def destage_pump(self) -> None:
        """Drain one ``batch_pages`` batch of the dirty ledger to backing.

        Called once per traffic quantum; at most one batch is in flight at
        a time, so destage throughput is bounded by the backing store's
        latency — the pressure that makes the admission throttle bind.
        """
        if self.policy != "wb" or self._destage_pending or not self.backing.powered:
            return
        batch: List[Tuple[int, int]] = []
        for lpn, token in self.dirty.items():
            batch.append((lpn, token))
            if len(batch) >= self.destage.batch_pages:
                break
        if not batch:
            return
        for run in _contiguous_page_runs(batch):
            self._destage_pending += 1
            self.backing.submit_write(
                run[0][0],
                [token for _, token in run],
                lambda ok, run=run: self._destage_done(run, ok),
            )

    def _destage_done(self, run: List[Tuple[int, int]], ok: bool) -> None:
        self._destage_pending -= 1
        if not ok:
            return  # pages stay dirty; a later pump retries them
        for lpn, token in run:
            if self.dirty.get(lpn) == token:  # not overwritten meanwhile
                del self.dirty[lpn]
        self.pages_destaged += len(run)

    # -- fault injection ---------------------------------------------------------------

    def inject_fault(self, campaign_cycle: int) -> List[HostSystem]:
        """Cut this cycle's fault domain; returns the cache legs it hits.

        Shared power drops the PDU (every leg *and* the backing store);
        independent rails rotate the fault across cache legs by the
        campaign-wide cycle number, so the victim sequence is a property of
        the plan — not of how the campaign was sharded.
        """
        if self.shared_power:
            assert self.pdu is not None
            self.pdu.power_off()
            self.backing.power_fail()
            return list(self.legs)
        victim = self.legs[campaign_cycle % len(self.legs)]
        victim.power.power_off()
        return [victim]

    def wait_dead(self, legs: List[HostSystem]) -> None:
        """Run until every faulted leg has browned out."""
        self.kernel.pump_until(
            lambda: all(leg.ssd.state is DevicePowerState.DEAD for leg in legs),
            BROWNOUT_TIMEOUT_US,
            "the faulted cache legs to brown out",
        )

    def drain_dead(self, legs: List[HostSystem]) -> None:
        """Error out requests still queued behind the dead legs."""
        for leg in legs:
            leg.block.flush_queue_as_errors()

    def restore(self) -> None:
        """Power every domain (back) on and wait for all legs to be READY."""
        power_on_together(self.legs, self.backing.power)

    def quiesce(self) -> None:
        """Wait until every host write and destage batch has resolved."""
        self.kernel.pump_until(
            lambda: self.in_flight == 0 and self._destage_pending == 0,
            READY_TIMEOUT_US,
            "host writes and destage batches to resolve",
        )

    def unsafe_shutdowns(self) -> int:
        """Sum of the legs' SMART unsafe-shutdown counters."""
        return sum(leg.ssd.unsafe_shutdowns for leg in self.legs)

    # -- audit -------------------------------------------------------------------------

    def audit_and_reset(self) -> CycleAudit:
        """Classify every acked write of the cycle, then reset cycle state.

        A write's *live* pages are those not superseded by a later acked
        write.  A fully-superseded write is intact by definition (losing it
        loses nothing the application can still read).  Per live page the
        audit asks where the data survived: the write's ack-time durable
        home (cache legs for WB, backing store for WT/WA), or any other
        tier.  The worst live page decides the write's verdict.

        The reset models the operator's post-incident runbook: surviving
        live pages are reconciled into the backing store (the recovery
        daemon's destage), the dirty ledger is invalidated (caches restart
        cold after an unclean shutdown), per-cycle counters clear, and each
        leg's blktrace restarts, as the paper re-runs it per injection.
        """
        last_writer: Dict[int, Tuple[int, int]] = {}
        for order, lpn, tokens in self.acked:
            for offset, token in enumerate(tokens):
                last_writer[lpn + offset] = (order, token)

        # Where each live page survived, read once per (tier, page) and
        # aligned with the sorted page list: backing holds the live token,
        # and how many ready cache legs do.
        pages = sorted(last_writer)
        live = [last_writer[page][1] for page in pages]
        backing_peek = self.backing.peek
        in_backing = bytearray(
            backing_peek(page) == token for page, token in zip(pages, live)
        )
        in_legs = bytearray(len(pages))
        wrote_cache = self.policy in ("wb", "wt")
        if wrote_cache:
            for leg in self.legs:
                if not leg.ssd.is_ready:
                    continue
                index = 0
                for start, count in contiguous_runs(pages):
                    for token in leg.ssd.peek_run(start, count):
                        if token == live[index]:
                            in_legs[index] += 1
                        index += 1

        intact = recovered = lost = 0
        for order, lpn, tokens in self.acked:
            page_lost = False
            device_lost = False
            # A write's pages are consecutive in ``pages``.
            base = bisect_left(pages, lpn)
            for offset in range(len(tokens)):
                if last_writer[lpn + offset][0] != order:
                    continue  # superseded by a later acked write
                index = base + offset
                if self.policy == "wb":
                    home_lost = in_legs[index] < len(self.legs)
                else:
                    home_lost = not in_backing[index]
                if not (in_backing[index] or in_legs[index]):
                    page_lost = True
                elif home_lost:
                    device_lost = True
            if page_lost:
                lost += 1
            elif device_lost:
                recovered += 1
            else:
                intact += 1

        # Recovery daemon: re-home every surviving live page into backing.
        for index, page in enumerate(pages):
            if not in_backing[index] and in_legs[index]:
                self.backing.restore(page, live[index])

        audit = CycleAudit(
            acked=len(self.acked),
            intact=intact,
            recovered=recovered,
            lost=lost,
            io_errors=self.io_errors,
        )
        self.acked.clear()
        self.dirty.clear()
        self.io_errors = 0
        self._ack_order = 0
        for leg in self.legs:
            leg.tracer.reset()
        return audit


def _contiguous_page_runs(
    batch: List[Tuple[int, int]]
) -> List[List[Tuple[int, int]]]:
    """Split ``(lpn, token)`` pairs into LPN-contiguous submission runs."""
    ordered = sorted(batch)
    runs: List[List[Tuple[int, int]]] = []
    for lpn, token in ordered:
        if runs and runs[-1][-1][0] == lpn - 1:
            runs[-1].append((lpn, token))
        else:
            runs.append([(lpn, token)])
    return runs
