#!/usr/bin/env python3
"""Failure forensics: follow one power fault through the whole stack.

Injects a single fault while a write burst is in flight and then walks the
evidence the way the paper's Analyzer does — blktrace events, btt per-IO
records, checksum comparisons — plus the simulator-only ground truth
(cache drop, torn programs, stranded map updates) that a hardware testbed
can only infer.

Run:
    python examples/failure_forensics.py
"""

from repro.core.analyzer import Analyzer, FailureKind
from repro.host import HostSystem
from repro.ssd.device import SsdConfig
from repro.trace.blkparse import format_event
from repro.units import GIB, MSEC
from repro.workload.packet import DataPacket


def main() -> None:
    host = HostSystem(config=SsdConfig(capacity_bytes=4 * GIB), seed=77)
    analyzer = Analyzer(host.ssd.peek_run)
    host.boot()

    # A burst of small writes: acknowledged fast, durable slowly.
    packets = []
    for index in range(24):
        packet = DataPacket(
            packet_id=index + 1,
            address_lpn=index * 64,
            page_count=4,
            is_write=True,
            queue_time=host.kernel.now,
        )
        analyzer.snapshot_initial_checksums(packet)

        def stamp(request, packet=packet):
            packet.complete_time = request.complete_time

        host.write(packet.address_lpn, packet.data_checksums, on_done=stamp)
        packets.append(packet)
    host.run_for_ms(30)

    acked = [p for p in packets if p.acked]
    print(f"ACKed before the fault : {len(acked)}/{len(packets)} requests")
    print(f"dirty pages in DRAM    : {host.ssd.cache.dirty_count}")
    print(f"volatile map updates   : {host.ssd.ftl.journal.pending_count}")

    print("\n--- injecting the fault (Off command via Arduino/ATX) ---")
    host.cut_power()
    host.wait_until_dead()
    damage = host.ssd.last_damage
    print(f"commands errored at detach      : {damage.commands_errored}")
    print(f"dirty pages lost at brownout    : {damage.dirty_pages_lost}")
    print(f"in-flight programs torn         : {damage.inflight_pages_torn}")
    print(f"paired-page collateral          : {damage.collateral_pages_corrupted}")
    print(f"stranded map updates            : {damage.stranded_map_updates}")

    host.run_for_ms(1000)
    host.restore_power()
    host.wait_until_ready()
    recovery = host.ssd.last_recovery
    print("\n--- power restored, FTL recovery ---")
    print(f"stranded updates resolved : {recovery.stranded_updates}")
    print(f"recovered by OOB scan     : {recovery.recovered_updates}")
    print(f"lost (rolled back)        : {recovery.lost_updates}")

    print("\n--- blktrace evidence (first six events) ---")
    for event in list(host.tracer.events())[:6]:
        print(" ", format_event(event))
    summary = host.btt.summary(host.kernel.now)
    print(f"\nbtt summary: {summary}")

    print("\n--- Analyzer verdicts (checksum comparison, §III-B) ---")
    outcome = analyzer.verify_cycle(0, acked, [p for p in packets if not p.acked])
    for kind in FailureKind:
        print(f"  {kind.value:18s}: {outcome.count(kind)}")
    for record in outcome.records[:8]:
        print(
            f"    packet #{record.packet_id} at LPN {record.lpn}: {record.kind.value}"
            f" (expected {record.expected_token}, observed {record.observed_token})"
        )


if __name__ == "__main__":
    main()
