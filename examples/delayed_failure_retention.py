#!/usr/bin/env python3
"""Delayed failures: data that survives the fault but dies later.

The paper observes that power faults corrupt data "in a period of time
(which cannot be determined clearly) after completion of the request" (§I).
One mechanism behind the fuzziness: pages programmed inside the PSU
discharge window are *marginal* — they decode today, but their threshold
margins are thin, so retention leakage pushes them past the ECC budget long
after the verification pass declared them healthy.

This example runs one fault against a busy drive, verifies (everything that
decodes now passes), then simulates weeks of retention and re-verifies: the
marginal pages surface as new data failures.  A drive with read-retry
firmware (LDPC preset) recovers some of them.

Run:
    python examples/delayed_failure_retention.py
"""

from repro.analysis import ascii_table
from repro.core.analyzer import Analyzer
from repro.host import HostSystem
from repro.rand import RandomStreams
from repro.ssd import models
from repro.units import GIB
from repro.workload import IOGenerator, WorkloadSpec


def run_drive(config, seed):
    host = HostSystem(config=config, seed=seed)
    host.boot()
    analyzer = Analyzer(host.ssd.peek_run)
    generator = IOGenerator(
        host, WorkloadSpec(wss_bytes=8 * GIB, outstanding=16), RandomStreams(seed)
    )
    generator.start()
    host.run_for_ms(900)
    host.cut_power()  # flusher drains onto the sagging rail -> marginal pages
    host.wait_until_dead()
    generator.stop()
    host.run_for_ms(1000)
    host.restore_power()
    host.wait_until_ready()

    writes, _, failed = generator.drain_ledgers()
    inflight = list(generator.packets.values())
    generator.packets.clear()
    immediate = analyzer.verify_cycle(0, writes, list(failed) + inflight)

    weak_pages = sum(
        1 for *_, quality in host.ssd.chip.store.iter_entries() if quality < 1.0
    )
    # Months on the shelf.
    newly_bad = host.ssd.chip.age_retention(hours=2000.0)
    aged = analyzer.verify_cycle(1, writes, [])
    return {
        "drive": config.name,
        "writes verified": len(writes),
        "immediate failures": len(immediate.records),
        "marginal pages": weak_pages,
        "pages lost to retention": newly_bad,
        "failures after retention": len(aged.records),
        "read retries used": host.ssd.chip.read_retries,
    }


def main() -> None:
    rows = []
    for config, seed in ((models.ssd_a(), 201), (models.ssd_b(), 202)):
        print(f"running {config.name} ...")
        rows.append(run_drive(config, seed))
    headers = list(rows[0].keys())
    print()
    print(
        ascii_table(
            headers,
            [[row[h] for h in headers] for row in rows],
            title="one fault, verify now, then 2000 h of retention, verify again",
        )
    )
    print()
    print(
        "Marginal (discharge-window) pages pass the immediate check but\n"
        "their thin threshold margins leak away: the second verification\n"
        "finds failures the first one could not — the paper's 'cannot be\n"
        "determined clearly' window.  The LDPC drive's read-retry path\n"
        "(Read_Retry_Invocations) claws some pages back."
    )


if __name__ == "__main__":
    main()
