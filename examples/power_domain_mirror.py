#!/usr/bin/env python3
"""Storage-architecture consequence: mirroring vs power domains.

The paper's data shows SSDs lose acknowledged data under power faults; the
architectural question for a storage designer is *where redundancy must
live*.  This example runs the same experiment on two RAID-1 mirrors:

- mirror A: both drives behind **one shared PSU** (typical single-PDU rack);
- mirror B: each drive on its **own power domain**.

A deliberately fragile drive model (always-volatile map, no recovery scan)
makes every fault lose recent writes, so the difference is stark: the
shared-domain mirror loses data exactly like a single drive — both replicas
fail together — while the split-domain mirror always has a healthy replica
and can repair the other.

Run:
    python examples/power_domain_mirror.py
"""

import dataclasses

from repro.analysis import ascii_table
from repro.ftl import FtlConfig
from repro.raid import MirrorPair
from repro.ssd.device import SsdConfig
from repro.units import GIB, MSEC


def fragile_config():
    return SsdConfig(
        capacity_bytes=2 * GIB,
        init_time_us=50 * MSEC,
        ftl=FtlConfig(
            journal_commit_interval_us=10_000 * MSEC,  # effectively never commits
            page_recovery_prob=0.0,
            extent_recovery_prob=0.0,
        ),
    )


def run_mirror(shared_power: bool, seed: int, rounds: int = 6):
    mirror = MirrorPair(config=fragile_config(), shared_power=shared_power, seed=seed)
    mirror.boot()
    lost = 0
    repaired = 0
    for round_index in range(rounds):
        lpn = round_index * 64
        tokens = [round_index * 10 + offset + 1 for offset in range(4)]
        mirror.write(lpn, tokens)
        mirror.run_for_ms(300)  # data on flash, map update still volatile
        mirror.fault_domain(None if shared_power else round_index % 2)
        mirror.run_for_ms(1500)
        mirror.boot()
        result = mirror.read_verified(lpn, 4, expected=tokens)
        if not result.data_available or result.tokens != tokens:
            lost += 1
        repaired += result.repaired_pages
        mirror.run_for_ms(200)
    return {
        "layout": "shared PSU" if shared_power else "split domains",
        "faults": rounds,
        "writes lost": lost,
        "pages repaired": repaired,
    }


def main() -> None:
    rows = []
    for shared, seed in ((True, 91), (False, 92)):
        label = "shared PSU" if shared else "split domains"
        print(f"running mirror with {label} ...")
        rows.append(run_mirror(shared, seed))
    headers = list(rows[0].keys())
    print()
    print(
        ascii_table(
            headers,
            [[row[h] for h in headers] for row in rows],
            title="RAID-1 under power faults (fragile drive model)",
        )
    )
    print()
    print(
        "The shared-PSU mirror loses recent writes on every fault — both\n"
        "replicas see the same outage, so RAID-1 buys nothing against it.\n"
        "Splitting the power domains keeps one replica healthy each time\n"
        "and the verified-read path repairs its partner: the paper's\n"
        "device-level findings translate directly into a placement rule."
    )


if __name__ == "__main__":
    main()
