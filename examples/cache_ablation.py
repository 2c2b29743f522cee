#!/usr/bin/env python3
"""Cache ablation: is the volatile DRAM buffer the whole story?

The paper's §V conclusion: "failures in SSDs are not only due to volatile
DRAM cache but also we observe similar failures in SSDs with disabled
internal cache."  This example runs three variants of the same drive —

1. stock write-back cache,
2. cache disabled (write-through: durable before ACK),
3. cache + supercap power-loss protection,

— under identical faults and shows where each failure class comes from.

Run:
    python examples/cache_ablation.py
"""

import dataclasses

from repro import Campaign, TestPlatform, WorkloadSpec
from repro.analysis import ascii_table
from repro.cache import SupercapBackup
from repro.ssd import models
from repro.units import GIB


def main() -> None:
    spec = WorkloadSpec(wss_bytes=8 * GIB, read_fraction=0.0, outstanding=16)
    base = models.ssd_a()
    variants = {
        "write-back (stock)": base,
        "cache disabled": models.ssd_cache_disabled(base),
        "cache + supercap": dataclasses.replace(base, supercap=SupercapBackup()),
    }

    rows = []
    for index, (name, config) in enumerate(variants.items()):
        platform = TestPlatform(spec, config=config, seed=4000 + index)
        result = Campaign(platform, faults=6).run(name)
        saved = sum(c.supercap_pages_saved for c in result.cycles)
        rows.append(
            [
                name,
                result.data_failures,
                result.fwa_failures,
                result.io_errors,
                f"{result.data_loss_per_fault:.2f}",
                saved,
            ]
        )
        print(f"  finished: {name}")

    print()
    print(
        ascii_table(
            ["variant", "data failures", "FWA", "IO errors", "loss/fault", "supercap pages saved"],
            rows,
            title="six power faults per variant",
        )
    )
    print()
    print(
        "Reading the table:\n"
        "- disabling the cache does NOT eliminate loss: the mapping table\n"
        "  is still volatile and programs still land on a sagging rail\n"
        "  (the paper's central §IV-A observation);\n"
        "- the supercap variant destages its buffer and checkpoints the\n"
        "  map on the way down, which is why high-end drives carry one."
    )


if __name__ == "__main__":
    main()
