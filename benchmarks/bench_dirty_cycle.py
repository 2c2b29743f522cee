"""Dirty-power-cycle stress bench: the qualification loop as a perf family.

Not a figure from the paper — this regenerates the NVMe-rig version of its
experiment (repeated fault -> power-on -> recover -> verify with per-LBA
classification via command-log replay, see ``repro.stress``) at bench
scale as a shape test (its speed is the ``dirty_cycle`` workload of
``benchmarks/e2e/``):

- every acknowledged write is classified: intact + FWA + data-failure
  counts re-add to the acked-write count, cycle by cycle;
- the device's unsafe-shutdown SMART counter equals the dirty cycles
  injected (the in-harness audit would have raised otherwise);
- the recovery-fault cycles (power loss during FTL recovery) complete and
  count one extra unsafe shutdown each.
"""

from _common import fault_budget, print_banner, run_engine_plan, BENCH_SHARD_FAULTS

from repro.analysis import ascii_table
from repro.ssd import models
from repro.stress import DirtyCyclePlan
from repro.units import GIB, KIB
from repro.workload.spec import WorkloadSpec

RECOVERY_FAULT_EVERY = 5


def regenerate_dirty_cycle():
    cycles = max(4, fault_budget("dirty_cycle"))
    spec = WorkloadSpec(
        wss_bytes=4 * GIB,
        read_fraction=0.0,
        size_min_bytes=4 * KIB,
        size_max_bytes=64 * KIB,
    )
    plan = DirtyCyclePlan(
        spec=spec,
        faults=cycles,
        device=models.by_name("ssd-a"),
        base_seed=7,
        label="dirty_cycle ssd-a",
        shard_faults=min(BENCH_SHARD_FAULTS, cycles),
        qdepth=32,
        recovery_fault_every=RECOVERY_FAULT_EVERY,
    )
    return {"ssd-a": run_engine_plan(plan)}


def test_dirty_cycle_stress(benchmark):
    results = benchmark.pedantic(regenerate_dirty_cycle, rounds=1, iterations=1)
    result = results["ssd-a"]

    print_banner(
        "Dirty power cycles: acked-write audit + SMART agreement",
        ["unsafe_shutdowns_per_dirty_cycle"],
    )
    print(
        ascii_table(
            ["cycles", "acked writes", "intact", "FWA", "data loss", "unsafe"],
            [
                [
                    result.faults,
                    sum(c.writes_completed for c in result.cycles),
                    result.intact_writes,
                    result.fwa_failures,
                    result.data_failures,
                    result.unsafe_shutdowns,
                ]
            ],
        )
    )

    # Every acked write is classified, cycle by cycle: the audit partition
    # (intact | FWA | data failure) covers the acked set exactly.
    for cycle in result.cycles:
        assert (
            cycle.intact_writes + cycle.fwa_failures + cycle.data_failures
            == cycle.writes_completed
        ), cycle
    # SMART agreement: one unsafe shutdown per dirty cycle plus one extra
    # for each recovery-fault cycle (the shard-level audit already asserted
    # the device's own counters; this checks the merged bookkeeping).
    expected_unsafe = result.faults + result.faults // RECOVERY_FAULT_EVERY
    assert result.unsafe_shutdowns == expected_unsafe
    # A write-back consumer drive under dirty cycles shows acked-write loss.
    assert result.total_data_loss > 0
