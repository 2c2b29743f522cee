"""Seeded runs pinned by digest: host-side speedups must not move a result.

Each run hashes everything it simulated: every merged summary and
per-cycle record, every :class:`~repro.core.analyzer.FailureRecord`, and,
for every :class:`~repro.ssd.device.SsdDevice` built along the way, its
chip, cache and FTL counters, its command counts and the position of its
chip's random stream.  The digests were recorded before the host paths
they guard were rewritten; a refactor of those paths keeps them, a change
to what the simulation does does not.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import engine
from repro.cache import FlushPolicy
from repro.core.analyzer import Analyzer
from repro.engine import CampaignPlan
from repro.ftl import FtlConfig
from repro.nand import CorruptionModel
from repro.ssd import DevicePowerState, IoCommand, models
from repro.ssd.device import SsdDevice
from repro.stress import DirtyCyclePlan
from repro.topology import TopologyPlan
from repro.units import GIB, KIB, MSEC, SEC
from repro.workload.spec import WorkloadSpec
from tests.test_ssd_device import rig, small_config, submit_write

SEED = 7
WRITTEN = 32 * 128  # pages the torn-batch rig writes


def device_counters(ssd: SsdDevice) -> dict:
    chip, cache, ftl = ssd.chip, ssd.cache, ssd.ftl
    return {
        "chip": [
            chip.programs_committed,
            chip.reads_served,
            chip.read_retries,
            chip.uncorrectable_reads,
            chip.erases_committed,
            chip.disturb_events,
        ],
        "cache": [
            cache.inserts,
            cache.coalesces,
            cache.read_hits,
            cache.read_misses,
            cache.peak_dirty,
        ],
        "ftl": [ftl.host_pages_written, ftl.journal_pages_written],
        "commands": [ssd.commands_ok, ssd.commands_errored],
        "rng": chip.rng.getstate(),
    }


def digest(run, monkeypatch) -> str:
    """sha256 over what ``run()`` returns and every drive it built."""
    devices = []
    records = []
    init = SsdDevice.__init__
    verify = Analyzer.verify_cycle

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        devices.append(self)

    def recording_verify(self, *args, **kwargs):
        outcome = verify(self, *args, **kwargs)
        records.extend(outcome.records)
        return outcome

    monkeypatch.setattr(SsdDevice, "__init__", tracking_init)
    monkeypatch.setattr(Analyzer, "verify_cycle", recording_verify)
    produced = run()
    assert devices
    blob = json.dumps(
        {
            "run": produced,
            "records": [
                {**dataclasses.asdict(record), "kind": record.kind.value}
                for record in records
            ],
            "devices": [device_counters(ssd) for ssd in devices],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_plan(plan):
    def run():
        result = engine.run_plan(plan, jobs=1)
        assert result.faults == plan.faults
        return {
            "summary": result.summary(),
            "cycles": [dataclasses.asdict(cycle) for cycle in result.cycles],
            "requests_issued": result.requests_issued,
            "traffic_time_us": result.traffic_time_us,
        }

    return run


def campaign_with_reads():
    return CampaignPlan(
        spec=WorkloadSpec(
            wss_bytes=4 * GIB,
            read_fraction=0.3,
            size_min_bytes=4 * KIB,
            size_max_bytes=128 * KIB,
        ),
        faults=2,
        device=models.by_name("ssd-a"),
        base_seed=SEED,
        shard_faults=2,
    )


def write_back_topology():
    return TopologyPlan(
        spec=WorkloadSpec(
            wss_bytes=1 * GIB,
            read_fraction=0.0,
            size_min_bytes=4 * KIB,
            size_max_bytes=64 * KIB,
        ),
        faults=1,
        device=models.by_name("ssd-c"),
        base_seed=SEED,
        policy="wb",
        shared_power=True,
        warmup_us=100 * MSEC,
        fault_window_us=100 * MSEC,
    )


def dirty_cycle_with_recovery_fault():
    return DirtyCyclePlan(
        spec=WorkloadSpec(
            wss_bytes=1 * GIB,
            read_fraction=0.0,
            size_min_bytes=4 * KIB,
            size_max_bytes=64 * KIB,
        ),
        faults=2,
        device=models.by_name("ssd-a"),
        base_seed=SEED,
        shard_faults=2,
        warmup_us=100 * MSEC,
        fault_window_us=100 * MSEC,
        qdepth=16,
        recovery_fault_every=2,
    )


def torn_flush_batch():
    """The brownout that tears an in-flight flush batch, then a read-back."""
    config = small_config(
        flush=FlushPolicy(batch_pages=256, max_dirty_pages=4096, linger_us=0),
        corruption=CorruptionModel(marginal_error_multiplier=1.0),
        ftl=FtlConfig(
            journal_commit_interval_us=700 * MSEC,
            page_recovery_prob=1.0,
            extent_recovery_prob=1.0,
        ),
    )
    k, pc, ssd = rig(config, seed=SEED)
    results = []
    for lpn in range(0, WRITTEN, 128):
        submit_write(ssd, lpn, [lpn + i + 1 for i in range(128)], results)
    k.run(until=k.now + MSEC)
    pc.power_off()
    while ssd.state is not DevicePowerState.DEAD:
        batch = ssd._active_batch
        k.step()
    committed = batch.committed_prefix(k.now)
    started = batch.started_count(k.now)
    assert 0 < committed < started
    damage = dataclasses.asdict(ssd.last_damage)
    k.run(until=k.now + 1200 * MSEC)
    pc.power_on()
    k.run(until=k.now + SEC)
    # Host READs over the written range and past it, then a forensic read.
    reads = []
    for lpn in range(0, WRITTEN + 256, 96):
        ssd.submit(IoCommand.read(lpn, 96, on_complete=reads.append))
    k.run(until=k.now + SEC)
    return {
        "committed": committed,
        "started": started,
        "damage": damage,
        "statuses": [r.status.name for r in results + reads],
        "read": [r.tokens for r in reads],
        "peek": ssd.peek_run(0, WRITTEN),
    }


RUNS = {
    "campaign": (
        run_plan(campaign_with_reads()),
        "6fb3d5ca322d1e746612e79097e9084f88c7c60e6cee6dd138f3408df5ee82bb",
    ),
    "topology": (
        run_plan(write_back_topology()),
        "9672058c2c8012bf8434192134b5372cb8e61183824b1d5268b65e703bf06c51",
    ),
    "dirty_cycle": (
        run_plan(dirty_cycle_with_recovery_fault()),
        "2d9ebefc026499395ebbe1d3e68b81525bb259d1eedc011c45a82d466b019d6c",
    ),
    "torn_batch": (
        torn_flush_batch,
        "e925dea30b052a5db52278affdd4efaea974d3e157b801fb98827b8fb0d0a53a",
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_seeded_run_keeps_its_digest(name, monkeypatch):
    run, expected = RUNS[name]
    assert digest(run, monkeypatch) == expected
