"""Faulted-topology invariance: the engine's guarantees hold for topologies.

Three claims, each an acceptance criterion of the topology subsystem:

1. **Write-through durability is execution-independent.**  Under the full
   engine fault matrix (``crash`` / ``exit`` / ``hang`` / ``slow`` ×
   serial / forked / distributed workers), a WT campaign's merged
   summary equals the unfaulted serial baseline — and that baseline
   reports **zero application-visible loss** (``fwa_failures == 0``).
2. **Mirrored WB legs on independent rails recover every device FWA**:
   the faulted leg loses its copy (``topology_recovered > 0``) but the
   surviving leg always has it (``fwa_failures == 0``).
3. **Sharded execution is invisible**: ``jobs=1``, ``jobs=4`` and a
   crash-resumed checkpoint all produce byte-identical summaries (the
   SIGTERM'd CLI run resumed with ``--resume`` is
   ``tests/test_cli.py::TestKillAndResumeCli``).
"""

import pytest

from repro.engine import run_plan
from repro.engine.executors import TEST_FAULT_ENV
from repro.ftl import FtlConfig
from repro.ssd.device import SsdConfig
from repro.topology import TopologyPlan
from repro.units import GIB, KIB, MIB, MSEC
from repro.workload.spec import WorkloadSpec
from tests.engine_faults import FAST, run_distributed

MODES = ["crash", "exit", "hang", "slow"]
LANES = ["serial", "pool", "remote"]


def leg_config():
    """Hostile cache-leg FTL: device-level FWA is deterministic, so the
    zero-loss claims below are about topology redundancy, not FTL luck."""
    return SsdConfig(
        name="cache-leg",
        capacity_bytes=1 * GIB,
        init_time_us=30 * MSEC,
        ftl=FtlConfig(
            journal_commit_interval_us=10_000 * MSEC,
            page_recovery_prob=0.0,
            extent_recovery_prob=0.0,
        ),
    )


def topo_plan(policy="wt", mirror=False, shared=True, faults=4, seed=33):
    return TopologyPlan(
        spec=WorkloadSpec(
            wss_bytes=256 * MIB,
            read_fraction=0.0,
            size_min_bytes=4 * KIB,
            size_max_bytes=64 * KIB,
            outstanding=8,
        ),
        faults=faults,
        device=leg_config(),
        base_seed=seed,
        label=f"topo-inv {policy}",
        shard_faults=1,
        policy=policy,
        mirror_cache=mirror,
        shared_power=shared,
    )


_BASELINE = {}


def clean_summary(**kwargs):
    """Cached summary of an unperturbed serial run of ``topo_plan``."""
    key = tuple(sorted(kwargs.items()))
    if key not in _BASELINE:
        _BASELINE[key] = run_plan(topo_plan(**kwargs), jobs=1).summary()
    return _BASELINE[key]


def fault_spec(mode, lane):
    if mode == "crash":
        return "crash:1:1"
    if mode == "exit":
        return "exit:2:1"
    if mode == "hang":
        return "hang:1:1:30" if lane == "pool" else "hang:1:1:0.4"
    if mode == "slow":
        return "slow:*:1:0.2"
    raise AssertionError(mode)


class TestWriteThroughFaultMatrix:
    @pytest.mark.parametrize("lane", LANES)
    @pytest.mark.parametrize("mode", MODES)
    def test_wt_zero_loss_survives_engine_faults(self, mode, lane, monkeypatch):
        if mode == "exit" and lane == "serial":
            pytest.skip("os._exit in-process would kill the test runner itself")
        baseline = clean_summary(policy="wt", shared=True)
        assert baseline["fwa"] == 0  # the WT durability contract
        fault = fault_spec(mode, lane)
        if lane == "remote":
            result, codes = run_distributed(
                topo_plan(policy="wt", shared=True), workers=2, worker_fault=fault
            )
            if mode == "exit":
                assert sorted(codes) == [0, 13]
            else:
                assert codes == [0, 0]
        else:
            monkeypatch.setenv(TEST_FAULT_ENV, fault)
            result = run_plan(
                topo_plan(policy="wt", shared=True),
                jobs=1 if lane == "serial" else 2,
                retry_policy=FAST,
                shard_timeout_s=1.0 if (mode == "hang" and lane == "pool") else None,
            )
        assert result.summary() == baseline
        assert result.fwa_failures == 0
        assert not result.execution.degraded


class TestMirroredRecovery:
    def test_wb_mirror_split_rails_recovers_every_fwa(self):
        result = run_plan(
            topo_plan(policy="wb", mirror=True, shared=False), jobs=2
        )
        # Device-level FWAs do happen (the hostile FTL guarantees the
        # faulted leg loses data)...
        assert result.topology_recovered > 0
        # ...but every one is recovered from the surviving leg: zero
        # application-visible loss.
        assert result.fwa_failures == 0
        assert result.intact_writes + result.topology_recovered > 0

    def test_wb_shared_pdu_is_the_lossy_contrast(self):
        # Same policy, no redundancy to hide behind: a shared PDU turns
        # device-level FWA into application-visible loss.
        result = run_plan(topo_plan(policy="wb", mirror=False, shared=True), jobs=2)
        assert result.fwa_failures > 0


class TestExecutionInvariance:
    CONFIG = dict(policy="wb", mirror=True, shared=False, faults=4, seed=11)

    def test_jobs_1_equals_jobs_4(self):
        serial = run_plan(topo_plan(**self.CONFIG), jobs=1)
        pooled = run_plan(topo_plan(**self.CONFIG), jobs=4)
        assert serial.summary() == pooled.summary()
        # Stronger than the summary: every per-cycle record is identical.
        assert [vars(c) for c in serial.cycles] == [vars(c) for c in pooled.cycles]

    def test_checkpoint_resume_reexecutes_nothing(self, tmp_path, monkeypatch):
        baseline = clean_summary(**self.CONFIG)
        path = tmp_path / "ck.jsonl"
        first = run_plan(topo_plan(**self.CONFIG), jobs=4, checkpoint=path)
        assert first.summary() == baseline
        # Resume with a crash-everything fault: if resume re-ran any shard,
        # the injected crash would burn its retries and degrade the run.
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:*:*")
        resumed = run_plan(
            topo_plan(**self.CONFIG), jobs=1, checkpoint=path, resume=True
        )
        assert resumed.summary() == baseline
        assert resumed.execution.shards_resumed == 4
