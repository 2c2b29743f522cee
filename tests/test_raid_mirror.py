"""Tests for the RAID-1 mirror and its power-domain architecture claim."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.ftl import FtlConfig
from repro.raid import MirrorPair
from repro.ssd.device import SsdConfig
from repro.units import GIB, MSEC


def small_config(**overrides):
    defaults = dict(capacity_bytes=1 * GIB, init_time_us=30 * MSEC)
    defaults.update(overrides)
    return SsdConfig(**defaults)


def lossy_config():
    return small_config(
        ftl=FtlConfig(
            journal_commit_interval_us=10_000 * MSEC,
            page_recovery_prob=0.0,
            extent_recovery_prob=0.0,
        )
    )


class TestMirrorBasics:
    def test_boot_and_write_read(self):
        mirror = MirrorPair(config=small_config(), shared_power=False, seed=5)
        mirror.boot()
        mirror.write(0, [11, 22])
        mirror.run_for_ms(100)
        result = mirror.read_verified(0, 2)
        assert result.tokens == [11, 22]
        assert result.healthy_replicas == 2
        assert result.agreed

    def test_both_replicas_hold_data(self):
        mirror = MirrorPair(config=small_config(), shared_power=True, seed=6)
        mirror.boot()
        mirror.write(10, [7])
        mirror.run_for_ms(100)
        for replica in mirror.replicas:
            assert replica.ssd.peek(10) == 7

    def test_empty_write_rejected(self):
        mirror = MirrorPair(config=small_config(), seed=7)
        with pytest.raises(ConfigurationError):
            mirror.write(0, [])

    def test_independent_fault_needs_index(self):
        mirror = MirrorPair(config=small_config(), shared_power=False, seed=8)
        mirror.boot()
        with pytest.raises(ConfigurationError):
            mirror.fault_domain()


class TestPowerDomains:
    def run_fault_cycle(self, mirror, replica_index=None):
        mirror.fault_domain(replica_index)
        mirror.run_for_ms(1500)
        mirror.boot()

    def test_shared_domain_fault_hits_both(self):
        mirror = MirrorPair(config=lossy_config(), shared_power=True, seed=9)
        mirror.boot()
        mirror.write(10, [5])
        mirror.run_for_ms(300)  # flushed to NAND, map update volatile
        self.run_fault_cycle(mirror)
        # Hostile firmware lost the map update on BOTH replicas: the mirror
        # cannot help because both saw the same fault.
        result = mirror.read_verified(10, 1, expected=[5])
        assert result.healthy_replicas == 0
        assert result.tokens is None

    def test_split_domain_fault_leaves_one_healthy(self):
        mirror = MirrorPair(config=lossy_config(), shared_power=False, seed=10)
        mirror.boot()
        mirror.write(10, [5])
        mirror.run_for_ms(300)
        self.run_fault_cycle(mirror, replica_index=0)
        result = mirror.read_verified(10, 1, expected=[5])
        # Replica 1 never lost power: the data is available.
        assert result.healthy_replicas >= 1
        assert result.tokens == [5]

    def test_repair_restores_damaged_replica(self):
        mirror = MirrorPair(config=lossy_config(), shared_power=False, seed=11)
        mirror.boot()
        mirror.write(10, [5])
        mirror.run_for_ms(300)
        self.run_fault_cycle(mirror, replica_index=0)
        first = mirror.read_verified(10, 1, expected=[5])
        assert first.repaired_pages >= 1
        mirror.run_for_ms(200)
        after = mirror.read_verified(10, 1, expected=[5])
        assert after.healthy_replicas == 2
        assert mirror.repairs >= 1

    def test_repair_counts_only_deviating_pages(self):
        # Regression: read_verified used to charge the whole read span to
        # the repair accounting (`repaired += count`) even when only one
        # page in the span deviated.  Damage exactly one page of a 4-page
        # span on one replica and verify the accounting is per-page.
        mirror = MirrorPair(config=small_config(), shared_power=False, seed=21)
        mirror.boot()
        mirror.write(10, [1, 2, 3, 4])
        mirror.flush()
        mirror.run_for_ms(100)
        # Overwrite one page on replica 0 only, behind the mirror's back.
        from repro.host.block_layer import BlockRequest

        rogue = BlockRequest(lpn=11, page_count=1, is_write=True, tokens=[99])
        mirror.replicas[0].block.submit(rogue)
        mirror.run_for_ms(100)

        result = mirror.read_verified(10, 4, expected=[1, 2, 3, 4])
        assert result.tokens == [1, 2, 3, 4]
        assert result.repaired_pages == 1  # pre-fix: 4 (the whole span)
        assert mirror.repairs == 1
        assert mirror.repaired_pages == 1
        mirror.run_for_ms(100)
        after = mirror.read_verified(10, 4, expected=[1, 2, 3, 4])
        assert after.healthy_replicas == 2
        assert after.repaired_pages == 0

    def test_shared_power_uses_one_psu(self):
        mirror = MirrorPair(config=small_config(), shared_power=True, seed=12)
        assert mirror.replicas[0].power is mirror.replicas[1].power

    def test_split_power_uses_two_psus(self):
        mirror = MirrorPair(config=small_config(), shared_power=False, seed=13)
        assert mirror.replicas[0].power is not mirror.replicas[1].power

    def test_flush_barrier_on_both(self):
        mirror = MirrorPair(config=small_config(), shared_power=True, seed=14)
        mirror.boot()
        mirror.write(0, [1, 2, 3])
        mirror.flush()
        for replica in mirror.replicas:
            assert replica.ssd.cache.dirty_count == 0
