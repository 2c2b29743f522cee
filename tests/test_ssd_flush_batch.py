"""Unit tests for the destage-batch bookkeeping (_FlushBatch).

The page-exact power-loss resolution depends on this math: which pages'
commit instants had passed, which pulse trains had started, and what the
rail voltage was at each commit instant.
"""

import pytest

from repro.ftl.ftl import WritePlan
from repro.ssd.device import _FlushBatch


def make_batch(total_pages=10, parallelism=4, page_write_us=1000, start_us=0):
    plan = WritePlan(
        lpns=list(range(total_pages)),
        ppas=[100 + i for i in range(total_pages)],
        stream="random",
    )
    return _FlushBatch(
        plans=[plan],
        tokens=[1000 + i for i in range(total_pages)],
        start_us=start_us,
        page_write_us=page_write_us,
        parallelism=parallelism,
    )


class TestCommitTimes:
    def test_round_robin_commit_instants(self):
        batch = make_batch()
        # Pages 0-3 in round 0 commit at 1000; 4-7 at 2000; 8-9 at 3000.
        assert batch.commit_time(0) == 1000
        assert batch.commit_time(3) == 1000
        assert batch.commit_time(4) == 2000
        assert batch.commit_time(9) == 3000

    def test_commit_times_respect_start(self):
        batch = make_batch(start_us=500)
        assert batch.commit_time(0) == 1500

    def test_duration_covers_all_rounds(self):
        batch = make_batch()
        assert batch.duration_us == 3000
        assert make_batch(total_pages=8).duration_us == 2000
        assert make_batch(total_pages=1).duration_us == 1000


class TestPartialResolution:
    def test_committed_prefix_before_first_round(self):
        batch = make_batch()
        assert batch.committed_prefix(now=999) == 0

    def test_committed_prefix_at_round_boundaries(self):
        batch = make_batch()
        assert batch.committed_prefix(now=1000) == 4
        assert batch.committed_prefix(now=1999) == 4
        assert batch.committed_prefix(now=2000) == 8
        assert batch.committed_prefix(now=5000) == 10  # clamped to total

    def test_started_count(self):
        batch = make_batch()
        assert batch.started_count(now=0) == 0
        assert batch.started_count(now=1) == 4  # first round in flight
        assert batch.started_count(now=1000) == 4
        assert batch.started_count(now=1001) == 8
        assert batch.started_count(now=2500) == 10

    def test_started_never_less_than_committed(self):
        batch = make_batch(total_pages=23, parallelism=5, page_write_us=700)
        for now in range(0, 6000, 37):
            assert batch.started_count(now) >= batch.committed_prefix(now)

    def test_inflight_window_is_one_round(self):
        batch = make_batch(total_pages=64, parallelism=8)
        for now in (1, 1500, 2600, 4200):
            inflight = batch.started_count(now) - batch.committed_prefix(now)
            assert 0 <= inflight <= batch.parallelism
