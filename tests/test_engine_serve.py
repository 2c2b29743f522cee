"""The campaign service: result CAS, coalescing, fair share, followers.

The service's headline guarantee extends the engine's determinism story
across *time*: a campaign submitted twice — minutes or daemon-restarts
apart — produces bit-identical merged summaries, the second time without
executing a single shard.  These tests drive a real
:class:`~repro.engine.serve.CampaignService` over real sockets with real
``repro worker --persist`` subprocesses, then attack the cache the same
way the checkpoint tests attack the journal: corruption, schema drift,
key mismatches.
"""

import threading
import time

import pytest

from repro.engine import run_plan
from repro.engine.cas import QUARANTINE_SUFFIX, ResultCAS
from repro.engine.checkpoint import plans_fingerprint
from repro.engine.progress import EngineTelemetry
from repro.engine.serve import (
    CampaignService,
    follow_campaign,
    submit_campaign,
)
from repro.errors import CampaignError
from tests.engine_faults import (
    drain_workers,
    FAST,
    small_plan,
    spawn_worker,
)


def _start_service(cas_root, **kwargs):
    kwargs.setdefault("policy", FAST)
    kwargs.setdefault("lease_timeout_s", 15.0)
    kwargs.setdefault("announce", None)
    service = CampaignService(cas_root=cas_root, **kwargs)
    service.start()
    return service


class _Fleet:
    """A few persistent workers against one service, torn down in order."""

    def __init__(self, service, count=1, connect_timeout_s=3.0):
        self.service = service
        self.procs = [
            spawn_worker(
                service.port, persist=True, connect_timeout_s=connect_timeout_s
            )
            for _ in range(count)
        ]

    def teardown(self):
        self.service.stop()
        return drain_workers(self.procs)


class TestResultCAS:
    """Unit tests of the store itself, no sockets involved."""

    def _entry(self, tmp_path):
        plan = small_plan(faults=1, shard_faults=1)
        shard = plan.shards()[0]
        result = plan.run_shard(shard)
        cas = ResultCAS(tmp_path / "cas")
        fp = plans_fingerprint([plan])
        return cas, fp, shard, result

    def test_roundtrip_is_lossless(self, tmp_path):
        cas, fp, shard, result = self._entry(tmp_path)
        assert cas.get(fp, 0, shard.index, shard.seed) is None  # cold miss
        cas.put(fp, 0, shard.index, shard.seed, result)
        loaded = cas.get(fp, 0, shard.index, shard.seed)
        assert loaded is not None
        assert loaded.summary() == result.summary()
        assert [c.__dict__ for c in loaded.cycles] == [
            c.__dict__ for c in result.cycles
        ]
        assert cas.stats()["hits"] == 1 and cas.stats()["puts"] == 1

    def test_corrupt_entry_quarantined_and_missed(self, tmp_path):
        cas, fp, shard, result = self._entry(tmp_path)
        path = cas.put(fp, 0, shard.index, shard.seed, result)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2] + b"garbage\n")
        assert cas.get(fp, 0, shard.index, shard.seed) is None
        assert cas.stats()["corrupt"] == 1
        quarantined = path.with_name(path.name + QUARANTINE_SUFFIX)
        assert quarantined.exists(), "corrupt entry must be set aside, not deleted"
        assert not path.exists()
        # The slot is reusable: a fresh put serves again.
        cas.put(fp, 0, shard.index, shard.seed, result)
        assert cas.get(fp, 0, shard.index, shard.seed) is not None

    def test_schema_drift_rejected_before_decode(self, tmp_path):
        cas, fp, shard, result = self._entry(tmp_path)
        path = cas.put(fp, 0, shard.index, shard.seed, result)
        # A store written by a different codec revision: same bytes on
        # disk, different live schema version.
        drifted = ResultCAS(tmp_path / "cas")
        drifted.schema = "ffffffff"
        assert drifted.get(fp, 0, shard.index, shard.seed) is None
        assert drifted.stats()["schema_rejects"] == 1
        assert drifted.stats()["corrupt"] == 0
        assert path.exists(), "schema mismatch is not corruption: entry survives"

    def test_key_field_mismatch_quarantined(self, tmp_path):
        cas, fp, shard, result = self._entry(tmp_path)
        path = cas.put(fp, 0, shard.index, shard.seed, result)
        # Move the entry under a key it does not describe.
        other = cas.entry_path(fp, 0, shard.index, shard.seed + 1)
        path.rename(other)
        assert cas.get(fp, 0, shard.index, shard.seed + 1) is None
        assert cas.stats()["corrupt"] == 1


class TestServeCAS:
    def test_resubmit_is_bit_identical_with_zero_executed(self, tmp_path):
        plan = small_plan()
        baseline = run_plan(plan, jobs=1).summary()
        service = _start_service(tmp_path / "cas")
        fleet = _Fleet(service, count=2)
        try:
            first = submit_campaign(service.address, [plan])
            assert first.executed == 4 and first.cas_hits == 0
            assert first.results[0].summary() == baseline
            # Resubmission: served entirely from the CAS, workers untouched.
            second = submit_campaign(service.address, [plan])
            assert second.executed == 0
            assert second.cas_hits == 4
            assert second.results[0].summary() == baseline
            assert second.results[0].execution.shards_resumed == 4
        finally:
            codes = fleet.teardown()
        assert codes == [0, 0]

    def test_cache_survives_service_restart(self, tmp_path):
        plan = small_plan()
        baseline = run_plan(plan, jobs=1).summary()
        service = _start_service(tmp_path / "cas")
        fleet = _Fleet(service, count=1)
        try:
            first = submit_campaign(service.address, [plan])
            assert first.executed == 4
        finally:
            fleet.teardown()
        # A brand-new daemon over the same store: no workers at all.
        reborn = _start_service(tmp_path / "cas")
        try:
            cached = submit_campaign(reborn.address, [plan])
            assert cached.executed == 0 and cached.cas_hits == 4
            assert cached.results[0].summary() == baseline
        finally:
            reborn.stop()

    def test_corrupt_cache_entry_reexecuted_not_trusted(self, tmp_path):
        plan = small_plan()
        baseline = run_plan(plan, jobs=1).summary()
        service = _start_service(tmp_path / "cas")
        fleet = _Fleet(service, count=1)
        try:
            first = submit_campaign(service.address, [plan])
            assert first.executed == 4
            fp = first.fingerprint
            entries = sorted((tmp_path / "cas" / fp).glob("*.json"))
            assert len(entries) == 4
            blob = entries[0].read_bytes()
            entries[0].write_bytes(b'{"v":1,"crc":"00000000"}\n' + blob)
            second = submit_campaign(service.address, [plan])
            # Three shards from cache; the damaged one re-executed.
            assert second.cas_hits == 3
            assert second.executed == 1
            assert second.results[0].summary() == baseline
            quarantined = list((tmp_path / "cas" / fp).glob("*" + QUARANTINE_SUFFIX))
            assert len(quarantined) == 1
            # The re-execution healed the store: third submission is free.
            third = submit_campaign(service.address, [plan])
            assert third.executed == 0 and third.cas_hits == 4
        finally:
            codes = fleet.teardown()
        assert codes == [0]


class TestCoalescingAndFairShare:
    def test_concurrent_duplicate_submissions_coalesce(self, tmp_path):
        plan = small_plan()
        baseline = run_plan(plan, jobs=1).summary()
        service = _start_service(tmp_path / "cas")
        fleet = _Fleet(service, count=1)
        outcomes = {}
        errors = []

        def submit(tag, delay):
            time.sleep(delay)
            try:
                outcomes[tag] = submit_campaign(service.address, [plan])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((tag, exc))

        try:
            threads = [
                threading.Thread(target=submit, args=("a", 0.0)),
                threading.Thread(target=submit, args=("b", 0.3)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=240)
        finally:
            codes = fleet.teardown()
        assert not errors, errors
        assert codes == [0]
        assert outcomes["a"].results[0].summary() == baseline
        assert outcomes["b"].results[0].summary() == baseline
        # One execution served both submitters: the shard count executed
        # across the *pair* is one campaign's worth.
        assert outcomes["a"].executed + outcomes["b"].executed == 8
        assert outcomes["a"].executed == outcomes["b"].executed == 4
        assert service.submissions_total == 2
        assert service.coalesced_total == 1
        assert {outcomes["a"].coalesced, outcomes["b"].coalesced} == {True, False}

    def test_two_campaigns_one_worker_interleave_and_complete(self, tmp_path):
        plan_a = small_plan(seed=11)
        plan_b = small_plan(seed=22)
        baseline_a = run_plan(plan_a, jobs=1).summary()
        baseline_b = run_plan(plan_b, jobs=1).summary()
        service = _start_service(tmp_path / "cas")
        fleet = _Fleet(service, count=1, connect_timeout_s=5.0)
        outcomes = {}
        errors = []

        def submit(tag, plan):
            try:
                outcomes[tag] = submit_campaign(service.address, [plan])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((tag, exc))

        try:
            threads = [
                threading.Thread(target=submit, args=("a", plan_a)),
                threading.Thread(target=submit, args=("b", plan_b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=240)
        finally:
            codes = fleet.teardown()
        assert not errors, errors
        assert codes == [0]
        assert outcomes["a"].results[0].summary() == baseline_a
        assert outcomes["b"].results[0].summary() == baseline_b
        assert outcomes["a"].fingerprint != outcomes["b"].fingerprint


class TestFollowers:
    def test_followers_stream_live_events_and_summary(self, tmp_path):
        plan = small_plan()
        service = _start_service(tmp_path / "cas")
        fleet = _Fleet(service, count=1)
        follow_results = {}
        follow_records = {"f1": [], "f2": []}
        submit_records = []

        def follower(tag):
            # Retry until the submission exists: the follower races the
            # submitter's accept.
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    follow_results[tag] = follow_campaign(
                        service.address,
                        on_record=follow_records[tag].append,
                    )
                    return
                except CampaignError:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.05)

        try:
            threads = [
                threading.Thread(target=follower, args=("f1",)),
                threading.Thread(target=follower, args=("f2",)),
            ]
            for thread in threads:
                thread.start()
            outcome = submit_campaign(
                service.address, [plan], on_record=submit_records.append
            )
            for thread in threads:
                thread.join(timeout=240)
        finally:
            codes = fleet.teardown()
        assert codes == [0]
        assert outcome.executed == 4
        for tag in ("f1", "f2"):
            summary = follow_results[tag]
            assert summary["fingerprint"] == outcome.fingerprint
            kinds = [record.kind for record in follow_records[tag]]
            assert "shard-finished" in kinds
            assert "plan-finished" in kinds
        # The submitter's stream is the trace: every event, in order.
        submit_kinds = [record.kind for record in submit_records]
        assert submit_kinds.count("shard-finished") == 4
        assert submit_kinds[-1] == "plan-finished"

    def test_follow_with_no_campaign_errors(self, tmp_path):
        service = _start_service(tmp_path / "cas")
        try:
            with pytest.raises(CampaignError, match="no active campaign"):
                follow_campaign(service.address)
        finally:
            service.stop()


class TestServeHandshake:
    def test_worker_connecting_before_any_campaign_is_held_then_used(
        self, tmp_path
    ):
        plan = small_plan()
        baseline = run_plan(plan, jobs=1).summary()
        service = _start_service(tmp_path / "cas")
        fleet = _Fleet(service, count=1)
        try:
            time.sleep(0.5)  # worker connects and parks at handshake
            outcome = submit_campaign(service.address, [plan])
            assert outcome.executed == 4
            assert outcome.results[0].summary() == baseline
            assert service.workers_seen, "held worker never completed handshake"
        finally:
            codes = fleet.teardown()
        assert codes == [0]


class TestLocalSubmission:
    def test_wire_clients_are_turned_away_from_a_local_submission(self, tmp_path):
        # `campaign --listen` runs the service with one in-process
        # submission, which has no trace to stream: submitters and
        # followers get an error naming the daemon instead.
        plan = small_plan()
        service = CampaignService(cas_root=tmp_path / "cas", policy=FAST)
        service.submit_local(
            [plan],
            EngineTelemetry(shards_total=plan.shard_count(), cycles_total=plan.faults),
        )
        service.start()
        try:
            with pytest.raises(CampaignError, match="repro serve"):
                follow_campaign(service.address)
            with pytest.raises(CampaignError, match="repro serve"):
                submit_campaign(service.address, [plan])
        finally:
            service.stop()
