"""Tests for the block layer: splitting, queueing, tracing, timeout."""

import pytest

from repro.errors import ProtocolError
from repro.ftl import FtlConfig
from repro.host import BlockRequest, HostSystem, RequestState
from repro.ssd.device import SsdConfig
from repro.trace.btt import DELAYED_REQUEST_TIMEOUT_US
from repro.trace.events import Action
from repro.units import GIB, MSEC, SEC


def make_host(seed=1, **config_overrides):
    defaults = dict(capacity_bytes=1 * GIB, init_time_us=50 * MSEC)
    defaults.update(config_overrides)
    host = HostSystem(config=SsdConfig(**defaults), seed=seed)
    host.boot()
    return host


class TestValidation:
    def test_zero_length_rejected(self):
        with pytest.raises(ProtocolError):
            BlockRequest(lpn=0, page_count=0, is_write=False)

    def test_write_token_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            BlockRequest(lpn=0, page_count=2, is_write=True, tokens=[1])

    def test_negative_lpn_rejected(self):
        with pytest.raises(ProtocolError):
            BlockRequest(lpn=-1, page_count=1, is_write=False)


class TestSplitting:
    def test_small_request_single_child(self):
        host = make_host()
        req = host.write(0, [1, 2, 3])
        host.run_for_ms(50)
        assert len(req.children) == 1
        assert req.ok

    def test_large_request_fans_out(self):
        host = make_host()
        tokens = list(range(1, 301))  # 300 pages > 128-page segments
        req = host.write(0, tokens)
        host.run_for_ms(200)
        assert len(req.children) == 3
        assert [c.page_count for c in req.children] == [128, 128, 44]
        assert req.ok

    def test_split_children_cover_range_exactly(self):
        host = make_host()
        req = host.write(100, list(range(1, 257)))
        host.run_for_ms(200)
        covered = sorted(
            lpn
            for child in req.children
            for lpn in range(child.lpn, child.lpn + child.page_count)
        )
        assert covered == list(range(100, 356))

    def test_split_read_reassembles_tokens(self):
        host = make_host()
        tokens = list(range(1, 257))
        host.write(0, tokens)
        host.run_for_ms(300)
        req = host.read(0, 256)
        host.run_for_ms(300)
        assert req.ok
        assert req.tokens == tokens

    def test_split_event_traced(self):
        host = make_host()
        req = host.write(0, list(range(1, 300)))
        host.run_for_ms(200)
        actions = [e.action for e in host.tracer.events_for(req.request_id)]
        assert Action.SPLIT in actions
        assert actions[0] is Action.QUEUE
        assert Action.COMPLETE in actions


class TestLifecycleAndTracing:
    def test_event_order_q_g_d_c(self):
        host = make_host()
        req = host.write(5, [9])
        host.run_for_ms(50)
        actions = [e.action for e in host.tracer.events_for(req.request_id)]
        assert actions == [Action.QUEUE, Action.GET_REQUEST, Action.ISSUE, Action.COMPLETE]

    def test_latency_populated(self):
        host = make_host()
        req = host.write(5, [9])
        host.run_for_ms(50)
        assert req.latency_us is not None and req.latency_us > 0

    def test_queue_depth_limits_outstanding(self):
        host = make_host()
        for i in range(100):
            host.write(i * 2, [i + 1])
        # Outstanding device commands never exceed queue depth.
        assert host.block._outstanding <= host.block.queue_depth
        host.run_for_ms(500)
        assert host.block.completed == 100

    def test_statistics(self):
        host = make_host()
        host.write(0, [1])
        host.read(0, 1)
        host.run_for_ms(100)
        assert host.block.submitted == 2
        assert host.block.completed == 2
        assert host.block.failed == 0


class TestFailures:
    def test_requests_fail_when_device_off(self):
        host = make_host()
        host.cut_power()
        host.wait_until_dead()
        req = host.write(0, [1])
        host.run_for_ms(10)
        assert req.state is RequestState.FAILED
        assert host.block.failed == 1

    def test_error_event_traced(self):
        host = make_host()
        host.cut_power()
        host.wait_until_dead()
        req = host.write(0, [1])
        host.run_for_ms(10)
        actions = [e.action for e in host.tracer.events_for(req.request_id)]
        assert Action.COMPLETE_ERROR in actions

    def test_partial_child_failure_fails_parent(self):
        host = make_host()
        # Enough throttled write traffic that the detach lands mid-stream:
        # some requests complete, later ones lose children to IO errors.
        requests = [
            host.write(i * 300, [i * 300 + j + 1 for j in range(299)])
            for i in range(12)
        ]
        host.cut_power()
        host.run_for_ms(1500)
        failed = [r for r in requests if r.done and not r.ok]
        completed = [r for r in requests if r.ok]
        assert failed, "some split requests must fail at detach"
        assert completed, "early requests should have completed before the cut"
        # A failed parent has at least one errored child.
        assert any(
            any(c.status.value == "io_error" for c in r.children) for r in failed
        )

    def test_flush_queue_as_errors(self):
        host = make_host()
        host.cut_power()
        host.wait_until_dead()
        # Submissions now fail synchronously; backlog stays empty.
        count = host.block.flush_queue_as_errors()
        assert count == 0
        assert host.block.backlog == 0

    def test_timeout_rule(self):
        host = make_host()
        req = host.write(0, [1])
        # Freeze: kill the device dispatcher so nothing completes.
        host.ssd._dispatcher.kill()
        host.run_for(DELAYED_REQUEST_TIMEOUT_US - MSEC)
        assert not req.done
        host.run_for(2 * MSEC)
        assert req.state is RequestState.TIMED_OUT
        assert host.block.timed_out == 1


class TestBttIntegration:
    def test_per_io_dump_reassembles_split_requests(self):
        host = make_host()
        req = host.write(0, list(range(1, 300)))
        host.run_for_ms(300)
        record = host.btt.record_for(req.request_id)
        assert record.completed
        assert record.split
        assert record.page_count == 299
        assert record.queue_to_complete_us == req.latency_us

    def test_incomplete_detection(self):
        host = make_host()
        host.write(0, [1])
        host.cut_power()
        host.run_for_ms(1500)
        summary = host.btt.summary(host.kernel.now)
        assert summary["errored"] + summary["pending"] >= 0
        assert summary["requests"] >= 1

    def test_completed_ids(self):
        host = make_host()
        a = host.write(0, [1])
        b = host.write(10, [2])
        host.run_for_ms(100)
        completed = host.btt.completed_ids()
        assert a.request_id in completed
        assert b.request_id in completed
