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

    def test_one_timer_times_out_each_request_at_its_deadline(self):
        host = make_host()
        host.ssd._dispatcher.kill()
        first = host.write(0, [1])
        second = host.write(8, [2])  # same instant as the first
        host.run_for(5 * MSEC)
        third = host.write(16, [3])
        requests = (first, second, third)
        deadline = first.queue_time + DELAYED_REQUEST_TIMEOUT_US
        host.kernel.run(until=deadline - 1)
        assert not any(r.done for r in requests)
        host.kernel.run(until=deadline)
        assert [r.done for r in requests] == [True, True, False]
        host.kernel.run(until=third.queue_time + DELAYED_REQUEST_TIMEOUT_US)
        for request in requests:
            assert request.state is RequestState.TIMED_OUT
            assert request.complete_time == request.queue_time + DELAYED_REQUEST_TIMEOUT_US
        errors = [e.request_id for e in host.tracer.events() if e.action is Action.COMPLETE_ERROR]
        assert errors == [r.request_id for r in requests]  # submit order
        assert host.block.timed_out == 3

    def test_completed_request_never_times_out(self):
        # The timer is armed at the first write's deadline; that write
        # completes and the second sticks on the device, so the firing at
        # the first deadline only re-arms.  The queue depth's worth of
        # writes after it stick too, except the last, which waits on the
        # host and fails there: finished behind unfinished requests, it
        # must not time out with them.
        host = make_host()
        done = host.write(0, [1])
        host.run_for(50)
        stuck = host.write(8, [2])
        host.kernel.pump_until(lambda: done.done, MSEC, "first write")
        host.ssd._dispatcher.kill()
        more = [host.write(16 + 8 * i, [3]) for i in range(host.block.queue_depth)]
        assert host.block.flush_queue_as_errors() == 1
        host.run_for(DELAYED_REQUEST_TIMEOUT_US)
        assert done.state is RequestState.COMPLETED
        assert more[-1].state is RequestState.FAILED
        for request in [stuck] + more[:-1]:
            assert request.state is RequestState.TIMED_OUT
            assert request.complete_time == request.queue_time + DELAYED_REQUEST_TIMEOUT_US
        assert host.block.timed_out == host.block.queue_depth

    def test_request_failed_by_a_timeout_callback_does_not_time_out(self):
        # Every write is due at the same firing; the first one's callback
        # fails the last, still queued on the host, before its turn comes.
        host = make_host()
        host.ssd._dispatcher.kill()
        first = host.write(0, [1], on_done=lambda _: host.block.flush_queue_as_errors())
        rest = [host.write(8 + 8 * i, [2]) for i in range(host.block.queue_depth)]
        host.run_for(DELAYED_REQUEST_TIMEOUT_US)
        assert rest[-1].state is RequestState.FAILED
        assert all(r.state is RequestState.TIMED_OUT for r in [first] + rest[:-1])
        assert (host.block.timed_out, host.block.failed) == (host.block.queue_depth, 1)
        errors = [e.request_id for e in host.tracer.events() if e.action is Action.COMPLETE_ERROR]
        assert sorted(errors) == [r.request_id for r in [first] + rest]

    def test_drained_layer_leaves_no_timer(self):
        # Reads of never-written pages touch no flash, so nothing but the
        # timeout timer could keep the kernel busy past the last completion.
        host = make_host()
        requests = [host.read(lpn, 4) for lpn in (0, 64, 128)]
        host.kernel.run()
        assert all(r.ok for r in requests)
        assert host.kernel.now == max(r.complete_time for r in requests)
        assert host.kernel.pending_count() == 0


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
