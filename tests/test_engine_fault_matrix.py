"""The engine fault matrix: every failure mode × every execution lane.

One parametrized test proves the engine's core reliability claim in all
directions at once: for each injected fault mode (``crash``, ``exit``,
``hang``, ``slow``) and each execution lane (serial in-process,
forked local workers, distributed TCP workers), the perturbed campaign's
merged ``summary()`` equals the unfaulted serial baseline.

The ``remote`` and ``serve`` lanes drive one coordinator, the campaign
service, through its two entry points: ``run_plan(listen=...)`` (the
ephemeral service ``campaign --listen`` runs, with one in-process
submission and one-shot workers) and a standing service fed by
``submit_campaign`` (persistent workers).

The distributed path gets extra scrutiny: a worker SIGKILLed mid-shard
(connection drop → requeue), a worker SIGSTOPped mid-shard (heartbeats
stop → lease expiry → requeue), a checkpoint written by a distributed
run resumed serially, and a stale worker turned away at handshake.
Wire-protocol framing is unit-tested at the bottom.
"""

import io
import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro.engine import run_plan
from repro.engine.checkpoint import plans_fingerprint
from repro.engine.executors import TEST_FAULT_ENV
from repro.engine.remote import run_worker
from repro.engine.wire import (
    encode_plans,
    MAX_FRAME_BYTES,
    parse_address,
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
    validate_hello,
)
from repro.errors import CampaignError, RemoteProtocolError
from tests.engine_faults import (
    app_summary,
    clean_app_summary,
    clean_summary,
    drain_workers,
    FAST,
    free_port,
    run_distributed,
    run_served,
    small_app_plan,
    small_plan,
    spawn_worker,
)

MODES = ["crash", "exit", "hang", "slow"]
LANES = ["serial", "pool", "remote", "serve"]


def fault_spec(mode: str, lane: str) -> str:
    """The ``REPRO_ENGINE_TEST_FAULT`` value for one matrix cell."""
    if mode == "crash":
        return "crash:1:1"
    if mode == "exit":
        return "exit:2:1"
    if mode == "hang":
        # The pool lane (forked local workers) proves true timeout
        # enforcement: the worker wedges for 30s and must be killed at the
        # 1s shard timeout.  Serial and remote lanes have no preemption,
        # so the hang self-reports after a short sleep (raising, like a
        # watchdog would).
        return "hang:1:1:30" if lane == "pool" else "hang:1:1:0.4"
    if mode == "slow":
        return "slow:*:1:0.2"
    raise AssertionError(mode)


class TestFaultMatrix:
    @pytest.mark.parametrize("lane", LANES)
    @pytest.mark.parametrize("mode", MODES)
    def test_perturbed_summary_equals_serial_baseline(
        self, mode, lane, monkeypatch, tmp_path
    ):
        if mode == "exit" and lane == "serial":
            pytest.skip("os._exit in-process would kill the test runner itself")
        baseline = clean_summary()
        fault = fault_spec(mode, lane)
        if lane == "remote":
            result, codes = run_distributed(
                small_plan(), workers=2, worker_fault=fault
            )
            if mode == "exit":
                # One worker died by os._exit(13) mid-shard; the survivor
                # finished the campaign and shut down cleanly.
                assert sorted(codes) == [0, 13]
            else:
                assert codes == [0, 0]
        elif lane == "serve":
            # The same failure topology against the asyncio campaign
            # service: persistent workers, submission over the wire.
            outcome, codes = run_served(
                small_plan(), tmp_path / "cas", workers=2, worker_fault=fault
            )
            result = outcome.results[0]
            if mode == "exit":
                assert sorted(codes) == [0, 13]
            else:
                assert codes == [0, 0]
        else:
            monkeypatch.setenv(TEST_FAULT_ENV, fault)
            result = run_plan(
                small_plan(),
                jobs=1 if lane == "serial" else 2,
                retry_policy=FAST,
                shard_timeout_s=1.0 if (mode == "hang" and lane == "pool") else None,
            )
        assert result.summary() == baseline
        assert not result.execution.degraded
        if mode == "slow":
            assert result.execution.retries == 0
        else:
            assert result.execution.retries >= 1


class TestAppPlanFaultMatrix:
    """The same matrix, driven by an :class:`repro.apps.AppPlan`.

    App campaigns are plan subclasses like any other, so the engine's
    reliability claim must hold for them unchanged — including the
    semantic-outcome counters, which ride ``FaultCycleResult`` and must
    survive retries, requeues and process hops bit-for-bit.
    """

    @pytest.mark.parametrize("lane", LANES)
    @pytest.mark.parametrize("mode", MODES)
    def test_perturbed_app_summary_equals_serial_baseline(
        self, mode, lane, monkeypatch, tmp_path
    ):
        if mode == "exit" and lane == "serial":
            pytest.skip("os._exit in-process would kill the test runner itself")
        baseline = clean_app_summary()
        fault = fault_spec(mode, lane)
        if lane == "remote":
            result, codes = run_distributed(
                small_app_plan(), workers=2, worker_fault=fault
            )
            if mode == "exit":
                assert sorted(codes) == [0, 13]
            else:
                assert codes == [0, 0]
        elif lane == "serve":
            outcome, codes = run_served(
                small_app_plan(), tmp_path / "cas", workers=2, worker_fault=fault
            )
            result = outcome.results[0]
            if mode == "exit":
                assert sorted(codes) == [0, 13]
            else:
                assert codes == [0, 0]
        else:
            monkeypatch.setenv(TEST_FAULT_ENV, fault)
            result = run_plan(
                small_app_plan(),
                jobs=1 if lane == "serial" else 2,
                retry_policy=FAST,
                shard_timeout_s=1.0 if (mode == "hang" and lane == "pool") else None,
            )
        assert app_summary(result) == baseline
        assert not result.execution.degraded
        if mode != "slow":
            assert result.execution.retries >= 1


class _SignalOnFirstStart:
    """Progress hook: signal worker #0 the moment it starts its first shard.

    Keying off the trace's worker identity (``host:pid``) guarantees the
    signal lands while that worker is *mid-shard* — the exact scenario the
    lease machinery exists for — instead of racing against startup.
    """

    def __init__(self, sig):
        self.sig = sig
        self.procs = None
        self.signalled = None
        self.events = []

    def arm(self, procs):
        self.procs = procs

    def __call__(self, event):
        self.events.append(event)
        if (
            self.signalled is None
            and self.procs
            and event.kind == "shard-started"
            and event.worker_pid is not None
            and str(event.worker_pid).rsplit(":", 1)[-1] == str(self.procs[0].pid)
        ):
            os.kill(self.procs[0].pid, self.sig)
            self.signalled = self.procs[0].pid

    def kinds(self):
        return [event.kind for event in self.events]


class TestRemoteWorkerLoss:
    def test_sigkill_mid_shard_requeues_and_recovers(self):
        # The acceptance scenario: a worker is SIGKILLed while executing a
        # leased shard.  The connection drops, the shard returns to the
        # queue charged one attempt, the surviving worker re-executes it,
        # and the merged summary is byte-identical to the serial baseline.
        baseline = clean_summary(faults=6)
        hook = _SignalOnFirstStart(signal.SIGKILL)
        result, codes = run_distributed(
            small_plan(faults=6),
            workers=2,
            worker_fault="slow:*:1:0.5",  # widen the mid-shard window
            on_workers_started=hook.arm,
            progress=hook,
        )
        assert hook.signalled is not None, "victim worker never leased a shard"
        assert result.summary() == baseline
        assert not result.execution.degraded
        assert result.execution.retries >= 1
        assert "shard-retried" in hook.kinds()
        assert codes[0] == -signal.SIGKILL
        assert codes[1] == 0

    def test_sigstop_wedge_expires_lease_and_requeues(self):
        # Nastier than a kill: a SIGSTOPped worker keeps its socket open,
        # so only the heartbeat deadline can detect it.  The lease must
        # expire and the shard must migrate to the healthy worker.
        baseline = clean_summary(faults=6)
        hook = _SignalOnFirstStart(signal.SIGSTOP)
        result, codes = run_distributed(
            small_plan(faults=6),
            workers=2,
            worker_fault="slow:*:1:0.5",
            lease_timeout_s=1.5,
            on_workers_started=hook.arm,
            progress=hook,
            on_before_drain=lambda procs: os.kill(procs[0].pid, signal.SIGCONT),
        )
        assert hook.signalled is not None, "victim worker never leased a shard"
        assert result.summary() == baseline
        assert not result.execution.degraded
        assert result.execution.retries >= 1
        retried = [e for e in hook.events if e.kind == "shard-retried"]
        assert any("lease expired" in e.detail for e in retried)
        # The frozen worker finds its connection gone once thawed (exit 3),
        # or drains cleanly if it thawed inside the shutdown grace window.
        assert codes[0] in (0, 3)
        assert codes[1] == 0

    def test_remote_checkpoint_resumes_serially(self, tmp_path, monkeypatch):
        # The journal is the coordinator's, in the local format — so a
        # distributed run's checkpoint must resume on a plain serial run.
        # The crash-everything fault proves resume re-executes nothing.
        baseline = clean_summary()
        path = tmp_path / "ck.jsonl"
        result, codes = run_distributed(small_plan(), workers=2, checkpoint=path)
        assert result.summary() == baseline
        assert codes == [0, 0]
        monkeypatch.setenv(TEST_FAULT_ENV, "crash:*:*")
        resumed = run_plan(small_plan(), jobs=1, checkpoint=path, resume=True)
        assert resumed.summary() == baseline
        assert resumed.execution.shards_resumed == 4


class TestCoordinatorRestart:
    """A coordinator dies mid-campaign; its persistent workers survive it.

    The worker holds its hydrated plan batch across the loss, re-handshakes
    idempotently with the restarted coordinator (advertising the held
    fingerprint, skipping re-hydration), and the resumed campaign — journal
    shards loaded, in-flight shard requeued off its dead lease — finishes
    with the uninterrupted run's exact summary.
    """

    CAMPAIGN = [
        "campaign",
        "--device",
        "ssd-a",
        "--faults",
        "8",
        "--wss-gib",
        "1",
        "--shard-faults",
        "1",
        "--seed",
        "3",
    ]

    @staticmethod
    def _journaled_shards(path) -> int:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return 0
        return sum(1 for line in text.splitlines() if '"kind":"shard"' in line)

    def test_kill_coordinator_mid_run_worker_survives_resume(self, tmp_path):
        import subprocess
        import sys

        from tests.engine_faults import cli_env, run_cli, summary_table

        env = cli_env()
        serial = run_cli(self.CAMPAIGN, env)
        assert serial.returncode == 0, serial.stderr
        baseline_table = summary_table(serial.stdout)

        port = free_port()
        ck = tmp_path / "ck.jsonl"
        listen_args = [
            "--listen",
            f"127.0.0.1:{port}",
            "--checkpoint",
            str(ck),
            "--lease-timeout",
            "3",
        ]
        worker = spawn_worker(
            port, fault="slow:*:1:0.3", persist=True, connect_timeout_s=15.0
        )
        coordinator = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.CAMPAIGN, *listen_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            # Wait for real progress (some shards journaled, not all),
            # then SIGKILL: no shutdown frame, no socket close — the
            # worker must discover the loss on its own.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if 1 <= self._journaled_shards(ck) < 8:
                    break
                if coordinator.poll() is not None:
                    pytest.fail("coordinator finished before it could be killed")
                time.sleep(0.05)
            else:
                pytest.fail("no shard ever committed to the journal")
            coordinator.kill()
            coordinator.wait(timeout=30)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait()

        resumed = run_cli([*self.CAMPAIGN, *listen_args, "--resume"], env)
        assert resumed.returncode == 0, resumed.stderr
        assert summary_table(resumed.stdout) == baseline_table

        codes = drain_workers([worker])
        assert codes == [0]
        # The persist worker rode through the coordinator loss: it lost a
        # connection, then re-handshook holding its hydrated plan batch
        # (no re-hydration — the idempotent reconnect path).
        assert "reconnected to" in worker.captured[1]
        assert "held fingerprint" in worker.captured[1]

    def test_duplicate_late_result_dropped_by_lease_bookkeeping(self):
        # Unit-level twin of the restart scenario: a result frame whose
        # lease has moved on (stale attempt or stale connection) must be
        # dropped, not double-counted.
        from repro.engine.aiocoord import CoordinatorCore
        from repro.engine.checkpoint import result_to_record
        from repro.engine.progress import EngineTelemetry

        plan = small_plan(faults=2, shard_faults=1)
        tasks = [(0, plan, shard) for shard in plan.shards()]
        telemetry = EngineTelemetry(shards_total=2, cycles_total=2)
        core = CoordinatorCore(tasks, policy=FAST, telemetry=telemetry)
        grant = core.grant("w1", conn_id=1)
        assert grant["kind"] == "shard"
        key = (grant["plan"], grant["shard"])
        # The lease expires (worker presumed dead) and the shard regrants
        # to another connection at attempt 2.
        core.leases[key].deadline_mono = 0.0
        core.sweep()
        regrant = core.grant("w2", conn_id=2)
        assert (regrant["plan"], regrant["shard"]) == key
        assert regrant["attempt"] == 2
        result = plan.run_shard(tasks[key[1]][2])
        stale = {
            "plan": key[0],
            "shard": key[1],
            "attempt": 1,
            "result": result_to_record(result),
        }
        core.outcome(stale, "result", "w1", conn_id=1)  # late frame from w1
        assert key not in core.done, "stale result must not complete the shard"
        fresh = dict(stale, attempt=2)
        core.outcome(fresh, "result", "w2", conn_id=2)
        assert core.done[key].status == "completed"
        assert core.done[key].attempts == 2
        # A second copy of the same frame (retransmit) is also inert.
        executed = core.executed
        core.outcome(fresh, "result", "w2", conn_id=2)
        assert core.executed == executed


def _connect_with_retry(port, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=5.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


class TestHandshake:
    def test_stale_worker_rejected_live_campaign_completes(self):
        # A client holding a different plan fingerprint is turned away with
        # a reason, and its rejection does not disturb the real campaign.
        port = free_port()
        box = {}

        def coordinate():
            box["result"] = run_plan(
                small_plan(), listen=f"127.0.0.1:{port}", retry_policy=FAST
            )

        thread = threading.Thread(target=coordinate)
        thread.start()
        worker = None
        try:
            stale = _connect_with_retry(port)
            send_frame(
                stale,
                {
                    "kind": "hello",
                    "v": PROTOCOL_VERSION,
                    "worker": "test:1",
                    "fingerprint": "deadbeef-99",
                },
            )
            reply = recv_frame(stale)
            assert reply["kind"] == "reject"
            assert "stale worker" in reply["reason"]
            stale.close()
            worker = spawn_worker(port)
        finally:
            thread.join(timeout=120)
            codes = drain_workers([worker] if worker else [])
        assert not thread.is_alive()
        assert codes == [0]
        assert box["result"].summary() == clean_summary()

    def test_validate_hello(self):
        good = {"kind": "hello", "v": PROTOCOL_VERSION, "worker": "h:1"}
        assert validate_hello(good, "fp-1") is None
        assert validate_hello({**good, "fingerprint": "fp-1"}, "fp-1") is None
        assert "stale" in validate_hello({**good, "fingerprint": "fp-2"}, "fp-1")
        assert "version" in validate_hello({**good, "v": 99}, "fp-1")
        assert "expected hello" in validate_hello({"kind": "request"}, "fp-1")


def _scripted_coordinator(replies):
    """A listener that answers one connection per scripted reply.

    Each connection's hello gets its reply frame, or none when the reply
    is ``None``; after a ``welcome`` the worker's first request is read
    and the connection dropped.  The listener closes before the last
    connection does, so the worker's next connect is refused.
    """
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        for index, reply in enumerate(replies):
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)  # the hello
                if reply is not None:
                    send_frame(conn, reply)
                    if reply["kind"] == "welcome":
                        recv_frame(conn)  # the first request
                if index == len(replies) - 1:
                    listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


class TestPersistExitCode:
    def run_persist_worker(self, replies):
        port, coordinator = _scripted_coordinator(replies)
        code = run_worker(
            ("127.0.0.1", port),
            connect_timeout_s=0.5,
            announce=io.StringIO(),
            persist=True,
        )
        coordinator.join(timeout=10)
        assert not coordinator.is_alive()  # every scripted connection was served
        return code

    def test_unanswered_reconnect_keeps_the_shutdown_code(self):
        # A service that stops while the worker reconnects after a
        # finished campaign closes the connection before any answer.
        assert self.run_persist_worker([{"kind": "shutdown"}, None]) == 0

    def test_session_lost_after_welcome_still_exits_3(self):
        plans = [small_plan()]
        welcome = {
            "kind": "welcome",
            "v": PROTOCOL_VERSION,
            "fingerprint": plans_fingerprint(plans),
            "plans": encode_plans(plans),
            "heartbeat_s": 5.0,
        }
        assert self.run_persist_worker([welcome]) == 3


class TestWireFrames:
    def pair(self):
        return socket.socketpair()

    def test_roundtrip_and_clean_eof(self):
        a, b = self.pair()
        payload = {"kind": "shard", "plan": 0, "shard": 3, "attempt": 2}
        send_frame(a, payload)
        assert recv_frame(b) == payload
        a.close()
        assert recv_frame(b) is None  # EOF at a frame boundary is clean
        b.close()

    def test_oversized_declared_frame_rejected(self):
        a, b = self.pair()
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(RemoteProtocolError, match="exceeds limit"):
            recv_frame(b)
        a.close()
        b.close()

    def test_torn_frame_raises(self):
        a, b = self.pair()
        a.sendall(struct.pack(">I", 10) + b"abc")
        a.close()
        with pytest.raises(RemoteProtocolError, match="closed"):
            recv_frame(b)
        b.close()

    def test_non_json_payload_raises(self):
        a, b = self.pair()
        a.sendall(struct.pack(">I", 4) + b"\xff\xfe\xfd\xfc")
        with pytest.raises(RemoteProtocolError, match="JSON"):
            recv_frame(b)
        a.close()
        b.close()

    def test_frame_must_be_object_with_kind(self):
        a, b = self.pair()
        a.sendall(struct.pack(">I", 2) + b"[]")
        with pytest.raises(RemoteProtocolError, match="kind"):
            recv_frame(b)
        a.close()
        b.close()

    def test_parse_address(self):
        assert parse_address("10.0.0.5:9000") == ("10.0.0.5", 9000)
        assert parse_address(":0") == ("127.0.0.1", 0)
        assert parse_address("9000") == ("127.0.0.1", 9000)
        assert parse_address(("", 7)) == ("127.0.0.1", 7)
        with pytest.raises(CampaignError):
            parse_address("host:notaport")
        with pytest.raises(CampaignError):
            parse_address("host:70000")
