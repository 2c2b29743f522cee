"""Distributed shard execution over TCP: ``campaign --listen`` and ``repro worker``.

The paper's testbed runs thousands of power-cut experiments per drive;
one host's worker processes are the wrong ceiling for that.  This module takes
the engine's executor protocol — ``execute(tasks, telemetry) -> (key,
ShardRun)`` — across machine boundaries while changing nothing above it:
merge order, checkpoint journal, resume, retry/quarantine policy and the
trace vocabulary are exactly the single-host ones.

There is one coordinator, :class:`~repro.engine.serve.CampaignService`.
:class:`RemoteExecutor` adapts the executor protocol to it: each
``--listen`` run starts an ephemeral service holding one in-process
submission.  The wire protocol (framing, handshake, plan transport) is
:mod:`repro.engine.wire`'s; the lease/retry state machine is
:class:`~repro.engine.aiocoord.CoordinatorCore`.  In short:
``hello``/``welcome`` (fingerprint-gated, versioned), then a work loop of
``request`` → ``shard``/``wait``/``shutdown`` with ``heartbeat`` renewing
leases and ``result``/``failure`` concluding them.

Leases
------
A lease is the coordinator's only claim about a worker: *this shard is
being executed by that connection until the deadline*.  Heartbeats move
the deadline; a worker that dies (connection drops) or wedges (heartbeats
stop) loses the lease and the shard returns to the queue, charged one
attempt, to be retried under the same
:class:`~repro.engine.supervisor.RetryPolicy` backoff/quarantine
machinery as local execution.  Because shard seeds are deterministic, a
shard re-executed by a different machine returns a bit-identical result —
which is what makes the merged summary of a distributed, worker-killed
run equal the serial run's, byte for byte.

Commits all flow through the caller's single
:class:`~repro.engine.checkpoint.CheckpointJournal`, so ``--resume``
works identically for local and distributed runs (and a journal written
by one can resume the other).
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.engine.checkpoint import (
    CheckpointJournal,
    plans_fingerprint,
    result_to_record,
    ResumeState,
)
from repro.engine.executors import ShardKey, ShardTask, _run_shard_task
from repro.engine.progress import EngineTelemetry
from repro.engine.serve import CampaignService
from repro.engine.supervisor import (
    InterruptFlag,
    interrupt_flag_guard,
    RetryPolicy,
    ShardRun,
)
from repro.engine.wire import (
    connect_with_retry,
    decode_plans,
    DEFAULT_LEASE_TIMEOUT_S,
    parse_address,
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
    worker_identity,
)
from repro.errors import (
    CampaignError,
    CampaignInterrupted,
    RemoteProtocolError,
)


# -- coordinator --------------------------------------------------------------------


class RemoteExecutor:
    """Serves the shard task queue to ``repro worker`` processes over TCP.

    The distributed twin of :func:`~repro.engine.supervisor.execute_local`:
    ``execute(tasks, telemetry)`` yields ``(key, ShardRun)`` in task
    order.  Each call runs an ephemeral
    :class:`~repro.engine.serve.CampaignService` on the listen address,
    holding one in-process submission of the tasks' plans.  That
    submission reports through ``telemetry``, commits to the checkpoint
    journal and prefills the resumed shards on the same
    :class:`~repro.engine.aiocoord.CoordinatorCore` a local run drives, so
    retries/backoff (:class:`RetryPolicy`), poison quarantine, the
    write-ahead journal and ``--resume`` behave exactly as they do
    locally; retried shards stay bit-deterministic because only the
    plan's shard seeds feed the simulation.  A coordinator object is
    single-use.
    """

    def __init__(
        self,
        listen: Union[str, Tuple[str, int]] = ("127.0.0.1", 0),
        policy: Optional[RetryPolicy] = None,
        journal: Optional[CheckpointJournal] = None,
        resume: Optional[ResumeState] = None,
        quarantine_enabled: bool = False,
        shard_timeout_s: Optional[float] = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        announce=None,
    ) -> None:
        self.listen = listen
        self.policy = policy if policy is not None else RetryPolicy()
        self.journal = journal
        self.resume = resume if resume is not None else ResumeState()
        self.quarantine_enabled = quarantine_enabled
        self.shard_timeout_s = shard_timeout_s
        self.lease_timeout_s = lease_timeout_s
        self.announce = announce if announce is not None else sys.stderr
        self._started = False

    def execute(
        self, tasks: Sequence[ShardTask], telemetry: EngineTelemetry
    ) -> Iterator[Tuple[ShardKey, ShardRun]]:
        """Yield ``(key, ShardRun)`` in task order as the service settles them."""
        if self._started:
            raise CampaignError("a RemoteExecutor coordinator is single-use")
        self._started = True
        plans: List = []
        for plan_index, plan, _ in tasks:
            if plan_index == len(plans):
                plans.append(plan)
        resumed = {
            key: ShardRun(
                result=result,
                attempts=self.resume.attempts.get(key, 1),
                status="resumed",
            )
            for key, result in self.resume.results.items()
        }
        # A local submission neither caches results nor writes a trace, so
        # the service's CAS root is never created.
        service = CampaignService(
            listen=self.listen,
            policy=self.policy,
            quarantine=self.quarantine_enabled,
            shard_timeout_s=self.shard_timeout_s,
            lease_timeout_s=self.lease_timeout_s,
            announce=self.announce,
        )
        submission = service.submit_local(plans, telemetry, self.journal, resumed)
        address = f"{service.host}:{service.port}"
        print(
            f"[engine] coordinator listening on {address} "
            f"(fingerprint {submission.fingerprint}, "
            f"{len(submission.core.ready)} shard(s) to lease) — start "
            f"workers with: repro worker --connect {address}",
            file=self.announce,
            flush=True,
        )
        with interrupt_flag_guard() as flag:
            service.start()
            try:
                for plan_index, _plan, shard in tasks:
                    key = (plan_index, shard.index)
                    yield key, _await_run(submission, key, flag)
            finally:
                service.stop()


def _await_run(submission, key: ShardKey, interrupt: InterruptFlag) -> ShardRun:
    """Block until the service loop settles ``key``, the batch fails, or a signal lands.

    An interrupt leaves the journal as the loop left it: every commit
    was fsync'd before its shard was reported.
    """
    with submission.settled:
        while True:
            if interrupt:
                raise CampaignInterrupted(
                    f"campaign interrupted by {interrupt.signal_name}; "
                    "checkpoint journal is flushed — restart with resume to continue"
                )
            run = submission.core.done.get(key)
            if run is not None:
                return run
            if submission.core.fatal is not None:
                raise submission.core.fatal
            submission.settled.wait(timeout=0.1)


# -- worker -------------------------------------------------------------------------


class _Heartbeat(threading.Thread):
    """Renews the current lease while the worker executes a shard."""

    def __init__(self, sock, send_lock, plan_index, shard_index, interval_s):
        super().__init__(name="repro-worker-heartbeat", daemon=True)
        self._sock = sock
        self._send_lock = send_lock
        self._frame = {
            "kind": "heartbeat", "plan": plan_index, "shard": shard_index
        }
        self._interval_s = max(0.05, interval_s)
        # Not named _stop: Thread itself has a private _stop() method.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval_s):
            try:
                with self._send_lock:
                    send_frame(self._sock, self._frame)
            except OSError:
                return  # coordinator went away; the main loop will notice

    def stop(self) -> None:
        self._halt.set()


HeldPlans = Tuple[str, Dict]
"""A hydrated plan batch a worker holds: ``(fingerprint, shards-by-key)``."""


def _worker_session(
    sock: socket.socket,
    host: str,
    port: int,
    identity: str,
    held: Optional[HeldPlans],
    say,
) -> Tuple[Optional[int], Optional[HeldPlans]]:
    """One coordinator conversation: handshake, work loop, outcome.

    Returns ``(exit_code, held_plans)``; the exit code is ``None`` when the
    connection ended before the coordinator answered the hello.  ``held``
    carries an already-hydrated plan batch into a reconnect: the hello
    advertises its fingerprint, and when the coordinator welcomes us for
    the *same* batch, hydration is skipped entirely — the idempotent
    re-handshake a restarted coordinator relies on.
    """
    send_lock = threading.Lock()
    executed = 0
    welcome = None
    try:
        sock.settimeout(600.0)
        with send_lock:
            send_frame(
                sock,
                {
                    "kind": "hello",
                    "v": PROTOCOL_VERSION,
                    "worker": identity,
                    "fingerprint": held[0] if held is not None else None,
                },
            )
        welcome = recv_frame(sock)
        if welcome is None:
            say(f"[worker {identity}] coordinator closed during handshake")
            return None, held
        if welcome["kind"] == "reject":
            say(f"[worker {identity}] rejected: {welcome.get('reason')}")
            return 2, held
        if welcome["kind"] == "shutdown":
            # Turned away politely: the campaign finished before we joined.
            say(f"[worker {identity}] campaign already complete")
            return 0, held
        if welcome["kind"] != "welcome" or welcome.get("v") != PROTOCOL_VERSION:
            say(f"[worker {identity}] bad handshake reply: {welcome.get('kind')!r}")
            return 2, held
        fingerprint = welcome.get("fingerprint")
        if held is not None and held[0] == fingerprint:
            shards = held[1]
            say(
                f"[worker {identity}] reconnected to {host}:{port} "
                f"(held fingerprint {fingerprint})"
            )
        else:
            plans = decode_plans(welcome["plans"])
            derived = plans_fingerprint(plans)
            if derived != fingerprint:
                say(
                    f"[worker {identity}] hydrated fingerprint {derived} does not "
                    f"match coordinator's {fingerprint}; aborting"
                )
                return 2, held
            shards = {
                (plan_index, shard.index): (plan, shard)
                for plan_index, plan in enumerate(plans)
                for shard in plan.shards()
            }
            held = (fingerprint, shards)
            say(
                f"[worker {identity}] connected to {host}:{port} "
                f"({len(plans)} plan(s), fingerprint {fingerprint})"
            )
        heartbeat_s = float(welcome.get("heartbeat_s") or DEFAULT_LEASE_TIMEOUT_S / 3)
        while True:
            with send_lock:
                send_frame(sock, {"kind": "request"})
            frame = recv_frame(sock)
            if frame is None:
                say(f"[worker {identity}] connection lost ({executed} shard(s) done)")
                return 3, held
            kind = frame["kind"]
            if kind == "shutdown":
                say(f"[worker {identity}] done: executed {executed} shard(s)")
                return 0, held
            if kind == "wait":
                time.sleep(min(5.0, float(frame.get("delay_s") or 0.5)))
                continue
            if kind != "shard":
                raise RemoteProtocolError(f"unexpected frame kind {kind!r}")
            key = (frame["plan"], frame["shard"])
            if key not in shards:
                raise RemoteProtocolError(f"leased unknown shard {key}")
            plan, shard = shards[key]
            attempt = int(frame.get("attempt") or 1)
            heartbeat = _Heartbeat(sock, send_lock, key[0], key[1], heartbeat_s)
            heartbeat.start()
            try:
                result = _run_shard_task(plan, shard, attempt)
            except Exception as exc:
                heartbeat.stop()
                heartbeat.join()
                with send_lock:
                    send_frame(
                        sock,
                        {
                            "kind": "failure",
                            "plan": key[0],
                            "shard": key[1],
                            "attempt": attempt,
                            "error": repr(exc),
                        },
                    )
                continue
            heartbeat.stop()
            heartbeat.join()
            with send_lock:
                send_frame(
                    sock,
                    {
                        "kind": "result",
                        "plan": key[0],
                        "shard": key[1],
                        "attempt": attempt,
                        "result": result_to_record(result),
                    },
                )
            executed += 1
    except (RemoteProtocolError, OSError) as exc:
        say(f"[worker {identity}] protocol/connection failure: {exc}")
        return (3 if welcome is not None else None), held
    finally:
        try:
            sock.close()
        except OSError:
            pass


def run_worker(
    address: Union[str, Tuple[str, int]],
    connect_timeout_s: float = 10.0,
    announce=None,
    persist: bool = False,
) -> int:
    """Connect to a coordinator and execute leased shards until shutdown.

    This is the body of ``repro worker --connect HOST:PORT``.  Shards run
    through the exact entry point local runs use
    (:func:`~repro.engine.executors._run_shard_task`), so the injectable
    fault fixture and the bit-determinism guarantee carry over unchanged.

    Exit codes: 0 clean shutdown from the coordinator; 2 rejected at
    handshake (stale plans or protocol mismatch); 3 connection lost,
    mid-campaign or before the coordinator answered the hello.

    With ``persist=True`` the worker outlives individual coordinator
    sessions: after a lost connection it reconnects *holding* its
    hydrated plan batch (so a restarted coordinator for the same
    fingerprint re-handshakes idempotently); after a stale rejection it
    drops the held batch and retries fresh; after a clean shutdown it
    waits for the next campaign.  The persist loop ends once no
    coordinator accepts a connection within ``connect_timeout_s``.  It
    returns the code of the last session whose hello got an answer
    (``welcome``, ``reject`` or ``shutdown``), or 3 if none did: a
    connection closed before any answer — a service stopping while the
    worker reconnects — does not replace that code.  A *fresh* handshake
    rejection still exits 2 immediately: retrying a protocol mismatch is
    hopeless.
    """
    stream = announce if announce is not None else sys.stderr

    def say(line: str) -> None:
        print(line, file=stream)
        try:
            stream.flush()
        except Exception:
            pass

    host, port = parse_address(address)
    identity = worker_identity()
    held: Optional[HeldPlans] = None
    code = 3
    while True:
        try:
            sock = connect_with_retry(host, port, connect_timeout_s)
        except CampaignError as exc:
            if not persist:
                raise
            say(f"[worker {identity}] {exc}; ending persist loop")
            return code
        answered, held = _worker_session(sock, host, port, identity, held, say)
        if not persist:
            return 3 if answered is None else answered
        if answered is not None:
            code = answered  # an unanswered hello keeps the last code
        if answered == 2:
            if held is None:
                return 2  # fresh handshake rejected: config error, not transient
            held = None  # stale plans: reconnect fresh and re-hydrate
        elif answered == 0:
            held = None  # campaign complete; await the next one
        time.sleep(0.2)
