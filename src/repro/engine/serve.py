"""``repro serve`` — the engine's coordinator, as a daemon or for one campaign.

The paper's methodology chapter describes a testbed that runs
*thousands* of power-cut campaigns across drives and firmware revisions
over weeks, and this module is that shape: one service that accepts
campaign submissions over TCP, schedules their shards across a shared
persistent worker fleet, and remembers every shard it has ever
completed.  It is also the only coordinator: ``campaign --listen`` runs
an ephemeral instance holding one in-process submission, which serves
workers only (see :meth:`CampaignService.submit_local` and
:class:`~repro.engine.remote.RemoteExecutor`).

Three client roles share one listening socket, distinguished by their
first frame (the framing itself is :mod:`repro.engine.wire`'s):

``hello``
    A worker (``repro worker --connect HOST:PORT``, with ``--persist`` to
    outlive campaigns): a versioned, fingerprint-gated ``hello``/
    ``welcome`` handshake, then the lease/heartbeat conversation of
    :meth:`CampaignService._pump_worker`.  A worker that connects before
    any campaign exists is simply held at handshake until one arrives.

``submit``
    A submitter (:func:`submit_campaign`).  Carries a plan batch; the
    service answers ``accepted`` (with the batch fingerprint and how many
    shards were served from cache), streams every engine trace event
    live, and finishes with a ``summary`` frame carrying per-shard
    results — from which the client rebuilds merged
    :class:`~repro.core.results.CampaignResult` objects through the same
    :func:`~repro.engine.supervisor.merge_plan_runs` fold the in-process
    engine uses.  Identical plan batches submitted concurrently
    **coalesce** onto one execution; each submitter gets the full event
    stream and summary.

``follow``
    A read-only observer (:func:`follow_campaign`): the event stream and
    summary of an active campaign, without submitting work.  Any number
    may attach mid-run; each is sent every record the campaign has
    written so far, then each new one as it is written.

Result CAS
----------
Completed shards persist in a :class:`~repro.engine.cas.ResultCAS` keyed
``(plans fingerprint, plan index, shard index, seed)``.  On submission,
cached shards are prefilled as ``resumed`` runs — telemetry reports them
``shard-skipped``, workers never see them, and a resubmitted identical
campaign completes instantly with ``executed == 0`` and a bit-identical
summary.  Because the CAS lives on disk, the guarantee spans daemon
restarts.

Fair share
----------
Each active submission tracks when it last received a grant; a worker
asking for work when a *longer-starved* submission has leasable shards
is released (clean ``shutdown``) so its persist loop re-handshakes onto
that submission.  The effect is round-robin interleaving of shards
across submitters using the protocol's existing rebind mechanics instead
of new frame kinds.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.results import CampaignResult
from repro.engine.aiocoord import (
    CoordinatorCore,
    read_frame,
    sweep_interval_s,
    write_frame,
)
from repro.engine.cas import ResultCAS
from repro.engine.checkpoint import (
    CheckpointJournal,
    plans_fingerprint,
    result_from_record,
    result_to_record,
)
from repro.engine.executors import ShardKey, ShardTask
from repro.engine.plan import ShardSpec
from repro.engine.progress import EngineTelemetry, ProgressEvent
from repro.engine.supervisor import (
    interrupt_flag_guard,
    merge_plan_runs,
    RetryPolicy,
    ShardRun,
)
from repro.engine.trace import record_from_dict, TraceRecord, TraceWriter
from repro.engine.wire import (
    connect_with_retry,
    DEFAULT_LEASE_TIMEOUT_S,
    decode_plans,
    encode_plans,
    parse_address,
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
    validate_hello,
)
from repro.errors import CampaignError, RemoteProtocolError

STOP_DRAIN_S = 2.0
"""Grace for every connection to end after stop: workers hang up on a
pushed ``shutdown`` frame, subscribers once they have sent the stop error."""


# -- one accepted plan batch --------------------------------------------------------


class _Submission:
    """One active plan batch: its coordinator core, telemetry and records.

    Lives on the service's event loop; every method runs there, except
    that a local submission is built and prefilled before the loop
    starts, and its caller waits on :attr:`settled`.  A wire
    submission (``repro submit``) owns its telemetry, whose hook writes
    each record to the submission's trace file (fsync'd, the durable
    history ``repro trace report`` reads), keeps the written record in
    :attr:`records` and notifies the service.  Every subscriber streams
    from that list, so each one, a follower attaching mid-run included,
    is sent exactly the trace file's lines.  A local submission
    (:meth:`CampaignService.submit_local`) reports through its caller's
    telemetry and commits to its caller's checkpoint journal instead; it
    has no trace, no subscribers and no result-cache entries, and its
    caller reports each plan's ``plan-finished`` as it merges it.
    """

    def __init__(
        self,
        service: "CampaignService",
        serial: int,
        fingerprint: str,
        plans: List,
        telemetry: Optional[EngineTelemetry] = None,
        journal: Optional[CheckpointJournal] = None,
    ) -> None:
        self.service = service
        self.serial = serial
        self.fingerprint = fingerprint
        self.plans = plans
        self.plans_blob = encode_plans(plans)
        self.tasks: List[ShardTask] = [
            (plan_index, plan, shard)
            for plan_index, plan in enumerate(plans)
            for shard in plan.shards()
        ]
        self.local = telemetry is not None
        self.trace: Optional[TraceWriter] = None
        self.records: List[Dict] = []
        """Every record the trace writer has written, in order."""
        if telemetry is None:
            # The first suffix with no file: every run gets its own trace,
            # across service restarts too.  An earlier submission of this
            # fingerprint has concluded, so its trace exists.
            trace_paths = (
                service.trace_dir / f"{fingerprint}-{n:04d}.trace.jsonl"
                for n in itertools.count(1)
            )
            self.trace = TraceWriter(
                next(path for path in trace_paths if not path.exists()),
                flush_every=1,
            )
            telemetry = EngineTelemetry(
                shards_total=len(self.tasks),
                cycles_total=sum(shard.faults for _, _, shard in self.tasks),
                hook=self._record,
            )
        self.telemetry = telemetry
        self.core = CoordinatorCore(
            self.tasks,
            policy=service.policy,
            telemetry=telemetry,
            journal=journal,
            quarantine_enabled=service.quarantine_enabled,
            shard_timeout_s=service.shard_timeout_s,
            lease_timeout_s=service.lease_timeout_s,
        )
        self.core.on_done = self._note_done
        self.core.on_fatal = self._note_fatal
        self.settled = threading.Condition()
        """Notified whenever a shard settles or the batch fails."""
        self.prefilled = 0
        """Shards settled before any worker saw them: CAS hits of a wire
        submission, resumed shards of a local one."""
        self.submitters = 0
        self.last_grant_tick = 0
        self.done = False
        self.error: Optional[str] = None
        self._plan_remaining = Counter(plan_index for plan_index, _, _ in self.tasks)

    # -- lifecycle ------------------------------------------------------------------

    def prefill(self, cached: Callable[[int, ShardSpec], Optional[ShardRun]]) -> None:
        """Settle every shard ``cached`` already knows before workers do.

        Prefilled shards report ``shard-skipped`` and never lease.
        """
        for plan_index, plan, shard in self.tasks:
            run = cached(plan_index, shard)
            if run is None:
                continue
            self.core.prefill((plan_index, shard.index), run)
            self.prefilled += 1
            self.telemetry.shard_skipped(
                plan.display_label(), shard.index, shard.count, shard.faults
            )
            self._shard_settled(plan_index)
        if self.core.complete:
            self._conclude()

    def eligible(self) -> bool:
        """True while this submission can still use workers."""
        return not self.done and self.core.fatal is None and not self.core.complete

    def summary_frame(self) -> Dict:
        """The terminal ``summary`` frame of a completed batch."""
        results = []
        for plan_index, _plan, shard in self.tasks:
            run = self.core.done[(plan_index, shard.index)]
            results.append(
                {
                    "plan": plan_index,
                    "shard": shard.index,
                    "status": run.status,
                    "attempts": run.attempts,
                    "error": run.error,
                    "pickup_latency_s": run.pickup_latency_s,
                    "duration_s": run.duration_s,
                    "result": (
                        result_to_record(run.result)
                        if run.result is not None
                        else None
                    ),
                }
            )
        return {
            "kind": "summary",
            "v": PROTOCOL_VERSION,
            "fingerprint": self.fingerprint,
            "shards_total": len(self.tasks),
            "executed": self.core.executed,
            "cas_hits": self.prefilled,
            "results": results,
        }

    def _record(self, event: ProgressEvent) -> None:
        self.records.append(self.trace.write_event(event))
        self.service._notify()

    def _note_done(self, key: ShardKey, run: ShardRun) -> None:
        if not self.local and run.status == "completed" and run.result is not None:
            _, _plan, shard = self.core.by_key[key]
            self.service.cas.put(
                self.fingerprint, key[0], key[1], shard.seed, run.result
            )
        self._shard_settled(key[0])
        if self.core.complete:
            self._conclude()
        with self.settled:
            self.settled.notify_all()

    def _note_fatal(self, exc: Exception) -> None:
        self._conclude(error=str(exc))
        with self.settled:
            self.settled.notify_all()

    def _shard_settled(self, plan_index: int) -> None:
        if self.local:
            return
        self._plan_remaining[plan_index] -= 1
        if self._plan_remaining[plan_index] == 0:
            plan = self.plans[plan_index]
            self.telemetry.plan_finished(plan.display_label(), plan.shard_count())

    def _conclude(self, error: Optional[str] = None) -> None:
        if self.done:
            return
        self.error = error
        self.done = True
        if self.trace is not None:
            self.trace.close()
        self.service._retire(self)


# -- the service --------------------------------------------------------------------


class CampaignService:
    """Multi-campaign coordinator daemon with a content-addressed cache.

    The listening socket binds in the constructor (``.address`` is known
    even for an ephemeral ``:0`` port); :meth:`serve_forever` runs the
    event loop on the calling thread, while :meth:`start`/:meth:`stop`
    run it on a background thread for embedding in tests and tools.

    The loop waits on events, not timers (the lease sweeper apart): one
    notifier, :meth:`_notify`, wakes every waiting task when a wire
    submission writes a record, when a submission is accepted or
    concludes, and when the service stops.
    """

    def __init__(
        self,
        listen: Union[str, Tuple[str, int]] = ("127.0.0.1", 0),
        cas_root: Union[str, Path] = "repro-cas",
        policy: Optional[RetryPolicy] = None,
        quarantine: bool = False,
        shard_timeout_s: Optional[float] = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        trace_dir: Optional[Union[str, Path]] = None,
        announce=None,
    ) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        self.quarantine_enabled = quarantine
        self.shard_timeout_s = shard_timeout_s
        self.lease_timeout_s = max(0.1, lease_timeout_s)
        self.cas = ResultCAS(cas_root)
        self.trace_dir = (
            Path(trace_dir) if trace_dir is not None else Path(cas_root) / "traces"
        )
        self.announce = announce if announce is not None else sys.stderr
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind(parse_address(listen))
        self._server.listen(32)
        self.address: Tuple[str, int] = self._server.getsockname()[:2]
        self._active: Dict[str, _Submission] = {}
        self._local: Optional[_Submission] = None
        self._worker_conns: set = set()
        self._connections: set = set()
        self._serial = 0
        self._tick = 0
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self.workers_seen: List[str] = []
        self.submissions_total = 0
        self.coalesced_total = 0

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    # -- running --------------------------------------------------------------------

    def submit_local(
        self,
        plans: Sequence,
        telemetry: EngineTelemetry,
        journal: Optional[CheckpointJournal] = None,
        resumed: Optional[Dict[ShardKey, ShardRun]] = None,
    ) -> _Submission:
        """Register this service's one in-process submission; call before :meth:`start`.

        This is how ``campaign --listen`` runs (see
        :class:`~repro.engine.remote.RemoteExecutor`).  The submission
        reports through ``telemetry``, commits every shard to ``journal``
        before reporting it, and prefills the ``resumed`` runs the way a
        wire submission prefills CAS hits.  Wire clients can neither
        submit to nor follow a service holding one.
        """
        resumed = resumed or {}
        self._serial += 1
        submission = _Submission(
            self,
            self._serial,
            plans_fingerprint(plans),
            list(plans),
            telemetry=telemetry,
            journal=journal,
        )
        self._local = submission
        self._active[submission.fingerprint] = submission
        submission.prefill(
            lambda plan_index, shard: resumed.get((plan_index, shard.index))
        )
        return submission

    def serve_forever(self) -> None:
        """Run the service on the calling thread until :meth:`stop`."""
        asyncio.run(self._serve_async())

    def start(self) -> None:
        """Run the service on a background thread (returns once listening)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        while self._loop is None and self._thread.is_alive():
            time.sleep(0.01)

    def stop(self) -> None:
        """Stop the service and (when started via :meth:`start`) join it."""
        loop = self._loop
        if loop is not None:

            def _stop() -> None:
                self._stopping = True
                self._stop_event.set()
                self._notify()

            try:
                loop.call_soon_threadsafe(_stop)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _notify(self) -> None:
        """Wake every task waiting on the service (on the loop thread).

        A broadcast: the event is set and replaced, so a waiter that takes
        :attr:`_wake` before checking its state misses nothing.  Not an
        ``asyncio.Condition``, whose ``notify_all`` needs a lock that the
        synchronous telemetry hook cannot acquire.
        """
        wake, self._wake = self._wake, asyncio.Event()
        wake.set()

    async def _serve_async(self) -> None:
        # Both events exist before _loop is published: start() returns
        # once it is, and stop() may notify straight after.
        self._wake = asyncio.Event()
        self._stop_event = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        server = await asyncio.start_server(self._dispatch, sock=self._server)
        sweeper = asyncio.create_task(self._sweep_loop())
        try:
            await self._stop_event.wait()
        finally:
            sweeper.cancel()
            # Stop accepting, then yield once so every accept already queued
            # builds its transport before close(): asyncio asserts that the
            # server is open while it builds one, and a transport it gives
            # up on keeps its socket open until garbage collection, leaving
            # a worker waiting on its hello.  No wait_closed(): from Python
            # 3.12 it waits for every open connection, a wedged worker's
            # too; loop teardown closes those.
            self._loop.remove_reader(self._server.fileno())
            await asyncio.sleep(0)
            server.close()
            # Cancelling a worker pump mid-read slams its socket, and the
            # worker exits 3 (connection lost) instead of ending its persist
            # loop cleanly: push a shutdown frame, which its next read
            # consumes.  stop() woke held workers and subscribers, so each
            # connection ends on its own; teardown cancels any still open.
            for writer in list(self._worker_conns):
                try:
                    await write_frame(writer, {"kind": "shutdown"})
                except Exception:
                    pass
            if self._connections:
                await asyncio.wait(list(self._connections), timeout=STOP_DRAIN_S)
            for submission in list(self._active.values()):
                if submission.trace is not None:
                    submission.trace.close()

    async def _sweep_loop(self) -> None:
        interval = sweep_interval_s(self.lease_timeout_s)
        while not self._stop_event.is_set():
            for submission in list(self._active.values()):
                if submission.eligible():
                    submission.core.sweep()
            try:
                await asyncio.wait_for(self._stop_event.wait(), timeout=interval)
            except asyncio.TimeoutError:
                pass

    # -- connection dispatch ----------------------------------------------------------

    async def _dispatch(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            first = await asyncio.wait_for(
                read_frame(reader), timeout=max(30.0, self.lease_timeout_s * 4)
            )
            if first is None:
                return
            kind = first["kind"]
            if kind == "hello":
                await self._serve_worker(first, reader, writer)
            elif kind not in ("submit", "follow"):
                raise RemoteProtocolError(
                    f"expected hello/submit/follow, got {kind!r}"
                )
            elif self._local is not None:
                reason = (
                    "this coordinator runs one in-process campaign "
                    "(campaign --listen); submit to a `repro serve` daemon"
                )
                await write_frame(writer, {"kind": "error", "reason": reason})
            elif kind == "submit":
                await self._serve_submitter(first, writer)
            else:
                await self._serve_follower(first, writer)
        except (
            RemoteProtocolError,
            OSError,
            ValueError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
        ):
            pass  # connection-level damage; any leases release via the pump
        except asyncio.CancelledError:
            # Only the loop teardown cancels dispatch tasks; finishing
            # cleanly here keeps the stream-protocol done-callback quiet.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
            self._connections.discard(task)

    # -- workers ----------------------------------------------------------------------

    async def _serve_worker(
        self, hello: Dict, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        worker = str(hello.get("worker") or "unknown")
        held = hello.get("fingerprint")
        if hello.get("v") != PROTOCOL_VERSION:
            reason = validate_hello(hello, str(held or ""))
            await write_frame(writer, {"kind": "reject", "reason": reason})
            return
        self._worker_conns.add(writer)
        try:
            # Hold the handshake until a campaign exists for this worker:
            # a persistent fleet may well connect before the first
            # submission.
            while True:
                wake = self._wake
                if self._stopping:
                    await write_frame(writer, {"kind": "shutdown"})
                    return
                submission = self._bind_choice(held)
                if submission is not None:
                    break
                await wake.wait()
            rejection = validate_hello(hello, submission.fingerprint)
            if rejection is not None:
                await write_frame(writer, {"kind": "reject", "reason": rejection})
                return
            self.workers_seen.append(worker)
            await write_frame(
                writer,
                {
                    "kind": "welcome",
                    "v": PROTOCOL_VERSION,
                    "fingerprint": submission.fingerprint,
                    "plans": submission.plans_blob,
                    "lease_timeout_s": self.lease_timeout_s,
                    "heartbeat_s": self.lease_timeout_s / 3.0,
                },
            )
            await self._pump_worker(submission, reader, writer, worker)
        finally:
            self._worker_conns.discard(writer)

    async def _pump_worker(
        self,
        submission: _Submission,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        worker: str,
    ) -> None:
        """Serve one bound worker's conversation until EOF.

        Grants route through :meth:`_grant`, so fair share can release the
        worker toward a starved submission.  Once the submission concludes,
        the other verbs are no-ops — late frames from slow workers have
        nowhere to go.  Leases the connection holds are released on exit.
        """
        conn_id = id(writer)
        core = submission.core
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return
                kind = frame["kind"]
                if kind == "request":
                    await write_frame(writer, self._grant(submission, worker, conn_id))
                elif kind not in ("heartbeat", "result", "failure"):
                    raise RemoteProtocolError(
                        f"unexpected frame kind {kind!r} from {worker}"
                    )
                elif submission.done:
                    continue
                elif kind == "heartbeat":
                    core.renew(frame, conn_id)
                else:
                    core.outcome(frame, kind, worker, conn_id)
        finally:
            if not submission.done:
                core.release(conn_id, worker)

    def _bind_choice(self, held: Optional[str]) -> Optional[_Submission]:
        """The submission a connecting worker should serve, if any.

        A worker holding the fingerprint of a live submission re-binds to
        it (the idempotent reconnect path); otherwise the longest-starved
        eligible submission wins.  A held fingerprint matching nothing
        live falls through to the fair choice, whose ``validate_hello``
        then rejects the worker as stale so its persist loop re-hydrates.
        """
        if held is not None:
            existing = self._active.get(str(held))
            if existing is not None and existing.eligible():
                return existing
        eligible = [sub for sub in self._active.values() if sub.eligible()]
        if not eligible:
            return None
        return min(eligible, key=lambda sub: (sub.last_grant_tick, sub.serial))

    def _grant(self, submission: _Submission, worker: str, conn_id: int) -> Dict:
        if self._stopping or not submission.eligible():
            return {"kind": "shutdown"}
        starved = self._fair_choice()
        if starved is not None and starved is not submission:
            # Another submitter has waited longer and has work ready:
            # release this worker so its persist loop re-binds there.
            return {"kind": "shutdown"}
        frame = submission.core.grant(worker, conn_id)
        if frame.get("kind") == "shard":
            self._tick += 1
            submission.last_grant_tick = self._tick
        return frame

    def _fair_choice(self) -> Optional[_Submission]:
        ready = [
            sub
            for sub in self._active.values()
            if sub.eligible() and sub.core.has_leasable()
        ]
        if not ready:
            return None
        return min(ready, key=lambda sub: (sub.last_grant_tick, sub.serial))

    # -- submitters & followers --------------------------------------------------------

    async def _serve_submitter(
        self, frame: Dict, writer: asyncio.StreamWriter
    ) -> None:
        if frame.get("v") != PROTOCOL_VERSION:
            await write_frame(
                writer,
                {
                    "kind": "error",
                    "reason": (
                        f"protocol version mismatch: service speaks "
                        f"{PROTOCOL_VERSION}, submitter spoke {frame.get('v')!r}"
                    ),
                },
            )
            return
        try:
            plans = decode_plans(frame["plans"])
            fingerprint = plans_fingerprint(plans)
        except Exception as exc:
            await write_frame(
                writer,
                {"kind": "error", "reason": f"undecodable plan batch: {exc!r}"},
            )
            return
        submission = self._active.get(fingerprint)
        coalesced = submission is not None
        if submission is None:
            self._serial += 1
            submission = _Submission(self, self._serial, fingerprint, plans)
            self._active[fingerprint] = submission
            self._notify()  # wakes workers held at handshake
            submission.prefill(
                lambda plan_index, shard: self._cached_run(
                    fingerprint, plan_index, shard
                )
            )
            self._announce(
                f"[serve] accepted campaign {fingerprint} "
                f"({len(submission.tasks)} shard(s), "
                f"{submission.prefilled} from cache)"
            )
        else:
            self._announce(
                f"[serve] coalesced duplicate submission onto campaign "
                f"{fingerprint}"
            )
        self.submissions_total += 1
        if coalesced:
            self.coalesced_total += 1
        submission.submitters += 1
        await write_frame(
            writer,
            {
                "kind": "accepted",
                "v": PROTOCOL_VERSION,
                "fingerprint": fingerprint,
                "shards_total": len(submission.tasks),
                "cas_hits": submission.prefilled,
                "coalesced": coalesced,
            },
        )
        await self._stream_to(submission, writer)

    def _cached_run(
        self, fingerprint: str, plan_index: int, shard: ShardSpec
    ) -> Optional[ShardRun]:
        result = self.cas.get(fingerprint, plan_index, shard.index, shard.seed)
        if result is None:
            return None
        return ShardRun(result=result, attempts=1, status="resumed")

    async def _serve_follower(self, frame: Dict, writer: asyncio.StreamWriter) -> None:
        wanted = frame.get("fingerprint")
        submission: Optional[_Submission] = None
        if wanted is not None:
            submission = self._active.get(str(wanted))
        elif self._active:
            # No fingerprint: follow the most recently accepted campaign.
            submission = max(self._active.values(), key=lambda sub: sub.serial)
        if submission is None:
            await write_frame(
                writer,
                {
                    "kind": "error",
                    "reason": (
                        f"no active campaign"
                        + (f" with fingerprint {wanted}" if wanted else "")
                        + " to follow"
                    ),
                },
            )
            return
        await write_frame(
            writer,
            {
                "kind": "accepted",
                "v": PROTOCOL_VERSION,
                "fingerprint": submission.fingerprint,
                "shards_total": len(submission.tasks),
                "cas_hits": submission.prefilled,
                "coalesced": False,
            },
        )
        await self._stream_to(submission, writer)

    async def _stream_to(
        self, submission: _Submission, writer: asyncio.StreamWriter
    ) -> None:
        """Send the submission's records, history then live, and its outcome.

        ``done`` is set in the loop step that writes the last record, so
        no record follows it.
        """
        sent = 0
        while True:
            wake = self._wake
            while sent < len(submission.records):
                record = submission.records[sent]
                sent += 1
                await write_frame(writer, {"kind": "event", "record": record})
            if submission.done:
                break
            if self._stopping:
                await write_frame(
                    writer,
                    {
                        "kind": "error",
                        "reason": "campaign service stopped before completion",
                    },
                )
                return
            await wake.wait()
        if submission.error is not None:
            await write_frame(
                writer, {"kind": "error", "reason": submission.error}
            )
        else:
            await write_frame(writer, submission.summary_frame())

    # -- bookkeeping ------------------------------------------------------------------

    def _retire(self, submission: _Submission) -> None:
        current = self._active.get(submission.fingerprint)
        if current is submission:
            del self._active[submission.fingerprint]
        if submission.local:
            return  # its caller reports the outcome
        self._notify()
        outcome = (
            f"failed ({submission.error})"
            if submission.error is not None
            else (
                f"complete ({submission.core.executed} executed, "
                f"{submission.prefilled} from cache)"
            )
        )
        self._announce(f"[serve] campaign {submission.fingerprint} {outcome}")

    def _announce(self, line: str) -> None:
        if self.announce is None:
            return
        print(line, file=self.announce)
        try:
            self.announce.flush()
        except Exception:
            pass


# -- sync clients -------------------------------------------------------------------


@dataclass
class SubmissionOutcome:
    """What :func:`submit_campaign` returns: merged results + provenance."""

    results: List[CampaignResult]
    fingerprint: str
    shards_total: int
    executed: int
    cas_hits: int
    coalesced: bool
    records: List[TraceRecord] = field(default_factory=list)


def _open_service_connection(
    address: Union[str, Tuple[str, int]], connect_timeout_s: float
) -> socket.socket:
    host, port = parse_address(address)
    return connect_with_retry(host, port, connect_timeout_s)


def _consume_stream(sock: socket.socket, on_record) -> Dict:
    """Read event frames until the terminal ``summary`` (or raise)."""
    records_seen: List[TraceRecord] = []
    while True:
        frame = recv_frame(sock)
        if frame is None:
            raise CampaignError(
                "connection to campaign service lost before the summary"
            )
        kind = frame["kind"]
        if kind == "event":
            record = record_from_dict(frame["record"])
            records_seen.append(record)
            if on_record is not None:
                on_record(record)
            continue
        if kind == "error":
            raise CampaignError(
                str(frame.get("reason") or "campaign service reported an error")
            )
        if kind == "summary":
            frame["_records"] = records_seen
            return frame
        raise RemoteProtocolError(f"unexpected frame kind {kind!r} from service")


def submit_campaign(
    address: Union[str, Tuple[str, int]],
    plans: Sequence,
    connect_timeout_s: float = 10.0,
    on_record=None,
) -> SubmissionOutcome:
    """Submit a plan batch to a ``repro serve`` daemon and await results.

    Blocks until the service streams the campaign to completion, then
    rebuilds merged :class:`CampaignResult` objects (one per plan, plan
    order) with the same :func:`merge_plan_runs` fold ``run_plans`` uses —
    so ``submit_campaign(...).results[i].summary()`` is bit-identical to
    a local ``run_plan`` of the same plan, whether the shards executed on
    workers or came from the service's result cache.  ``on_record`` (if
    given) receives every live :class:`TraceRecord`.
    """
    plans = list(plans)
    sock = _open_service_connection(address, connect_timeout_s)
    try:
        send_frame(
            sock,
            {
                "kind": "submit",
                "v": PROTOCOL_VERSION,
                "plans": encode_plans(plans),
            },
        )
        accepted = recv_frame(sock)
        if accepted is None:
            raise CampaignError("campaign service closed during submission")
        if accepted["kind"] == "error":
            raise CampaignError(str(accepted.get("reason")))
        if accepted["kind"] != "accepted":
            raise RemoteProtocolError(
                f"expected accepted, got {accepted['kind']!r}"
            )
        summary = _consume_stream(sock, on_record)
    finally:
        try:
            sock.close()
        except OSError:
            pass
    runs_by_plan: Dict[int, Dict[int, ShardRun]] = {}
    for entry in summary["results"]:
        run = ShardRun(
            result=(
                result_from_record(entry["result"])
                if entry.get("result") is not None
                else None
            ),
            attempts=int(entry.get("attempts") or 1),
            status=str(entry.get("status") or "completed"),
            error=str(entry.get("error") or ""),
            pickup_latency_s=entry.get("pickup_latency_s"),
            duration_s=entry.get("duration_s"),
        )
        runs_by_plan.setdefault(int(entry["plan"]), {})[int(entry["shard"])] = run
    results: List[CampaignResult] = []
    for plan_index, plan in enumerate(plans):
        by_shard = runs_by_plan.get(plan_index, {})
        missing = [i for i in range(plan.shard_count()) if i not in by_shard]
        if missing:
            raise RemoteProtocolError(
                f"summary is missing shards {missing} of plan {plan_index}"
            )
        ordered = [by_shard[i] for i in range(plan.shard_count())]
        results.append(merge_plan_runs(plan, ordered))
    return SubmissionOutcome(
        results=results,
        fingerprint=str(summary.get("fingerprint")),
        shards_total=int(summary.get("shards_total") or 0),
        executed=int(summary.get("executed") or 0),
        cas_hits=int(summary.get("cas_hits") or 0),
        coalesced=bool(accepted.get("coalesced")),
        records=summary.get("_records") or [],
    )


def follow_campaign(
    address: Union[str, Tuple[str, int]],
    fingerprint: Optional[str] = None,
    connect_timeout_s: float = 10.0,
    on_record=None,
) -> Dict:
    """Attach to an active campaign read-only; returns its summary frame.

    Streams the campaign's full trace history, then live events, through
    ``on_record``.  Without a ``fingerprint`` the most recently accepted
    campaign is followed.  Raises :class:`CampaignError` when there is
    nothing to follow or the campaign fails.
    """
    sock = _open_service_connection(address, connect_timeout_s)
    try:
        send_frame(
            sock,
            {"kind": "follow", "v": PROTOCOL_VERSION, "fingerprint": fingerprint},
        )
        accepted = recv_frame(sock)
        if accepted is None:
            raise CampaignError("campaign service closed during follow")
        if accepted["kind"] == "error":
            raise CampaignError(str(accepted.get("reason")))
        if accepted["kind"] != "accepted":
            raise RemoteProtocolError(
                f"expected accepted, got {accepted['kind']!r}"
            )
        return _consume_stream(sock, on_record)
    finally:
        try:
            sock.close()
        except OSError:
            pass


# -- CLI body -----------------------------------------------------------------------


def run_serve(
    listen: Union[str, Tuple[str, int]],
    cas_root: Union[str, Path],
    lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    quarantine: bool = False,
    shard_timeout_s: Optional[float] = None,
    policy: Optional[RetryPolicy] = None,
    announce=None,
) -> int:
    """Body of ``repro serve``: run the service until SIGINT/SIGTERM."""
    service = CampaignService(
        listen=listen,
        cas_root=cas_root,
        policy=policy,
        quarantine=quarantine,
        shard_timeout_s=shard_timeout_s,
        lease_timeout_s=lease_timeout_s,
        announce=announce,
    )
    with interrupt_flag_guard() as flag:
        service.start()
        service._announce(
            f"[serve] campaign service listening on {service.host}:{service.port} "
            f"(cas {service.cas.root}, result schema {service.cas.schema}) — "
            f"submit with: repro submit --connect {service.host}:{service.port}"
        )
        try:
            while not flag:
                thread = service._thread
                if thread is None or not thread.is_alive():
                    break
                time.sleep(0.2)
        finally:
            service.stop()
    service._announce(
        f"[serve] stopped ({service.submissions_total} submission(s), "
        f"cas {service.cas.stats()})"
    )
    return 0
