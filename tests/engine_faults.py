"""Reusable fault-injection fixtures for engine failure-path tests.

Everything the engine's failure tests keep rebuilding lives here once:
the zero-backoff retry policy, the small deterministic campaign plan and
its cached unfaulted baseline, the event-collecting progress hook, CLI
subprocess helpers (including the SIGTERM-after-first-commit leg of the
kill-and-resume tests), and the distributed-execution harness (free ports,
``repro worker`` subprocesses, a one-call ``run_distributed`` and its
twin ``run_served``).  Both distributed harnesses drive the same
coordinator, :class:`~repro.engine.serve.CampaignService`:
``run_distributed`` through ``run_plan(listen=...)``, which runs an
ephemeral service for one in-process submission, and ``run_served``
through a standing service and the wire submission client.

Fault injection rides on the ``REPRO_ENGINE_TEST_FAULT`` environment
fixture (see :mod:`repro.engine.executors`): it reaches forked local
workers through the inherited environment and distributed workers
through the environment of their ``repro worker`` subprocess — no plan
plumbing anywhere.  The invariant every consumer of this module asserts:
however execution is perturbed, the merged summary equals a clean serial
run's.
"""

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.engine import CampaignPlan, RetryPolicy, run_plan
from repro.engine.executors import TEST_FAULT_ENV
from repro.ssd.device import SsdConfig
from repro.units import GIB, MSEC
from repro.workload.spec import WorkloadSpec

FAST = RetryPolicy(max_retries=2, backoff_base_s=0.0, backoff_max_s=0.0)
"""Retry policy with zero backoff so failure-path tests don't sleep."""


def small_plan(faults=4, shard_faults=1, seed=42):
    """A four-shard campaign small enough to rerun in every failure test."""
    return CampaignPlan(
        spec=WorkloadSpec(wss_bytes=1 * GIB, outstanding=8),
        faults=faults,
        device=SsdConfig(
            name="sup-dev", capacity_bytes=2 * GIB, init_time_us=50 * MSEC
        ),
        base_seed=seed,
        label="sup-test",
        shard_faults=shard_faults,
    )


def small_app_plan(faults=4, shard_faults=1, seed=42, app="wal", **kwargs):
    """A small application fault campaign (see :mod:`repro.apps`).

    No-fsync WAL by default so the semantic counters are non-trivial —
    equality against the baseline then proves the engine preserved real
    loss accounting, not just zeroes.
    """
    from repro.apps import AppPlan

    kwargs.setdefault("app_fsync", False)
    return AppPlan(
        spec=WorkloadSpec(),
        faults=faults,
        device=SsdConfig(
            name="sup-dev", capacity_bytes=2 * GIB, init_time_us=50 * MSEC
        ),
        base_seed=seed,
        label="sup-apps-test",
        shard_faults=shard_faults,
        warmup_us=30 * MSEC,
        fault_window_us=120 * MSEC,
        app=app,
        **kwargs,
    )


def app_summary(result):
    """``summary()`` extended with the semantic-outcome counters."""
    summary = dict(result.summary())
    summary["app_promises"] = result.app_promises
    summary["app_intact"] = result.app_intact
    summary["app_torn_recovered"] = result.app_torn_recovered
    summary["app_committed_loss"] = result.app_committed_loss
    summary["app_silent_corruption"] = result.app_silent_corruption
    summary["app_recovery_failed"] = result.app_recovery_failed
    return summary


_BASELINE = {}
_APP_BASELINE = {}


def clean_summary(faults=4):
    """Cached summary of an unperturbed serial run of ``small_plan``."""
    assert TEST_FAULT_ENV not in os.environ, "baseline must run without faults"
    if faults not in _BASELINE:
        _BASELINE[faults] = run_plan(small_plan(faults=faults), jobs=1).summary()
    return _BASELINE[faults]


def clean_app_summary(faults=4):
    """Cached semantic summary of an unperturbed serial ``small_app_plan``."""
    assert TEST_FAULT_ENV not in os.environ, "baseline must run without faults"
    if faults not in _APP_BASELINE:
        _APP_BASELINE[faults] = app_summary(
            run_plan(small_app_plan(faults=faults), jobs=1)
        )
    return _APP_BASELINE[faults]


class Events:
    """Progress hook collecting every engine event for assertions."""

    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append(event)

    def kinds(self):
        return [event.kind for event in self.events]


# -- CLI subprocess helpers ----------------------------------------------------------


def cli_env():
    """Environment for ``python -m repro`` subprocesses (src on PYTHONPATH)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(args, env, timeout=240):
    """One ``python -m repro`` invocation, captured."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def summary_table(stdout):
    """The CLI's result table, with the jobs-dependent run banner dropped."""
    lines = [
        line
        for line in stdout.splitlines()
        if line.strip() and not line.startswith("running ")
    ]
    assert lines, "CLI produced no summary table"
    return lines


def interrupt_after_first_commit(argv, checkpoint, env, fault="slow:*:*:0.8", timeout=120):
    """SIGTERM a checkpointed ``python -m repro`` run once a shard committed.

    ``fault`` slows every shard so the signal lands mid-run.  Returns
    ``(exit code, stderr)``: 130 when the run was interrupted, 0 when it
    finished before the signal landed (a very fast machine).
    """
    slow_env = dict(env)
    slow_env[TEST_FAULT_ENV] = fault
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=slow_env,
    )
    try:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and proc.poll() is None:
            if checkpoint.exists() and checkpoint.stat().st_size > 0:
                break
            time.sleep(0.1)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, err


# -- distributed-execution harness ---------------------------------------------------


def free_port():
    """An OS-assigned TCP port that was free a moment ago."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def spawn_worker(port, env=None, fault=None, connect_timeout_s=20.0, persist=False):
    """Start one ``repro worker`` subprocess against a local coordinator.

    ``fault`` (a ``REPRO_ENGINE_TEST_FAULT`` spec) applies only to this
    worker — the coordinator process stays clean, which is exactly the
    distributed failure topology the tests need.  ``persist`` workers
    outlive campaigns and coordinators; keep ``connect_timeout_s`` short
    for them, since it doubles as how long they linger after the last
    coordinator goes away.
    """
    worker_env = dict(env if env is not None else cli_env())
    if fault is not None:
        worker_env[TEST_FAULT_ENV] = fault
    else:
        worker_env.pop(TEST_FAULT_ENV, None)
    argv = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--connect",
        f"127.0.0.1:{port}",
        "--connect-timeout",
        str(connect_timeout_s),
    ]
    if persist:
        argv.append("--persist")
    return subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=worker_env,
    )


def drain_workers(workers, timeout=30.0):
    """Collect worker exit codes, terminating any that failed to finish.

    Each worker's captured ``(stdout, stderr)`` is stashed on the process
    object as ``.captured`` for tests that assert on worker chatter.
    """
    codes = []
    for worker in workers:
        try:
            worker.captured = worker.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.captured = worker.communicate()
        codes.append(worker.returncode)
    return codes


def run_distributed(
    plan,
    workers=2,
    worker_fault=None,
    lease_timeout_s=None,
    retry_policy=FAST,
    checkpoint=None,
    resume=False,
    quarantine=False,
    progress=None,
    on_workers_started=None,
    on_before_drain=None,
):
    """One distributed ``run_plan``: local coordinator + worker subprocesses.

    Starts ``workers`` ``repro worker`` processes (each optionally carrying
    ``worker_fault`` in its environment), runs the coordinator — an
    ephemeral campaign service — in this process on a pre-picked free
    port, and returns ``(result,
    worker_exit_codes)``.  ``on_workers_started(worker_list)`` runs right
    after the workers spawn — tests use it to SIGKILL/SIGSTOP one of them
    mid-campaign.  ``on_before_drain(worker_list)`` runs after the
    campaign but before worker exit codes are collected (e.g. to SIGCONT
    a worker the test froze).
    """
    port = free_port()
    procs = [spawn_worker(port, fault=worker_fault) for _ in range(workers)]
    try:
        if on_workers_started is not None:
            on_workers_started(procs)
        result = run_plan(
            plan,
            listen=f"127.0.0.1:{port}",
            lease_timeout_s=lease_timeout_s,
            retry_policy=retry_policy,
            checkpoint=checkpoint,
            resume=resume,
            quarantine=quarantine,
            progress=progress,
        )
    finally:
        if on_before_drain is not None:
            try:
                on_before_drain(procs)
            except OSError:
                pass
        codes = drain_workers(procs)
    return result, codes


# -- campaign-service harness --------------------------------------------------------


def run_served(
    plan,
    cas_root,
    workers=2,
    worker_fault=None,
    lease_timeout_s=None,
    retry_policy=FAST,
    quarantine=False,
    on_workers_started=None,
    on_before_drain=None,
    on_record=None,
    worker_connect_timeout_s=3.0,
):
    """One campaign through an in-process :class:`CampaignService`.

    The serve twin of :func:`run_distributed`, on the same coordinator
    but through its wire entry point: starts the service on a
    background thread, spawns ``workers`` *persistent* ``repro worker``
    subprocesses against it, submits ``plan`` through the wire client,
    and returns ``(SubmissionOutcome, worker_exit_codes)``.  Persistent
    workers only exit once no coordinator answers, so the service is
    stopped before draining and ``worker_connect_timeout_s`` bounds the
    teardown.
    """
    from repro.engine.serve import CampaignService, submit_campaign

    sink = open(os.devnull, "w")
    service = CampaignService(
        cas_root=cas_root,
        policy=retry_policy,
        quarantine=quarantine,
        lease_timeout_s=lease_timeout_s if lease_timeout_s is not None else 15.0,
        announce=sink,
    )
    service.start()
    procs = []
    try:
        procs = [
            spawn_worker(
                service.port,
                fault=worker_fault,
                persist=True,
                connect_timeout_s=worker_connect_timeout_s,
            )
            for _ in range(workers)
        ]
        if on_workers_started is not None:
            on_workers_started(procs)
        outcome = submit_campaign(
            (service.host, service.port), [plan], on_record=on_record
        )
    finally:
        if on_before_drain is not None:
            try:
                on_before_drain(procs)
            except OSError:
                pass
        service.stop()
        codes = drain_workers(procs)
        sink.close()
    return outcome, codes
