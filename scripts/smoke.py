#!/usr/bin/env python
"""End-to-end smoke tests of the CLI (used by CI), one per name.

    PYTHONPATH=src python scripts/smoke.py NAME

``NAME`` is one of:

- ``resume`` — SIGTERM a checkpointed parallel campaign once a shard has
  committed, ``--resume`` it, and require a summary byte-identical to an
  uninterrupted serial run.  Both phases run with ``--trace``; the traces
  are schema-checked, and the resumed one must show skipped shards whose
  cycles earn no throughput.
- ``follow`` — attach ``repro trace report --follow`` to a trace path
  that does not exist yet, run a slowed traced campaign, and require the
  follower to exit 0 on its own with a final report byte-identical to the
  post-hoc ``repro trace report``.
- ``distributed`` — serve a checkpointed campaign to two ``repro worker``
  processes and SIGKILL one mid-run (the campaign must complete, the
  survivor exit 0, the summary match a serial run); then SIGTERM a second
  ``--listen`` coordinator and resume its checkpoint locally.
- ``serve`` — a ``repro serve`` daemon with two persistent workers:
  ``submit`` must match a serial run while ``follow`` streams it; an
  identical resubmission executes zero shards; a daemon SIGTERMed mid-run
  and restarted over the same CAS serves the shards cached before the
  kill; the final SIGTERM ends daemon and workers with exit 0.
- ``dirty-cycle`` — the supercap preset loses no acked write over 3 dirty
  cycles while the unprotected one shows flying-write-ACKs; the
  acceptance run (``--repeat 25 --seed 7``) survives SIGTERM + ``--resume``
  byte-identical to jobs=4, with every shard command log replayable.
- ``topology`` — write-through loses nothing and write-back on a shared
  PDU loses acked writes on ``ssd-c``, while mirrored WB legs on split
  rails recover every device FWA; the mirrored run survives SIGTERM +
  ``--resume`` byte-identical to jobs=4.
- ``apps`` — a WAL with fsync loses no commit on ``ssd-c`` while one
  without fsync loses commits, all detected; the no-fsync run survives
  SIGTERM + ``--resume`` byte-identical to jobs=4 with every promise
  classified once; ``--explain 0`` renders all three evidence views.

Set ``SMOKE_ARTIFACT_DIR`` to keep what a smoke writes (checkpoints,
traces, command logs, the result CAS) for diagnosis; CI uploads it.  By
default it lives and dies with a temporary directory.

Exit code 0 on success, 1 on the first failed check.
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FAULT_ENV = "REPRO_ENGINE_TEST_FAULT"
ARTIFACT_DIR_ENV = "SMOKE_ARTIFACT_DIR"


class SmokeFailure(Exception):
    """A failed check; the message is printed after ``FAIL:``."""


def check(condition, message):
    if not condition:
        raise SmokeFailure(message)


# -- subprocess helpers ---------------------------------------------------------------


def cli_env(fault=None):
    """Environment for ``python -m repro`` (src on PYTHONPATH, optional fault)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if fault is not None:
        env[FAULT_ENV] = fault
    return env


def spawn(args, fault=None):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=cli_env(fault),
    )


def run_cli(args, fault=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=cli_env(fault),
        timeout=600,
    )


def run_ok(args, what):
    """Run the CLI and require exit 0."""
    result = run_cli(args)
    check(result.returncode == 0, f"{what} exited {result.returncode}\n{result.stderr}")
    return result


def drain(proc, timeout=60, hung=None):
    """``(exit code, stdout, stderr)``, killing a process that outstays ``timeout``.

    With ``hung`` set, outstaying the timeout is a failure with that message.
    """
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        check(hung is None, hung)
    return proc.returncode, out, err


def summary_table(stdout):
    """The printed result tables, without the jobs- or address-dependent banner."""
    lines = [
        line
        for line in stdout.splitlines()
        if line.strip() and not line.startswith(("running ", "submitting "))
    ]
    check(lines, f"no summary table in output:\n{stdout}")
    return lines


def summary_value(stdout, column):
    """Pull one column's value out of the rendered summary table."""
    lines = stdout.splitlines()
    for index, line in enumerate(lines):
        cells = [c.strip() for c in line.split("|")]
        if column in cells:
            values = [c.strip() for c in lines[index + 2].split("|")]
            return values[cells.index(column)]
    raise SmokeFailure(f"column {column!r} not found in output:\n{stdout}")


def free_port():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def wait_for_commit(proc, checkpoint, timeout=300):
    """Wait until the journal holds a committed shard (or ``proc`` exits)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and proc.poll() is None:
        if checkpoint.exists() and checkpoint.stat().st_size > 0:
            break
        time.sleep(0.1)
    return checkpoint.exists() and checkpoint.stat().st_size > 0


def start_worker(port, shard_seconds, connect_timeout, persist=False):
    """A ``repro worker`` whose shards are slowed so they stay in flight."""
    args = ["worker", "--connect", f"127.0.0.1:{port}",
            "--connect-timeout", str(connect_timeout)]
    return spawn(args + (["--persist"] if persist else []),
                 fault=f"slow:*:*:{shard_seconds}")


# -- artifact checks ------------------------------------------------------------------


def check_trace_schema(path, expect_skips=False):
    """Validate one trace file against the engine's published schema.

    A missing or empty file is an error: every traced phase runs with
    ``--trace``, so a silent no-trace run means the flag quietly broke.
    """
    if str(SRC) not in sys.path:  # tolerate being run without PYTHONPATH=src
        sys.path.insert(0, str(SRC))
    from repro.engine.trace import EVENT_KINDS, REQUIRED_FIELDS, TRACE_VERSION

    check(path.exists(), f"trace file was not written: {path}")
    records = []
    for index, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            raise SmokeFailure(f"{path.name}:{index}: unparseable trace line")
    check(records, f"{path.name}: trace contains no records")
    last_mono = None
    for index, record in enumerate(records, start=1):
        missing = [name for name in REQUIRED_FIELDS if name not in record]
        check(not missing, f"{path.name}:{index}: missing required fields {missing}")
        check(record["v"] == TRACE_VERSION,
              f"{path.name}:{index}: unknown trace version {record['v']!r}")
        check(record["kind"] in EVENT_KINDS,
              f"{path.name}:{index}: unknown event kind {record['kind']!r}")
        check(last_mono is None or record["mono_time_s"] >= last_mono,
              f"{path.name}:{index}: monotonic timestamp went backwards")
        last_mono = record["mono_time_s"]
    if expect_skips:
        skips = [r for r in records if r["kind"] == "shard-skipped"]
        check(skips, f"{path.name}: resumed run recorded no shard-skipped events")
        check(all(r["cycles_skipped"] > 0 for r in skips),
              f"{path.name}: shard-skipped record with no skipped cycles")
        # Checkpoint-loaded cycles must not feed the throughput rate
        # (executed = done - skipped drives it).
        bogus = [
            r for r in records
            if r["cycles_done"] == r["cycles_skipped"]
            and r["cycles_done"] > 0
            and r["cycles_per_sec"] > 0.0
        ]
        if bogus:
            raise SmokeFailure(
                f"{path.name}: throughput credited for checkpoint-loaded cycles "
                f"({bogus[0]['cycles_per_sec']:.2f} cycles/s with nothing executed)"
            )
    print(f"trace ok: {path.name} ({len(records)} records)")


def check_cmdlogs(directory):
    """Replay every shard command log."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.errors import CmdlogError
    from repro.stress import replay_cmdlog

    logs = sorted(Path(directory).glob("shard*.cmdlog.jsonl"))
    check(logs, f"no command logs written under {directory}")
    for log in logs:
        try:
            replayed = replay_cmdlog(log)
        except CmdlogError as exc:
            raise SmokeFailure(f"{log.name}: replay failed: {exc}")
        check(replayed.records, f"{log.name}: empty command log")
        kinds = {r["kind"] for r in replayed.records}
        check({"sub", "cpl", "mark"} <= kinds,
              f"{log.name}: record kinds incomplete ({sorted(kinds)})")
    print(f"cmdlog ok: {len(logs)} shard logs replayed")


def trace_attributes_workers(path):
    """True when some record names a distributed worker (``host:pid``)."""
    for line in path.read_text().splitlines():
        if line.strip():
            pid = json.loads(line).get("worker_pid")
            if isinstance(pid, str) and ":" in pid:
                return True
    return False


# -- the SIGTERM -> --resume -> compare leg ---------------------------------------------


def interrupt_resume_compare(args, checkpoint, jobs, compare_jobs,
                             first_extra=(), resume_extra=()):
    """SIGTERM a checkpointed ``--jobs JOBS`` run after its first commit,
    resume it, and require its summary to equal an uninterrupted
    ``--jobs COMPARE_JOBS`` run.  Returns both completed runs."""
    checkpoint.unlink(missing_ok=True)
    run = ["--jobs", str(jobs), "--checkpoint", str(checkpoint)]
    proc = spawn(args + run + list(first_extra), fault="slow:*:*:0.8")
    wait_for_commit(proc, checkpoint)
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    code, _, err = drain(proc, timeout=300,
                         hung="interrupted run did not exit after SIGTERM")
    if code == 130:
        print(f"interrupted mid-run (exit 130): {err.strip().splitlines()[-1]}")
    elif code == 0:
        print("run finished before the signal landed; resume is a no-op run")
    else:
        raise SmokeFailure(f"unexpected exit {code}\n{err}")

    resumed = run_ok(args + run + ["--resume", *resume_extra], "resume")
    print(f"resume: {resumed.stderr.strip() or '(no shards needed resuming)'}")
    reference = run_ok(args + ["--jobs", str(compare_jobs)], f"jobs={compare_jobs} run")
    check(summary_table(resumed.stdout) == summary_table(reference.stdout),
          f"resumed jobs={jobs} summary differs from uninterrupted "
          f"jobs={compare_jobs}\n--- resumed jobs={jobs} ---\n{resumed.stdout}"
          f"--- jobs={compare_jobs} ---\n{reference.stdout}")
    print(f"ok: SIGTERM + --resume matches uninterrupted jobs={compare_jobs} exactly")
    return resumed, reference


# -- the smokes -----------------------------------------------------------------------

CAMPAIGN = ["campaign", "--faults", "6", "--shard-faults", "1", "--wss-gib", "4"]


def smoke_resume(artifacts):
    interrupted = artifacts / "interrupted.trace.jsonl"
    resumed_trace = artifacts / "resumed.trace.jsonl"
    for trace in (interrupted, resumed_trace):
        trace.unlink(missing_ok=True)
    resumed, _ = interrupt_resume_compare(
        CAMPAIGN, artifacts / "ck.jsonl", jobs=2, compare_jobs=1,
        first_extra=["--trace", str(interrupted)],
        resume_extra=["--trace", str(resumed_trace)],
    )
    # SIGTERM can land before the first pickup, in which case the lazily
    # opened trace never appears; that is not a failure.
    if interrupted.exists():
        check_trace_schema(interrupted)
    check_trace_schema(
        resumed_trace, expect_skips="resumed from checkpoint" in resumed.stderr
    )
    return "resumed campaign matches uninterrupted run exactly"


def smoke_follow(artifacts):
    trace = artifacts / "followed.trace.jsonl"
    trace.unlink(missing_ok=True)
    # The follower attaches first, to a file that does not exist yet.
    follower = spawn(["trace", "report", "--follow", str(trace), "--interval", "0.2"])
    campaign = run_cli(
        ["campaign", "--faults", "4", "--shard-faults", "1", "--wss-gib", "4",
         "--jobs", "2", "--trace", str(trace)],
        fault="slow:*:*:0.4",  # keep the run observably live
    )
    if campaign.returncode != 0:
        follower.kill()
        follower.communicate()
        raise SmokeFailure(f"campaign exited {campaign.returncode}\n{campaign.stderr}")
    code, followed_out, followed_err = drain(
        follower, timeout=120, hung="follower did not exit after the campaign finished"
    )
    check(code == 0, f"follower exited {code}\n{followed_err}")
    snapshots = [
        line for line in followed_err.splitlines() if line.startswith("[follow]")
    ]
    check(snapshots, "follower rendered no snapshot lines")
    print(f"follower: exit 0 after {len(snapshots)} snapshot(s)")
    posthoc = run_ok(["trace", "report", str(trace)], "post-hoc report")
    check(followed_out == posthoc.stdout,
          "follower's final report differs from the post-hoc report\n"
          f"--- follower ---\n{followed_out}\n--- post-hoc ---\n{posthoc.stdout}")
    return "live follower matched the post-hoc trace report exactly"


def _coordinator(port, checkpoint, trace):
    checkpoint.unlink(missing_ok=True)
    trace.unlink(missing_ok=True)
    return spawn(CAMPAIGN + ["--listen", f"127.0.0.1:{port}",
                             "--checkpoint", str(checkpoint), "--trace", str(trace)])


def smoke_distributed(artifacts):
    baseline = summary_table(run_ok(CAMPAIGN + ["--jobs", "1"], "baseline").stdout)

    print("--- phase A: SIGKILL a worker mid-run ---")
    checkpoint, trace = artifacts / "a.ck.jsonl", artifacts / "distributed-a.trace.jsonl"
    port = free_port()
    coordinator = _coordinator(port, checkpoint, trace)
    workers = [start_worker(port, 0.5, connect_timeout=30) for _ in range(2)]
    try:
        check(wait_for_commit(coordinator, checkpoint), "no shard was ever committed")
        os.kill(workers[0].pid, signal.SIGKILL)
        print(f"killed worker pid {workers[0].pid} after first commit")
        code, out, err = drain(coordinator, timeout=300,
                               hung="coordinator hung after losing a worker")
    finally:
        codes = [drain(worker)[0] for worker in workers]
    check(code == 0, f"coordinator exited {code}\n{err}")
    check(codes[0] == -signal.SIGKILL, f"killed worker exited {codes[0]}, expected SIGKILL")
    check(codes[1] == 0, f"surviving worker exited {codes[1]}, expected 0")
    check(summary_table(out) == baseline,
          f"distributed summary differs from serial baseline\n{out}")
    check_trace_schema(trace)
    check(trace_attributes_workers(trace),
          "trace records never attributed a host:pid worker")
    print("phase A ok: campaign survived the kill, summary matches serial")

    print("--- phase B: SIGTERM the coordinator, resume locally ---")
    checkpoint, trace = artifacts / "b.ck.jsonl", artifacts / "distributed-b.trace.jsonl"
    port = free_port()
    coordinator = _coordinator(port, checkpoint, trace)
    workers = [start_worker(port, 0.8, connect_timeout=30) for _ in range(2)]
    try:
        check(wait_for_commit(coordinator, checkpoint), "no shard was ever committed")
        if coordinator.poll() is None:
            coordinator.send_signal(signal.SIGTERM)
        code, _, err = drain(coordinator, timeout=300,
                             hung="coordinator did not exit after SIGTERM")
    finally:
        # Orphaned workers notice the dead socket and exit on their own
        # (connection lost = 3); a worker that drained the shutdown frame
        # first exits 0.
        codes = [drain(worker)[0] for worker in workers]
    if code == 130:
        print(f"interrupted mid-run (exit 130); workers exited {codes}")
    elif code == 0:
        print("coordinator finished before the signal landed; resume is a no-op")
    else:
        raise SmokeFailure(f"unexpected coordinator exit {code}\n{err}")
    check(all(c in (0, 3) for c in codes),
          f"orphaned workers exited {codes}, expected 0 or 3")
    resumed = run_ok(
        CAMPAIGN + ["--jobs", "2", "--checkpoint", str(checkpoint), "--resume"],
        "local resume",
    )
    print(f"resume: {resumed.stderr.strip() or '(no shards needed resuming)'}")
    check(summary_table(resumed.stdout) == baseline,
          f"resumed summary differs from serial baseline\n{resumed.stdout}")
    if trace.exists():
        check_trace_schema(trace)
    print("phase B ok: distributed checkpoint resumed locally, summary matches")
    return "distributed execution matches serial through kills and resume"


SERVE_SPEC = [
    "--device", "ssd-a", "--faults", "4", "--shard-faults", "1",
    "--wss-gib", "2", "--seed", "9",
]
# A second, distinct campaign (different seed -> different fingerprint)
# for the kill-mid-run phase, so its cache starts cold.
SERVE_SPEC2 = SERVE_SPEC[:-1] + ["10"]


def _follow_until_done(port, submitter, timeout=240):
    """Attach a follower to the in-flight campaign, retrying the race.

    ``repro follow`` errors out ("no active campaign") when it beats the
    submission to the daemon; retry until it attaches or the submission
    ends without it ever succeeding.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        follow = run_cli(["follow", "--connect", f"127.0.0.1:{port}"])
        if follow.returncode == 0:
            return follow
        if submitter.poll() is not None:
            return None  # submission already over; follower never attached
        time.sleep(0.05)
    return None


def _submitted(proc, what):
    code, out, err = drain(proc, timeout=300)
    check(code == 0, f"{what} exited {code}\n{err}")
    return out, err


def smoke_serve(artifacts):
    baseline = summary_table(run_ok(["campaign", *SERVE_SPEC, "--jobs", "1"], "baseline").stdout)
    baseline2 = summary_table(
        run_ok(["campaign", *SERVE_SPEC2, "--jobs", "1"], "baseline2").stdout
    )
    cas_root = artifacts / "cas"
    shutil.rmtree(cas_root, ignore_errors=True)
    cas_root.mkdir(parents=True)
    port = free_port()
    serve = ["serve", "--listen", f"127.0.0.1:{port}", "--cas", str(cas_root)]
    submit = ["submit", "--connect", f"127.0.0.1:{port}"]
    daemon = spawn(serve)
    workers = [start_worker(port, 0.3, connect_timeout=10, persist=True)
               for _ in range(2)]
    try:
        print("--- submit #1: executed by the persistent fleet ---")
        first = spawn(submit + SERVE_SPEC)
        follow = _follow_until_done(port, first)
        out1, err1 = _submitted(first, "first submit")
        check(summary_table(out1) == baseline,
              f"served summary differs from serial baseline\n{out1}")
        check("4 shard(s) executed, 0 from cache" in err1,
              f"first submission was not fully executed\n{err1}")
        print("submit #1 ok: summary matches serial baseline")
        check(follow is not None, "follower never attached to the live campaign")
        check("complete: 4 shard(s) executed" in follow.stdout,
              f"follower summary wrong\n{follow.stdout}")
        check("shard-finished" in follow.stderr,
              f"follower streamed no shard events\n{follow.stderr}")
        print("follow ok: observer streamed the campaign to completion")

        print("--- submit #2: identical campaign, served from CAS ---")
        out2, err2 = _submitted(spawn(submit + SERVE_SPEC), "second submit")
        check(summary_table(out2) == summary_table(out1),
              f"resubmission summary is not byte-identical\n{out2}")
        check("0 shard(s) executed, 4 from cache" in err2,
              f"resubmission touched a worker\n{err2}")
        print("submit #2 ok: bit-identical summary, zero shards executed")

        print("--- kill mid-run, restart over the same CAS, resubmit ---")
        cached_before = len(list(cas_root.glob("*/*.json")))
        third = spawn(submit + SERVE_SPEC2)
        # SIGTERM the daemon once the new campaign's first shard has
        # reached the CAS but (usually) before the rest have.
        deadline = time.monotonic() + 240
        while time.monotonic() < deadline:
            if len(list(cas_root.glob("*/*.json"))) > cached_before or third.poll() is not None:
                break
            time.sleep(0.02)
        daemon.send_signal(signal.SIGTERM)
        code = drain(third, timeout=120)[0]
        daemon_code, _, daemon_err = drain(daemon)
        check(daemon_code == 0, f"killed daemon exited {daemon_code}\n{daemon_err}")
        if code == 0:
            print("note: campaign finished before the signal; resubmit will be a pure CAS hit")
        else:
            print(f"interrupted mid-run (submit exit {code})")
        daemon = spawn(serve)  # workers reconnect alone
        out4, err4 = _submitted(spawn(submit + SERVE_SPEC2), "post-restart resubmit")
        check(summary_table(out4) == baseline2,
              f"post-restart summary differs from serial baseline\n{out4}")
        counts = re.search(r"(\d+) shard\(s\) executed, (\d+) from cache", err4)
        check(counts, f"no CAS accounting in resubmit output\n{err4}")
        executed, cached = int(counts.group(1)), int(counts.group(2))
        check(executed + cached == 4 and cached >= 1,
              f"resubmit ran {executed}, cached {cached}; the pre-kill shards "
              "should have survived in the CAS")
        print(f"restart ok: {cached} shard(s) from the pre-kill CAS, "
              f"{executed} re-executed, summary matches serial")
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
        daemon_code, _, daemon_err = drain(daemon)
        worker_codes = [drain(worker)[0] for worker in workers]
    check(daemon_code == 0, f"daemon exited {daemon_code}\n{daemon_err}")
    check("[serve] stopped" in daemon_err, f"daemon never reported a clean stop\n{daemon_err}")
    check(worker_codes == [0, 0],
          f"persistent workers exited {worker_codes}, expected 0")
    entries = sorted(cas_root.glob("*/*.json"))
    check(len(entries) == 8,  # two campaigns x four shards
          f"expected 8 CAS entries, found {len(entries)}")
    traces = sorted((cas_root / "traces").glob("*.trace.jsonl"))
    check(traces, "the service left no campaign trace behind")
    for trace in traces:
        check_trace_schema(trace)
    return "campaign service executed, streamed, cached, and stopped cleanly"


DIRTY_CYCLE = [
    "stress", "dirty-cycle", "--repeat", "25", "--seed", "7", "--wss-gib", "1",
    "--qdepth", "16", "--shard-cycles", "2", "--recovery-fault-every", "5",
]


def smoke_dirty_cycle(artifacts):
    plp = run_ok(
        ["stress", "dirty-cycle", "--repeat", "3", "--seed", "11",
         "--device", "ssd-enterprise-plp", "--wss-gib", "1",
         "--size-min-kib", "4", "--size-max-kib", "4", "--iops", "2000", "--qdepth", "32"],
        "PLP leg",
    )
    unsafe = summary_value(plp.stdout, "unsafe_shutdowns")
    loss = summary_value(plp.stdout, "total_data_loss")
    check(unsafe == "3", f"PLP leg unsafe_shutdowns = {unsafe}, expected 3")
    check(loss == "0", f"PLP leg lost acked writes (total_data_loss = {loss})")
    print("leg A ok: supercap device, 3 unsafe shutdowns, zero acked-write loss")

    weak = run_ok(
        ["stress", "dirty-cycle", "--repeat", "3", "--seed", "11",
         "--device", "ssd-c", "--wss-gib", "1", "--qdepth", "32"],
        "unprotected leg",
    )
    unsafe = summary_value(weak.stdout, "unsafe_shutdowns")
    fwa = summary_value(weak.stdout, "fwa")
    check(unsafe == "3", f"unprotected leg unsafe_shutdowns = {unsafe}, expected 3")
    check(int(fwa) > 0, "unprotected leg shows no flying-write-ACKs")
    print(f"leg B ok: unprotected device, {fwa} flying-write-ACKs detected")

    trace = artifacts / "dirty.trace.jsonl"
    trace.unlink(missing_ok=True)
    cmdlogs = ["--cmdlog", str(artifacts / "cmdlogs")]
    _, parallel = interrupt_resume_compare(
        DIRTY_CYCLE, artifacts / "ck.jsonl", jobs=1, compare_jobs=4,
        first_extra=cmdlogs + ["--trace", str(trace)], resume_extra=cmdlogs,
    )
    unsafe = summary_value(parallel.stdout, "unsafe_shutdowns")
    expected = 25 + 25 // 5  # one per cycle + one per recovery-fault cycle
    check(unsafe == str(expected), f"unsafe_shutdowns = {unsafe}, expected {expected}")
    print(f"leg C ok: {unsafe} unsafe shutdowns for 25 cycles + 5 recovery faults")
    check_cmdlogs(artifacts / "cmdlogs")
    return "dirty-cycle stress harness verified end to end"


TOPOLOGY = [
    "topology", "run", "--policy", "wb", "--mirror-cache", "--device", "ssd-c",
    "--faults", "6", "--shard-cycles", "1", "--seed", "11", "--outstanding", "8",
]
TOPOLOGY_CONTRAST = ["--device", "ssd-c", "--faults", "3", "--seed", "7"]


def smoke_topology(artifacts):
    wt = run_ok(["topology", "run", "--policy", "wt", "--shared-power", *TOPOLOGY_CONTRAST],
                "WT leg")
    loss = summary_value(wt.stdout, "app_visible_loss")
    check(loss == "0", f"WT lost acked writes (app_visible_loss = {loss})")
    print("leg A ok: write-through, shared PDU, zero app-visible loss")

    wb = run_ok(["topology", "run", "--policy", "wb", "--shared-power", *TOPOLOGY_CONTRAST],
                "WB leg")
    loss = summary_value(wb.stdout, "app_visible_loss")
    check(int(loss) > 0, "WB on a shared PDU shows no app-visible loss")
    print(f"leg A ok: write-back, shared PDU, {loss} acked writes lost")

    mirror = run_ok(["topology", "run", "--policy", "wb", "--mirror-cache", *TOPOLOGY_CONTRAST],
                    "mirrored leg")
    loss = summary_value(mirror.stdout, "app_visible_loss")
    recovered = summary_value(mirror.stdout, "topology_recovered")
    check(loss == "0", f"mirrored WB lost acked writes (app_visible_loss = {loss})")
    check(int(recovered) > 0, "mirrored WB shows no topology-recovered writes")
    print(f"leg A ok: mirrored write-back, split rails, {recovered} device FWAs "
          "recovered, zero app-visible loss")

    trace = artifacts / "topology.trace.jsonl"
    trace.unlink(missing_ok=True)
    _, parallel = interrupt_resume_compare(
        TOPOLOGY, artifacts / "ck.jsonl", jobs=1, compare_jobs=4,
        first_extra=["--trace", str(trace)],
    )
    loss = summary_value(parallel.stdout, "app_visible_loss")
    check(loss == "0", f"mirrored-WB acceptance run lost writes ({loss})")
    unsafe = summary_value(parallel.stdout, "unsafe_shutdowns")
    check(unsafe == "6", f"unsafe_shutdowns = {unsafe}, expected 6 (one per fault)")
    print(f"leg B ok: {unsafe} unsafe shutdowns for 6 faults, zero loss")
    return "cache-topology subsystem verified end to end"


APPS = [
    "apps", "run", "--app", "wal", "--no-fsync", "--device", "ssd-c", "--faults", "6",
    "--shard-cycles", "1", "--seed", "11", "--warmup-ms", "30", "--fault-window-ms", "120",
]
APPS_CONTRAST = [
    "--device", "ssd-c", "--faults", "6", "--shard-cycles", "2", "--seed", "7",
    "--warmup-ms", "30", "--fault-window-ms", "120",
]
APP_VERDICTS = (
    "app_intact",
    "app_torn_recovered",
    "app_committed_loss",
    "app_silent_corruption",
    "app_recovery_failed",
)


def smoke_apps(artifacts):
    safe = run_ok(["apps", "run", "--app", "wal", *APPS_CONTRAST], "fsync leg")
    promises = int(summary_value(safe.stdout, "app_promises"))
    loss = summary_value(safe.stdout, "app_committed_loss")
    failed = summary_value(safe.stdout, "app_recovery_failed")
    check(promises > 0, "fsync leg made no promises")
    check(loss == "0" and failed == "0",
          f"fsync WAL lost commits (loss={loss}, rec-fail={failed})")
    print(f"leg A ok: WAL+fsync, {promises} acked commits, zero loss")

    lossy = run_ok(["apps", "run", "--app", "wal", "--no-fsync", *APPS_CONTRAST],
                   "no-fsync leg")
    loss = summary_value(lossy.stdout, "app_committed_loss")
    silent = summary_value(lossy.stdout, "app_silent_corruption")
    check(int(loss) > 0, "no-fsync WAL shows no committed loss on ssd-c")
    check(silent == "0", f"CRC-sealed WAL reported silent corruption ({silent})")
    print(f"leg A ok: WAL without fsync, {loss} acked commits lost, all detected")

    trace = artifacts / "apps.trace.jsonl"
    trace.unlink(missing_ok=True)
    _, parallel = interrupt_resume_compare(
        APPS, artifacts / "ck.jsonl", jobs=2, compare_jobs=4,
        first_extra=["--trace", str(trace)],
    )
    # The audit partitions every promise: the five verdict columns sum to
    # the promise count across the campaign.
    promises = int(summary_value(parallel.stdout, "app_promises"))
    verdicts = sum(int(summary_value(parallel.stdout, c)) for c in APP_VERDICTS)
    check(promises > 0 and verdicts == promises,
          f"audit partition broken ({verdicts} verdicts / {promises} promises)")
    print(f"leg B ok: {promises} promises, every one classified exactly once")

    report = run_ok(APPS + ["--explain", "0"], "--explain")
    for heading in ("promise log", "device verdicts", "semantic verdict chain"):
        check(heading in report.stdout,
              f"--explain report lacks {heading!r}:\n{report.stdout}")
    print("leg C ok: --explain renders promises, device verdicts, semantics")
    return "application-workload subsystem verified end to end"


SMOKES = {
    "resume": smoke_resume,
    "follow": smoke_follow,
    "distributed": smoke_distributed,
    "serve": smoke_serve,
    "dirty-cycle": smoke_dirty_cycle,
    "topology": smoke_topology,
    "apps": smoke_apps,
}


def main(argv):
    parser = argparse.ArgumentParser(description="run one end-to-end CLI smoke test")
    parser.add_argument("name", choices=list(SMOKES))
    name = parser.parse_args(argv).name
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = Path(os.environ.get(ARTIFACT_DIR_ENV) or tmp)
        artifacts.mkdir(parents=True, exist_ok=True)
        try:
            message = SMOKES[name](artifacts)
        except SmokeFailure as failure:
            print(f"FAIL: {failure}")
            return 1
    print(f"OK: {message}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
