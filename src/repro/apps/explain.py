"""The ``repro apps run --explain <cycle>`` mini-report.

Because every app fault cycle is a pure function of ``(shard seed, cycle
index, fault delay)`` — see :func:`repro.apps.plan.run_app_cycle` — any
one cycle of a campaign can be replayed in isolation: locate the shard
that owns the campaign-wide cycle index, read that shard's fault
schedule (:func:`repro.apps.plan.fault_delays`) up to the cycle, and
run the single cycle with an :class:`~repro.apps.base.AppRecorder`
attached.  The report then chains three views of the same fault:

1. the **promise log** — what the app acked, in order;
2. **per-LBA device verdicts** — for every block the app wrote, whether
   the device still holds the expected content token (the recorder keeps
   the writer-side bytes, so the expected token is recomputable);
3. the **semantic verdict chain** — each promise's verdict with its
   reason and the device-level state of the exact blocks it staked its
   durability claim on.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Tuple

from repro.apps.base import AppRecorder, Promise
from repro.apps.kv import SEG_PREFIX, SEG_SUFFIX
from repro.apps.plan import AppPlan, CycleDebris, fault_delays, run_app_cycle
from repro.core.results import FaultCycleResult
from repro.engine.plan import ShardSpec
from repro.errors import CampaignError
from repro.fs import FileNotFound


def locate_cycle(plan: AppPlan, cycle_index: int) -> Tuple[ShardSpec, int]:
    """Map a campaign-wide cycle index to ``(shard, shard-local index)``.

    Mirrors :func:`repro.engine.plan.merge_shard_results`, which
    renumbers cycles by concatenating shard results in shard order.
    """
    if cycle_index < 0 or cycle_index >= plan.faults:
        raise CampaignError(
            f"cycle {cycle_index} outside campaign (0..{plan.faults - 1})"
        )
    consumed = 0
    for shard in plan.shards():
        if cycle_index < consumed + shard.faults:
            return shard, cycle_index - consumed
        consumed += shard.faults
    raise CampaignError("shard decomposition does not cover the fault budget")


def replay_fault_delay(plan: AppPlan, shard: ShardSpec, local_index: int) -> int:
    """The fault delay of the shard's cycle ``local_index``.

    Read from :func:`repro.apps.plan.fault_delays`, the schedule
    :func:`repro.apps.plan.run_app_shard` runs, so the replayed cycle
    sees the identical fault instant.
    """
    return next(islice(fault_delays(plan, shard), local_index, None))


def _device_verdict(fs, file: str, index: int, expected: bytes) -> Tuple[str, str]:
    """``(lba, verdict)`` for one recorded app block on the recovered view."""
    try:
        inode = fs.stat(file)
    except FileNotFound:
        return "-", "file missing"
    blocks = inode.blocks()
    if index >= len(blocks):
        return "-", "beyond recovered size"
    lba = blocks[index]
    token = fs._read_block_token(lba)
    expected_token = fs.cas.address_of(expected)
    if token == expected_token:
        return str(lba), "match"
    if token is None or fs.cas.bytes_for(token) is None:
        return str(lba), "unreadable (torn/rolled back)"
    return str(lba), "WRONG CONTENT (old/other page)"


def _promise_blocks(promise: Promise) -> List[Tuple[str, int]]:
    """The (file, block-index) locations a promise staked its claim on."""
    detail = promise.detail
    if "blocks" in detail and "file" in detail:
        return [(str(detail["file"]), int(b)) for b in detail["blocks"]]  # wal
    if "seg" in detail and "block" in detail:
        seg = detail["seg"]
        return [(f"{SEG_PREFIX}{seg}{SEG_SUFFIX}", int(detail["block"]))]  # kv
    if "file" in detail:
        return [(str(detail["file"]), -1)]  # hpc: whole file
    return []


def explain_cycle(plan: AppPlan, cycle_index: int) -> str:
    """Replay one cycle with a recorder and render the mini-report."""
    shard, local_index = locate_cycle(plan, cycle_index)
    fault_delay = replay_fault_delay(plan, shard, local_index)
    recorder = AppRecorder()
    cycle, debris = run_app_cycle(
        plan, shard.seed, local_index, fault_delay, recorder=recorder
    )
    return render_report(plan, cycle_index, shard, cycle, debris, recorder)


def render_report(
    plan: AppPlan,
    cycle_index: int,
    shard: ShardSpec,
    cycle: FaultCycleResult,
    debris: CycleDebris,
    recorder: AppRecorder,
) -> str:
    """The three-view report (pure formatting; no further simulation)."""
    app = debris.app
    audit = debris.audit
    lines: List[str] = []
    lines.append(
        f"cycle {cycle_index} of {plan.display_label()} "
        f"(shard {shard.index}, local cycle {local_label(shard, cycle)})"
    )
    lines.append(
        f"power cut at t={debris.fault_time_us} us; "
        f"{app.ops_completed} ops completed, "
        f"{app.promises.acks} acks / {app.promises.retractions} retractions"
    )
    if debris.mount_error:
        lines.append(f"remount FAILED: {debris.mount_error}")
    lines.append("")

    lines.append("promise log (outstanding at the fault, in ack order):")
    for promise in app.promises.outstanding():
        lines.append(
            f"  {promise.pid:<14} {promise.kind:<10} seq={promise.seq:<6} "
            f"digest={promise.digest} {_detail_str(promise)}"
        )
    lines.append("")

    lines.append("device verdicts (every live app block, writer-side expectation):")
    if debris.fs is None:
        lines.append("  (unavailable: remount failed)")
    else:
        for (file, index) in sorted(recorder.blocks):
            lba, verdict = _device_verdict(
                debris.fs, file, index, recorder.blocks[(file, index)]
            )
            lines.append(f"  {file:<16} block {index:<4} lba {lba:<6} {verdict}")
    lines.append("")

    lines.append("semantic verdict chain:")
    for promise in app.promises.outstanding():
        verdict = audit.verdicts.get(promise.pid)
        reason = audit.reasons.get(promise.pid, "")
        name = verdict.value if verdict is not None else "?"
        lines.append(f"  {promise.pid:<14} -> {name:<18} {reason}")
        if debris.fs is not None:
            for file, index in _promise_blocks(promise):
                indices = (
                    [index]
                    if index >= 0
                    else sorted(i for (f, i) in recorder.blocks if f == file)
                )
                for block_index in indices:
                    expected = recorder.blocks.get((file, block_index))
                    if expected is None:
                        continue
                    lba, dverdict = _device_verdict(
                        debris.fs, file, block_index, expected
                    )
                    lines.append(
                        f"      {file} block {block_index} lba {lba}: {dverdict}"
                    )
    lines.append("")

    lines.append("recovery summary:")
    replay = getattr(app, "last_replay", None)
    if replay is not None and hasattr(replay, "tear_index"):  # wal
        tear = "clean" if replay.tear_index is None else f"tear at block {replay.tear_index}"
        lines.append(
            f"  wal redo: {len(replay.committed)} committed txns, {tear}; "
            f"snapshot source: {getattr(app, 'last_snapshot_source', 'n/a')}"
        )
    elif replay is not None and hasattr(replay, "tears"):  # kv
        tears = (
            ", ".join(f"seg {s} @ {i}" for s, i in sorted(replay.tears.items()))
            or "none"
        )
        lines.append(
            f"  kv replay: {replay.records_applied} records over segments "
            f"{getattr(app, 'last_segments', [])} "
            f"(manifest: {getattr(app, 'last_manifest', 'n/a')}); tears: {tears}"
        )
    restart = getattr(app, "restart_generation", None)
    if restart is not None:  # hpc
        lines.append(f"  hpc restart generation: {restart}")
    lines.append(f"  verdict counts: {audit.counts()}")
    return "\n".join(lines)


def local_label(shard: ShardSpec, cycle: FaultCycleResult) -> str:
    return f"{cycle.cycle_index}/{shard.faults}"


def _detail_str(promise: Promise) -> str:
    pairs = ", ".join(f"{k}={v}" for k, v in sorted(promise.detail.items()))
    return f"[{pairs}]" if pairs else ""
