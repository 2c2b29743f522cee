"""Command-line interface.

Gives the testbed a shell entry point, mirroring how the paper's platform
was driven: pick a device and a workload, inject faults, read the Analyzer's
verdicts.

Usage (installed or via ``python -m repro``)::

    python -m repro list-devices
    python -m repro campaign --device ssd-a --faults 10 --read-pct 0
    python -m repro discharge --load
    python -m repro post-ack --intervals 50,250,450,800
    python -m repro smart --device ssd-b --faults 3
    python -m repro stress dirty-cycle --repeat 25 --seed 7
    python -m repro topology run --policy wb --mirror-cache
    python -m repro apps run --app wal --faults 8 --per-cycle
    python -m repro apps run --app kv --no-fsync --explain 3
    python -m repro trace report run.trace.jsonl
    python -m repro trace report --follow run.trace.jsonl   # live dashboard
    python -m repro checkpoint compact run.ck.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis import ascii_table
from repro.core.campaign import Campaign
from repro.core.experiment import run_discharge_capture, run_post_ack_sweep
from repro.core.platform import TestPlatform
from repro.engine import (
    CampaignPlan,
    ConsoleProgress,
    DEFAULT_SHARD_FAULTS,
    fanout_hooks,
    RetryPolicy,
    run_plan,
    TraceWriter,
)
from repro.engine.progress import event_line
from repro.engine.wire import DEFAULT_LEASE_TIMEOUT_S
from repro.errors import (
    CampaignError,
    CampaignInterrupted,
    CheckpointError,
    EngineTraceError,
    ReproError,
    TraceError,
)
from repro.ssd import models
from repro.units import GIB, KIB
from repro.workload.spec import AccessPattern, WorkloadSpec


def _add_connect_timeout(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long to keep retrying the initial connection (default 10)",
    )


def _add_engine_flags(command: argparse.ArgumentParser) -> None:
    """Engine telemetry and fault-tolerance/resume flags (run commands + fleet)."""
    command.add_argument(
        "--progress", action="store_true", help="print engine shard telemetry to stderr"
    )
    command.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write-ahead shard journal; a killed run restarts with --resume",
    )
    command.add_argument(
        "--resume",
        action="store_true",
        help="skip shards already journaled in --checkpoint (same plan only)",
    )
    command.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retry budget per shard before it is quarantined (default 2)",
    )
    command.add_argument(
        "--quarantine",
        action="store_true",
        help="exit 0 even when shards were quarantined (default: exit 1)",
    )
    command.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry a shard running longer than this (needs --jobs > 1)",
    )
    command.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="append per-shard telemetry to a JSONL trace (see `repro trace report`)",
    )
    command.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help=(
            "serve shards to `repro worker` processes over TCP instead of "
            "running them locally (port 0 picks a free port; ignores --jobs)"
        ),
    )
    command.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="requeue a shard whose worker stops heartbeating for this long "
        "(with --listen; default 15)",
    )


class RunKind:
    """One plan kind's part of the shared run command (:func:`_cmd_run`).

    A subclass declares the command's own flags in ``add_flags(command)``
    (the engine flags are shared) and turns the parsed flags into its plan
    in ``build_plan(args)``.  The attributes shape what the command prints:
    the banner ``noun``, the ``--per-cycle`` table after the cycle index
    (``cycle_columns``: header -> ``FaultCycleResult`` attribute), the
    summary ``title``, and the totals appended to
    ``CampaignResult.summary()`` (``extra_totals``: column ->
    ``CampaignResult`` attribute).  A kind with an ``explain(plan, cycle)``
    method declares the ``--explain CYCLE`` flag that selects it.
    """

    noun: str
    title: str
    cycle_columns: Dict[str, str]
    extra_totals: Dict[str, str] = {}
    shard_flag = "--shard-cycles"
    shard_unit = "fault cycles"
    per_cycle_help = "print per-cycle rows"
    explain: Optional[Callable[[CampaignPlan, int], str]] = None

    def add_shard_flag(self, command: argparse.ArgumentParser) -> None:
        command.add_argument(
            self.shard_flag,
            type=int,
            default=DEFAULT_SHARD_FAULTS,
            help=f"max {self.shard_unit} per engine shard (determines available parallelism)",
        )

    def add_command(self, command: argparse.ArgumentParser) -> None:
        """The kind's own flags, the shared engine flags, and the run handler."""
        self.add_flags(command)
        command.add_argument("--per-cycle", action="store_true", help=self.per_cycle_help)
        command.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes (shard plan is fixed, so results match any job count)",
        )
        self.add_shard_flag(command)
        _add_engine_flags(command)
        command.set_defaults(handler=partial(_cmd_run, self))


def _workload_spec(args: argparse.Namespace, **fields) -> WorkloadSpec:
    """Traffic from the ``--wss-gib`` and ``--size-*-kib`` flags, plus ``fields``."""
    return WorkloadSpec(
        wss_bytes=args.wss_gib * GIB,
        size_min_bytes=args.size_min_kib * KIB,
        size_max_bytes=args.size_max_kib * KIB,
        **fields,
    )


class _Campaign(RunKind):
    noun = "faults"
    title = "campaign summary"
    shard_flag = "--shard-faults"
    shard_unit = "faults"
    per_cycle_help = "print per-fault rows"
    cycle_columns = {
        "completed": "requests_completed",
        "data failures": "data_failures",
        "FWA": "fwa_failures",
        "IO errors": "io_errors",
    }

    def add_flags(self, command: argparse.ArgumentParser) -> None:
        command.add_argument("--device", default="ssd-a", help="device preset name")
        command.add_argument("--faults", type=int, default=10)
        command.add_argument("--seed", type=int, default=1)
        command.add_argument("--wss-gib", type=int, default=16)
        command.add_argument("--read-pct", type=int, default=0, choices=range(0, 101), metavar="0-100")
        command.add_argument("--size-min-kib", type=int, default=4)
        command.add_argument("--size-max-kib", type=int, default=1024)
        command.add_argument(
            "--pattern", choices=["random", "sequential"], default="random"
        )
        command.add_argument(
            "--sequence", choices=["RAR", "RAW", "WAR", "WAW"], default=None
        )
        command.add_argument("--iops", type=float, default=None, help="open-loop requested IOPS")

    def build_plan(self, args: argparse.Namespace) -> CampaignPlan:
        return CampaignPlan(
            spec=_workload_spec(
                args,
                read_fraction=args.read_pct / 100.0,
                pattern=AccessPattern(args.pattern),
                requested_iops=args.iops,
                sequence=args.sequence,
            ),
            faults=args.faults,
            device=models.by_name(args.device),
            base_seed=args.seed,
            shard_faults=args.shard_faults,
        )


class _DirtyCycle(RunKind):
    noun = "dirty power cycles"
    title = "dirty-cycle summary"
    shard_unit = "dirty cycles"
    cycle_columns = {
        "acked": "writes_completed",
        "intact": "intact_writes",
        "FWA": "fwa_failures",
        "data loss": "data_failures",
        "IO err": "io_errors",
        "unsafe": "unsafe_shutdowns",
    }
    extra_totals = {
        "unsafe_shutdowns": "unsafe_shutdowns",
        "intact_writes": "intact_writes",
    }

    def add_flags(self, command: argparse.ArgumentParser) -> None:
        command.add_argument("--device", default="ssd-a", help="device preset name")
        command.add_argument("--repeat", type=int, default=10, help="dirty cycles to run")
        command.add_argument("--seed", type=int, default=1)
        command.add_argument("--wss-gib", type=int, default=4)
        command.add_argument("--read-pct", type=int, default=0, choices=range(0, 101), metavar="0-100")
        command.add_argument("--size-min-kib", type=int, default=4)
        command.add_argument("--size-max-kib", type=int, default=64)
        command.add_argument(
            "--pattern", choices=["random", "sequential"], default="random"
        )
        command.add_argument("--iops", type=float, default=None, help="open-loop requested IOPS")
        command.add_argument("--qdepth", type=int, default=64, help="NVMe queue-pair depth")
        command.add_argument(
            "--flush-every",
            type=int,
            default=0,
            help="chase every Nth write with a FLUSH (0 disables)",
        )
        command.add_argument(
            "--write-zeroes-pct",
            type=int,
            default=0,
            choices=range(0, 101),
            metavar="0-100",
            help="percent of writes issued as WRITE ZEROES",
        )
        command.add_argument(
            "--recovery-fault-every",
            type=int,
            default=0,
            metavar="N",
            help="every Nth cycle also cuts power mid-FTL-recovery (0 disables)",
        )
        command.add_argument(
            "--cmdlog",
            metavar="DIR",
            default=None,
            help="persist per-shard command logs (JSONL, CRC per record) here",
        )

    def build_plan(self, args: argparse.Namespace) -> CampaignPlan:
        from repro.stress import DirtyCyclePlan

        return DirtyCyclePlan(
            spec=_workload_spec(
                args,
                read_fraction=args.read_pct / 100.0,
                pattern=AccessPattern(args.pattern),
                requested_iops=args.iops,
            ),
            faults=args.repeat,
            device=models.by_name(args.device),
            base_seed=args.seed,
            shard_faults=args.shard_cycles,
            qdepth=args.qdepth,
            flush_every=args.flush_every,
            write_zeroes_frac=args.write_zeroes_pct / 100.0,
            recovery_fault_every=args.recovery_fault_every,
            cmdlog_dir=args.cmdlog,
        )


class _Topology(RunKind):
    noun = "topology faults"
    title = "topology summary"
    cycle_columns = {
        "acked": "writes_completed",
        "intact": "intact_writes",
        "recovered": "topology_recovered",
        "app loss": "fwa_failures",
        "IO err": "io_errors",
        "unsafe": "unsafe_shutdowns",
    }
    extra_totals = {
        "intact_writes": "intact_writes",
        "topology_recovered": "topology_recovered",
        "app_visible_loss": "fwa_failures",
        "unsafe_shutdowns": "unsafe_shutdowns",
    }

    def add_flags(self, command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--policy",
            choices=["wb", "wt", "wa"],
            default="wb",
            help="cache policy: write-back, write-through, or write-around",
        )
        command.add_argument(
            "--mirror-cache",
            action="store_true",
            help="mirror the cache tier: two RAID-1 legs, each its own drive stack",
        )
        command.add_argument(
            "--shared-power",
            action="store_true",
            help=(
                "one PDU for cache legs and backing store (default: independent "
                "rails; faults rotate across cache legs, backing never faults)"
            ),
        )
        command.add_argument("--device", default="ssd-a", help="cache-leg device preset")
        command.add_argument("--faults", type=int, default=6, help="power-fault cycles")
        command.add_argument("--seed", type=int, default=1)
        command.add_argument("--wss-gib", type=int, default=1)
        command.add_argument("--size-min-kib", type=int, default=4)
        command.add_argument("--size-max-kib", type=int, default=64)
        command.add_argument(
            "--outstanding", type=int, default=32, help="closed-loop host writes in flight"
        )
        command.add_argument(
            "--destage-batch",
            type=int,
            default=64,
            metavar="PAGES",
            help="WB destage batch size (FlushPolicy.batch_pages)",
        )
        command.add_argument(
            "--max-dirty",
            type=int,
            default=256,
            metavar="PAGES",
            help="WB admission throttle (FlushPolicy.max_dirty_pages)",
        )

    def build_plan(self, args: argparse.Namespace) -> CampaignPlan:
        from repro.cache.flush import FlushPolicy
        from repro.topology import TopologyPlan

        return TopologyPlan(
            spec=_workload_spec(args, read_fraction=0.0, outstanding=args.outstanding),
            faults=args.faults,
            device=models.by_name(args.device),
            base_seed=args.seed,
            shard_faults=args.shard_cycles,
            policy=args.policy,
            mirror_cache=args.mirror_cache,
            shared_power=args.shared_power,
            destage=FlushPolicy(
                batch_pages=args.destage_batch, max_dirty_pages=args.max_dirty
            ),
        )


class _Apps(RunKind):
    noun = "app fault cycles"
    title = "apps summary"
    cycle_columns = {
        "promises": "app_promises",
        "intact": "app_intact",
        "torn-rec": "app_torn_recovered",
        "loss": "app_committed_loss",
        "silent": "app_silent_corruption",
        "rec-fail": "app_recovery_failed",
    }
    extra_totals = {
        "app_promises": "app_promises",
        "app_intact": "app_intact",
        "app_torn_recovered": "app_torn_recovered",
        "app_committed_loss": "app_committed_loss",
        "app_silent_corruption": "app_silent_corruption",
        "app_recovery_failed": "app_recovery_failed",
    }

    def add_flags(self, command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--app",
            choices=["wal", "kv", "hpc"],
            default="wal",
            help="which workload model to run (default wal)",
        )
        command.add_argument("--device", default="ssd-a", help="device preset name")
        command.add_argument("--faults", type=int, default=8, help="power-fault cycles")
        command.add_argument("--seed", type=int, default=1)
        command.add_argument(
            "--journal-blocks",
            type=int,
            default=64,
            help="filesystem journal size in blocks (small values wrap often)",
        )
        command.add_argument(
            "--no-fsync",
            action="store_true",
            help="ack before flush (the mis-configured-application contrast leg)",
        )
        command.add_argument(
            "--no-checksums",
            action="store_true",
            help="KV records unsealed: replay trusts storage (silent-corruption leg)",
        )
        command.add_argument(
            "--warmup-ms",
            type=int,
            default=40,
            help="traffic before the fault window opens (default 40 ms)",
        )
        command.add_argument(
            "--fault-window-ms",
            type=int,
            default=150,
            help="fault instant drawn uniformly from this window (default 150 ms)",
        )
        command.add_argument(
            "--explain",
            type=int,
            default=None,
            metavar="CYCLE",
            help=(
                "replay one campaign cycle in isolation and print the mini-report "
                "(promise log, per-LBA device verdicts, semantic verdict chain)"
            ),
        )

    def build_plan(self, args: argparse.Namespace) -> CampaignPlan:
        from repro.apps import AppPlan
        from repro.units import MSEC

        return AppPlan(
            spec=WorkloadSpec(),
            faults=args.faults,
            device=models.by_name(args.device),
            base_seed=args.seed,
            shard_faults=args.shard_cycles,
            warmup_us=args.warmup_ms * MSEC,
            app=args.app,
            fault_window_us=args.fault_window_ms * MSEC,
            journal_blocks=args.journal_blocks,
            app_fsync=not args.no_fsync,
            app_checksums=not args.no_checksums,
        )

    def explain(self, plan: CampaignPlan, cycle: int) -> str:
        from repro.apps.explain import explain_cycle

        return explain_cycle(plan, cycle)


CAMPAIGN = _Campaign()
DIRTY_CYCLE = _DirtyCycle()
TOPOLOGY = _Topology()
APPS = _Apps()


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs); ``handler`` runs the command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SSD power-outage fault-injection testbed (DATE'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list-devices", help="show the device presets (Table I + extras)"
    ).set_defaults(handler=_cmd_list_devices)

    CAMPAIGN.add_command(sub.add_parser("campaign", help="run a fault-injection campaign"))

    discharge = sub.add_parser("discharge", help="capture the Fig. 4 PSU waveform")
    group = discharge.add_mutually_exclusive_group()
    group.add_argument("--load", dest="load", action="store_true", default=True)
    group.add_argument("--no-load", dest="load", action="store_false")
    discharge.add_argument("--samples", type=int, default=20, help="rows to print")
    discharge.set_defaults(handler=_cmd_discharge)

    post_ack = sub.add_parser("post-ack", help="run the §IV-A post-ACK interval sweep")
    post_ack.add_argument("--intervals", default="50,250,450,800")
    post_ack.add_argument("--cycles", type=int, default=3)
    post_ack.add_argument("--burst", type=int, default=30)
    post_ack.add_argument("--seed", type=int, default=1)
    post_ack.set_defaults(handler=_cmd_post_ack)

    smart = sub.add_parser("smart", help="campaign, then print the SMART snapshot")
    smart.add_argument("--device", default="ssd-a")
    smart.add_argument("--faults", type=int, default=3)
    smart.add_argument("--seed", type=int, default=1)
    smart.add_argument(
        "--json",
        action="store_true",
        help="emit the snapshot as machine-readable JSON instead of a table",
    )
    smart.set_defaults(handler=_cmd_smart)

    stress = sub.add_parser(
        "stress", help="NVMe dirty-power-cycle stress loops with acked-write audit"
    )
    stress_sub = stress.add_subparsers(dest="stress_command", required=True)
    dirty = stress_sub.add_parser(
        "dirty-cycle",
        help=(
            "repeated fault -> power-on -> recover -> verify loops over the "
            "NVMe queue pair; every acked LBA is classified via command-log "
            "replay and SMART counters are audited each cycle"
        ),
    )
    DIRTY_CYCLE.add_command(dirty)

    topology = sub.add_parser(
        "topology",
        help="fault campaigns against cache topologies (SSD cache + backing store)",
    )
    topology_sub = topology.add_subparsers(dest="topology_command", required=True)
    topo_run = topology_sub.add_parser(
        "run",
        help=(
            "repeated power faults against an SSD cache tier in front of a "
            "durable backing store; every acked host write is classified "
            "device-intact / topology-recovered / application-visible loss"
        ),
    )
    TOPOLOGY.add_command(topo_run)

    apps = sub.add_parser(
        "apps",
        help="application crash-consistency campaigns with the semantic auditor",
    )
    apps_sub = apps.add_subparsers(dest="apps_command", required=True)
    apps_run = apps_sub.add_parser(
        "run",
        help=(
            "power-fault cycles against an application model (WAL database, "
            "log-structured KV store, HPC checkpoint loop) on the journaling "
            "filesystem; every acked promise is classified intact / "
            "torn-recovered / committed-loss / silent-corruption / "
            "recovery-failed by the app's own recovery path"
        ),
    )
    APPS.add_command(apps_run)

    fleet = sub.add_parser(
        "fleet", help="run the Table I population (six units) and rank by loss"
    )
    fleet.add_argument("--faults", type=int, default=4)
    fleet.add_argument("--seed", type=int, default=1)
    fleet.add_argument("--wss-gib", type=int, default=8)
    fleet.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; the fleet's per-device shards run concurrently",
    )
    _add_engine_flags(fleet)
    fleet.set_defaults(handler=_cmd_fleet)

    worker = sub.add_parser(
        "worker",
        help="execute shards for a coordinator started with --listen",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address printed by `repro campaign/fleet --listen`",
    )
    _add_connect_timeout(worker)
    worker.add_argument(
        "--persist",
        action="store_true",
        help=(
            "outlive individual campaigns: reconnect after coordinator "
            "restarts and serve successive `repro serve` submissions; ends "
            "once no coordinator answers within --connect-timeout"
        ),
    )
    worker.set_defaults(handler=_cmd_worker)

    serve = sub.add_parser(
        "serve",
        help="run the campaign service daemon (submissions + result cache)",
    )
    serve.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="address to listen on (default 127.0.0.1:0 — a free port)",
    )
    serve.add_argument(
        "--cas",
        required=True,
        metavar="DIR",
        help="content-addressed result store directory (created on demand)",
    )
    serve.add_argument(
        "--lease-timeout",
        type=float,
        default=DEFAULT_LEASE_TIMEOUT_S,
        metavar="SECONDS",
        help="requeue a shard whose worker stops heartbeating (default 15)",
    )
    serve.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retry budget per shard before quarantine/failure (default 2)",
    )
    serve.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="requeue a shard running longer than this",
    )
    serve.add_argument(
        "--quarantine",
        action="store_true",
        help="complete campaigns degraded instead of failing them",
    )
    serve.set_defaults(handler=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a campaign to a `repro serve` daemon"
    )
    submit.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="campaign service address printed by `repro serve`",
    )
    _add_connect_timeout(submit)
    CAMPAIGN.add_flags(submit)
    CAMPAIGN.add_shard_flag(submit)
    submit.add_argument(
        "--progress",
        action="store_true",
        help="print the streamed engine events to stderr",
    )
    submit.set_defaults(handler=_cmd_submit)

    follow = sub.add_parser(
        "follow",
        help="stream an active `repro serve` campaign's events read-only",
    )
    follow.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="campaign service address printed by `repro serve`",
    )
    follow.add_argument(
        "--fingerprint",
        default=None,
        help="campaign to follow (default: the most recently accepted one)",
    )
    _add_connect_timeout(follow)
    follow.set_defaults(handler=_cmd_follow)

    trace = sub.add_parser(
        "trace", help="inspect engine telemetry traces (written with --trace)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_sub.add_parser(
        "report", help="straggler/retry analysis of one trace JSONL"
    )
    trace_report.add_argument(
        "path",
        help="trace file written by --trace, or a REPRO_BENCH_TRACE directory",
    )
    trace_report.add_argument(
        "--top", type=int, default=5, help="how many slowest shards to list (default 5)"
    )
    trace_report.add_argument(
        "--follow",
        action="store_true",
        help=(
            "tail a growing trace live (waits for the file to appear; a "
            "directory follows a whole bench sweep); exits at the final "
            "plan-finished record or Ctrl-C"
        ),
    )
    trace_report.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="snapshot cadence with --follow (default 2)",
    )
    trace_report.set_defaults(handler=_cmd_trace_report)

    checkpoint = sub.add_parser(
        "checkpoint", help="manage write-ahead shard checkpoint journals"
    )
    checkpoint_sub = checkpoint.add_subparsers(dest="checkpoint_command", required=True)
    compact = checkpoint_sub.add_parser(
        "compact",
        help="rewrite a journal to one latest record per shard (atomic replace)",
    )
    compact.add_argument("path", help="journal file written by --checkpoint")
    compact.set_defaults(handler=_cmd_checkpoint_compact)

    replay = sub.add_parser(
        "replay", help="replay a captured trace against a device, optionally with a fault"
    )
    replay.add_argument("trace", help="trace file (JSON lines, or blkparse text with --blkparse)")
    replay.add_argument("--blkparse", action="store_true", help="parse blkparse-format text")
    replay.add_argument("--device", default="ssd-a")
    replay.add_argument("--seed", type=int, default=1)
    replay.add_argument(
        "--fault-ms",
        type=float,
        default=None,
        help="inject a power fault this many ms into the replay",
    )
    replay.set_defaults(handler=_cmd_replay)

    return parser



def _cmd_list_devices(args: argparse.Namespace) -> int:
    rows = []
    for name in models.preset_names():
        config = models.by_name(name)
        rows.append(
            [
                name,
                f"{config.capacity_bytes // GIB}G",
                config.cell.name,
                config.ecc.name,
                "yes" if config.cache_enabled else "no",
                "yes" if config.supercap else "no",
                config.release_year or "N/A",
            ]
        )
    print(
        ascii_table(
            ["preset", "size", "cell", "ECC", "cache", "PLP", "year"], rows
        )
    )
    return 0


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """Engine options shared by the run commands and ``fleet``.

    The supervisor always quarantines (the campaign must complete and
    report); ``--quarantine`` only decides the process exit code.
    """
    return {
        "jobs": args.jobs,
        "checkpoint": args.checkpoint,
        "resume": args.resume,
        "retry_policy": RetryPolicy(max_retries=args.max_retries),
        "shard_timeout_s": args.shard_timeout,
        "quarantine": True,
        "listen": args.listen,
        "lease_timeout_s": args.lease_timeout,
    }


def _report_execution(result) -> None:
    """One stderr line of degraded-run accounting, when there is any."""
    stats = result.execution
    if not (stats.shards_resumed or stats.retries or stats.shards_quarantined):
        return
    line = (
        f"[engine] {result.label}: {stats.shards_completed} shards executed, "
        f"{stats.shards_resumed} resumed from checkpoint, {stats.retries} retries, "
        f"{stats.shards_quarantined} quarantined"
    )
    if stats.quarantined:
        line += f" ({', '.join(stats.quarantined)})"
    print(line, file=sys.stderr)


@contextmanager
def _engine_progress(args: argparse.Namespace):
    """The engine progress hook for ``--progress`` and ``--trace``, either or both."""
    tracer = TraceWriter(args.trace) if args.trace else None
    try:
        yield fanout_hooks(ConsoleProgress() if args.progress else None, tracer)
    finally:
        if tracer is not None:
            tracer.close()


def _summary_table(kind: RunKind, result) -> str:
    summary = dict(result.summary())
    for column, attribute in kind.extra_totals.items():
        summary[column] = getattr(result, attribute)
    return ascii_table(list(summary.keys()), [list(summary.values())], title=kind.title)


def _usage_error(exc: ReproError) -> int:
    """Report a bad domain input (unknown preset, empty budget) as a usage error."""
    print(f"repro: error: {exc}", file=sys.stderr)
    return 2


def _cmd_run(kind: RunKind, args: argparse.Namespace) -> int:
    """Run one plan kind: build its plan, execute it, print its tables."""
    try:
        plan = kind.build_plan(args)
    except ReproError as exc:
        return _usage_error(exc)
    if kind.explain is not None and args.explain is not None:
        print(kind.explain(plan, args.explain))
        return 0
    print(
        f"running {plan.faults} {kind.noun} against {plan.display_label()} "
        f"({plan.shard_count()} shards, jobs={args.jobs}) ..."
    )
    with _engine_progress(args) as progress:
        result = run_plan(plan, progress=progress, **_engine_kwargs(args))
    if args.per_cycle:
        print(
            ascii_table(
                ["cycle", *kind.cycle_columns],
                [
                    [cycle.cycle_index]
                    + [getattr(cycle, attribute) for attribute in kind.cycle_columns.values()]
                    for cycle in result.cycles
                ],
            )
        )
    print(_summary_table(kind, result))
    _report_execution(result)
    if result.execution.shards_quarantined and not args.quarantine:
        return 1
    return 0


def _cmd_discharge(args: argparse.Namespace) -> int:
    waveform = run_discharge_capture(with_device=args.load, sample_interval_us=2000)
    step = max(1, len(waveform) // max(1, args.samples))
    print(
        ascii_table(
            ["t (ms)", "V"],
            [[f"{t:.0f}", f"{v:.2f}"] for t, v in waveform[::step]],
            title=f"PSU discharge ({'one SSD attached' if args.load else 'unloaded'})",
        )
    )
    return 0


def _cmd_post_ack(args: argparse.Namespace) -> int:
    try:
        intervals = [int(part) for part in args.intervals.split(",") if part.strip()]
    except ValueError:
        print("--intervals must be a comma-separated list of milliseconds", file=sys.stderr)
        return 2
    if not intervals:
        print("--intervals must name at least one interval", file=sys.stderr)
        return 2
    points = run_post_ack_sweep(
        intervals_ms=intervals,
        cycles_per_point=args.cycles,
        burst_requests=args.burst,
        seed=args.seed,
    )
    print(
        ascii_table(
            ["interval (ms)", "ACKed", "lost", "loss fraction"],
            [
                [p.interval_ms, p.acked_requests, p.lost_requests, f"{p.loss_fraction:.3f}"]
                for p in points
            ],
            title="post-ACK vulnerability window (paper: up to ~700 ms)",
        )
    )
    return 0


def _cmd_smart(args: argparse.Namespace) -> int:
    config = models.by_name(args.device)
    spec = WorkloadSpec(wss_bytes=8 * GIB, read_fraction=0.0, outstanding=16)
    platform = TestPlatform(spec, config=config, seed=args.seed)
    Campaign(platform, faults=args.faults).run()
    log = platform.ssd.smart_log()
    if args.json:
        print(json.dumps(log.as_dict(), indent=2, sort_keys=True))
    else:
        print(log.render())
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.core.fleet import merge_by_model, rank_by_loss, run_fleet

    spec = WorkloadSpec(
        wss_bytes=args.wss_gib * GIB, read_fraction=0.0, outstanding=16
    )
    # Same composition as the run commands: --progress renders to stderr,
    # --trace persists, either alone or both (the flag used to be dropped here).
    with _engine_progress(args) as engine_progress:
        results = run_fleet(
            models.table_one_units(),
            spec,
            faults=args.faults,
            base_seed=args.seed,
            progress=lambda name, result: print(
                f"  {name}: {result.total_data_loss} data loss over {result.faults} faults"
            ),
            engine_progress=engine_progress,
            **_engine_kwargs(args),
        )
    merged = merge_by_model(results)
    print()
    print(
        ascii_table(
            ["model", "faults", "data failures", "FWA", "IO errors", "loss/fault"],
            [
                [
                    name,
                    merged[name].faults,
                    merged[name].data_failures,
                    merged[name].fwa_failures,
                    merged[name].io_errors,
                    f"{merged[name].data_loss_per_fault:.2f}",
                ]
                for name in rank_by_loss(merged)
            ],
            title="Table I population, merged per model, worst first",
        )
    )
    quarantined = sum(r.execution.shards_quarantined for r in results.values())
    for result in results.values():
        _report_execution(result)
    if quarantined and not args.quarantine:
        return 1
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.engine import run_worker

    return run_worker(
        args.connect,
        connect_timeout_s=args.connect_timeout,
        persist=args.persist,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.engine.serve import run_serve

    return run_serve(
        args.listen,
        args.cas,
        lease_timeout_s=args.lease_timeout,
        quarantine=args.quarantine,
        shard_timeout_s=args.shard_timeout,
        policy=RetryPolicy(max_retries=args.max_retries),
    )


def _render_streamed_record(record) -> None:
    """One stderr line per live event the campaign service streams.

    ``record`` is the :class:`~repro.engine.progress.ProgressEvent` that
    :func:`~repro.engine.serve.submit_campaign` decoded from its trace line.
    """
    print(event_line(record, "serve", rate=False), file=sys.stderr)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.engine.serve import submit_campaign

    try:
        plan = CAMPAIGN.build_plan(args)
    except ReproError as exc:
        return _usage_error(exc)
    print(
        f"submitting {plan.faults} {CAMPAIGN.noun} against {plan.display_label()} "
        f"({plan.shard_count()} shards) to {args.connect} ..."
    )
    try:
        outcome = submit_campaign(
            args.connect,
            [plan],
            connect_timeout_s=args.connect_timeout,
            on_record=_render_streamed_record if args.progress else None,
        )
    except CampaignError as exc:
        print(f"[serve] {exc}", file=sys.stderr)
        return 1
    result = outcome.results[0]
    print(_summary_table(CAMPAIGN, result))
    print(
        f"[serve] campaign {outcome.fingerprint}: {outcome.executed} shard(s) "
        f"executed, {outcome.cas_hits} from cache"
        + (", coalesced with an in-flight submission" if outcome.coalesced else ""),
        file=sys.stderr,
    )
    _report_execution(result)
    return 1 if result.execution.shards_quarantined else 0


def _cmd_follow(args: argparse.Namespace) -> int:
    from repro.engine.serve import follow_campaign

    try:
        summary = follow_campaign(
            args.connect,
            fingerprint=args.fingerprint,
            connect_timeout_s=args.connect_timeout,
            on_record=_render_streamed_record,
        )
    except CampaignError as exc:
        print(f"[serve] {exc}", file=sys.stderr)
        return 1
    print(
        f"[serve] campaign {summary.get('fingerprint')} complete: "
        f"{summary.get('executed')} shard(s) executed, "
        f"{summary.get('cas_hits')} from cache"
    )
    return 0


def _report_one_trace(path, top: int) -> int:
    """Post-hoc report of one trace file (the classic ``trace report``)."""
    from repro.engine import build_trace_report, read_trace

    try:
        records = read_trace(path)
        report = build_trace_report(records, slowest=max(0, top))
    except EngineTraceError as exc:
        print(f"[trace] {exc}", file=sys.stderr)
        return 1
    print(report.render())
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    if args.interval is not None and not args.follow:
        print("--interval requires --follow", file=sys.stderr)
        return 2
    if args.follow:
        # Follow mode tolerates a missing path: the follower may attach
        # before the campaign creates its trace.
        from repro.engine.live import DEFAULT_INTERVAL_S, follow_trace

        interval = args.interval if args.interval is not None else DEFAULT_INTERVAL_S
        return follow_trace(args.path, interval_s=interval, top=max(0, args.top))
    path = Path(args.path)
    if path.is_dir():
        files = sorted(path.glob("*.jsonl"))
        if not files:
            print(f"no trace files in directory: {path}", file=sys.stderr)
            return 2
        code = 0
        for index, file in enumerate(files):
            if index:
                print()
            print(f"== {file.name} ==")
            code = code or _report_one_trace(file, args.top)
        return code
    if not path.exists():
        print(f"trace file not found: {args.path}", file=sys.stderr)
        return 2
    return _report_one_trace(path, args.top)


def _cmd_checkpoint_compact(args: argparse.Namespace) -> int:
    from repro.engine import compact_journal

    if not Path(args.path).exists():
        print(f"journal not found: {args.path}", file=sys.stderr)
        return 2
    try:
        stats = compact_journal(args.path)
    except CheckpointError as exc:
        print(f"[checkpoint] {exc}", file=sys.stderr)
        return 1
    line = (
        f"compacted {args.path}: {stats.records_in} -> {stats.records_out} records "
        f"({stats.duplicates_dropped} duplicates, "
        f"{stats.quarantine_dropped} quarantine records dropped)"
    )
    if stats.torn_tail_dropped:
        line += "; torn tail discarded"
    print(line)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.core.analyzer import Analyzer, FailureKind
    from repro.host.system import HostSystem
    from repro.workload.replay import TraceReplayer, WorkloadTrace, parse_blkparse

    path = Path(args.trace)
    if not path.exists():
        print(f"trace file not found: {path}", file=sys.stderr)
        return 2
    if args.blkparse:
        trace = parse_blkparse(path.read_text().splitlines())
    else:
        try:
            trace = WorkloadTrace.load(path)
        except TraceError as exc:
            return _usage_error(exc)
    if not len(trace):
        print("trace contains no replayable requests", file=sys.stderr)
        return 2
    host = HostSystem(config=models.by_name(args.device), seed=args.seed)
    host.boot()
    analyzer = Analyzer(host.ssd.peek_run)
    replayer = TraceReplayer(host, trace)
    replayer.start()
    fault_injected = False
    if args.fault_ms is not None:
        host.run_for(round(args.fault_ms * 1000))
        host.cut_power()
        host.run_for_ms(1500)
        host.restore_power()
        host.wait_until_ready()
        fault_injected = True
    else:
        host.run_for(trace.duration_us + 2_000_000)
    acked = replayer.acked_writes
    unacked = [p for p in replayer.packets if p.is_write and not p.acked]
    outcome = analyzer.verify_cycle(0, acked, unacked)
    print(
        ascii_table(
            ["requests", "ACKed writes", "data failures", "FWA", "IO errors"],
            [
                [
                    replayer.submitted,
                    len(acked),
                    outcome.count(FailureKind.DATA_FAILURE),
                    outcome.count(FailureKind.FWA),
                    outcome.count(FailureKind.IO_ERROR),
                ]
            ],
            title=f"replay of {path.name} on {args.device}"
            + (" (fault injected)" if fault_injected else ""),
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success; 1 shards quarantined without ``--quarantine``;
    2 usage error; 130 interrupted (SIGINT/SIGTERM — with ``--checkpoint``
    the journal is flushed and the run restarts with ``--resume``).
    """
    args = build_parser().parse_args(argv)
    if getattr(args, "resume", False) and not getattr(args, "checkpoint", None):
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if getattr(args, "lease_timeout", None) is not None and not getattr(
        args, "listen", None
    ):
        print("--lease-timeout requires --listen HOST:PORT", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except CampaignInterrupted as exc:
        print(f"[engine] {exc}", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
