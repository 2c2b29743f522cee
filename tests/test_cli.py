"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.device == "ssd-a"
        assert args.faults == 10
        assert args.read_pct == 0

    def test_campaign_options(self):
        args = build_parser().parse_args(
            [
                "campaign",
                "--device",
                "ssd-b",
                "--faults",
                "3",
                "--sequence",
                "WAW",
                "--iops",
                "5000",
            ]
        )
        assert args.device == "ssd-b"
        assert args.sequence == "WAW"
        assert args.iops == 5000.0

    def test_bad_sequence_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--sequence", "XAX"])

    def test_campaign_engine_flags(self):
        args = build_parser().parse_args(["campaign", "--jobs", "4"])
        assert args.jobs == 4
        assert args.shard_faults == 2  # fixed shard plan, independent of jobs
        assert build_parser().parse_args(["campaign"]).jobs == 1

    def test_fleet_jobs_flag(self):
        assert build_parser().parse_args(["fleet", "--jobs", "2"]).jobs == 2
        assert build_parser().parse_args(["fleet"]).jobs == 1

    def test_discharge_load_flags(self):
        assert build_parser().parse_args(["discharge"]).load is True
        assert build_parser().parse_args(["discharge", "--no-load"]).load is False

    @pytest.mark.parametrize("command", ["campaign", "fleet"])
    def test_fault_tolerance_flag_defaults(self, command):
        args = build_parser().parse_args([command])
        assert args.checkpoint is None
        assert args.resume is False
        assert args.max_retries == 2
        assert args.quarantine is False
        assert args.shard_timeout is None

    @pytest.mark.parametrize("command", ["campaign", "fleet"])
    def test_fault_tolerance_flags_parse(self, command, tmp_path):
        args = build_parser().parse_args(
            [
                command,
                "--checkpoint", str(tmp_path / "ck.jsonl"),
                "--resume",
                "--max-retries", "5",
                "--quarantine",
                "--shard-timeout", "90",
            ]
        )
        assert args.checkpoint.endswith("ck.jsonl")
        assert args.resume is True
        assert args.max_retries == 5
        assert args.quarantine is True
        assert args.shard_timeout == 90.0

    @pytest.mark.parametrize("command", ["campaign", "fleet"])
    def test_trace_flag(self, command, tmp_path):
        assert build_parser().parse_args([command]).trace is None
        args = build_parser().parse_args(
            [command, "--trace", str(tmp_path / "run.trace.jsonl")]
        )
        assert args.trace.endswith("run.trace.jsonl")

    def test_trace_report_subcommand(self):
        args = build_parser().parse_args(["trace", "report", "run.trace.jsonl"])
        assert args.trace_command == "report"
        assert args.path == "run.trace.jsonl"
        assert args.top == 5
        assert args.follow is False
        assert args.interval is None
        assert build_parser().parse_args(
            ["trace", "report", "x", "--top", "3"]
        ).top == 3
        with pytest.raises(SystemExit):  # the subcommand is required
            build_parser().parse_args(["trace"])

    def test_trace_report_follow_flags(self):
        args = build_parser().parse_args(
            ["trace", "report", "run.trace.jsonl", "--follow", "--interval", "0.5"]
        )
        assert args.follow is True
        assert args.interval == 0.5

    def test_fleet_progress_flag(self):
        assert build_parser().parse_args(["fleet", "--progress"]).progress is True
        assert build_parser().parse_args(["fleet"]).progress is False

    def test_smart_json_flag(self):
        args = build_parser().parse_args(["smart", "--json"])
        assert args.json is True

    def test_stress_dirty_cycle_accepts_acceptance_flags(self):
        args = build_parser().parse_args(
            [
                "stress", "dirty-cycle",
                "--repeat", "25",
                "--seed", "7",
                "--device", "ssd-a",
                "--jobs", "4",
                "--shard-cycles", "2",
                "--qdepth", "16",
                "--recovery-fault-every", "5",
                "--wss-gib", "1",
            ]
        )
        assert args.command == "stress"
        assert args.stress_command == "dirty-cycle"
        assert args.repeat == 25
        assert args.seed == 7
        assert args.jobs == 4
        assert args.shard_cycles == 2
        assert args.recovery_fault_every == 5

    def test_stress_dirty_cycle_fault_tolerance_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "stress", "dirty-cycle",
                "--checkpoint", str(tmp_path / "ck.jsonl"),
                "--resume",
                "--cmdlog", str(tmp_path / "logs"),
                "--max-retries", "2",
                "--quarantine",
            ]
        )
        assert args.resume is True
        assert args.quarantine is True
        assert args.cmdlog == str(tmp_path / "logs")

    def test_checkpoint_compact_subcommand(self):
        args = build_parser().parse_args(["checkpoint", "compact", "ck.jsonl"])
        assert args.checkpoint_command == "compact"
        assert args.path == "ck.jsonl"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["checkpoint"])


class TestCommands:
    def test_list_devices(self, capsys):
        assert main(["list-devices"]) == 0
        out = capsys.readouterr().out
        assert "ssd-a" in out
        assert "ssd-b" in out
        assert "LDPC" in out

    def test_discharge_output(self, capsys):
        assert main(["discharge", "--no-load", "--samples", "8"]) == 0
        out = capsys.readouterr().out
        assert "unloaded" in out
        assert "5.00" in out  # starts at nominal

    def test_campaign_small(self, capsys):
        code = main(
            [
                "campaign",
                "--device",
                "ssd-a",
                "--faults",
                "2",
                "--wss-gib",
                "4",
                "--per-cycle",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign summary" in out
        assert "loss_per_fault" in out

    def test_campaign_parallel_matches_serial(self, capsys):
        argv = [
            "campaign",
            "--device",
            "ssd-a",
            "--faults",
            "2",
            "--wss-gib",
            "4",
            "--shard-faults",
            "1",
        ]
        assert main(argv + ["--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # The summary table (failure counts included) must be identical.
        assert serial_out.split("campaign summary")[1] == (
            parallel_out.split("campaign summary")[1]
        )

    def test_resume_without_checkpoint_is_usage_error(self, capsys):
        assert main(["campaign", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_campaign_checkpoint_then_resume(self, capsys, tmp_path):
        argv = [
            "campaign",
            "--faults", "2",
            "--shard-faults", "1",
            "--wss-gib", "4",
            "--checkpoint", str(tmp_path / "ck.jsonl"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr()
        # Same summary table, but every shard served from the journal.
        assert first.out.split("campaign summary")[1] == (
            second.out.split("campaign summary")[1]
        )
        assert "2 resumed from checkpoint" in second.err

    def test_quarantine_flag_controls_exit_code(self, capsys, monkeypatch):
        from repro.engine.executors import TEST_FAULT_ENV

        monkeypatch.setenv(TEST_FAULT_ENV, "crash:0:*")
        argv = [
            "campaign",
            "--faults", "2",
            "--shard-faults", "1",
            "--wss-gib", "4",
            "--max-retries", "0",
        ]
        # The campaign always completes (degraded); the flag only decides
        # whether a quarantined shard is an error exit.
        assert main(argv) == 1
        first = capsys.readouterr()
        assert "campaign summary" in first.out
        assert "1 quarantined" in first.err
        assert main(argv + ["--quarantine"]) == 0

    def test_serve_hands_the_service_a_retry_policy(self, monkeypatch, tmp_path):
        from types import SimpleNamespace

        from repro.engine import RetryPolicy
        from repro.engine import serve
        from repro.engine.wire import DEFAULT_LEASE_TIMEOUT_S

        built = {}

        class StoppedService:
            """Records its settings and stops as soon as it starts."""

            host, port, submissions_total, _thread = "127.0.0.1", 0, 0, None

            def __init__(self, **kwargs):
                built.update(kwargs)
                self.cas = SimpleNamespace(root=tmp_path, schema=0, stats=dict)

            def start(self):
                pass

            def stop(self):
                pass

            def _announce(self, line):
                pass

        monkeypatch.setattr(serve, "CampaignService", StoppedService)
        argv = ["serve", "--cas", str(tmp_path), "--max-retries", "0"]
        assert main(argv) == 0
        assert built["policy"] == RetryPolicy(max_retries=0)
        assert built["lease_timeout_s"] == DEFAULT_LEASE_TIMEOUT_S
        assert main(["serve", "--cas", str(tmp_path)]) == 0
        assert built["policy"] == RetryPolicy()

    def test_campaign_trace_then_report(self, capsys, tmp_path):
        trace = tmp_path / "run.trace.jsonl"
        assert main(
            [
                "campaign",
                "--faults", "2",
                "--shard-faults", "1",
                "--wss-gib", "4",
                "--trace", str(trace),
            ]
        ) == 0
        capsys.readouterr()
        assert trace.exists()
        assert main(["trace", "report", str(trace), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "trace report:" in out
        assert "2 shard(s)" in out
        assert "shard duration:" in out
        assert "retries: 0" in out

    def test_trace_report_missing_file(self, capsys, tmp_path):
        assert main(["trace", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_fleet_progress_reaches_stderr(self, capsys, tmp_path):
        # Regression: --progress used to hand the engine only the trace
        # writer, so the console hook never saw a single shard event.
        trace = tmp_path / "fleet.trace.jsonl"
        code = main(
            ["fleet", "--faults", "2", "--wss-gib", "2", "--progress",
             "--trace", str(trace)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "[engine] shard-finished" in err
        assert "[engine] plan-finished" in err
        assert trace.exists()  # the trace still records the same run

    def test_interval_requires_follow(self, capsys, tmp_path):
        assert main(
            ["trace", "report", str(tmp_path / "x.jsonl"), "--interval", "1"]
        ) == 2
        assert "--interval requires --follow" in capsys.readouterr().err

    def test_follow_completed_trace_matches_posthoc(self, capsys, tmp_path):
        trace = tmp_path / "run.trace.jsonl"
        assert main(
            ["campaign", "--faults", "2", "--shard-faults", "1",
             "--wss-gib", "4", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "report", str(trace)]) == 0
        posthoc = capsys.readouterr().out
        # Following an already-finished trace exits immediately with the
        # exact same report on stdout.
        assert main(
            ["trace", "report", str(trace), "--follow", "--interval", "0"]
        ) == 0
        followed = capsys.readouterr()
        assert followed.out == posthoc
        assert "[follow]" in followed.err

    def test_trace_report_directory_mode(self, capsys, tmp_path):
        for name in ("a", "b"):
            assert main(
                ["campaign", "--faults", "1", "--wss-gib", "4",
                 "--trace", str(tmp_path / f"{name}.trace.jsonl")]
            ) == 0
        capsys.readouterr()
        assert main(["trace", "report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== a.trace.jsonl ==" in out
        assert "== b.trace.jsonl ==" in out

    def test_trace_report_empty_directory(self, capsys, tmp_path):
        assert main(["trace", "report", str(tmp_path)]) == 2
        assert "no trace files" in capsys.readouterr().err

    def test_trace_report_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.trace.jsonl"
        path.write_text("")
        assert main(["trace", "report", str(path)]) == 1
        assert "no records" in capsys.readouterr().err

    def test_checkpoint_compact_flow(self, capsys, tmp_path):
        journal = tmp_path / "ck.jsonl"
        argv = [
            "campaign",
            "--faults", "2",
            "--shard-faults", "1",
            "--wss-gib", "4",
            "--checkpoint", str(journal),
        ]
        assert main(argv) == 0  # journals 2 shards
        assert main(argv) == 0  # no --resume: journals 2 duplicates
        capsys.readouterr()
        assert main(["checkpoint", "compact", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "4 -> 2 records" in out
        assert "2 duplicates" in out
        # The compacted journal still resumes the run in full.
        assert main(argv + ["--resume"]) == 0
        assert "2 resumed from checkpoint" in capsys.readouterr().err

    def test_checkpoint_compact_missing_file(self, capsys, tmp_path):
        assert main(["checkpoint", "compact", str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_post_ack_bad_intervals(self, capsys):
        assert main(["post-ack", "--intervals", "abc"]) == 2
        assert main(["post-ack", "--intervals", ""]) == 2

    def test_smart_command(self, capsys):
        assert main(["smart", "--device", "ssd-a", "--faults", "1"]) == 0
        out = capsys.readouterr().out
        assert "Unexpect_Power_Loss_Ct" in out
        assert "Power_Cycle_Count" in out

    def test_smart_json_output(self, capsys):
        import json

        assert main(["smart", "--device", "ssd-a", "--faults", "2", "--json"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["Unsafe_Shutdown_Ct"] == 2
        assert log["Unexpect_Power_Loss_Ct"] == 2

    def test_stress_dirty_cycle_small(self, capsys, tmp_path):
        assert (
            main(
                [
                    "stress", "dirty-cycle",
                    "--repeat", "2",
                    "--seed", "7",
                    "--wss-gib", "1",
                    "--qdepth", "8",
                    "--per-cycle",
                    "--cmdlog", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "dirty-cycle summary" in out
        assert "unsafe_shutdowns" in out
        assert (tmp_path / "shard0000.cmdlog.jsonl").is_file()

    def test_fleet_command(self, capsys):
        assert main(["fleet", "--faults", "1", "--wss-gib", "2"]) == 0
        out = capsys.readouterr().out
        assert "merged per model" in out
        assert "ssd-a" in out and "ssd-b" in out and "ssd-c" in out

    def test_replay_command(self, capsys, tmp_path):
        from repro.workload.replay import TraceRecord, WorkloadTrace

        trace = WorkloadTrace(
            [TraceRecord(i * 1000, i * 8, 2, True) for i in range(10)]
        )
        path = tmp_path / "t.jsonl"
        trace.save(path)
        assert main(["replay", str(path), "--device", "ssd-a"]) == 0
        out = capsys.readouterr().out
        assert "replay of t.jsonl" in out
        assert "ACKed writes" in out

    def test_replay_with_fault(self, capsys, tmp_path):
        from repro.workload.replay import TraceRecord, WorkloadTrace

        trace = WorkloadTrace(
            [TraceRecord(i * 2000, i * 8, 1, True) for i in range(50)]
        )
        path = tmp_path / "t.jsonl"
        trace.save(path)
        assert main(["replay", str(path), "--fault-ms", "40"]) == 0
        out = capsys.readouterr().out
        assert "fault injected" in out

    def test_replay_missing_file(self, capsys):
        assert main(["replay", "/nonexistent/trace.jsonl"]) == 2

    def test_replay_blkparse_input(self, capsys, tmp_path):
        path = tmp_path / "t.blkparse"
        path.write_text(
            "  8,0 0 1 0.001000000 1 Q W 2048 + 8 [x]\n"
            "  8,0 0 2 0.002000000 1 Q W 4096 + 8 [x]\n"
        )
        assert main(["replay", str(path), "--blkparse"]) == 0

    def test_replay_empty_trace(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["replay", str(path)]) == 2

    @pytest.mark.parametrize(
        "damaged", ['{"t": 0, "lpn": 8, "pa', '{"t": 0, "lpn": 8, "w": true}'],
        ids=["torn", "missing-field"],
    )
    def test_replay_damaged_trace_is_a_usage_error(self, capsys, tmp_path, damaged):
        path = tmp_path / "t.jsonl"
        path.write_text('{"t": 0, "lpn": 0, "pages": 1, "w": true}\n' + damaged + "\n")
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "t.jsonl:2:" in err
        assert len(err.splitlines()) == 1


# -- the run-command contract --------------------------------------------------------

ENGINE_DEFAULTS = {
    "per_cycle": False,
    "jobs": 1,
    "progress": False,
    "checkpoint": None,
    "resume": False,
    "max_retries": 2,
    "quarantine": False,
    "shard_timeout": None,
    "trace": None,
    "listen": None,
    "lease_timeout": None,
}

CAMPAIGN_FLAG_DEFAULTS = {
    "device": "ssd-a",
    "faults": 10,
    "seed": 1,
    "wss_gib": 16,
    "read_pct": 0,
    "size_min_kib": 4,
    "size_max_kib": 1024,
    "pattern": "random",
    "sequence": None,
    "iops": None,
    "shard_faults": 2,
}


def _campaign_plan():
    from repro.engine import CampaignPlan
    from repro.ssd import models
    from repro.units import GIB
    from repro.workload.spec import WorkloadSpec

    return CampaignPlan(
        spec=WorkloadSpec(wss_bytes=2 * GIB),
        faults=2,
        device=models.by_name("ssd-a"),
        base_seed=1,
        shard_faults=1,
    )


def _dirty_cycle_plan():
    from repro.ssd import models
    from repro.stress import DirtyCyclePlan
    from repro.units import GIB, KIB
    from repro.workload.spec import WorkloadSpec

    return DirtyCyclePlan(
        spec=WorkloadSpec(wss_bytes=1 * GIB, size_max_bytes=64 * KIB),
        faults=2,
        device=models.by_name("ssd-a"),
        base_seed=7,
        shard_faults=2,
        qdepth=8,
    )


def _topology_plan():
    from repro.cache.flush import FlushPolicy
    from repro.ssd import models
    from repro.topology import TopologyPlan
    from repro.units import GIB, KIB
    from repro.workload.spec import WorkloadSpec

    return TopologyPlan(
        spec=WorkloadSpec(wss_bytes=1 * GIB, size_max_bytes=64 * KIB),
        faults=2,
        device=models.by_name("ssd-c"),
        base_seed=7,
        shard_faults=2,
        destage=FlushPolicy(batch_pages=64, max_dirty_pages=256),
    )


def _app_plan():
    from repro.apps import AppPlan
    from repro.ssd import models
    from repro.units import MSEC
    from repro.workload.spec import WorkloadSpec

    return AppPlan(
        spec=WorkloadSpec(),
        faults=2,
        device=models.by_name("ssd-c"),
        base_seed=7,
        shard_faults=1,
        warmup_us=30 * MSEC,
        fault_window_us=120 * MSEC,
        app_fsync=False,
    )


RUN_CONTRACTS = {
    "campaign": dict(
        command=["campaign"],
        defaults=dict(CAMPAIGN_FLAG_DEFAULTS, command="campaign"),
        argv=["--faults", "2", "--shard-faults", "1", "--wss-gib", "2"],
        banner="running 2 faults against ",
        cycle_columns=["cycle", "completed", "data failures", "FWA", "IO errors"],
        title="campaign summary",
        extra_totals={},
        plan=_campaign_plan,
    ),
    "dirty-cycle": dict(
        command=["stress", "dirty-cycle"],
        defaults={
            "command": "stress",
            "stress_command": "dirty-cycle",
            "device": "ssd-a",
            "repeat": 10,
            "seed": 1,
            "wss_gib": 4,
            "read_pct": 0,
            "size_min_kib": 4,
            "size_max_kib": 64,
            "pattern": "random",
            "iops": None,
            "qdepth": 64,
            "flush_every": 0,
            "write_zeroes_pct": 0,
            "recovery_fault_every": 0,
            "cmdlog": None,
            "shard_cycles": 2,
        },
        argv=["--repeat", "2", "--seed", "7", "--wss-gib", "1", "--qdepth", "8"],
        banner="running 2 dirty power cycles against ",
        cycle_columns=[
            "cycle", "acked", "intact", "FWA", "data loss", "IO err", "unsafe",
        ],
        title="dirty-cycle summary",
        extra_totals={
            "unsafe_shutdowns": "unsafe_shutdowns",
            "intact_writes": "intact_writes",
        },
        plan=_dirty_cycle_plan,
    ),
    "topology": dict(
        command=["topology", "run"],
        defaults={
            "command": "topology",
            "topology_command": "run",
            "policy": "wb",
            "mirror_cache": False,
            "shared_power": False,
            "device": "ssd-a",
            "faults": 6,
            "seed": 1,
            "wss_gib": 1,
            "size_min_kib": 4,
            "size_max_kib": 64,
            "outstanding": 32,
            "destage_batch": 64,
            "max_dirty": 256,
            "shard_cycles": 2,
        },
        argv=["--device", "ssd-c", "--faults", "2", "--seed", "7"],
        banner="running 2 topology faults against ",
        cycle_columns=[
            "cycle", "acked", "intact", "recovered", "app loss", "IO err", "unsafe",
        ],
        title="topology summary",
        extra_totals={
            "intact_writes": "intact_writes",
            "topology_recovered": "topology_recovered",
            "app_visible_loss": "fwa_failures",
            "unsafe_shutdowns": "unsafe_shutdowns",
        },
        plan=_topology_plan,
    ),
    "apps": dict(
        command=["apps", "run"],
        defaults={
            "command": "apps",
            "apps_command": "run",
            "app": "wal",
            "device": "ssd-a",
            "faults": 8,
            "seed": 1,
            "journal_blocks": 64,
            "no_fsync": False,
            "no_checksums": False,
            "warmup_ms": 40,
            "fault_window_ms": 150,
            "explain": None,
            "shard_cycles": 2,
        },
        argv=[
            "--no-fsync", "--device", "ssd-c", "--faults", "2", "--shard-cycles", "1",
            "--seed", "7", "--warmup-ms", "30", "--fault-window-ms", "120",
        ],
        banner="running 2 app fault cycles against ",
        cycle_columns=[
            "cycle", "promises", "intact", "torn-rec", "loss", "silent", "rec-fail",
        ],
        title="apps summary",
        extra_totals={
            "app_promises": "app_promises",
            "app_intact": "app_intact",
            "app_torn_recovered": "app_torn_recovered",
            "app_committed_loss": "app_committed_loss",
            "app_silent_corruption": "app_silent_corruption",
            "app_recovery_failed": "app_recovery_failed",
        },
        plan=_app_plan,
    ),
}


def _parsed_defaults(argv):
    parsed = vars(build_parser().parse_args(argv))
    parsed.pop("handler", None)
    return parsed


def _cells(line):
    return [cell.strip() for cell in line.split(" | ")]


def _expected_summary(result, extra_totals):
    expected = dict(result.summary())
    for column, attribute in extra_totals.items():
        expected[column] = getattr(result, attribute)
    return expected


def _assert_summary_table(lines, title, expected):
    at = lines.index(title)
    assert _cells(lines[at + 1]) == list(expected)
    assert set(lines[at + 2]) <= {"-", "+"}
    assert _cells(lines[at + 3]) == [str(value) for value in expected.values()]


class TestRunContract:
    """What each run command prints, pinned without calibrated numbers."""

    @pytest.mark.parametrize("kind", list(RUN_CONTRACTS))
    def test_defaults_banner_tables_and_summary(self, kind, capsys):
        from repro.engine import run_plan

        contract = RUN_CONTRACTS[kind]
        assert _parsed_defaults(contract["command"]) == dict(
            contract["defaults"], **ENGINE_DEFAULTS
        )
        assert main(contract["command"] + contract["argv"] + ["--per-cycle"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(contract["banner"])
        assert lines[0].endswith(" shards, jobs=1) ...")
        assert _cells(lines[1]) == contract["cycle_columns"]
        result = run_plan(contract["plan"]())
        assert len(lines) == 1 + 2 + len(result.cycles) + 4
        _assert_summary_table(
            lines,
            contract["title"],
            _expected_summary(result, contract["extra_totals"]),
        )

    def test_submit(self, capsys, tmp_path):
        from repro.engine import run_plan
        from repro.engine.serve import CampaignService
        from tests.engine_faults import drain_workers, FAST, spawn_worker

        parsed = _parsed_defaults(["submit", "--connect", "127.0.0.1:1"])
        assert parsed == dict(
            CAMPAIGN_FLAG_DEFAULTS,
            command="submit",
            connect="127.0.0.1:1",
            connect_timeout=10.0,
            progress=False,
        )
        service = CampaignService(
            cas_root=tmp_path / "cas", policy=FAST, lease_timeout_s=15.0, announce=None
        )
        service.start()
        workers = [spawn_worker(service.port, persist=True, connect_timeout_s=3.0)]
        try:
            code = main(
                ["submit", "--connect", f"127.0.0.1:{service.port}"]
                + RUN_CONTRACTS["campaign"]["argv"]
            )
        finally:
            service.stop()
            drain_workers(workers)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("submitting 2 faults against ")
        assert lines[0].endswith(f"(2 shards) to 127.0.0.1:{service.port} ...")
        assert len(lines) == 5
        _assert_summary_table(
            lines, "campaign summary", run_plan(_campaign_plan()).summary()
        )


class TestDomainErrors:
    """A bad preset or budget is a usage error (exit 2), not a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["campaign", "--device", "nope"], "unknown device preset 'nope'"),
            (["stress", "dirty-cycle", "--repeat", "0"], "positive fault budget"),
            (["topology", "run", "--faults", "0"], "positive fault budget"),
            (["apps", "run", "--shard-cycles", "0"], "shard_faults must be positive"),
            (
                ["submit", "--connect", "127.0.0.1:1", "--device", "nope"],
                "unknown device preset 'nope'",
            ),
        ],
        ids=["campaign", "dirty-cycle", "topology", "apps", "submit"],
    )
    def test_bad_domain_input_exits_2(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("repro: error: ")
        assert message in line


# -- kill and resume -----------------------------------------------------------------

RESUME_ARGV = {
    "campaign": ["campaign", "--faults", "6", "--shard-faults", "1", "--wss-gib", "4"],
    "dirty-cycle": [
        "stress", "dirty-cycle",
        "--repeat", "4",
        "--shard-cycles", "1",
        "--seed", "7",
        "--wss-gib", "1",
        "--qdepth", "16",
        "--recovery-fault-every", "2",
    ],
    "topology": [
        "topology", "run",
        "--policy", "wb",
        "--mirror-cache",
        "--faults", "4",
        "--shard-cycles", "1",
        "--seed", "11",
        "--outstanding", "8",
    ],
    "apps": [
        "apps", "run",
        "--app", "wal",
        "--no-fsync",
        "--faults", "4",
        "--shard-cycles", "1",
        "--seed", "11",
        "--warmup-ms", "30",
        "--fault-window-ms", "120",
    ],
}


class TestKillAndResumeCli:
    """The headline acceptance test, for every plan kind: SIGTERM mid-run,
    then ``--resume`` produces a merged result identical to an
    uninterrupted run."""

    @pytest.mark.parametrize("args", list(RESUME_ARGV.values()), ids=list(RESUME_ARGV))
    def test_sigterm_then_resume_matches_uninterrupted(self, args, tmp_path):
        from tests.engine_faults import (
            cli_env,
            interrupt_after_first_commit,
            run_cli,
            summary_table,
        )

        env = cli_env()
        checkpoint = tmp_path / "ck.jsonl"
        code, err = interrupt_after_first_commit(
            args + ["--jobs", "2", "--checkpoint", str(checkpoint)], checkpoint, env
        )
        interrupted = code == 130
        if interrupted:
            assert "interrupted by SIGTERM" in err
            assert checkpoint.stat().st_size > 0
        else:
            # Very fast machine: the run completed before the signal landed.
            assert code == 0

        resumed = run_cli(
            args + ["--jobs", "2", "--checkpoint", str(checkpoint), "--resume"], env
        )
        assert resumed.returncode == 0, resumed.stderr
        baseline = run_cli(args + ["--jobs", "1"], env)
        assert baseline.returncode == 0, baseline.stderr
        assert summary_table(resumed.stdout) == summary_table(baseline.stdout)
        if interrupted:
            assert "resumed from checkpoint" in resumed.stderr


class TestWedgedWorkerCli:
    def test_wedged_shard_is_killed_and_the_run_exits(self):
        # The wedged worker sleeps for 10 minutes; the 2 s shard timeout
        # must kill it, retry the shard, and let the interpreter exit.
        from repro.engine.executors import TEST_FAULT_ENV
        from tests.engine_faults import cli_env, run_cli, summary_table

        env = cli_env()
        env.pop(TEST_FAULT_ENV, None)
        args = ["campaign", "--faults", "4", "--shard-faults", "1", "--wss-gib", "1"]
        wedged = dict(env, **{TEST_FAULT_ENV: "hang:1:1:600"})
        run = run_cli(
            args + ["--jobs", "2", "--shard-timeout", "2"], wedged, timeout=30
        )
        assert run.returncode == 0, run.stderr
        baseline = run_cli(args + ["--jobs", "1"], env)
        assert baseline.returncode == 0, baseline.stderr
        assert summary_table(run.stdout) == summary_table(baseline.stdout)
