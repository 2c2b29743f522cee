#!/usr/bin/env python3
"""Record/replay + diskchecker workflow on the simulated testbed.

Shows the two downstream-user features beyond the paper's experiments:

1. **Trace capture & replay** — run any workload once, capture its request
   stream from the block-layer tracer, persist it, and replay it bit-exact
   on a different device model.
2. **Durable write ledger + standalone checker** — the writer appends every
   acknowledged request to a JSON-lines ledger (as diskchecker-style
   scripts do on a second machine); after the power fault and reboot, the
   checker replays the ledger against the device with the paper's §III-B
   taxonomy.

Run:
    python examples/trace_replay_checker.py
"""

import tempfile
from pathlib import Path

from repro.core.analyzer import FailureKind
from repro.core.ledger_io import check_ledger, load_ledger, save_ledger
from repro.host import HostSystem
from repro.rand import RandomStreams
from repro.ssd import models
from repro.units import GIB
from repro.workload import IOGenerator, WorkloadSpec
from repro.workload.replay import TraceReplayer, capture_trace


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-replay-"))
    trace_path = workdir / "workload.trace.jsonl"
    ledger_path = workdir / "writes.ledger.jsonl"

    # ---- 1. capture a workload on drive A --------------------------------
    print("capturing a 150 ms write burst on ssd-a ...")
    source = HostSystem(config=models.ssd_a(), seed=51)
    source.boot()
    generator = IOGenerator(
        source, WorkloadSpec(wss_bytes=4 * GIB, outstanding=8), RandomStreams(5)
    )
    generator.start()
    source.run_for_ms(150)
    generator.stop()
    trace = capture_trace(source.tracer)
    trace.save(trace_path)
    print(f"  captured {len(trace)} requests "
          f"({trace.write_fraction:.0%} writes) -> {trace_path.name}")

    # ---- 2. replay it on drive B, logging a durable ledger ---------------
    print("replaying the trace on ssd-b, journaling every request ...")
    target = HostSystem(config=models.ssd_b(), seed=52)
    target.boot()
    replayer = TraceReplayer(target, trace)
    replayer.start()
    target.run_for(trace.duration_us + 50_000)
    save_ledger(replayer.packets, ledger_path)
    print(f"  {len(replayer.acked_writes)}/{len(trace)} writes ACKed; "
          f"ledger -> {ledger_path.name}")

    # ---- 3. power fault + reboot ------------------------------------------
    print("cutting power mid-workload aftermath ...")
    target.cut_power()
    target.run_for_ms(1500)
    target.restore_power()
    target.wait_until_ready()

    # ---- 4. the standalone checker ---------------------------------------
    print("running the diskchecker-style verification pass ...")
    outcome = check_ledger(target.ssd.peek_run, load_ledger(ledger_path))
    print(f"  packets checked : {outcome.packets_checked}")
    for kind in FailureKind:
        print(f"  {kind.value:18s}: {outcome.count(kind)}")
    if outcome.records:
        sample = outcome.records[0]
        print(
            f"  e.g. packet #{sample.packet_id} at LPN {sample.lpn}: "
            f"{sample.kind.value}"
        )
    print(f"\nartifacts kept in {workdir}")


if __name__ == "__main__":
    main()
