"""One benchmark rep in a fresh process.

``python benchmarks/e2e/rep.py WORKLOAD SEED TRACE`` runs one workload and
prints one JSON line: its checked outcome, the setup time summed over the
rep, its peak RSS, and with ``TRACE`` = 1 the per-layer ledger.
``rep.py worker HOST:PORT TRACE`` is the ``serve`` workload's worker
child: a persistent ``repro worker`` whose device-stack setup is timed the
same way, and whose ledger is added to the rep's when ``TRACE`` = 1.
"""

from __future__ import annotations

import json
import resource
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402  (needs the src path above)
import workloads  # noqa: E402


def peak_rss_mib() -> float:
    """Largest RSS of this process and of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_rep(name: str, seed: int, trace: bool, **size) -> dict:
    """One checked workload run; ``size`` shrinks it for tests."""
    book = ledger.Ledger()
    patches = ledger.install(book, full=trace)
    if trace and name == "serve":
        size["trace_worker"] = True
    book.start()
    try:
        outcome = workloads.WORKLOADS[name](seed, **size)
    finally:
        book.stop()
        patches.uninstall()
    report = asdict(outcome)
    del report["child_layers"]
    report["setup_s"] = book.group_s("setup") + outcome.child_setup_s
    report["peak_rss_mib"] = peak_rss_mib()
    report["body_wall_s"] = book.wall_s
    if trace:
        layers = book.report()
        # The worker's spans add to the layers; its idle time is not ours.
        for metric, value in (outcome.child_layers or {}).items():
            if metric != "other.self_s":
                layers[metric] += value
        for counter in ("engine.cas_hits", "engine.cas_misses"):
            layers[counter] = outcome.counts.get(counter, 0)
        report["layers"] = layers
    return report


def run_worker(address: str, trace: bool) -> int:
    book = ledger.Ledger()
    patches = ledger.install(book, full=trace)
    from repro.cli import main as cli_main

    try:
        code = cli_main(
            ["worker", "--connect", address, "--persist", "--connect-timeout", "0"]
        )
    finally:
        patches.uninstall()
    report = {"setup_s": book.group_s("setup")}
    if trace:
        report["layers"] = book.report()
    print(json.dumps(report), flush=True)
    return code


def main(argv) -> int:
    if argv[0] == "worker":
        return run_worker(argv[1], argv[2] == "1")
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    print(json.dumps(run_rep(name, seed, trace), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
