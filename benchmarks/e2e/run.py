"""End-to-end benchmark of the fault-injection stack: run, check, report.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload W]... [--seed 7]
        [--reps 5 | --seconds S] [--trace 0|1] [--json OUT]

Every rep is a fresh ``python`` child process (``rep.py``) running one
workload at ``jobs=1``, the way a user runs ``repro campaign``.  Reps run
one at a time and are interleaved across workloads (rep 1 of each, then
rep 2, ...), so a burst of noise from a neighbour spreads over workloads
instead of sinking one.  ``--reps N`` runs N rounds; ``--seconds S`` runs
rounds while another one fits in S seconds (at least one).  ``--trace 1``
adds one traced rep per workload, which yields the per-layer ledger; no
end-to-end number ever comes from a traced rep.

The metric names, units, directions and bounds live in ``BENCHMARK.json``
at the repository root.  The command prints every metric with its unit,
then, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).  It exits 1 when any output check fails and 2 when
the library sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("campaign", "topology", "dirty_cycle", "apps_wal", "serve")
REP_TIMEOUT_S = 170.0
# A traced rep takes 1.4-1.6x as long as an untraced one.
TRACE_COST = 1.6


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric == "trace_overhead":
        return "fraction"
    if metric.endswith("_ms"):
        return "ms"
    return "s" if metric.endswith("_s") else "count"


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and sample count of one metric."""
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    )
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    # Keep every temporary file inside the checkout.
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    env["TMPDIR"] = str(work)
    return env


def run_rep(workload: str, seed: int, trace: bool) -> dict:
    """One rep in a fresh process; its wall time runs from spawn to exit."""
    started = time.perf_counter()
    # In a process group of its own, so a rep that hangs is killed with
    # its worker child.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), workload, str(seed), str(int(trace))],
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"rep timed out after {REP_TIMEOUT_S:.0f} s"}
    wall_s = time.perf_counter() - started
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-15:])
        return {"error": f"rep exited {proc.returncode}:\n{tail}"}
    rep = json.loads(lines[-1])
    rep["wall_s"] = wall_s
    return rep


class WorkloadRuns:
    """Every rep of one workload, and what they add up to."""

    def __init__(self) -> None:
        self.reps: List[dict] = []
        self.traced: Optional[dict] = None
        self.errors: List[str] = []

    def add(self, rep: dict, traced: bool = False) -> None:
        if "error" in rep:
            self.errors.append(rep["error"])
        elif traced:
            self.traced = rep
        else:
            self.reps.append(rep)

    def every(self) -> List[dict]:
        return self.reps + ([self.traced] if self.traced else [])

    def median_wall(self) -> float:
        return statistics.median(rep["wall_s"] for rep in self.reps)

    def end_to_end(self) -> Dict[str, List[float]]:
        """Per-rep values of the end-to-end metrics (and cycles/sec)."""
        walls = [rep["cycle_wall_s"] or rep["wall_s"] for rep in self.reps]
        return {
            "requests_per_sec": [
                rep["counts"]["result.requests_completed"] / wall
                for rep, wall in zip(self.reps, walls)
            ],
            "setup_s": [rep["setup_s"] for rep in self.reps],
            "peak_rss_mib": [rep["peak_rss_mib"] for rep in self.reps],
            "cycles_per_sec": [
                rep["cycles"] / wall for rep, wall in zip(self.reps, walls)
            ],
        }

    def per_layer(self) -> Dict[str, float]:
        layers = dict(self.traced["layers"])
        untraced = statistics.median(rep["body_wall_s"] for rep in self.reps)
        layers["trace_overhead"] = self.traced["body_wall_s"] / untraced - 1.0
        layers["engine.resubmit_ms"] = statistics.median(
            rep["resubmit_ms"] for rep in self.reps
        )
        return layers

    def problems(self) -> List[str]:
        """Every failed output check, as a line of text."""
        found = list(self.errors)
        every = self.every()
        if not self.reps:
            found.append("no untraced rep completed")
        for rep in every:
            if rep["failed"]:
                found.append(f"{rep['failed']} of {rep['attempted']} operations failed")
        if len({rep["digest"] for rep in every}) > 1:
            found.append("reps disagree on summary_sha256")
        if len({json.dumps(rep["counts"], sort_keys=True) for rep in every}) > 1:
            found.append("reps disagree on exact counts")
        return found

    def attempted(self) -> int:
        return sum(rep["attempted"] for rep in self.every()) + len(self.errors)

    def failed(self) -> int:
        return sum(rep["failed"] for rep in self.every()) + len(self.errors)


def run(
    workloads: List[str], seed: int, reps: Optional[int], seconds: Optional[float],
    trace: bool,
) -> Dict[str, WorkloadRuns]:
    runs = {name: WorkloadRuns() for name in workloads}
    started = time.perf_counter()
    rounds = 0
    while True:
        for name in workloads:
            runs[name].add(run_rep(name, seed, trace=False))
        rounds += 1
        if any(not r.reps for r in runs.values()):
            break
        if reps is not None:
            if rounds >= reps:
                break
            continue
        round_s = sum(r.median_wall() for r in runs.values())
        reserve = TRACE_COST * round_s if trace else 0.0
        if time.perf_counter() - started + round_s + reserve > seconds:
            break
    if trace:
        for name in workloads:
            if runs[name].reps:
                runs[name].add(run_rep(name, seed, trace=True), traced=True)
    return runs


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build_report(runs: Dict[str, WorkloadRuns], spec: dict, args) -> dict:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["cycles_per_sec"] = "cycles/s"
    report = {
        "schema": 1,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "reps": args.reps,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name, wl in runs.items():
        problems = wl.problems()
        entry = {
            "correct": not problems,
            "problems": problems,
            "attempted": wl.attempted(),
            "failed": wl.failed(),
            "error_rate": wl.failed() / max(1, wl.attempted()),
            "summary_sha256": wl.reps[0]["digest"] if wl.reps else None,
            "counts": wl.reps[0]["counts"] if wl.reps else {},
            "metrics": {},
        }
        if wl.reps:
            for metric, values in wl.end_to_end().items():
                entry["metrics"][metric] = {"unit": units[metric], **summarize(values)}
        if wl.traced and wl.reps:
            entry["layers"] = {
                metric: {"unit": layer_unit(metric), "value": value}
                for metric, value in wl.per_layer().items()
            }
        report["workloads"][name] = entry
    return report


def print_table(report: dict) -> None:
    for name, entry in report["workloads"].items():
        verdict = "ok" if entry["correct"] else "FAILED: " + "; ".join(entry["problems"])
        print(
            f"== {name}: {verdict}  (error_rate {entry['error_rate']:.4f}, "
            f"{entry['failed']}/{entry['attempted']} failed, "
            f"summary_sha256 {str(entry['summary_sha256'])[:16]})"
        )
        for metric, m in entry["metrics"].items():
            print(
                f"  {metric:<22} {m['median']:>12.4f} {m['unit']:<9} "
                f"q1 {m['q1']:.4f}  q3 {m['q3']:.4f}  min {m['min']:.4f}  "
                f"max {m['max']:.4f}  n {m['n']}"
            )
        for metric, m in entry.get("layers", {}).items():
            print(f"  {metric:<26} {m['value']:>14.4f} {m['unit']}")


def result_line(report: dict, spec: dict, trace: bool) -> dict:
    """The one-line JSON result: medians (or the traced ledger) by name."""
    entries = report["workloads"]
    several = len(entries) > 1
    metrics = {}
    for name, entry in entries.items():
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        for metric in wanted:
            key = f"{name}.{metric['name']}" if several else metric["name"]
            if trace:
                value = entry.get("layers", {}).get(metric["name"], {}).get("value")
            else:
                value = entry["metrics"].get(metric["name"], {}).get("median")
            if value is not None:
                metrics[key] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": all(entry["correct"] for entry in entries.values()),
        "attempted": sum(entry["attempted"] for entry in entries.values()),
        "failed": sum(entry["failed"] for entry in entries.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--reps", type=int, help="rounds of reps (default 5)")
    budget.add_argument("--seconds", type=float, help="time budget for the reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="OUT", help="write the full report here")
    args = parser.parse_args(argv)
    if args.reps is None and args.seconds is None:
        args.reps = 5
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    workloads = args.workload or list(WORKLOADS)
    runs = run(workloads, args.seed, args.reps, args.seconds, bool(args.trace))
    report = build_report(runs, spec, args)
    for entry in report["workloads"].values():
        for problem in entry["problems"]:
            print(f"benchmark: {problem}", file=sys.stderr)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_table(report)
    line = result_line(report, spec, bool(args.trace))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
