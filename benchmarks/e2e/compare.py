"""Compare two benchmark reports: ``compare.py A.json B.json``.

``A`` is the parent (or the first set of runs), ``B`` the change.  For
every end-to-end metric and workload the verdict is one of:

- ``unresolved``: the spread of either side (quartile distance over the
  median) is wider than the metric's bound, and the runs overlap;
- ``regressed`` / ``improved``: B's median is worse / better than A's by
  more than the bound (the printed change is positive when B is better);
- ``unchanged``: otherwise.

When every run of one side beats every run of the other, a spread wider
than the bound no longer makes the verdict unresolved.  Bounds come from
``BENCHMARK.json``.  Any rise in ``error_rate`` is a regression.  A changed
``summary_sha256`` or exact count is flagged: a change that only claims
speed must leave every simulated number as it was.  Exits 1 when anything
regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, bound: float, higher_is_better: bool) -> Tuple[str, float]:
    """The verdict on one metric of one workload, and B's relative change."""
    sign = 1.0 if higher_is_better else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    b_wins = min(sign * v for v in b["values"]) > max(sign * v for v in a["values"])
    a_wins = min(sign * v for v in a["values"]) > max(sign * v for v in b["values"])
    if spread > bound and not (a_wins or b_wins):
        return "unresolved", change
    if change < -bound:
        return "regressed", change
    if change > bound:
        return "improved", change
    return "unchanged", change


def exact_counts(entry: dict) -> Dict[str, float]:
    """Counts that repeat exactly for one version of the program."""
    counts = dict(entry.get("counts", {}))
    for name, metric in entry.get("layers", {}).items():
        if metric["unit"] == "count":
            counts[name] = metric["value"]
    return counts


def compare(a: dict, b: dict, spec: dict) -> Tuple[List[str], bool]:
    """Report lines, and whether anything regressed."""
    lines: List[str] = []
    regressed = False
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in wa["metrics"] or name not in wb["metrics"]:
                continue
            ma, mb = wa["metrics"][name], wb["metrics"][name]
            result, change = verdict(
                ma, mb, metric["bound"], metric["better"] == "higher"
            )
            regressed |= result == "regressed"
            lines.append(
                f"{workload:<12} {name:<16} {result:<10} {ma['median']:.4f} -> "
                f"{mb['median']:.4f} {metric['unit']} ({change:+.1%}, "
                f"bound {metric['bound']:.0%})"
            )
        if wb["error_rate"] > wa["error_rate"]:
            regressed = True
            lines.append(
                f"{workload:<12} error_rate       regressed  "
                f"{wa['error_rate']:.4f} -> {wb['error_rate']:.4f}"
            )
        if wa["summary_sha256"] != wb["summary_sha256"]:
            lines.append(f"{workload:<12} CHANGED summary_sha256")
        ca, cb = exact_counts(wa), exact_counts(wb)
        for name in sorted(set(ca) & set(cb)):
            if ca[name] != cb[name]:
                lines.append(f"{workload:<12} CHANGED {name}: {ca[name]} -> {cb[name]}")
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="report of the parent, from run.py --json")
    parser.add_argument("b", help="report of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    lines, regressed = compare(a, b, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
