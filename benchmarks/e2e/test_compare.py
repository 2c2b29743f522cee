"""Every verdict ``compare.py`` can reach."""

import json
from pathlib import Path

import compare

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def stats(*values):
    ordered = sorted(values)
    middle = ordered[len(ordered) // 2]
    return {
        "median": middle,
        "q1": ordered[1],
        "q3": ordered[-2],
        "values": list(values),
    }


def test_unchanged_within_the_bound():
    a = stats(10, 10.1, 10.2, 10.3, 10.4)
    b = stats(10.1, 10.2, 10.3, 10.4, 10.5)
    assert compare.verdict(a, b, 0.1, True)[0] == "unchanged"


def test_regressed_beyond_the_bound():
    a = stats(10, 10.1, 10.2, 10.3, 10.4)
    b = stats(8, 8.1, 8.2, 8.3, 8.4)
    assert compare.verdict(a, b, 0.1, True)[0] == "regressed"
    # Lower is better: the same numbers read the other way round.
    assert compare.verdict(a, b, 0.1, False)[0] == "improved"


def test_improved_beyond_the_bound():
    a = stats(10, 10.1, 10.2, 10.3, 10.4)
    b = stats(12, 12.1, 12.2, 12.3, 12.4)
    assert compare.verdict(a, b, 0.1, True)[0] == "improved"


def test_unresolved_when_spread_exceeds_bound_and_runs_overlap():
    a = stats(7, 9, 10, 11, 13)
    b = stats(6, 8, 8.5, 10, 12)
    assert compare.verdict(a, b, 0.1, True)[0] == "unresolved"


def test_separated_runs_resolve_a_wide_spread():
    a = stats(10, 11, 12, 13, 14)
    b = stats(6, 7, 8, 9, 9.5)
    assert compare.verdict(a, b, 0.1, True)[0] == "regressed"


def report(error_rate=0.0, digest="d", counts=None, value=10.0):
    metric = stats(value, value, value, value, value)
    return {
        "workloads": {
            "campaign": {
                "error_rate": error_rate,
                "summary_sha256": digest,
                "counts": counts or {"cycles": 16},
                "metrics": {m["name"]: metric for m in SPEC["end_to_end"]},
                "layers": {"sim.events": {"unit": "count", "value": 5}},
            }
        }
    }


def test_identical_reports_compare_clean():
    lines, regressed = compare.compare(report(), report(), SPEC)
    assert not regressed
    assert all(" unchanged " in line for line in lines)
    assert len(lines) == len(SPEC["end_to_end"])


def test_any_error_rate_rise_regresses():
    lines, regressed = compare.compare(report(), report(error_rate=0.01), SPEC)
    assert regressed
    assert any("error_rate" in line and "regressed" in line for line in lines)


def test_changed_digest_and_counts_are_flagged():
    lines, regressed = compare.compare(
        report(), report(digest="e", counts={"cycles": 15}), SPEC
    )
    assert not regressed
    assert any("CHANGED summary_sha256" in line for line in lines)
    assert any("CHANGED cycles: 16 -> 15" in line for line in lines)
