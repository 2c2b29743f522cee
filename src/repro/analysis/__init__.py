"""Result analysis and report rendering.

- :mod:`repro.analysis.stats` — summary statistics, confidence intervals,
  and the trend tests the benches assert on (flatness for Fig. 6,
  monotonicity for Fig. 7, saturation for Fig. 8);
- :mod:`repro.analysis.report` — ASCII tables and bar series that mirror
  the paper's figures in terminal output.
"""

from repro.analysis.report import ascii_bar_series, ascii_table, paper_vs_measured
from repro.analysis.stats import (
    mean,
    proportion_confidence_interval,
    relative_spread,
    saturation_point,
    stdev,
)

__all__ = [
    "ascii_bar_series",
    "ascii_table",
    "mean",
    "paper_vs_measured",
    "proportion_confidence_interval",
    "relative_spread",
    "saturation_point",
    "stdev",
]
