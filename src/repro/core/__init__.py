"""The test platform — the paper's primary contribution.

Maps one-to-one onto Fig. 1 of the paper:

- :class:`~repro.core.scheduler.FaultScheduler` — "determines the random
  time instances in which power failure will be occurred" and sends On/Off
  commands down the hardware chain;
- :class:`~repro.workload.generator.IOGenerator` — produces the data-packet
  traffic (lives in :mod:`repro.workload`);
- :class:`~repro.core.analyzer.Analyzer` — checksum comparison and the
  §III-B failure taxonomy (data failure / FWA / IO error);
- :class:`~repro.core.platform.TestPlatform` — the HW/SW co-designed
  harness tying scheduler, generator, analyzer, and the device together;
- :class:`~repro.core.campaign.Campaign` — thousands of injection cycles
  with power restoration, recovery, and verification;
- :mod:`repro.core.calibration` — every constant fitted to a measurement
  the paper reports, with the paper anchor cited.
"""

from repro.core.analyzer import Analyzer, FailureKind, FailureRecord
from repro.core.campaign import Campaign
from repro.core.fleet import merge_by_model, plan_fleet, rank_by_loss, run_fleet
from repro.core.ledger_io import check_ledger, load_ledger, save_ledger
from repro.core.platform import TestPlatform
from repro.core.results import CampaignResult, FaultCycleResult
from repro.core.scheduler import FaultScheduler

__all__ = [
    "Analyzer",
    "Campaign",
    "CampaignResult",
    "FailureKind",
    "FailureRecord",
    "FaultCycleResult",
    "FaultScheduler",
    "TestPlatform",
    "check_ledger",
    "load_ledger",
    "merge_by_model",
    "plan_fleet",
    "rank_by_loss",
    "run_fleet",
    "save_ledger",
]
