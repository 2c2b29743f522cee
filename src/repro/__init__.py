"""repro — simulated reproduction of *Investigating Power Outage Effects on
Reliability of Solid-State Drives* (Ahmadian et al., DATE 2018).

The package rebuilds the paper's fault-injection testbed end-to-end in a
discrete-event simulation: an ATX PSU with the measured capacitor-discharge
waveform, Arduino/ATX power actuation, complete SATA SSD models (NAND array
with ISPP and paired pages, journaled FTL, volatile write cache), a host
block layer with blktrace-style tooling, and the paper's Scheduler /
IO Generator / Analyzer software stack.

Quick start::

    from repro import Campaign, TestPlatform, WorkloadSpec

    platform = TestPlatform(WorkloadSpec(read_fraction=0.0), seed=7)
    result = Campaign(platform, faults=10).run()
    print(result.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.core.analyzer import Analyzer, FailureKind, FailureRecord
from repro.core.campaign import Campaign
from repro.core.platform import TestPlatform
from repro.core.results import CampaignResult, FaultCycleResult
from repro.core.scheduler import FaultScheduler
from repro.engine import (
    CampaignPlan,
    run_plan,
    run_plans,
)
from repro.host.system import HostSystem
from repro.power.psu import AtxPsu, DischargeProfile, InstantCutoffPsu
from repro.ssd import models
from repro.ssd.device import SsdConfig, SsdDevice
from repro.workload.generator import IOGenerator
from repro.workload.spec import AccessPattern, WorkloadSpec

__version__ = "1.0.0"

__all__ = [
    "AccessPattern",
    "Analyzer",
    "AtxPsu",
    "Campaign",
    "CampaignPlan",
    "CampaignResult",
    "DischargeProfile",
    "FailureKind",
    "FailureRecord",
    "FaultCycleResult",
    "FaultScheduler",
    "HostSystem",
    "IOGenerator",
    "InstantCutoffPsu",
    "SsdConfig",
    "SsdDevice",
    "TestPlatform",
    "WorkloadSpec",
    "models",
    "run_plan",
    "run_plans",
    "__version__",
]
