"""The TestPlatform: hardware-software co-designed harness (paper Fig. 1).

One object wiring every part of the paper's platform together:

- the hardware part — independent PSU, Arduino UNO, ATX control — inside
  the :class:`~repro.host.system.HostSystem`'s power chain;
- the software part — Scheduler, IO Generator, Analyzer — as first-class
  members.

``TestPlatform`` is what examples and benches instantiate; the
:class:`~repro.core.campaign.Campaign` drives it through injection cycles.
"""

from __future__ import annotations

from typing import Optional

from repro.core.analyzer import Analyzer
from repro.core.scheduler import FaultScheduler
from repro.host.system import HostSystem
from repro.power.controller import PowerController
from repro.rand import RandomStreams
from repro.sim import Kernel
from repro.ssd.device import SsdConfig
from repro.workload.generator import IOGenerator
from repro.workload.spec import WorkloadSpec


class TestPlatform:
    """Fault-injection platform for one device under test.

    (The name mirrors the paper's "proposed test platform"; ``__test__``
    stops pytest from trying to collect it as a test class.)

    Example
    -------
    >>> from repro.workload import WorkloadSpec
    >>> platform = TestPlatform(WorkloadSpec(), seed=11)
    >>> platform.boot()
    >>> platform.generator.start()
    >>> platform.host.run_for_ms(100)
    >>> platform.generator.completions > 0
    True
    """

    __test__ = False  # not a pytest test class despite the Test* name

    def __init__(
        self,
        spec: WorkloadSpec,
        config: Optional[SsdConfig] = None,
        seed: int = 0,
        psu_factory=None,
    ) -> None:
        self.streams = RandomStreams(seed)
        kernel = Kernel()
        psu = psu_factory(kernel) if psu_factory is not None else None
        self.host = HostSystem(
            config=config,
            seed=seed,
            kernel=kernel,
            power=PowerController(kernel, psu),
        )
        self.spec = spec
        self.scheduler = FaultScheduler(
            self.host.kernel, self.host.power, self.streams.stream("faults")
        )
        self.generator = IOGenerator(self.host, spec, self.streams.fork("workload"))
        self.analyzer = Analyzer(self.host)

    # -- conveniences -------------------------------------------------------------------

    @property
    def kernel(self):
        """The simulation kernel."""
        return self.host.kernel

    @property
    def ssd(self):
        """The device under test."""
        return self.host.ssd

    def boot(self) -> None:
        """Power up and wait for the device to come READY."""
        self.host.boot()

    def describe(self) -> str:
        """One-line platform description for reports."""
        return (
            f"device={self.ssd.config.name} "
            f"workload=[{self.spec.describe()}]"
        )
