"""The Host System facade.

One object bundling everything the paper's Fig. 1 draws on the host side:
the simulation kernel, the power-control chain (Scheduler's actuator), the
device under test, the block layer, and the tracing toolchain.  The test
platform (:mod:`repro.core.platform`) builds on this; examples use it
directly.
"""

from __future__ import annotations

from typing import List, Optional

from repro.host.block_layer import BlockLayer, BlockRequest
from repro.power.controller import PowerController
from repro.power.psu import AtxPsu
from repro.rand import RandomStreams
from repro.sim import Kernel
from repro.ssd.device import SsdConfig, SsdDevice
from repro.trace.blktrace import BlockTracer
from repro.trace.btt import Btt
from repro.units import MSEC, SEC


class HostSystem:
    """Kernel + PSU chain + SSD + block layer + tracer, ready to run.

    Example
    -------
    >>> host = HostSystem(seed=7)
    >>> host.boot()
    >>> req = host.write(lpn=0, tokens=[11, 22])
    >>> host.run_for_ms(50)
    >>> req.ok
    True
    """

    def __init__(
        self,
        config: Optional[SsdConfig] = None,
        seed: int = 0,
        kernel: Optional[Kernel] = None,
        psu: Optional[AtxPsu] = None,
    ) -> None:
        self.kernel = kernel if kernel is not None else Kernel()
        self.streams = RandomStreams(seed)
        self.power = PowerController(self.kernel, psu)
        self.tracer = BlockTracer(self.kernel)
        self.config = config if config is not None else SsdConfig()
        self.ssd = SsdDevice(
            self.kernel, self.config, self.power.psu, self.streams.fork("device")
        )
        self.block = BlockLayer(self.kernel, self.ssd, self.tracer)
        self.btt = Btt(self.tracer)

    # -- lifecycle -------------------------------------------------------------------

    def boot(self, timeout_us: int = 5 * SEC) -> None:
        """Power the PSU on and wait for the device to reach READY."""
        self.power.power_on()
        self.kernel.pump_until(lambda: self.ssd.is_ready, timeout_us, "device ready")

    def run_for(self, duration_us: int) -> None:
        """Advance simulated time."""
        self.kernel.run(until=self.kernel.now + duration_us)

    def run_for_ms(self, milliseconds: float) -> None:
        """Advance simulated time (milliseconds convenience)."""
        self.run_for(round(milliseconds * MSEC))

    # -- convenience IO ----------------------------------------------------------------

    def write(self, lpn: int, tokens: List[int], on_done=None) -> BlockRequest:
        """Submit a write request."""
        request = BlockRequest(
            lpn=lpn,
            page_count=len(tokens),
            is_write=True,
            tokens=list(tokens),
            on_done=on_done,
        )
        return self.block.submit(request)

    def read(self, lpn: int, page_count: int, on_done=None) -> BlockRequest:
        """Submit a read request."""
        request = BlockRequest(
            lpn=lpn, page_count=page_count, is_write=False, on_done=on_done
        )
        return self.block.submit(request)

    def trim(self, lpn: int, page_count: int, on_complete=None):
        """Submit a TRIM/discard command directly to the device.

        (TRIM does not go through the block layer's splitting path — range
        commands are small; the device applies them atomically.)
        """
        from repro.ssd.command import IoCommand

        command = IoCommand.trim(lpn, page_count, on_complete=on_complete)
        self.ssd.submit(command)
        return command

    # -- fault helpers -----------------------------------------------------------------

    def cut_power(self) -> None:
        """Send the Off command through the Arduino/ATX chain."""
        self.power.power_off()

    def restore_power(self) -> None:
        """Send the On command and let the rail recharge."""
        self.power.power_on()

    def wait_until_dead(self, timeout_us: int = 3 * SEC) -> None:
        """Run until the device browns out (after :meth:`cut_power`)."""
        from repro.ssd.power_state import DevicePowerState

        self.kernel.pump_until(
            lambda: self.ssd.state is DevicePowerState.DEAD, timeout_us, "brownout"
        )

    def wait_until_ready(self, timeout_us: int = 5 * SEC) -> None:
        """Run until the device is READY (after :meth:`restore_power`)."""
        self.kernel.pump_until(lambda: self.ssd.is_ready, timeout_us, "device ready")
