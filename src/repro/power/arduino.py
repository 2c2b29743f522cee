"""Arduino UNO (ATmega328) model used as the fault-injection actuator.

The real harness programs the UNO to listen on its USB serial port for
single-byte ``On``/``Off`` commands from the Scheduler and mirror them onto
digital pin 13, which is wired to the ATX ``PS_ON#`` pin (paper §III-A2).

The model reproduces the two latencies that matter for fault timing:

- serial transfer time at 115200 baud (~87 µs per command byte), and
- the firmware loop's polling latency (up to ~100 µs).

Both are small against the PSU's 40 ms hold-up but are modelled so the
platform's end-to-end command-to-voltage-drop timing is honest.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import PowerError
from repro.sim.kernel import Kernel

CMD_ON = b"1"
CMD_OFF = b"0"

SERIAL_BAUD = 115200
BITS_PER_FRAME = 10  # 8N1: start + 8 data + stop
FIRMWARE_POLL_US = 100
"""Worst-case delay of the firmware's main loop noticing a received byte."""


def serial_frame_time_us(baud: int = SERIAL_BAUD) -> int:
    """Wire time of one 8N1 serial frame at ``baud``, in microseconds."""
    if baud <= 0:
        raise PowerError("baud rate must be positive")
    return round(BITS_PER_FRAME * 1_000_000 / baud)


class Microcontroller:
    """ATmega328 running the paper's On/Off relay firmware.

    The host writes command bytes with :meth:`serial_write`; after the wire
    plus firmware latency the sketch drives ``pin 13`` and invokes the
    attached pin listener (the :class:`~repro.power.atx.AtxController`).

    Example
    -------
    >>> from repro.sim import Kernel
    >>> k = Kernel()
    >>> seen = []
    >>> mcu = Microcontroller(k)
    >>> mcu.attach_pin13(seen.append)
    >>> mcu.serial_write(CMD_OFF)
    >>> k.run()
    >>> seen   # pin 13 driven high -> PS_ON# deasserted -> power cut
    [True]
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._on_pin13: Optional[Callable[[bool], None]] = None
        self.pin13_high = False
        self.commands_received = 0
        self.bytes_dropped = 0
        self._powered = True

    def attach_pin13(self, listener: Callable[[bool], None]) -> None:
        """Connect pin 13 to a consumer (the ATX controller glue)."""
        self._on_pin13 = listener

    def set_powered(self, powered: bool) -> None:
        """The UNO is USB-powered from the host; it stays up during faults.

        Exposed so tests can model a *shared* supply mis-wiring where the
        actuator dies with the device (the design error the independent-PSU
        layout avoids, §III-A2).
        """
        self._powered = powered

    def serial_write(self, data: bytes) -> None:
        """Host writes command bytes to the UNO's USB serial port."""
        if not data:
            raise PowerError("empty serial write")
        delay = 0
        for raw in data:
            byte = bytes([raw])
            delay += serial_frame_time_us()
            if byte not in (CMD_ON, CMD_OFF):
                self.bytes_dropped += 1
                continue
            fire_at = delay + FIRMWARE_POLL_US
            self.kernel.schedule(fire_at, self._handle_command, byte)

    def _handle_command(self, byte: bytes) -> None:
        if not self._powered:
            self.bytes_dropped += 1
            return
        self.commands_received += 1
        # Firmware: OFF command -> drive pin 13 HIGH (deasserts PS_ON#).
        # The pin is re-driven on every command (as the sketch's loop() does);
        # downstream logic is level-sensitive, so this is safe and keeps the
        # MCU and ATX controller in sync regardless of their initial states.
        want_high = byte == CMD_OFF
        self.pin13_high = want_high
        if self._on_pin13 is not None:
            self._on_pin13(want_high)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Microcontroller pin13={'HIGH' if self.pin13_high else 'LOW'}>"
