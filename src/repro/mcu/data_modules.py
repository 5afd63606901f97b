"""Data input module and output collection module.

"The data transfer to and from the FPGA takes place through the data
input/output modules.  Each data transfer is a multiple of the width of the
interface bus as specified by the function record present in the ROM."

Both modules move data between the local RAM and the fabric over an interface
bus of configurable width; transfers are rounded up to whole bus beats, which
is where the padding the paper mentions comes from.  The payload handed to the
function is the exact original data — only the *transfer time* reflects the
padded length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.memory.ram import LocalRam, RamAllocation
from repro.sim.clock import Clock, ClockDomain
from repro.sim.trace import TraceRecorder


@dataclass
class TransferRecord:
    """Accounting for one transfer through a data module."""

    direction: str
    payload_bytes: int
    padded_bytes: int
    beats: int
    elapsed_ns: float


class _DataModule:
    """Interface-bus timing and transfer accounting shared by both modules."""

    direction = ""
    SETUP_CYCLES = 4  # interface-bus cycles charged before every transfer

    def __init__(
        self,
        ram: LocalRam,
        clock: Clock,
        bus_width_bytes: int = 4,
        bus_clock_hz: float = 66e6,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if bus_width_bytes <= 0:
            raise ValueError("interface bus width must be positive")
        self.ram = ram
        self.clock = clock
        self.bus_width_bytes = bus_width_bytes
        self.domain = ClockDomain("interface-bus", bus_clock_hz)
        self.trace = trace if trace is not None else TraceRecorder(clock, enabled=False)
        self.transfers = 0
        self.bytes_transferred = 0

    def _move(self, payload_bytes: int) -> int:
        """Charge the bus time of *payload_bytes*; returns the beats moved.

        Transfers move whole bus beats, so the padded length is
        ``beats * bus_width_bytes``.
        """
        beats = -(-payload_bytes // self.bus_width_bytes) if payload_bytes else 0
        self.clock.advance(self.domain.cycles_to_ns(self.SETUP_CYCLES + beats))
        return beats

    def _account(self, payload_bytes: int, beats: int, started: float) -> TransferRecord:
        self.transfers += 1
        self.bytes_transferred += payload_bytes
        return TransferRecord(
            direction=self.direction,
            payload_bytes=payload_bytes,
            padded_bytes=beats * self.bus_width_bytes,
            beats=beats,
            elapsed_ns=self.clock._now - started,
        )


class DataInputModule(_DataModule):
    """Moves staged input data from the local RAM to the loaded function."""

    direction = "input"

    def feed(self, allocation: RamAllocation, length: int) -> Tuple[bytes, TransferRecord]:
        """Read *length* bytes from RAM and stream them to the fabric.

        Returns the payload (exactly *length* bytes) and the transfer record
        (whose timing reflects the padded, bus-width-aligned length).
        """
        started = self.clock._now
        payload = self.ram.read(allocation, length)
        record = self._account(length, self._move(length), started)
        if self.trace.enabled:
            self.trace.record("data-in", "feed", started, self.clock._now, bytes=length)
        return payload, record


class OutputCollectionModule(_DataModule):
    """Collects results from the loaded function into the local RAM."""

    direction = "output"

    def collect(self, allocation: RamAllocation, payload: bytes) -> TransferRecord:
        """Stream *payload* from the fabric and store it into RAM."""
        started = self.clock._now
        length = len(payload)
        beats = self._move(length)
        self.ram.write(allocation, payload)
        record = self._account(length, beats, started)
        if self.trace.enabled:
            self.trace.record("data-out", "collect", started, self.clock._now, bytes=length)
        return record
