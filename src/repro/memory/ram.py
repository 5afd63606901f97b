"""Local RAM on the co-processor card.

The microcontroller stages function inputs here after receiving them over the
PCI and stages outputs here before returning them to the host.  The RAM is a
simple byte-addressable SRAM with a first-fit allocator so concurrent
requests (input buffer + output buffer per outstanding call) can coexist.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Optional

from repro.memory.errors import RamAllocationError
from repro.memory.timing import MemoryTiming, RAM_TIMING
from repro.sim.clock import Clock
from repro.sim.trace import TraceRecorder


@dataclass(frozen=True)
class RamAllocation:
    """A reserved span of the local RAM."""

    label: str
    address: int
    length: int

    @property
    def end(self) -> int:
        return self.address + self.length


_ADDRESS = attrgetter("address")


class LocalRam:
    """Byte-addressable SRAM with a first-fit allocator and timed access."""

    def __init__(
        self,
        capacity_bytes: int,
        clock: Optional[Clock] = None,
        timing: MemoryTiming = RAM_TIMING,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("RAM capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.clock = clock if clock is not None else Clock()
        self.timing = timing
        self.trace = trace if trace is not None else TraceRecorder(self.clock, enabled=False)
        self._data = bytearray(capacity_bytes)
        self._allocations: Dict[str, RamAllocation] = {}
        self._bytes_allocated = 0
        self.total_reads = 0
        self.total_writes = 0
        self.total_bytes_moved = 0
        self.peak_bytes_allocated = 0

    # ------------------------------------------------------------ allocator
    @property
    def allocations(self) -> Dict[str, RamAllocation]:
        return dict(self._allocations)

    @property
    def bytes_allocated(self) -> int:
        return self._bytes_allocated

    @property
    def bytes_free(self) -> int:
        return self.capacity_bytes - self._bytes_allocated

    def allocate(self, label: str, length: int) -> RamAllocation:
        """Reserve *length* bytes under *label* (first fit).

        Raises :class:`RamAllocationError` when no gap is large enough or the
        label is already in use.
        """
        if length <= 0:
            raise ValueError("allocation length must be positive")
        if label in self._allocations:
            raise RamAllocationError(f"allocation label {label!r} already in use")
        cursor = 0
        for allocation in sorted(self._allocations.values(), key=_ADDRESS):
            if allocation.address - cursor >= length:
                break
            cursor = allocation.address + allocation.length
        if cursor + length > self.capacity_bytes:
            raise RamAllocationError(
                f"local RAM cannot allocate {length} bytes for {label!r}: "
                f"{self.bytes_free} bytes free but fragmented or insufficient"
            )
        allocation = RamAllocation(label=label, address=cursor, length=length)
        self._allocations[label] = allocation
        self._bytes_allocated += length
        if self._bytes_allocated > self.peak_bytes_allocated:
            self.peak_bytes_allocated = self._bytes_allocated
        return allocation

    def free(self, label: str) -> None:
        """Release the allocation identified by *label*."""
        try:
            allocation = self._allocations.pop(label)
        except KeyError:
            raise RamAllocationError(f"no allocation labelled {label!r}") from None
        self._bytes_allocated -= allocation.length

    def free_all(self) -> None:
        self._allocations.clear()
        self._bytes_allocated = 0

    # ----------------------------------------------------------------- I/O
    def write(self, allocation: RamAllocation, data: bytes, offset: int = 0) -> float:
        """Timed write of *data* into *allocation* at *offset*; returns the time."""
        length = len(data)
        if offset < 0 or offset + length > allocation.length:
            raise ValueError(
                f"write of {length} bytes at offset {offset} exceeds allocation "
                f"{allocation.label!r} ({allocation.length} bytes)"
            )
        clock = self.clock
        started = clock._now
        elapsed = self.timing.transfer_time_ns(length)
        clock.advance(elapsed)
        address = allocation.address + offset
        self._data[address : address + length] = data
        self.total_writes += 1
        self.total_bytes_moved += length
        if self.trace.enabled:
            self.trace.record(
                "ram", "write", started, clock._now, label=allocation.label, length=length
            )
        return elapsed

    def read(self, allocation: RamAllocation, length: Optional[int] = None, offset: int = 0) -> bytes:
        """Timed read from *allocation*; returns the bytes."""
        length = allocation.length - offset if length is None else length
        if offset < 0 or length < 0 or offset + length > allocation.length:
            raise ValueError(
                f"read of {length} bytes at offset {offset} exceeds allocation "
                f"{allocation.label!r} ({allocation.length} bytes)"
            )
        clock = self.clock
        started = clock._now
        clock.advance(self.timing.transfer_time_ns(length))
        address = allocation.address + offset
        self.total_reads += 1
        self.total_bytes_moved += length
        if self.trace.enabled:
            self.trace.record(
                "ram", "read", started, clock._now, label=allocation.label, length=length
            )
        return bytes(self._data[address : address + length])

    # ------------------------------------------------------------ reporting
    def describe(self) -> str:
        parts = [
            f"{allocation.label}@{allocation.address}+{allocation.length}"
            for allocation in sorted(self._allocations.values(), key=_ADDRESS)
        ]
        return f"LocalRam({self.bytes_allocated}/{self.capacity_bytes} bytes: {', '.join(parts) or 'empty'})"
