"""PCI transactions."""

from __future__ import annotations

import enum


class TransactionKind(enum.Enum):
    """The transaction types the host driver and DMA engine issue."""

    MEMORY_READ = "memory-read"
    MEMORY_WRITE = "memory-write"
    CONFIG_READ = "config-read"
    CONFIG_WRITE = "config-write"


class PciTransaction:
    """One bus transaction: an address, a direction and a payload.

    For reads the payload carries the returned data once the transaction
    completes; ``latency_ns`` is filled in by the bus.  ``is_write`` is
    derived from *kind* once, at construction.
    """

    __slots__ = ("kind", "address", "length", "payload", "completed", "latency_ns", "is_write")

    def __init__(
        self, kind: TransactionKind, address: int, length: int, payload: bytes = b""
    ) -> None:
        if address < 0:
            raise ValueError("transaction address cannot be negative")
        if length < 0:
            raise ValueError("transaction length cannot be negative")
        is_write = kind is TransactionKind.MEMORY_WRITE or kind is TransactionKind.CONFIG_WRITE
        if is_write and len(payload) != length:
            raise ValueError(
                f"write transaction declares {length} bytes but carries {len(payload)}"
            )
        self.kind = kind
        self.address = address
        self.length = length
        self.payload = payload
        self.completed = False
        self.latency_ns = 0.0
        self.is_write = is_write

    @property
    def is_read(self) -> bool:
        return not self.is_write

    def __repr__(self) -> str:
        return (
            f"PciTransaction({self.kind.name}, address=0x{self.address:08x}, "
            f"length={self.length}, completed={self.completed})"
        )
