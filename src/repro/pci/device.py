"""Base class for PCI devices (cards) attached to the bus."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.pci.bus import PciDeviceProtocol
from repro.pci.config_space import BaseAddressRegister, PciConfigSpace


class PciFunctionInterface:
    """Register-level interface a card exposes through a BAR.

    The card maps named 32-bit registers and a data window into BAR space;
    the device dispatches memory reads/writes landing in the BAR to them.
    """

    def __init__(self, register_bytes: int = 256, window_bytes: int = 64 * 1024) -> None:
        if register_bytes <= 0 or window_bytes < 0:
            raise ValueError("interface sizes must be positive")
        self.register_bytes = register_bytes
        self.window_bytes = window_bytes
        # One 32-bit value per register; the keys are exactly the valid
        # (aligned, in-range) offsets.
        self._registers: Dict[int, int] = dict.fromkeys(range(0, register_bytes, 4), 0)
        self._window = bytearray(window_bytes)
        self._write_hooks: Dict[int, Callable[[int], None]] = {}

    # ------------------------------------------------------------ registers
    def read_register(self, offset: int) -> int:
        try:
            return self._registers[offset]
        except KeyError:
            raise ValueError(f"register offset 0x{offset:x} is invalid") from None

    def write_register(self, offset: int, value: int) -> None:
        if offset not in self._registers:
            raise ValueError(f"register offset 0x{offset:x} is invalid")
        value &= 0xFFFFFFFF
        self._registers[offset] = value
        if offset in self._write_hooks:
            self._write_hooks[offset](value)

    def on_register_write(self, offset: int, hook: Callable[[int], None]) -> None:
        """Register a side-effect hook fired when the host writes *offset*."""
        if offset not in self._registers:
            raise ValueError(f"register offset 0x{offset:x} is invalid")
        self._write_hooks[offset] = hook

    # --------------------------------------------------------------- window
    def read_window(self, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > self.window_bytes:
            raise ValueError("window read out of range")
        return bytes(self._window[offset : offset + length])

    def write_window(self, offset: int, payload: bytes) -> None:
        end = offset + len(payload)
        if offset < 0 or end > self.window_bytes:
            raise ValueError("window write out of range")
        self._window[offset:end] = payload


class PciDevice(PciDeviceProtocol):
    """A PCI card: config space + a register/data interface behind BAR0/BAR1."""

    def __init__(
        self,
        name: str,
        interface: Optional[PciFunctionInterface] = None,
        register_bar_size: int = 4096,
        window_bar_size: int = 64 * 1024,
    ) -> None:
        self.name = name
        self.interface = interface if interface is not None else PciFunctionInterface(
            window_bytes=window_bar_size
        )
        self.config_space = PciConfigSpace(
            bars=[
                BaseAddressRegister(0, register_bar_size),
                BaseAddressRegister(1, window_bar_size, prefetchable=True),
            ]
        )

    # ----------------------------------------------------------- bus facing
    def bar_read(self, bar: BaseAddressRegister, offset: int, length: int) -> bytes:
        if bar.index == 0:
            return self.interface.read_register(offset).to_bytes(4, "little")[:length]
        return self.interface.read_window(offset, length)

    def bar_write(self, bar: BaseAddressRegister, offset: int, payload: bytes) -> None:
        if bar.index == 0:
            # Little-endian: a short payload reads as if zero-padded to 4 bytes.
            self.interface.write_register(offset, int.from_bytes(payload[:4], "little"))
        else:
            self.interface.write_window(offset, payload)
