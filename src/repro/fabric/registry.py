"""The device registry: which backends exist and what they can run.

The registry replaces the hardwired single-accelerator check the
reproduction started with: ``target(ISA)`` clauses resolve here, and any
device advertising the requested ISA is a scheduling candidate.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from ..errors import SchedulingError
from .device import FabricDevice


class DeviceRegistry:
    """Ordered name -> device mapping with ISA-based lookup."""

    def __init__(self, devices: Iterable[FabricDevice] = ()):
        self._devices: Dict[str, FabricDevice] = {}
        for device in devices:
            self.register(device)

    def register(self, device: FabricDevice) -> FabricDevice:
        if device.name in self._devices:
            raise SchedulingError(
                f"device name {device.name!r} already registered")
        self._devices[device.name] = device
        return device

    def get(self, name: str) -> FabricDevice:
        device = self._devices.get(name)
        if device is None:
            raise SchedulingError(
                f"no device named {name!r} in the fabric "
                f"(have {self.names()})")
        return device

    def names(self) -> List[str]:
        return list(self._devices)

    def require(self, isa: str) -> List[FabricDevice]:
        """The devices a ``target(isa)`` clause resolves to, or a loud
        :class:`~repro.errors.SchedulingError` naming what exists."""
        devices = [d for d in self._devices.values() if d.isa == isa]
        if not devices:
            have = list(dict.fromkeys(d.isa for d in self._devices.values()))
            raise SchedulingError(
                f"no accelerator with ISA {isa!r} in the fabric "
                f"(have {have})")
        return devices

    def __iter__(self) -> Iterator[FabricDevice]:
        return iter(self._devices.values())

    def __len__(self) -> int:
        return len(self._devices)

    def __contains__(self, name: str) -> bool:
        return name in self._devices

    def describe(self) -> str:
        return "\n".join(device.describe() for device in self)
