"""Tenant sessions: isolated address spaces plus resource quotas.

Each session owns a full :class:`~repro.memory.address_space.AddressSpace`
backed by the server's one shared :class:`~repro.memory.physical.
PhysicalMemory` — the shape Hechtman & Sorin evaluate for coherent shared
virtual memory: tenants share DRAM, never mappings.  Shootdowns from one
tenant's ``free``/``protect`` therefore reach only the device views
registered with *that* tenant's space; other tenants' translations stay
warm.  Each session also owns an :class:`~repro.exo.exoskeleton.
Exoskeleton` (so ATR/CEH proxy traffic and the shared translation cache
are per-tenant) and a coherence point.

Control-plane methods (``alloc_surface``, ``free_surface``, ``close``)
run on the server's event-loop thread; only device drains leave it, and
those touch the session solely through the view handed to the device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import QuotaExceeded, SessionClosed
from ..exo.exoskeleton import Exoskeleton
from ..isa.types import DataType
from ..memory.address_space import AddressSpace, SequencerView
from ..memory.cache import CoherencePoint
from ..memory.surface import Surface, TileMode


@dataclass(frozen=True)
class SessionQuotas:
    """Per-tenant resource limits, fixed at session open.

    ``weight`` is the tenant's share under weighted fair dequeue: a
    weight-2 tenant drains twice the lanes of a weight-1 tenant under
    contention (stride scheduling in the admission controller).
    """

    max_surfaces: int = 64
    max_surface_bytes: int = 16 << 20
    max_descriptors: int = 512
    max_inflight: int = 8
    weight: float = 1.0


class Session:
    """One tenant's isolated slice of the serving platform."""

    def __init__(self, server, name: str,
                 quotas: Optional[SessionQuotas] = None):
        self.server = server
        self.name = name
        self.quotas = quotas or SessionQuotas()
        self.space = AddressSpace(physical=server.physical)
        self.exoskeleton = Exoskeleton(self.space)
        self.coherence = CoherencePoint(coherent=True)
        self.surfaces: Dict[str, Surface] = {}
        self.surface_bytes = 0
        self.closed = False
        #: Per-device-slot sequencer views, created lazily on first
        #: dispatch to that slot and kept for the session's lifetime so
        #: a context switch back finds warm translations.
        self._views: Dict[str, SequencerView] = {}
        # admission state
        self.inflight = 0  # launches admitted, not yet completed
        self.descriptors_inflight = 0
        # lifetime accounting, reported by the demo/bench harnesses
        self.launches = 0
        self.completed = 0
        self.rejected = 0
        self.shreds_executed = 0
        self.instructions = 0
        self.gma_seconds = 0.0

    # -- surfaces (the tenant data plane) ----------------------------------

    def alloc_surface(self, name: str, width: int, height: int,
                      dtype: DataType, pitch: int = 0,
                      tiling: TileMode = TileMode.LINEAR) -> Surface:
        """Allocate a surface in this session's space, quota-checked."""
        self._check_open()
        if name in self.surfaces:
            raise QuotaExceeded(
                f"session {self.name!r}: surface {name!r} already exists")
        if len(self.surfaces) >= self.quotas.max_surfaces:
            raise QuotaExceeded(
                f"session {self.name!r}: surface quota "
                f"({self.quotas.max_surfaces}) exhausted")
        surf = Surface(name=name, base=0, width=width, height=height,
                       dtype=dtype, pitch=pitch, tiling=tiling)
        if self.surface_bytes + surf.nbytes > self.quotas.max_surface_bytes:
            raise QuotaExceeded(
                f"session {self.name!r}: surface byte quota "
                f"({self.quotas.max_surface_bytes}) exhausted")
        surf.base = self.space.alloc(surf.nbytes)
        self.surfaces[name] = surf
        self.surface_bytes += surf.nbytes
        return surf

    def free_surface(self, name: str) -> None:
        """Free a surface; shootdowns reach only this session's views."""
        self._check_open()
        surf = self.surfaces.pop(name, None)
        if surf is None:
            raise QuotaExceeded(
                f"session {self.name!r}: no surface {name!r}")
        self.space.free(surf.base)
        self.surface_bytes -= surf.nbytes

    # -- device views (the shootdown domain) -------------------------------

    def view_for(self, slot) -> SequencerView:
        """This session's sequencer view of in-process device ``slot``
        (a :class:`~repro.fabric.device.GmaFabricDevice`).

        Created on the event-loop thread (registration with the space is
        not thread safe); the drain worker only *uses* the view.
        """
        view = self._views.get(slot.name)
        if view is None:
            view = slot.gma.make_view(
                self.space, f"{slot.name}:{self.name}")
            self._views[slot.name] = view
        return view

    # -- admission bookkeeping ---------------------------------------------

    def charge_descriptors(self, count: int) -> None:
        if (self.descriptors_inflight + count
                > self.quotas.max_descriptors):
            raise QuotaExceeded(
                f"session {self.name!r}: descriptor quota "
                f"({self.quotas.max_descriptors}) exhausted with "
                f"{self.descriptors_inflight} in flight")
        self.descriptors_inflight += count

    def release_descriptors(self, count: int) -> None:
        self.descriptors_inflight -= count

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise SessionClosed(f"session {self.name!r} is closed")

    def stats(self) -> dict:
        return {
            "session": self.name,
            "launches": self.launches,
            "completed": self.completed,
            "rejected": self.rejected,
            "shreds_executed": self.shreds_executed,
            "instructions": self.instructions,
            "gma_seconds": self.gma_seconds,
            "surfaces": len(self.surfaces),
            "surface_bytes": self.surface_bytes,
        }
