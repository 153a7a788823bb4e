"""EXOCHI as a service: an async multi-tenant serving layer.

The paper's exoskeleton multiplexes shreds from many applications onto
shared heterogeneous sequencers; this package gives that claim a
measurable surface.  Many concurrent clients each open a
:class:`Session` — its own isolated :class:`~repro.memory.address_space.
AddressSpace` over one shared :class:`~repro.memory.physical.
PhysicalMemory`, with surface/descriptor quotas — submit kernel launches
to an :class:`ExoServer`, and await results.

Requests pass an admission controller (per-tenant in-flight caps,
weighted fair dequeue, reject-with-retry-after under the RAISE policy)
layered on the existing :class:`~repro.fabric.queue.DeviceWorkQueue`
backpressure, then reach a dispatcher that performs *cross-launch gang
formation*: same-program single-shred launches from different queued
requests coalesce into one gang so the megaop engine's batched tiers
engage.
Per-tenant demux keeps every request's outputs and per-shred counters
bit-identical to solo execution.
"""

from .admission import AdmissionController
from .coalescer import coalescable, demux
from .server import ExoServer, LaunchRequest, LaunchResult, ServingStats
from .session import Session, SessionQuotas
from .workload import TenantWorkload

__all__ = [
    "AdmissionController",
    "coalescable",
    "demux",
    "ExoServer",
    "LaunchRequest",
    "LaunchResult",
    "ServingStats",
    "Session",
    "SessionQuotas",
    "TenantWorkload",
]
