"""The MISP exoskeleton: making a non-IA32 accelerator a MISP sequencer.

"EXO provides a minimal architectural wrapper, or exoskeleton, to make a
non-IA32 heterogeneous accelerator sequencer conform to the MISP
inter-sequencer signaling mechanism" (section 3.1).  Concretely this class

* carries the ``SIGNAL`` dispatch path from the IA32 sequencer to the
  exo-sequencers (used by the CHI runtime to launch shreds);
* converts the architectural events raised during exo-sequencer execution
  (:class:`~repro.errors.TlbMiss` -> ATR, :class:`~repro.errors.ExecutionFault`
  -> CEH) into user-level interrupts on the IA32 sequencer and runs the
  corresponding proxy service;
* delivers asynchronous completion notifications (``master_nowait``).

Costs: every proxy round trip charges the timing model; the counters here
are consumed by :mod:`repro.perf.model`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from ..errors import ExecutionFault
from ..isa.instructions import Effect
from ..isa.program import Program
from ..memory.address_space import AddressSpace, SequencerView
from ..memory.physical import PAGE_SHIFT
from .atr import AtrService
from .ceh import CehService
from .sequencer import OsManagedSequencer
from .shred import ShredDescriptor
from .signals import InterruptVector, Signal, SignalKind, SignalLog


@dataclass(frozen=True)
class ProxyCosts:
    """Seconds charged per proxy round trip (signal + handler + resume).

    MISP-style user-level interrupts avoid OS context switches; these are
    microsecond-scale events dominated by pipeline drain + handler work.
    A batched ATR request pays the round trip once plus a small per-extra-
    entry transcode cost — the amortization that makes batching pay.
    """

    atr_seconds: float = 2.0e-6
    atr_entry_seconds: float = 0.1e-6
    ceh_seconds: float = 4.0e-6
    dispatch_seconds: float = 0.5e-6


class Exoskeleton:
    """The signalling fabric between the IA32 sequencer and exo-sequencers."""

    def __init__(self, space: AddressSpace,
                 host: Optional[OsManagedSequencer] = None,
                 costs: Optional[ProxyCosts] = None,
                 atr_shared_cache: bool = True):
        self.space = space
        self.host = host or OsManagedSequencer()
        self.costs = costs if costs is not None else ProxyCosts()
        # Proxy services model *one* IA32 sequencer handling user-level
        # interrupts serially; when a server drains several device slots
        # at once on executor threads their requests must still
        # serialize through this point.
        self._proxy_lock = threading.RLock()
        self.log = SignalLog()
        self.vector = InterruptVector()
        self.atr = AtrService(space, use_shared_cache=atr_shared_cache)
        self.ceh = CehService()
        self.vector.register(SignalKind.ATR_REQUEST, self._handle_atr)
        self.vector.register(SignalKind.ATR_BATCH, self._handle_atr_batch)
        self.vector.register(SignalKind.CEH_REQUEST, self._handle_ceh)
        self.vector.register(SignalKind.COMPLETION, lambda s: None)
        self.completions: list = []

    # -- IA32 -> exo ------------------------------------------------------------

    def signal_dispatch(self, shred: ShredDescriptor, target: str) -> None:
        """The MISP ``SIGNAL`` instruction: hand a shred continuation to an
        exo-sequencer (via the firmware's work queue)."""
        with self._proxy_lock:
            self.log.record(Signal(SignalKind.DISPATCH, self.host.name,
                                   target, payload=shred.shred_id))
            self.host.proxy_seconds += self.costs.dispatch_seconds

    # -- exo -> IA32 (proxy execution) ----------------------------------------------

    def request_atr(self, view: SequencerView, vaddr: int, write: bool,
                    source: str) -> int:
        """Exo-sequencer TLB miss: suspend, proxy on IA32, transcode, resume."""
        with self._proxy_lock:
            signal = Signal(SignalKind.ATR_REQUEST, source, self.host.name,
                            payload=(view, vaddr, write))
            self.log.record(signal)
            self.host.proxy_events += 1
            self.host.proxy_seconds += self.costs.atr_seconds
            return self.vector.raise_signal(signal)

    def request_atr_batch(self, view: SequencerView, vaddrs, write: bool,
                          source: str) -> dict:
        """Coalesced exo-sequencer misses: one proxy round trip services
        every missing page of an access (or a launch-time surface pass).

        Charges one ATR round trip plus a per-extra-entry transcode cost,
        instead of a full round trip per page — the fast path that keeps N
        devices faulting on the same surfaces off the IA32 critical path.
        """
        vaddrs = tuple(vaddrs)
        with self._proxy_lock:
            signal = Signal(SignalKind.ATR_BATCH, source, self.host.name,
                            payload=(view, vaddrs, write))
            self.log.record(signal)
            self.host.proxy_events += 1
            distinct = len({v >> PAGE_SHIFT for v in vaddrs})
            self.host.proxy_seconds += (
                self.costs.atr_seconds
                + self.costs.atr_entry_seconds * max(0, distinct - 1))
            return self.vector.raise_signal(signal)

    def request_ceh(self, program: Program, ip: int, ctx,
                    fault: ExecutionFault, source: str) -> Effect:
        """Exo-sequencer exception: ship to IA32 for collaborative handling."""
        with self._proxy_lock:
            signal = Signal(SignalKind.CEH_REQUEST, source, self.host.name,
                            payload=(program, ip, ctx, fault))
            self.log.record(signal)
            self.host.proxy_events += 1
            self.host.proxy_seconds += self.costs.ceh_seconds
            return self.vector.raise_signal(signal)

    def notify_completion(self, shred: ShredDescriptor, source: str) -> None:
        """Asynchronous completion notify (``master_nowait`` support)."""
        with self._proxy_lock:
            signal = Signal(SignalKind.COMPLETION, source, self.host.name,
                            payload=shred.shred_id)
            self.log.record(signal)
            self.completions.append(shred.shred_id)
            self.vector.raise_signal(signal)

    # -- default handlers ------------------------------------------------------------

    def _handle_atr(self, signal: Signal) -> int:
        view, vaddr, write = signal.payload
        return self.atr.service(view, vaddr, write)

    def _handle_atr_batch(self, signal: Signal) -> dict:
        view, vaddrs, write = signal.payload
        return self.atr.service_batch(view, vaddrs, write=write)

    def _handle_ceh(self, signal: Signal) -> Effect:
        program, ip, ctx, fault = signal.payload
        return self.ceh.service(program, ip, ctx, fault)
