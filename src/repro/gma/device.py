"""The GMA X3000 device: 8 EUs x 4 thread contexts = 32 exo-sequencers.

This ties the pieces together: the exoskeleton (signalling + ATR + CEH),
the device's TLB-translated view of the shared address space, the texture
sampler, the coherence point, the firmware and the work queue.  The public
entry point is :meth:`GmaDevice.run`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from ..errors import ExecutionFault
from ..exo.exoskeleton import Exoskeleton
from ..exo.sequencer import ExoSequencer
from ..exo.shred import ShredDescriptor
from ..memory.address_space import AddressSpace, SequencerView
from ..memory.cache import CoherencePoint
from ..memory.tlb import Tlb
from .firmware import EmulationFirmware, GmaRunResult
from .sampler import TextureSampler
from .timing import GmaTimingConfig
from .workqueue import WorkQueue


class GmaDevice:
    """The simulated Intel Graphics Media Accelerator X3000."""

    ISA = "X3000"

    #: Supported execution engines: "scalar" interprets each shred one
    #: instruction at a time; "gang" batches same-program launches across
    #: the shred axis (see :mod:`repro.gma.gang`), with scalar peel-off;
    #: "fused" adds superblock trace fusion on top of the gang engine
    #: (see :mod:`repro.gma.fusion`): straight-line regions retire as
    #: whole compiled blocks with uniform-branch trace chaining;
    #: "megaop" adds profile-guided trace promotion on top of fusion
    #: (see :mod:`repro.gma.megaop`): hot chained block cycles compile
    #: into single composed numpy expressions retiring whole trace
    #: traversals per Python call, deopting to the fused loop on any
    #: guard failure.
    ENGINES = ("scalar", "gang", "fused", "megaop")

    def __init__(self, space: AddressSpace,
                 exoskeleton: Optional[Exoskeleton] = None,
                 config: Optional[GmaTimingConfig] = None,
                 coherence: Optional[CoherencePoint] = None,
                 engine: str = "scalar",
                 megaop_threshold: Optional[int] = None):
        if engine not in self.ENGINES:
            raise ValueError(
                f"unknown GMA engine {engine!r} (choose from {self.ENGINES})")
        self.space = space
        config = config if config is not None else GmaTimingConfig()
        self.config = config
        self.engine = engine
        #: Chain traversals of one block cycle before megaop promotion
        #: (None -> :data:`repro.gma.megaop.PROMOTE_THRESHOLD`).
        self.megaop_threshold = megaop_threshold
        self.exoskeleton = exoskeleton or Exoskeleton(space)
        self.coherence = coherence or CoherencePoint(coherent=True)
        self.view = SequencerView(
            space, Tlb(capacity=config.tlb_capacity, name="gma-tlb"),
            name="gma")
        self.sampler = TextureSampler()
        self.firmware = EmulationFirmware(self)
        self.sequencers: List[ExoSequencer] = [
            ExoSequencer(name=f"exo-{eu}.{slot}", isa=self.ISA, eu=eu, slot=slot)
            for eu in range(config.num_eus)
            for slot in range(config.threads_per_eu)
        ]
        # populated by the firmware during a run
        self._mailboxes = {}
        self._live_contexts = {}
        self._spawn_queue: Optional[WorkQueue] = None
        self.touched_read_lines = set()
        self.touched_write_lines = set()

    # -- context switching -------------------------------------------------------

    def make_view(self, space: AddressSpace, name: str) -> SequencerView:
        """A sequencer view of ``space`` with this device's TLB geometry.

        Serving sessions keep one view per (session, device) pair so a
        context switch back to a session finds its translations warm;
        the view is registered with ``space`` on construction, so that
        session's shootdowns keep reaching it while it is unbound.
        """
        return SequencerView(
            space, Tlb(capacity=self.config.tlb_capacity, name=f"{name}-tlb"),
            name=name)

    def bind_context(self, space: AddressSpace, exoskeleton: Exoskeleton,
                     coherence: CoherencePoint, view: SequencerView) -> None:
        """Switch the device onto another tenant's context.

        Models a GPU context switch: the device's page-table view,
        exoskeleton (MISP/ATR/CEH endpoints) and coherence point are
        replaced wholesale.  The caller must serialize binds with runs —
        the device holds no lock of its own.
        """
        self.space = space
        self.exoskeleton = exoskeleton
        self.coherence = coherence
        self.view = view

    # -- execution ---------------------------------------------------------------

    def run(self, shreds: Iterable[ShredDescriptor],
            extra_bytes: int = 0, prepare_surfaces: bool = True) -> GmaRunResult:
        """Dispatch shreds (via SIGNAL) and run the queue to completion.

        ``extra_bytes`` models additional memory traffic sharing the
        device's bandwidth (the interleaved-flush overlap of section 5.2).

        ``prepare_surfaces`` models the CHI runtime step of section 4.6 —
        "Before forking the heterogeneous shreds, the CHI runtime inspects
        these descriptors and configures the accelerator appropriately":
        every bound surface's pages are validated into the device page
        table up front, so in-flight ATR proxies only happen for accesses
        outside the declared surfaces.
        """
        shreds = list(shreds)
        # line-granular demand-traffic accounting for this run (the device
        # cache: first touch of a 64-byte line is traffic, re-reads hit)
        self.touched_read_lines = set()
        self.touched_write_lines = set()
        pages_prepared = 0
        if prepare_surfaces:
            pages_prepared = self._prepare_surfaces(shreds)
        queue = WorkQueue()
        for i, shred in enumerate(shreds):
            target = self.sequencers[i % len(self.sequencers)].name
            self.exoskeleton.signal_dispatch(shred, target)
            queue.push(shred)
        result = self.firmware.run_queue(queue, extra_bytes=extra_bytes)
        result.pages_prepared = pages_prepared
        for i, run in enumerate(result.runs):
            self.sequencers[i % len(self.sequencers)].shreds_retired += 1
        return result

    def _prepare_surfaces(self, shreds) -> int:
        """Validate every bound surface's pages into the GTT (one batched
        proxy pass on the IA32 side, not a per-fault round trip)."""
        from ..memory.physical import PAGE_SHIFT

        missing = []
        seen = set()
        for shred in shreds:
            for surf in shred.surfaces.values():
                if id(surf) in seen:
                    continue
                seen.add(id(surf))
                first = surf.base >> PAGE_SHIFT
                last = (surf.base + surf.nbytes - 1) >> PAGE_SHIFT
                for vpn in range(first, last + 1):
                    if vpn not in self.view.gtt:
                        missing.append(vpn << PAGE_SHIFT)
        if not missing:
            return 0
        installed = self.exoskeleton.request_atr_batch(
            self.view, missing, write=True, source="firmware")
        return len(installed)

    def run_single(self, shred: ShredDescriptor) -> GmaRunResult:
        return self.run([shred])

    # -- services used by shred contexts ---------------------------------------------

    def deliver_register(self, source_id: int, target_id: int, reg: int,
                         values: np.ndarray) -> None:
        """Route a ``sendreg`` write: "one shred can write directly to
        another shred's register file" (section 3.4)."""
        ctx = self._live_contexts.get(target_id)
        if ctx is not None:
            ctx.regs.write_lanes(reg, np.asarray(values, dtype=np.float64))
            return
        if self._spawn_queue is not None and self._spawn_queue.is_done(target_id):
            raise ExecutionFault(
                f"sendreg from shred {source_id} to retired shred {target_id}")
        self._mailboxes.setdefault(target_id, []).append(
            (reg, np.asarray(values, dtype=np.float64)))

    def enqueue_spawn(self, parent: ShredDescriptor, arg: float) -> None:
        if self._spawn_queue is None:
            raise ExecutionFault("spawn outside a device run")
        child = parent.spawn_child(arg)
        self._spawn_queue.push(child)

    def flush_cache(self) -> int:
        """Flush the device-side cache (a shred-visible ``flush``)."""
        return self.coherence.flush("gma")

    # -- maintenance ---------------------------------------------------------------------

    def invalidate_tlb(self) -> None:
        self.view.tlb.invalidate()

    def reset_counters(self) -> None:
        self.sampler.reset()
        self.view.tlb.hits = 0
        self.view.tlb.misses = 0
        self.view.tlb.mru_hits = 0
        self.view.tlb.vector_hits = 0
        self.view.gtt_walks = 0
        self.view.batched_translations = 0
