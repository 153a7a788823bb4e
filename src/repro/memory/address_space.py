"""The shared virtual address space and per-sequencer translated views.

One :class:`AddressSpace` models the single OS process image of an EXOCHI
application: a bump allocator over virtual pages, an IA32 page table, and
demand paging (the OS maps frames on first touch, which is exactly the
fault that ATR proxies for the exo-sequencers).

A :class:`SequencerView` is how a *non-OS-managed* sequencer sees that
space: every access translates through the view's private TLB, and a miss
raises :class:`~repro.errors.TlbMiss` for the exoskeleton to service (the
view itself never walks the IA32 tables — it architecturally cannot, which
is the entire reason ATR exists).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import MemorySystemError, TlbMiss, TranslationFault
from .gtt import gtt_pfn, gtt_pfn_array, gtt_valid, gtt_valid_array
from .paging import (
    IA32PageTable,
    PTE_CACHE_DISABLE,
    PTE_PRESENT,
    PTE_WRITABLE,
    pte_pfn,
)
from .physical import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory
from .tlb import Tlb

#: Base of the heap region handed out by :meth:`AddressSpace.alloc`.
HEAP_BASE = 0x1000_0000


class AddressSpace:
    """A process virtual address space shared by all sequencers."""

    def __init__(self, physical: Optional[PhysicalMemory] = None,
                 demand_paging: bool = True):
        self.physical = physical or PhysicalMemory()
        self.page_table = IA32PageTable()
        self.demand_paging = demand_paging
        self._next_vaddr = HEAP_BASE
        self._allocations: Dict[int, int] = {}  # vaddr -> size
        self.faults_serviced = 0
        #: Registered device views whose TLB/GTT entries must be shot down
        #: whenever a translation this space owns goes away or weakens.
        self._views: List["SequencerView"] = []
        self._shootdown_listeners: List[Callable] = []
        # Several drain threads can demand-fault concurrently (serving
        # slots, fault proxies for worker processes); frame grab + PTE
        # install must be one atomic step or two threads double-map.
        self._fault_lock = threading.Lock()
        self.shootdowns = 0  # invalidation broadcasts issued
        #: One record per broadcast, consumed by
        #: :func:`repro.perf.trace.shootdown_trace_events`.
        self.shootdown_events: List[dict] = []

    # -- device views (the shootdown domain) ------------------------------------

    def register_view(self, view: "SequencerView") -> None:
        """Join a sequencer view to this space's shootdown domain."""
        if view not in self._views:
            self._views.append(view)

    def unregister_view(self, view: "SequencerView") -> None:
        if view in self._views:
            self._views.remove(view)

    def add_shootdown_listener(self, listener: Callable) -> None:
        """Register ``listener(vpns, reason)`` to observe every broadcast
        (ATR uses this to drop stale shared-cache entries and count)."""
        if listener not in self._shootdown_listeners:
            self._shootdown_listeners.append(listener)

    def _shootdown(self, vpns: Sequence[int], reason: str) -> None:
        """Broadcast an invalidation for ``vpns`` to every registered view.

        This is the coherence protocol the shared virtual address space
        needs once pages can be freed or remapped while exo-sequencers
        hold translations: without it, a stale TLB/GTT entry on any device
        silently resolves to a recycled physical frame.
        """
        vpns = list(vpns)
        if not vpns:
            return
        self.shootdowns += 1
        for view in self._views:
            hit = False
            for vpn in vpns:
                if vpn in view.tlb or vpn in view.gtt:
                    hit = True
                view.tlb.invalidate(vpn)
                view.gtt.pop(vpn, None)
            # the vectorized page->frame snapshot caches the same
            # translations, so it is part of the shootdown domain too
            view.invalidate_vector_cache()
            if hit:
                view.shootdowns_received += 1
        for listener in self._shootdown_listeners:
            listener(vpns, reason)
        self.shootdown_events.append({
            "seq": self.shootdowns,
            "reason": reason,
            "pages": len(vpns),
            "views": len(self._views),
        })

    # -- allocation -----------------------------------------------------------

    def alloc(self, nbytes: int, eager: bool = False) -> int:
        """Reserve ``nbytes`` of virtual space; returns the base address.

        With ``eager`` the pages are mapped immediately; otherwise the
        first touch takes a page fault (serviced by :meth:`handle_fault`,
        or by ATR proxy execution when the first touch is from an
        exo-sequencer).
        """
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        base = self._next_vaddr
        npages = -(-nbytes // PAGE_SIZE)
        self._next_vaddr += npages * PAGE_SIZE
        self._allocations[base] = nbytes
        if eager:
            for i in range(npages):
                self.handle_fault(base + i * PAGE_SIZE, write=True)
        return base

    def free(self, vaddr: int) -> None:
        nbytes = self._allocations.pop(vaddr, None)
        if nbytes is None:
            raise MemorySystemError(f"no allocation at {vaddr:#x}")
        npages = -(-nbytes // PAGE_SIZE)
        unmapped = []
        for i in range(npages):
            vpn = (vaddr >> PAGE_SHIFT) + i
            if self.page_table.entry(vpn):
                pfn = self.page_table.walk(vpn).pfn
                self.page_table.unmap(vpn)
                self.physical.free_frame(pfn)
                unmapped.append(vpn)
        self._shootdown(unmapped, "free")

    def protect(self, vaddr: int, writable: bool) -> int:
        """Change the protection of an allocation's mapped pages.

        Weakening a mapping (dropping write permission) must reach every
        device translation too, so the change broadcasts a shootdown just
        like :meth:`free`; the next device access re-faults through ATR,
        which enforces the new bits.  Returns the number of pages changed.
        """
        nbytes = self._allocations.get(vaddr)
        if nbytes is None:
            raise MemorySystemError(f"no allocation at {vaddr:#x}")
        npages = -(-nbytes // PAGE_SIZE)
        changed = []
        for i in range(npages):
            vpn = (vaddr >> PAGE_SHIFT) + i
            pte = self.page_table.entry(vpn)
            if pte & PTE_PRESENT:
                self.page_table.map(
                    vpn, pte_pfn(pte), writable=writable,
                    cache_disable=bool(pte & PTE_CACHE_DISABLE))
                changed.append(vpn)
        self._shootdown(changed, "protect")
        return len(changed)

    def allocation_size(self, vaddr: int) -> Optional[int]:
        return self._allocations.get(vaddr)

    # -- faults (the OS's demand-paging handler) --------------------------------

    def handle_fault(self, vaddr: int, write: bool = False) -> None:
        """The OS page-fault handler: back the faulting page with a frame.

        ATR's proxy execution lands here: the IA32 sequencer touches the
        address "on behalf of the exo-sequencer", which drives this exact
        path.
        """
        vpn = vaddr >> PAGE_SHIFT
        with self._fault_lock:
            if self.page_table.entry(vpn):
                return  # raced: already mapped
            pfn = self.physical.alloc_frame()
            self.page_table.map(vpn, pfn, writable=True)
            self.faults_serviced += 1

    # -- cross-process mirroring -------------------------------------------------

    def pte_snapshot(self, vpns: Sequence[int]) -> Dict[int, int]:
        """The raw present PTEs for ``vpns`` — what ships to a worker
        process so its mirror page table can translate without a fault
        round trip per page."""
        out: Dict[int, int] = {}
        for vpn in vpns:
            pte = self.page_table.entry(vpn)
            if pte & PTE_PRESENT:
                out[vpn] = pte
        return out

    def install_pte(self, vpn: int, pte: int) -> None:
        """Install a raw PTE received from the authoritative space.

        The mirror side of cross-process paging: the parent resolves the
        fault against the real allocator, then the worker installs the
        resulting entry verbatim (same frame — the frames are shared
        memory, so identical PFNs address identical bytes).
        """
        if not pte & PTE_PRESENT:
            raise MemorySystemError(
                f"cannot install non-present PTE for vpn {vpn:#x}")
        self.page_table.map(
            vpn, pte_pfn(pte),
            writable=bool(pte & PTE_WRITABLE),
            cache_disable=bool(pte & PTE_CACHE_DISABLE))

    def invalidate_mappings(self, vpns: Sequence[int],
                            reason: str = "remote") -> int:
        """Receiver side of a cross-process shootdown: drop the mirror's
        PTEs for ``vpns`` *without freeing frames* (the owner already did)
        and rebroadcast to locally registered views and listeners, so the
        worker's TLBs, GTT mirrors and vector snapshots all invalidate.
        Returns the number of PTEs dropped.
        """
        dropped = 0
        for vpn in vpns:
            if self.page_table.entry(vpn) & PTE_PRESENT:
                self.page_table.unmap(vpn)
                dropped += 1
        self._shootdown(list(vpns), reason)
        return dropped

    # -- translation ------------------------------------------------------------

    def translate(self, vaddr: int, write: bool = False) -> int:
        """Virtual to physical, walking the IA32 tables.

        Demand paging services translation faults transparently, the way
        the OS does for the OS-managed sequencer.
        """
        vpn = vaddr >> PAGE_SHIFT
        try:
            entry = self.page_table.walk(vpn, write=write)
        except TranslationFault:
            if not self.demand_paging:
                raise
            self.handle_fault(vaddr, write=write)
            entry = self.page_table.walk(vpn, write=write)
        return (entry.pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))

    # -- byte access (the IA32 sequencer's view) ----------------------------------

    def read_bytes(self, vaddr: int, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.uint8)
        done = 0
        while done < count:
            chunk = min(count - done, PAGE_SIZE - ((vaddr + done) & (PAGE_SIZE - 1)))
            paddr = self.translate(vaddr + done)
            out[done : done + chunk] = self.physical.read(paddr, chunk)
            done += chunk
        return out

    def write_bytes(self, vaddr: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8)
        done = 0
        while done < data.size:
            chunk = min(data.size - done,
                        PAGE_SIZE - ((vaddr + done) & (PAGE_SIZE - 1)))
            paddr = self.translate(vaddr + done, write=True)
            self.physical.write(paddr, data[done : done + chunk])
            done += chunk

    def read_array(self, vaddr: int, count: int, dtype: np.dtype) -> np.ndarray:
        raw = self.read_bytes(vaddr, count * np.dtype(dtype).itemsize)
        return raw.view(dtype)[:count].copy()

    def write_array(self, vaddr: int, values: np.ndarray) -> None:
        self.write_bytes(vaddr, np.ascontiguousarray(values).view(np.uint8))

    # -- batched element access --------------------------------------------------

    def _translate_array(self, vaddrs: np.ndarray, itemsize: int,
                         write: bool) -> np.ndarray:
        """Page-wise vectorized translation through the IA32 tables.

        Walks each *distinct* page once (demand paging, A/D bits and
        protection checks all behave exactly as :meth:`translate`), then
        applies the page->frame map to the whole batch with numpy.
        """
        vaddrs = np.asarray(vaddrs, dtype=np.int64)
        if ((vaddrs & (PAGE_SIZE - 1)) + itemsize > PAGE_SIZE).any():
            raise MemorySystemError(
                "batched element access may not cross a page boundary")
        vpns = vaddrs >> PAGE_SHIFT
        uniq, inverse = np.unique(vpns, return_inverse=True)
        frames = np.empty(uniq.size, dtype=np.int64)
        for i, vpn in enumerate(uniq):
            paddr = self.translate(int(vpn) << PAGE_SHIFT, write=write)
            frames[i] = paddr >> PAGE_SHIFT
        return ((frames[inverse].reshape(vaddrs.shape) << PAGE_SHIFT)
                | (vaddrs & (PAGE_SIZE - 1)))

    def gather(self, vaddrs: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Read one ``dtype`` element at each virtual address."""
        dtype = np.dtype(dtype)
        paddrs = self._translate_array(vaddrs, dtype.itemsize, write=False)
        return self.physical.gather(paddrs, dtype)

    def scatter(self, vaddrs: np.ndarray, values: np.ndarray) -> None:
        """Write one typed element at each virtual address (last writer
        wins between duplicate addresses, in flattened order)."""
        values = np.asarray(values)
        paddrs = self._translate_array(vaddrs, values.dtype.itemsize,
                                       write=True)
        self.physical.scatter(paddrs, values)


class SequencerView:
    """An exo-sequencer's window onto the shared virtual address space.

    All translation goes through ``tlb`` (GTT-format entries); a miss
    raises :class:`~repro.errors.TlbMiss`.  The exoskeleton catches that,
    runs ATR proxy execution on the IA32 sequencer, and retries.
    """

    def __init__(self, space: AddressSpace, tlb: Optional[Tlb] = None,
                 name: str = "exo"):
        self.space = space
        self.name = name
        self.tlb = tlb or Tlb(capacity=32, name=name)
        #: The device's own page table ("the industry standard GPU
        #: driver-oriented page table format").  ATR fills it with
        #: transcoded entries; later TLB misses on the same page refill
        #: from here with a hardware walk — no proxy round trip.
        self.gtt: dict = {}
        self.gtt_walks = 0
        self.shootdowns_received = 0
        #: Batches resolved end-to-end by :meth:`translate_batch` (counts
        #: distinct pages, not lanes).
        self.batched_translations = 0
        # lazily built sorted (vpn, entry) snapshot of ``gtt`` for the
        # vectorized path; rebuilt when the dict length changes and on
        # explicit invalidation (shootdowns can swap K pages for K other
        # pages without changing the length, so the flag is load-bearing)
        self._gtt_vec_vpns: Optional[np.ndarray] = None
        self._gtt_vec_entries: Optional[np.ndarray] = None
        self._gtt_vec_len = -1
        # joining the space's shootdown domain is what keeps this view's
        # cached translations coherent with frees/remaps on the IA32 side
        space.register_view(self)

    def translate(self, vaddr: int, write: bool = False) -> int:
        vpn = vaddr >> PAGE_SHIFT
        try:
            entry = self.tlb.lookup(vpn)
        except TlbMiss:
            entry = self.gtt.get(vpn)
            if entry is None:
                raise  # genuinely unmapped: ATR proxy required
            self.gtt_walks += 1
            self.tlb.insert(vpn, entry)
        if not gtt_valid(entry):
            raise TlbMiss(vaddr, sequencer=self.name)
        return (gtt_pfn(entry) << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))

    # -- vectorized translation --------------------------------------------------

    def invalidate_vector_cache(self) -> None:
        """Drop the sorted GTT snapshot (shootdown coherence hook)."""
        self._gtt_vec_vpns = None
        self._gtt_vec_entries = None
        self._gtt_vec_len = -1
        # the TLB's own vector snapshot keys off the same translations
        self.tlb._vec_vpns = None

    def _gtt_snapshot(self):
        if self._gtt_vec_vpns is None or self._gtt_vec_len != len(self.gtt):
            count = len(self.gtt)
            vpns = np.fromiter(self.gtt.keys(), dtype=np.int64, count=count)
            entries = np.fromiter(self.gtt.values(), dtype=np.int64,
                                  count=count)
            order = np.argsort(vpns)
            self._gtt_vec_vpns = vpns[order]
            self._gtt_vec_entries = entries[order]
            self._gtt_vec_len = count
        return self._gtt_vec_vpns, self._gtt_vec_entries

    def translate_batch(self, vaddrs: np.ndarray,
                        write: bool = False) -> np.ndarray:
        """Translate a whole batch of virtual addresses in one operation.

        The fast path probes the TLB's sorted vector snapshot, then
        refills the missing subset from the GTT snapshot (a batched
        hardware walk).  Pages resident in neither raise one
        :class:`TlbMiss` carrying *every* missing page, page-aligned —
        the same shape :meth:`prepare_range` raises — so the exoskeleton
        coalesces them into a single ATR batched proxy round trip.  The
        raise happens before any view counter moves (only the TLB's own
        ``vector_hits`` probe count has): a missed batch is otherwise
        side-effect free.

        Unlike the scalar :meth:`translate`, GTT refills do not insert
        into the TLB (a 32-wide batch would churn the whole LRU chain);
        the differential contract covers architectural state and the
        TLB hit/miss split is engine-specific.

        The distinct pages come out sorted either way.  When they span
        at most four pages per address (every block, row and sampler box
        of one surface, and most coalesced batches), a mark array over
        the span finds them without a sort, and a page-to-frame table
        over the same span maps the batch back; sparser batches take
        ``np.unique``.
        """
        vaddrs = np.asarray(vaddrs, dtype=np.int64)
        vpns = vaddrs.reshape(-1) >> PAGE_SHIFT
        first = int(vpns.min()) if vpns.size else 0
        span = int(vpns.max()) + 1 - first if vpns.size else 0
        if 0 < span <= 4 * vpns.size:
            rel = vpns - first
            mark = np.zeros(span, dtype=bool)
            mark[rel] = True
            uniq = np.flatnonzero(mark) + first
        else:
            rel = None
            uniq, inverse = np.unique(vpns, return_inverse=True)
        entries, hit = self.tlb.translate_batch(uniq << PAGE_SHIFT,
                                                write=write)
        if not hit.all():
            miss_idx = np.nonzero(~hit)[0]
            gtt_vpns, gtt_entries = self._gtt_snapshot()
            if gtt_vpns.size:
                pos = np.searchsorted(gtt_vpns, uniq[miss_idx])
                pos_clipped = np.minimum(pos, gtt_vpns.size - 1)
                found = gtt_vpns[pos_clipped] == uniq[miss_idx]
                entries[miss_idx[found]] = gtt_entries[pos_clipped[found]]
                hit[miss_idx[found]] = True
            else:
                found = np.zeros(miss_idx.size, dtype=bool)
            walked = int(found.sum())
        else:
            walked = 0
        resolved = hit & gtt_valid_array(entries)
        if not resolved.all():
            missing = uniq[~resolved] << PAGE_SHIFT
            raise TlbMiss(int(missing[0]), sequencer=self.name,
                          vaddrs=tuple(int(m) for m in missing))
        self.gtt_walks += walked
        self.batched_translations += int(uniq.size)
        # paddr = vaddr + ((pfn - vpn) << PAGE_SHIFT): one shift per page
        delta = (gtt_pfn_array(entries) - uniq) << PAGE_SHIFT
        if rel is None:
            return vaddrs + delta[inverse].reshape(vaddrs.shape)
        table = np.empty(span, dtype=np.int64)
        table[uniq - first] = delta
        return vaddrs + table[rel].reshape(vaddrs.shape)

    def gather(self, vaddrs: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Batched typed read through the vectorized translation path."""
        dtype = np.dtype(dtype)
        vaddrs = np.asarray(vaddrs, dtype=np.int64)
        if ((vaddrs & (PAGE_SIZE - 1)) + dtype.itemsize > PAGE_SIZE).any():
            raise MemorySystemError(
                "batched element access may not cross a page boundary")
        paddrs = self.translate_batch(vaddrs)
        return self.space.physical.gather(paddrs, dtype)

    def scatter(self, vaddrs: np.ndarray, values: np.ndarray) -> None:
        """Batched typed write; duplicate addresses resolve in flattened
        (queue) order, last writer wins."""
        values = np.asarray(values)
        vaddrs = np.asarray(vaddrs, dtype=np.int64)
        if ((vaddrs & (PAGE_SIZE - 1))
                + values.dtype.itemsize > PAGE_SIZE).any():
            raise MemorySystemError(
                "batched element access may not cross a page boundary")
        paddrs = self.translate_batch(vaddrs, write=True)
        self.space.physical.scatter(paddrs, values)

    def prepare_range(self, vaddr: int, count: int, write: bool = False) -> list:
        """Translate every page an access will touch; returns paddr chunks.

        Translating up front keeps accesses atomic with respect to TLB
        misses: either the whole range is mapped, or :class:`TlbMiss` is
        raised before any byte moves.  The raised miss carries *every*
        missing page of the range, so ATR can coalesce the faults into one
        batched proxy round trip instead of one per page.
        """
        chunks = []
        missing: list = []
        done = 0
        while done < count:
            size = min(count - done, PAGE_SIZE - ((vaddr + done) & (PAGE_SIZE - 1)))
            try:
                paddr = self.translate(vaddr + done, write=write)
            except TlbMiss:
                missing.append(vaddr + done)
                paddr = None
            chunks.append((paddr, size))
            done += size
        if missing:
            raise TlbMiss(missing[0], sequencer=self.name,
                          vaddrs=tuple(missing))
        return chunks

    def read_bytes(self, vaddr: int, count: int) -> np.ndarray:
        chunks = self.prepare_range(vaddr, count)
        out = np.empty(count, dtype=np.uint8)
        done = 0
        for paddr, size in chunks:
            out[done : done + size] = self.space.physical.read(paddr, size)
            done += size
        return out

    def write_bytes(self, vaddr: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8)
        chunks = self.prepare_range(vaddr, data.size, write=True)
        done = 0
        for paddr, size in chunks:
            self.space.physical.write(paddr, data[done : done + size])
            done += size

    def read_array(self, vaddr: int, count: int, dtype: np.dtype) -> np.ndarray:
        raw = self.read_bytes(vaddr, count * np.dtype(dtype).itemsize)
        return raw.view(dtype)[:count].copy()

    def write_array(self, vaddr: int, values: np.ndarray) -> None:
        self.write_bytes(vaddr, np.ascontiguousarray(values).view(np.uint8))
