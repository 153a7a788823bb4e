"""Per-sequencer translation lookaside buffers."""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from ..errors import TlbMiss
from .physical import PAGE_SHIFT


class Tlb:
    """A small fully-associative TLB with LRU replacement.

    Entries are opaque integers in whatever page-table-entry format the
    owning sequencer understands (IA32 PTEs for the CPU, GTT entries for
    the GMA) — the TLB itself never interprets them beyond validity.

    Two fast paths sit in front of the LRU dict:

    * a one-entry **last-page MRU** — consecutive accesses to the same
      page (the common scalar-interpreter pattern: every lane of a
      16-wide access, then the next instruction on the same surface
      row) skip the dict probe and the ``move_to_end`` reorder.  An MRU
      hit still counts as a TLB hit.
    * a lazily built **sorted vector snapshot** of all resident entries,
      consumed by :meth:`translate_batch` to resolve a whole batch of
      addresses with one ``searchsorted`` instead of one dict probe per
      lane.  The snapshot is invalidated by any insert or invalidate.
    """

    def __init__(self, capacity: int = 64, name: str = "tlb"):
        if capacity < 1:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Hits absorbed by the one-entry MRU (a subset of ``hits``).
        self.mru_hits = 0
        #: Pages served by the vectorized :meth:`translate_batch` path.
        self.vector_hits = 0
        self._mru_vpn = -1
        self._mru_entry = 0
        self._vec_vpns: Optional[np.ndarray] = None
        self._vec_entries: Optional[np.ndarray] = None

    def lookup(self, vpn: int) -> int:
        """Return the cached entry for ``vpn`` or raise :class:`TlbMiss`."""
        if vpn == self._mru_vpn:
            self.hits += 1
            self.mru_hits += 1
            return self._mru_entry
        entry = self._entries.get(vpn)
        if entry is None:
            self.misses += 1
            raise TlbMiss(vpn << PAGE_SHIFT, sequencer=self.name)
        self._entries.move_to_end(vpn)
        self.hits += 1
        self._mru_vpn = vpn
        self._mru_entry = entry
        return entry

    def probe(self, vpn: int) -> Optional[int]:
        """Non-faulting lookup; does not count as an access."""
        return self._entries.get(vpn)

    def insert(self, vpn: int, entry: int) -> None:
        if vpn in self._entries:
            self._entries.move_to_end(vpn)
        elif len(self._entries) >= self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            if evicted == self._mru_vpn:
                self._mru_vpn = -1
        self._entries[vpn] = entry
        self._mru_vpn = vpn
        self._mru_entry = entry
        self._vec_vpns = None

    def invalidate(self, vpn: Optional[int] = None) -> None:
        """Drop one entry, or all of them when ``vpn`` is None."""
        if vpn is None:
            self._entries.clear()
            self._mru_vpn = -1
        else:
            self._entries.pop(vpn, None)
            if vpn == self._mru_vpn:
                self._mru_vpn = -1
        self._vec_vpns = None

    # -- vectorized translation -------------------------------------------------

    def _vector_snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._vec_vpns is None:
            count = len(self._entries)
            vpns = np.fromiter(self._entries.keys(), dtype=np.int64,
                               count=count)
            entries = np.fromiter(self._entries.values(), dtype=np.int64,
                                  count=count)
            order = np.argsort(vpns)
            self._vec_vpns = vpns[order]
            self._vec_entries = entries[order]
        return self._vec_vpns, self._vec_entries

    def translate_batch(self, vaddrs: np.ndarray,
                        write: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve a batch of virtual addresses against resident entries.

        Returns ``(entries, hit)`` arrays shaped like ``vaddrs``: for
        each address the cached (opaque) entry of its page, and whether
        the page was resident.  Missing pages get entry 0 and are the
        caller's problem — the view falls back to its GTT and ultimately
        to the ATR batched proxy round trip.

        Unlike :meth:`lookup` this neither reorders the LRU chain nor
        counts ``hits``/``misses``: it is the gang tier's wide probe,
        architecturally one access, and its accounting is the separate
        ``vector_hits`` counter.  ``write`` is accepted for signature
        parity with the view-level translate; entries are opaque here so
        permission checks happen in the consumer.
        """
        vaddrs = np.asarray(vaddrs, dtype=np.int64)
        vpns = vaddrs >> PAGE_SHIFT
        if not self._entries:
            return (np.zeros(vaddrs.shape, dtype=np.int64),
                    np.zeros(vaddrs.shape, dtype=bool))
        snap_vpns, snap_entries = self._vector_snapshot()
        pos = np.searchsorted(snap_vpns, vpns)
        pos_clipped = np.minimum(pos, snap_vpns.size - 1)
        hit = snap_vpns[pos_clipped] == vpns
        entries = np.where(hit, snap_entries[pos_clipped], 0)
        self.vector_hits += int(hit.sum())
        return entries, hit

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries
