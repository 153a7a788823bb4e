"""Per-sequencer TLBs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TlbMiss
from repro.memory.tlb import Tlb


def test_miss_then_hit():
    tlb = Tlb(capacity=4, name="t")
    with pytest.raises(TlbMiss):
        tlb.lookup(5)
    tlb.insert(5, 0xAA)
    assert tlb.lookup(5) == 0xAA
    assert tlb.hits == 1 and tlb.misses == 1


def test_miss_reports_address_and_sequencer():
    tlb = Tlb(name="gma")
    with pytest.raises(TlbMiss) as info:
        tlb.lookup(3)
    assert info.value.vaddr == 3 << 12
    assert info.value.sequencer == "gma"


def test_lru_eviction():
    tlb = Tlb(capacity=2)
    tlb.insert(1, 11)
    tlb.insert(2, 22)
    tlb.lookup(1)  # 1 becomes most recent
    tlb.insert(3, 33)  # evicts 2
    assert 1 in tlb and 3 in tlb and 2 not in tlb


def test_reinsert_updates_value():
    tlb = Tlb(capacity=2)
    tlb.insert(1, 11)
    tlb.insert(1, 99)
    assert tlb.lookup(1) == 99
    assert len(tlb) == 1


def test_invalidate_single_and_all():
    tlb = Tlb(capacity=4)
    tlb.insert(1, 1)
    tlb.insert(2, 2)
    tlb.invalidate(1)
    assert 1 not in tlb and 2 in tlb
    tlb.invalidate()
    assert len(tlb) == 0


def test_probe_does_not_count():
    tlb = Tlb()
    assert tlb.probe(9) is None
    tlb.insert(9, 1)
    assert tlb.probe(9) == 1
    assert tlb.hits == 0 and tlb.misses == 0


def test_probe_does_not_perturb_lru():
    """probe is a diagnostic peek: unlike lookup, it must not freshen
    the entry's recency (or the debugger would change eviction order)."""
    tlb = Tlb(capacity=2)
    tlb.insert(1, 11)
    tlb.insert(2, 22)
    assert tlb.probe(1) == 11  # does NOT make 1 most-recent
    tlb.insert(3, 33)  # still evicts 1, the true LRU victim
    assert 1 not in tlb and 2 in tlb and 3 in tlb
    assert tlb.hits == 0 and tlb.misses == 0


def test_invalidate_none_is_full_flush():
    tlb = Tlb(capacity=4)
    tlb.insert(1, 1)
    tlb.insert(2, 2)
    tlb.invalidate(None)  # explicit None, same as no-arg
    assert len(tlb) == 0
    with pytest.raises(TlbMiss):
        tlb.lookup(1)


def test_invalidate_absent_vpn_is_noop():
    tlb = Tlb(capacity=2)
    tlb.insert(1, 1)
    tlb.invalidate(7)
    assert 1 in tlb and len(tlb) == 1


def test_capacity_one():
    """Degenerate single-entry TLB: every new page displaces the last."""
    tlb = Tlb(capacity=1)
    tlb.insert(1, 11)
    assert tlb.lookup(1) == 11
    tlb.insert(2, 22)
    assert 1 not in tlb and len(tlb) == 1
    assert tlb.lookup(2) == 22
    with pytest.raises(TlbMiss):
        tlb.lookup(1)
    # re-inserting the resident page must not evict it
    tlb.insert(2, 99)
    assert tlb.lookup(2) == 99 and len(tlb) == 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        Tlb(capacity=0)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=200))
def test_capacity_never_exceeded(vpns):
    tlb = Tlb(capacity=8)
    for vpn in vpns:
        tlb.insert(vpn, vpn)
        assert len(tlb) <= 8
    # most recently inserted is always resident
    assert vpns[-1] in tlb


class _CountingEntries(dict):
    """Stand-in for the TLB's backing OrderedDict that counts probes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def move_to_end(self, key):
        pass  # plain dict: insertion order is fine for these tests

    def popitem(self, last=True):
        key = next(iter(self)) if not last else next(reversed(self))
        return key, self.pop(key)


class TestLastPageMru:
    def test_repeat_page_skips_dict_probe(self):
        """Consecutive same-page lookups must be absorbed by the
        one-entry MRU: exactly one dict probe, hit accounting unchanged."""
        tlb = Tlb(capacity=4)
        tlb.insert(7, 0x77)
        counting = _CountingEntries(tlb._entries)
        tlb._entries = counting
        tlb._mru_vpn = -1  # force the first lookup through the dict
        for _ in range(16):
            assert tlb.lookup(7) == 0x77
        assert counting.probes == 1
        assert tlb.hits == 16
        assert tlb.mru_hits == 15

    def test_insert_primes_mru(self):
        tlb = Tlb(capacity=4)
        tlb.insert(3, 0x33)
        counting = _CountingEntries(tlb._entries)
        tlb._entries = counting
        assert tlb.lookup(3) == 0x33  # insert already primed the MRU
        assert counting.probes == 0

    def test_invalidate_clears_mru(self):
        tlb = Tlb(capacity=4)
        tlb.insert(5, 0x55)
        tlb.lookup(5)
        tlb.invalidate(5)
        with pytest.raises(TlbMiss):
            tlb.lookup(5)  # the MRU must not serve the dead entry

    def test_full_flush_clears_mru(self):
        tlb = Tlb(capacity=4)
        tlb.insert(5, 0x55)
        tlb.invalidate()
        with pytest.raises(TlbMiss):
            tlb.lookup(5)

    def test_eviction_clears_mru(self):
        tlb = Tlb(capacity=1)
        tlb.insert(1, 11)
        tlb.lookup(1)
        tlb.insert(2, 22)  # evicts vpn 1, which is also the MRU
        with pytest.raises(TlbMiss):
            tlb.lookup(1)

    def test_reinsert_updates_mru_value(self):
        tlb = Tlb(capacity=4)
        tlb.insert(1, 11)
        tlb.lookup(1)
        tlb.insert(1, 99)
        assert tlb.lookup(1) == 99

    def test_mru_hit_preserves_lru_order(self):
        """An MRU hit skips move_to_end; that is only sound because the
        MRU entry is by construction already at the LRU tail."""
        tlb = Tlb(capacity=2)
        tlb.insert(1, 11)
        tlb.insert(2, 22)
        tlb.lookup(2)  # MRU hit: 2 is already most recent
        tlb.insert(3, 33)  # must evict 1, the true LRU victim
        assert 2 in tlb and 3 in tlb and 1 not in tlb


class TestVectorSnapshot:
    def test_translate_batch_hits_and_misses(self):
        import numpy as np
        tlb = Tlb(capacity=8)
        tlb.insert(1, 0x11)
        tlb.insert(3, 0x33)
        vaddrs = np.array([1 << 12, (3 << 12) + 40, 2 << 12])
        entries, hit = tlb.translate_batch(vaddrs)
        assert hit.tolist() == [True, True, False]
        assert entries.tolist() == [0x11, 0x33, 0]
        assert tlb.vector_hits == 2
        # the wide probe is architecturally one access, not per-lane
        assert tlb.hits == 0 and tlb.misses == 0

    def test_empty_tlb_all_miss(self):
        import numpy as np
        tlb = Tlb()
        entries, hit = tlb.translate_batch(np.array([0, 1 << 12]))
        assert not hit.any() and not entries.any()

    def test_snapshot_tracks_insert_and_invalidate(self):
        import numpy as np
        tlb = Tlb(capacity=8)
        tlb.insert(1, 0x11)
        _, hit = tlb.translate_batch(np.array([1 << 12]))
        assert hit.all()
        tlb.insert(2, 0x22)  # must dirty the snapshot
        _, hit = tlb.translate_batch(np.array([2 << 12]))
        assert hit.all()
        tlb.invalidate(1)
        _, hit = tlb.translate_batch(np.array([1 << 12]))
        assert not hit.any()


class TestViewBatchPaths:
    """``SequencerView.translate_batch`` finds a batch's distinct pages
    with a mark array when they span at most four pages per address and
    with ``np.unique`` otherwise; both must answer identically."""

    PAGES = (3, 12, 21, 30, 39)  # 4 and 5 are GTT-only, 6 is unmapped

    @staticmethod
    def _view(tlb_pages, gtt_pages):
        from repro.memory.address_space import AddressSpace, SequencerView
        from repro.memory.gtt import make_gtt_entry

        view = SequencerView(AddressSpace(), Tlb(capacity=8), name="v")
        for vpn in gtt_pages:
            view.gtt[vpn] = make_gtt_entry(1000 + 7 * vpn)
        for vpn in tlb_pages:
            view.tlb.insert(vpn, make_gtt_entry(1000 + 7 * vpn))
        return view

    def _translate(self, pages, repeat, tlb_pages, gtt_pages):
        """Translate ``repeat`` addresses per page; return the physical
        addresses of the first address of each page, the counter deltas,
        the miss (if any) and whether ``np.unique`` ran."""
        from unittest import mock

        import numpy as np

        view = self._view(tlb_pages, gtt_pages)
        offsets = (np.arange(repeat) * 97) % 4096
        vaddrs = np.array([(vpn << 12) + off for off in offsets
                           for vpn in pages], dtype=np.int64)
        vaddrs = vaddrs.reshape(repeat, len(pages))
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            try:
                paddrs = view.translate_batch(vaddrs)
                miss = None
            except TlbMiss as exc:
                paddrs, miss = None, exc.vaddrs
        counters = (view.batched_translations, view.gtt_walks,
                    view.tlb.vector_hits)
        first = None if paddrs is None else paddrs[0].tolist()
        return first, counters, miss, unique.called

    @pytest.mark.parametrize("tlb_pages, gtt_pages", [
        ((3, 12, 21, 30, 39), ()),            # all TLB hits
        ((3, 21), (12, 30, 39)),              # TLB hits plus GTT walks
        ((), (3, 12, 21, 30, 39)),            # all GTT walks
        ((3,), (12, 39)),                     # 21 and 30 miss
    ])
    def test_dense_and_sparse_batches_agree(self, tlb_pages, gtt_pages):
        # one address per page spans 37 pages for 5 addresses: sparse;
        # 16 per page spans 37 pages for 80 addresses: dense
        sparse = self._translate(self.PAGES, 1, tlb_pages, gtt_pages)
        dense = self._translate(self.PAGES, 16, tlb_pages, gtt_pages)
        assert sparse[3] and not dense[3]  # each took its path
        assert sparse[:3] == dense[:3]
        expected_hits = len(set(tlb_pages) & set(self.PAGES))
        walked = len(set(gtt_pages) & set(self.PAGES))
        missing = [vpn << 12 for vpn in self.PAGES
                   if vpn not in tlb_pages and vpn not in gtt_pages]
        if missing:
            # a missed batch moves only the TLB's own probe counter
            assert dense[2] == tuple(missing)
            assert dense[1] == (0, 0, expected_hits)
        else:
            assert dense[2] is None
            assert dense[1] == (len(self.PAGES), walked, expected_hits)
            assert dense[0] == [((1000 + 7 * vpn) << 12)
                                for vpn in self.PAGES]

    def test_every_address_maps_through_its_own_page(self):
        import numpy as np

        view = self._view((), self.PAGES)
        rng = np.random.default_rng(5)
        pages = rng.choice(self.PAGES, size=(6, 40))
        vaddrs = (pages << 12) + rng.integers(0, 4096, size=pages.shape)
        paddrs = view.translate_batch(vaddrs)
        assert paddrs.shape == vaddrs.shape
        assert np.array_equal(paddrs >> 12, 1000 + 7 * pages)
        assert np.array_equal(paddrs & 4095, vaddrs & 4095)
