"""Shared-memory backing for PhysicalMemory: lifecycle and visibility."""

import multiprocessing

import numpy as np
import pytest

from repro.errors import MemorySystemError
from repro.memory.physical import PAGE_SIZE, PhysicalMemory

SIZE = 4 * 1024 * 1024


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return False
    shm.close()
    return True


def _rss_shmem_kb():
    """This process's resident shared memory in kB, or None where the
    kernel does not report it."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("RssShmem:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class TestBacking:
    def test_local_backing_has_no_segment(self):
        mem = PhysicalMemory(size=SIZE)
        assert mem.backing == "local"
        assert mem.shm_name is None
        mem.close()  # no-op for local

    def test_unknown_backing_rejected(self):
        with pytest.raises(ValueError, match="unknown physical backing"):
            PhysicalMemory(size=SIZE, backing="mmap")

    def test_shared_backing_zeroed_and_usable(self):
        mem = PhysicalMemory(size=SIZE, backing="shared")
        try:
            assert mem.shm_name is not None
            pfn = mem.alloc_frame()
            assert not mem.read(pfn * PAGE_SIZE, PAGE_SIZE).any()
            mem.write(pfn * PAGE_SIZE, np.arange(16, dtype=np.uint8))
            assert mem.read(pfn * PAGE_SIZE, 16).tolist() == list(range(16))
        finally:
            mem.close()

    def test_fresh_segment_reads_zero_without_becoming_resident(self):
        """The OS zero-fills a new segment, so building the pool must not
        touch its pages.  Residency is measured before any read, because
        reading a page makes it resident."""
        before = _rss_shmem_kb()
        if before is None:
            pytest.skip("/proc/self/status reports no RssShmem")
        size = 32 * 1024 * 1024
        mem = PhysicalMemory(size=size, backing="shared")
        try:
            grown_kb = _rss_shmem_kb() - before
            assert grown_kb < size // 1024 // 4, grown_kb
            for pfn in (0, 1, mem.num_frames // 2, mem.num_frames - 1):
                assert not mem.read(pfn * PAGE_SIZE, PAGE_SIZE).any()
        finally:
            mem.close()


class TestLifecycle:
    def test_owner_close_unlinks_segment(self):
        mem = PhysicalMemory(size=SIZE, backing="shared")
        name = mem.shm_name
        assert _segment_exists(name)
        mem.close()
        assert not _segment_exists(name)

    def test_close_is_idempotent(self):
        mem = PhysicalMemory(size=SIZE, backing="shared")
        mem.close()
        mem.close()

    def test_attacher_close_leaves_segment(self):
        owner = PhysicalMemory(size=SIZE, backing="shared")
        name = owner.shm_name
        try:
            attached = PhysicalMemory.attach(name, SIZE)
            attached.close()
            assert _segment_exists(name)
        finally:
            owner.close()
        assert not _segment_exists(name)

    def test_attach_too_small_segment_rejected(self):
        owner = PhysicalMemory(size=SIZE, backing="shared")
        try:
            with pytest.raises(MemorySystemError, match="bytes"):
                PhysicalMemory.attach(owner.shm_name, 2 * SIZE)
        finally:
            owner.close()

    def test_unlink_reaps_orphaned_segment(self):
        mem = PhysicalMemory(size=SIZE, backing="shared")
        name = mem.shm_name
        mem.unlink()
        assert not _segment_exists(name)
        mem.close()  # must not raise or double-unlink

    def test_no_leak_after_aborted_attacher(self):
        """A killed attacher process must not leak the segment: the owner
        still holds it and still reaps it on close."""
        owner = PhysicalMemory(size=SIZE, backing="shared")
        name = owner.shm_name

        def _attach_and_hang(seg_name, size):
            PhysicalMemory.attach(seg_name, size)
            import time

            time.sleep(60)

        proc = multiprocessing.Process(target=_attach_and_hang,
                                       args=(name, SIZE), daemon=True)
        proc.start()
        try:
            assert _segment_exists(name)
        finally:
            proc.kill()
            proc.join(timeout=10)
        owner.close()
        assert not _segment_exists(name)


class TestCrossProcessVisibility:
    @staticmethod
    def _child_write(name, size, paddr):
        mem = PhysicalMemory.attach(name, size)
        mem.write(paddr, np.full(8, 0xAB, dtype=np.uint8))
        mem.close()

    def test_child_writes_visible_to_owner(self):
        owner = PhysicalMemory(size=SIZE, backing="shared")
        try:
            pfn = owner.alloc_frame()
            paddr = pfn * PAGE_SIZE
            proc = multiprocessing.Process(
                target=self._child_write,
                args=(owner.shm_name, SIZE, paddr))
            proc.start()
            proc.join(timeout=30)
            assert proc.exitcode == 0
            assert owner.read(paddr, 8).tolist() == [0xAB] * 8
        finally:
            owner.close()
