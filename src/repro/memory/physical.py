"""Physical memory: a flat frame-granular byte store with an allocator.

Two backings are supported:

* ``"local"`` (default) — a private numpy array, the single-process
  configuration every earlier layer was built on;
* ``"shared"`` — the same byte store over a
  :class:`multiprocessing.shared_memory.SharedMemory` segment, so fabric
  worker *processes* can attach the identical frames.  The creating
  process owns the segment (``close()`` unlinks it); workers attach with
  :meth:`PhysicalMemory.attach` and only detach on close.  The frame
  *allocator* stays parent-side authoritative: children never call
  ``alloc_frame``/``free_frame`` — their demand faults are proxied back
  to the owner over the worker pipe (see :mod:`repro.fabric.workers`).
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import MemorySystemError, OutOfPhysicalMemory

#: Page/frame size in bytes (IA32 4 KiB pages).
PAGE_SIZE = 4096
PAGE_SHIFT = 12


class PhysicalMemory:
    """Byte-addressable physical memory divided into 4 KiB frames.

    Both the IA32 sequencer and the GMA exo-sequencers resolve virtual
    addresses to offsets in this single store — that is what makes the
    shared *virtual* address space of EXO yield shared *physical* data.
    """

    def __init__(self, size: int = 256 * 1024 * 1024,
                 backing: str = "local", name: str | None = None):
        if size % PAGE_SIZE:
            raise ValueError(f"physical size must be a multiple of {PAGE_SIZE}")
        self.size = size
        self.num_frames = size // PAGE_SIZE
        self.backing = backing
        self._shm = None
        self._owns_shm = False
        if backing == "local":
            self._data = np.zeros(size, dtype=np.uint8)
        elif backing == "shared":
            from multiprocessing import shared_memory

            self._shm = shared_memory.SharedMemory(
                create=True, size=size, name=name)
            self._owns_shm = True
            # a fresh segment is zero-filled by the OS; writing zeros here
            # would only make every page resident in this process
            self._data = np.ndarray((size,), dtype=np.uint8,
                                    buffer=self._shm.buf)
        else:
            raise ValueError(
                f"unknown physical backing {backing!r} "
                f"(choose 'local' or 'shared')")
        self._next_frame = 0
        self._free_frames: list = []
        # Serving drains and fault proxies can allocate from several host
        # threads at once; the allocator's free-list push/pop must not race.
        self._alloc_lock = threading.Lock()

    @classmethod
    def attach(cls, name: str, size: int) -> "PhysicalMemory":
        """Attach to an existing shared segment created by another process.

        The attached instance never unlinks the segment — lifetime belongs
        to the creator.  Its frame allocator starts empty and must not be
        used: frames are owned by the creating process's allocator.
        """
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name, create=False)
        if shm.size < size:
            shm.close()
            raise MemorySystemError(
                f"shared segment {name!r} is {shm.size} bytes, "
                f"need {size}")
        self = cls.__new__(cls)
        self.size = size
        self.num_frames = size // PAGE_SIZE
        self.backing = "shared"
        self._shm = shm
        self._owns_shm = False
        self._data = np.ndarray((size,), dtype=np.uint8, buffer=shm.buf)
        self._next_frame = 0
        self._free_frames = []
        self._alloc_lock = threading.Lock()
        return self

    @property
    def shm_name(self) -> str | None:
        """The shared segment's name (``None`` for local backing)."""
        return self._shm.name if self._shm is not None else None

    def close(self) -> None:
        """Detach from the shared segment (and unlink it if we created it).

        Idempotent; a no-op for local backing.  After close the byte store
        is unusable — every view into the segment is released first so the
        mapping can actually be torn down.
        """
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        self._data = np.zeros(0, dtype=np.uint8)
        shm.close()
        if self._owns_shm:
            self._owns_shm = False
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    def unlink(self) -> None:
        """Force-remove the shared segment from the system.

        Normally :meth:`close` on the owner does this; ``unlink`` exists
        for cleanup paths that must reap a segment whose owner died.
        """
        if self._shm is None:
            return
        self._owns_shm = False  # close() must not double-unlink
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    # -- frame allocation -----------------------------------------------------

    def alloc_frame(self) -> int:
        """Allocate one frame; returns the physical frame number (PFN)."""
        with self._alloc_lock:
            if self._free_frames:
                return self._free_frames.pop()
            if self._next_frame >= self.num_frames:
                raise OutOfPhysicalMemory(
                    f"all {self.num_frames} physical frames are in use")
            pfn = self._next_frame
            self._next_frame += 1
            return pfn

    def free_frame(self, pfn: int) -> None:
        if not 0 <= pfn < self.num_frames:
            raise ValueError(f"PFN {pfn} out of range")
        self._data[pfn * PAGE_SIZE : (pfn + 1) * PAGE_SIZE] = 0
        with self._alloc_lock:
            self._free_frames.append(pfn)

    @property
    def frames_in_use(self) -> int:
        return self._next_frame - len(self._free_frames)

    # -- byte access ------------------------------------------------------------

    def read(self, paddr: int, count: int) -> np.ndarray:
        """Read ``count`` raw bytes at physical address ``paddr``."""
        self._check(paddr, count)
        return self._data[paddr : paddr + count]

    def write(self, paddr: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8)
        self._check(paddr, data.size)
        self._data[paddr : paddr + data.size] = data

    def view(self, paddr: int, count: int) -> np.ndarray:
        """A mutable view (no copy) of physical bytes — fast path for
        page-contained typed accesses."""
        self._check(paddr, count)
        return self._data[paddr : paddr + count]

    # -- batched access ---------------------------------------------------------

    def gather(self, paddrs: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Read one ``dtype`` element at each physical address in ``paddrs``.

        The fancy-indexed fast path requires every address to be aligned
        to the element size; unaligned batches fall back to per-element
        reads.  Returns an array with the shape of ``paddrs``.
        """
        dtype = np.dtype(dtype)
        paddrs = np.asarray(paddrs, dtype=np.int64)
        if paddrs.size == 0:
            return np.empty(paddrs.shape, dtype=dtype)
        lo = int(paddrs.min())
        hi = int(paddrs.max())
        if lo < 0 or hi + dtype.itemsize > self.size:
            raise ValueError(
                f"physical access [{lo:#x}, {hi + dtype.itemsize:#x}) out of range")
        if dtype.itemsize == 1:
            return self._data[paddrs].view(dtype)
        if not (paddrs % dtype.itemsize).any():
            return self._data.view(dtype)[paddrs // dtype.itemsize]
        out = np.empty(paddrs.size, dtype=dtype)
        flat = paddrs.reshape(-1)
        for i in range(flat.size):
            p = int(flat[i])
            out[i] = self._data[p : p + dtype.itemsize].view(dtype)[0]
        return out.reshape(paddrs.shape)

    def scatter(self, paddrs: np.ndarray, values: np.ndarray) -> None:
        """Write one typed element at each physical address in ``paddrs``.

        Duplicate addresses resolve last-writer-wins in flattened (C)
        order, which is exactly the shred queue order the gang tier
        feeds them in.
        """
        paddrs = np.asarray(paddrs, dtype=np.int64)
        values = np.asarray(values)
        dtype = values.dtype
        if paddrs.size == 0:
            return
        lo = int(paddrs.min())
        hi = int(paddrs.max())
        if lo < 0 or hi + dtype.itemsize > self.size:
            raise ValueError(
                f"physical access [{lo:#x}, {hi + dtype.itemsize:#x}) out of range")
        if dtype.itemsize == 1:
            self._data[paddrs.reshape(-1)] = values.reshape(-1).view(np.uint8)
            return
        if not (paddrs % dtype.itemsize).any():
            self._data.view(dtype)[paddrs.reshape(-1) // dtype.itemsize] = \
                values.reshape(-1)
            return
        flat_p = paddrs.reshape(-1)
        flat_v = values.reshape(-1)
        for i in range(flat_p.size):
            p = int(flat_p[i])
            self._data[p : p + dtype.itemsize] = \
                flat_v[i : i + 1].view(np.uint8)

    def _check(self, paddr: int, count: int) -> None:
        if paddr < 0 or paddr + count > self.size:
            raise ValueError(
                f"physical access [{paddr:#x}, {paddr + count:#x}) out of range")
