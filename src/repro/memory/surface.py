"""2-D surfaces: how the accelerator views memory.

"Domain-optimized accelerators may view memory in a significantly
different way than the general purpose CPU ... the GMA X3000 accesses
virtual memory via *surfaces*, which are two-dimensional blocks of memory.
Configuring surface information such as the tiling format is important for
achieving the best possible performance" (paper section 4.4).

A :class:`Surface` is a typed 2-D view over the shared virtual address
space.  All data movement goes through an *accessor* — either the
:class:`~repro.memory.address_space.AddressSpace` itself (the IA32
sequencer's demand-paged view) or a
:class:`~repro.memory.address_space.SequencerView` (an exo-sequencer's
TLB-translated view), so the same surface faults differently depending on
who touches it.  That is the behaviour ATR exists to service.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import MemorySystemError
from ..isa.types import DataType

#: Side of one square tile in the tiled layout (elements).
TILE = 4


class TileMode(enum.Enum):
    """Surface memory layouts."""

    LINEAR = "linear"
    TILED = "tiled"  # 4x4 element tiles, tiles row-major


@dataclass
class Surface:
    """A typed 2-D region of the shared virtual address space."""

    name: str
    base: int
    width: int
    height: int
    dtype: DataType
    pitch: int = 0  # elements per row; defaults to width (rounded for tiling)
    tiling: TileMode = TileMode.LINEAR

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise MemorySystemError(
                f"surface {self.name!r} has empty geometry "
                f"{self.width}x{self.height}")
        if self.pitch == 0:
            self.pitch = self.width
        if self.tiling is TileMode.TILED:
            if self.pitch % TILE:
                self.pitch += TILE - self.pitch % TILE
        if self.pitch < self.width:
            raise MemorySystemError(
                f"surface {self.name!r} pitch {self.pitch} < width {self.width}")

    # -- geometry ---------------------------------------------------------------

    @property
    def esize(self) -> int:
        return self.dtype.size

    @property
    def nbytes(self) -> int:
        rows = self.height
        if self.tiling is TileMode.TILED and rows % TILE:
            rows += TILE - rows % TILE
        return self.pitch * rows * self.esize

    @property
    def nelems(self) -> int:
        return self.width * self.height

    @property
    def contiguous(self) -> bool:
        """Do the rows sit back to back, so any flat element range is
        one ranged access?"""
        return self.tiling is TileMode.LINEAR and self.pitch == self.width

    @classmethod
    def alloc(cls, space, name: str, width: int, height: int,
              dtype: DataType, pitch: int = 0,
              tiling: TileMode = TileMode.LINEAR, eager: bool = False) -> "Surface":
        """Allocate backing store in ``space`` and return the surface."""
        surf = cls(name=name, base=0, width=width, height=height,
                   dtype=dtype, pitch=pitch, tiling=tiling)
        surf.base = space.alloc(surf.nbytes, eager=eager)
        return surf

    def element_addr(self, x: int, y: int) -> int:
        """Virtual address of element (x, y) under this surface's layout."""
        if self.tiling is TileMode.LINEAR:
            return self.base + (y * self.pitch + x) * self.esize
        tiles_per_row = self.pitch // TILE
        tile_index = (y // TILE) * tiles_per_row + (x // TILE)
        offset = (y % TILE) * TILE + (x % TILE)
        return self.base + (tile_index * TILE * TILE + offset) * self.esize

    def element_addrs(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`element_addr` over coordinate arrays."""
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        if self.tiling is TileMode.LINEAR:
            return self.base + (ys * self.pitch + xs) * self.esize
        tiles_per_row = self.pitch // TILE
        tile_index = (ys // TILE) * tiles_per_row + (xs // TILE)
        offset = (ys % TILE) * TILE + (xs % TILE)
        return self.base + (tile_index * TILE * TILE + offset) * self.esize

    # -- linear element access (ld/st) --------------------------------------------

    def read_linear(self, accessor, index: int, count: int) -> np.ndarray:
        """Read ``count`` elements starting at flat row-major ``index``."""
        self._check_linear(index, count)
        if self.contiguous:
            addr = self.base + index * self.esize
            return accessor.read_array(addr, count, self.dtype.np_dtype).astype(
                np.float64)
        out = np.empty(count, dtype=np.float64)
        for i in range(count):
            x, y = (index + i) % self.width, (index + i) // self.width
            out[i] = accessor.read_array(
                self.element_addr(x, y), 1, self.dtype.np_dtype)[0]
        return out

    def write_linear(self, accessor, index: int, values: np.ndarray) -> None:
        values = np.asarray(values)
        self._check_linear(index, values.size)
        typed = values.astype(self.dtype.np_dtype)
        if self.contiguous:
            accessor.write_array(self.base + index * self.esize, typed)
            return
        for i in range(values.size):
            x, y = (index + i) % self.width, (index + i) // self.width
            accessor.write_array(self.element_addr(x, y), typed[i : i + 1])

    def _check_linear(self, index: int, count: int) -> None:
        if index < 0 or index + count > self.nelems:
            raise MemorySystemError(
                f"linear access [{index}, {index + count}) outside surface "
                f"{self.name!r} of {self.nelems} elements")

    # -- block access (ldblk/stblk) --------------------------------------------------

    def read_block(self, accessor, x: int, y: int, w: int, h: int) -> np.ndarray:
        """Read a w x h block at (x, y), row-major, edge-clamped.

        Media filter hardware replicates border pixels when a block hangs
        off the surface edge; kernels rely on this for boundary taps.
        """
        out = np.empty(w * h, dtype=np.float64)
        for row in range(h):
            yy = min(max(y + row, 0), self.height - 1)
            out[row * w : (row + 1) * w] = self._read_row_clamped(
                accessor, x, yy, w)
        return out

    def _read_row_clamped(self, accessor, x: int, y: int, w: int) -> np.ndarray:
        x0 = min(max(x, 0), self.width - 1)
        x1 = min(max(x + w - 1, 0), self.width - 1)
        if self.tiling is TileMode.LINEAR:
            addr = self.element_addr(x0, y)
            row = accessor.read_array(addr, x1 - x0 + 1, self.dtype.np_dtype)
            row = row.astype(np.float64)
        else:
            row = np.empty(x1 - x0 + 1, dtype=np.float64)
            for i in range(x1 - x0 + 1):
                row[i] = accessor.read_array(
                    self.element_addr(x0 + i, y), 1, self.dtype.np_dtype)[0]
        cols = np.clip(np.arange(x, x + w), x0, x1) - x0
        return row[cols]

    def write_block(self, accessor, x: int, y: int, values: np.ndarray,
                    w: int, h: int) -> None:
        values = np.asarray(values, dtype=np.float64).reshape(h, w)
        if x < 0 or y < 0 or x + w > self.width or y + h > self.height:
            raise MemorySystemError(
                f"block store [{x},{y})+{w}x{h} outside surface {self.name!r} "
                f"({self.width}x{self.height})")
        typed = values.astype(self.dtype.np_dtype)
        for row in range(h):
            if self.tiling is TileMode.LINEAR:
                accessor.write_array(self.element_addr(x, y + row), typed[row])
            else:
                for col in range(w):
                    accessor.write_array(
                        self.element_addr(x + col, y + row),
                        typed[row, col : col + 1])

    # -- sampling (fixed-function unit) ------------------------------------------------

    def sample_bilinear(self, accessor, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Bilinear samples at fractional coordinates, edge-clamped.

        When the sampled footprint is compact (the common case: a SIMD
        batch of neighbouring coordinates), the four neighbourhoods are
        gathered from a single block read instead of 4N element reads —
        the sampler hardware's cache, in effect.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        x0 = np.clip(np.floor(xs).astype(int), 0, self.width - 1)
        y0 = np.clip(np.floor(ys).astype(int), 0, self.height - 1)
        x1 = np.minimum(x0 + 1, self.width - 1)
        y1 = np.minimum(y0 + 1, self.height - 1)
        fx = np.clip(xs - x0, 0.0, 1.0)
        fy = np.clip(ys - y0, 0.0, 1.0)

        bx0, bx1 = int(x0.min()), int(x1.max())
        by0, by1 = int(y0.min()), int(y1.max())
        bw, bh = bx1 - bx0 + 1, by1 - by0 + 1
        if bw * bh <= max(64, 8 * xs.size) and self.tiling is TileMode.LINEAR:
            box = self.read_block(accessor, bx0, by0, bw, bh).reshape(bh, bw)
            p00 = box[y0 - by0, x0 - bx0]
            p10 = box[y0 - by0, x1 - bx0]
            p01 = box[y1 - by0, x0 - bx0]
            p11 = box[y1 - by0, x1 - bx0]
        else:
            p00 = np.array([self._elem(accessor, x0[i], y0[i])
                            for i in range(xs.size)])
            p10 = np.array([self._elem(accessor, x1[i], y0[i])
                            for i in range(xs.size)])
            p01 = np.array([self._elem(accessor, x0[i], y1[i])
                            for i in range(xs.size)])
            p11 = np.array([self._elem(accessor, x1[i], y1[i])
                            for i in range(xs.size)])
        top = p00 + (p10 - p00) * fx
        bot = p01 + (p11 - p01) * fx
        return top + (bot - top) * fy

    def _elem(self, accessor, x: int, y: int) -> float:
        return float(accessor.read_array(
            self.element_addr(x, y), 1, self.dtype.np_dtype)[0])

    # -- whole-surface helpers -------------------------------------------------------

    def upload(self, accessor, image: np.ndarray) -> None:
        """Write a height x width array into the surface."""
        image = np.asarray(image)
        if image.shape != (self.height, self.width):
            raise MemorySystemError(
                f"image shape {image.shape} != surface "
                f"({self.height}, {self.width})")
        if self.contiguous:
            # one ranged write, with write_block's float64-then-dtype cast
            self.write_linear(accessor, 0, np.asarray(
                image, dtype=np.float64).reshape(-1))
            return
        for y in range(self.height):
            self.write_block(accessor, 0, y, image[y], self.width, 1)

    def download(self, accessor) -> np.ndarray:
        """Read the whole surface as a height x width float64 array."""
        if self.contiguous:
            return self.read_linear(accessor, 0, self.nelems).reshape(
                self.height, self.width)
        out = np.empty((self.height, self.width), dtype=np.float64)
        for y in range(self.height):
            out[y] = self.read_block(accessor, 0, y, self.width, 1)
        return out
