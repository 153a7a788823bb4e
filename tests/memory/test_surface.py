"""2-D surfaces: layouts, clamped blocks, sampling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemorySystemError
from repro.isa.types import DataType
from repro.memory.surface import Surface, TileMode


@pytest.fixture
def img():
    rng = np.random.default_rng(3)
    return rng.integers(0, 256, size=(12, 16)).astype(np.float64)


def make_surface(space, img, dtype=DataType.UB, tiling=TileMode.LINEAR):
    surf = Surface.alloc(space, "S", img.shape[1], img.shape[0], dtype,
                         tiling=tiling)
    surf.upload(space, img)
    return surf


class TestGeometry:
    def test_defaults(self, space):
        surf = Surface.alloc(space, "S", 10, 4, DataType.UB)
        assert surf.pitch == 10
        assert surf.nbytes == 40
        assert surf.nelems == 40
        assert surf.esize == 1

    def test_dword_sizes(self, space):
        surf = Surface.alloc(space, "S", 10, 4, DataType.DW)
        assert surf.nbytes == 160

    def test_tiled_pitch_alignment(self, space):
        surf = Surface.alloc(space, "S", 10, 4, DataType.UB,
                             tiling=TileMode.TILED)
        assert surf.pitch == 12  # aligned to the 4-wide tile

    def test_invalid_geometry(self):
        with pytest.raises(MemorySystemError):
            Surface(name="S", base=0, width=0, height=4, dtype=DataType.UB)

    def test_pitch_smaller_than_width(self):
        with pytest.raises(MemorySystemError):
            Surface(name="S", base=0, width=8, height=2, dtype=DataType.UB,
                    pitch=4)

    def test_linear_addressing(self, space):
        surf = Surface.alloc(space, "S", 8, 4, DataType.UB, pitch=10)
        assert surf.element_addr(3, 2) == surf.base + 2 * 10 + 3

    def test_tiled_addressing(self, space):
        surf = Surface.alloc(space, "S", 8, 8, DataType.UB,
                             tiling=TileMode.TILED)
        # element (0,0) is first in tile 0; (4,0) starts tile 1
        assert surf.element_addr(0, 0) == surf.base
        assert surf.element_addr(4, 0) == surf.base + 16
        # (1,1) is offset 4*1+1 = 5 inside tile 0
        assert surf.element_addr(1, 1) == surf.base + 5


class TestUploadDownload:
    def test_roundtrip_linear(self, space, img):
        surf = make_surface(space, img)
        assert np.array_equal(surf.download(space), img)

    def test_roundtrip_tiled(self, space, img):
        surf = make_surface(space, img, tiling=TileMode.TILED)
        assert np.array_equal(surf.download(space), img)

    def test_tiled_and_linear_differ_in_memory(self, space, img):
        lin = make_surface(space, img)
        til = make_surface(space, img, tiling=TileMode.TILED)
        raw_lin = space.read_bytes(lin.base, 64)
        raw_til = space.read_bytes(til.base, 64)
        assert not np.array_equal(raw_lin, raw_til)

    def test_upload_shape_check(self, space, img):
        surf = make_surface(space, img)
        with pytest.raises(MemorySystemError):
            surf.upload(space, img.T)

    def test_float_surface(self, space):
        img = np.array([[1.25, -2.5], [3.75, 0.125]])
        surf = Surface.alloc(space, "F", 2, 2, DataType.F)
        surf.upload(space, img)
        assert np.array_equal(surf.download(space), img)


def _upload_per_row(surf, accessor, image):
    """The row-at-a-time reference the whole-surface path must match."""
    for y in range(surf.height):
        surf.write_block(accessor, 0, y, image[y], surf.width, 1)


def _download_per_row(surf, accessor):
    return np.stack([surf.read_block(accessor, 0, y, surf.width, 1)
                     for y in range(surf.height)])


class TestWholeSurfaceTransfers:
    """A contiguous linear surface moves in one ranged access; pitched
    and tiled surfaces keep the per-row path.  Either way the data, the
    demand faults, the frame each page gets and the host's dirty lines
    match the per-row reference."""

    LAYOUTS = [{}, {"pitch": 707}, {"tiling": TileMode.TILED}]

    @staticmethod
    def _host(coherent=False, strict=False):
        from repro.chi.platform import HostAccessor
        from repro.memory.address_space import AddressSpace
        from repro.memory.cache import CoherencePoint

        space = AddressSpace()
        # a non-trivial free list, so frame order is not just sequential
        scratch = space.alloc(3 * 4096, eager=True)
        space.free(scratch)
        return HostAccessor(space, CoherencePoint(coherent=coherent,
                                                  strict=strict))

    @staticmethod
    def _state(host, surf):
        space = host.space
        first = surf.base >> 12
        last = (surf.base + surf.nbytes - 1) >> 12
        # whole PTEs: the frame, and the accessed/dirty bits the walks set
        frames = [space.page_table.entry(vpn)
                  for vpn in range(first, last + 1)]
        return (space.faults_serviced, frames,
                sorted(host.coherence.cache("cpu")._dirty))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_upload_matches_per_row(self, layout):
        # 700 floats a row: rows straddle page boundaries
        img = np.random.default_rng(4).uniform(-9, 9, (9, 700))
        states, downloads = [], []
        for upload in (Surface.upload, _upload_per_row):
            host = self._host()
            surf = Surface.alloc(host.space, "S", 700, 9, DataType.F,
                                 **layout)
            upload(surf, host, img)
            states.append(self._state(host, surf))
            downloads.append(_download_per_row(surf, host.space))
        assert states[0] == states[1]
        assert states[0][0] > 1 and states[0][2]
        assert np.array_equal(downloads[0], downloads[1])
        assert np.array_equal(downloads[0], img.astype(np.float32))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_download_matches_per_row(self, layout):
        """A fresh surface demand-faults its pages in address order under
        both paths, then a written one reads back identically."""
        img = np.random.default_rng(6).integers(0, 256, (9, 700))
        states, downloads = [], []
        for download in (Surface.download, _download_per_row):
            host = self._host()
            surf = Surface.alloc(host.space, "S", 700, 9, DataType.UB,
                                 **layout)
            fresh = download(surf, host)
            states.append(self._state(host, surf))
            _upload_per_row(surf, host.space, img)
            downloads.append((fresh, download(surf, host)))
        assert states[0] == states[1]
        assert not downloads[0][0].any()
        assert np.array_equal(downloads[0][1], downloads[1][1])
        assert np.array_equal(downloads[0][1], img)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_strict_coherence_still_raises(self, layout):
        from repro.errors import CoherenceViolation

        host = self._host(strict=True)
        surf = Surface.alloc(host.space, "S", 700, 9, DataType.F, **layout)
        surf.upload(host, np.zeros((9, 700)))
        # the device holds one dirty line in the middle of the surface
        host.coherence.note_write("gma", surf.base + surf.nbytes // 2, 4)
        with pytest.raises(CoherenceViolation):
            surf.download(host)


class TestLinearAccess:
    def test_read_write(self, space, img):
        surf = make_surface(space, img)
        got = surf.read_linear(space, 5, 4)
        assert np.array_equal(got, img.reshape(-1)[5:9])
        surf.write_linear(space, 0, np.array([9.0, 8.0]))
        assert surf.read_linear(space, 0, 2).tolist() == [9.0, 8.0]

    def test_out_of_bounds(self, space, img):
        surf = make_surface(space, img)
        with pytest.raises(MemorySystemError):
            surf.read_linear(space, surf.nelems - 1, 2)
        with pytest.raises(MemorySystemError):
            surf.write_linear(space, -1, np.zeros(1))

    def test_linear_on_tiled_surface(self, space, img):
        surf = make_surface(space, img, tiling=TileMode.TILED)
        flat = img.reshape(-1)
        assert np.array_equal(surf.read_linear(space, 17, 5), flat[17:22])


class TestBlocks:
    def test_interior_block(self, space, img):
        surf = make_surface(space, img)
        got = surf.read_block(space, 2, 3, 4, 2)
        assert np.array_equal(got, img[3:5, 2:6].reshape(-1))

    def test_edge_clamping_left_top(self, space, img):
        surf = make_surface(space, img)
        got = surf.read_block(space, -1, -1, 3, 3).reshape(3, 3)
        padded = np.pad(img, 1, mode="edge")
        assert np.array_equal(got, padded[0:3, 0:3])

    def test_edge_clamping_right_bottom(self, space, img):
        surf = make_surface(space, img)
        h, w = img.shape
        got = surf.read_block(space, w - 2, h - 2, 4, 4).reshape(4, 4)
        padded = np.pad(img, ((0, 2), (0, 2)), mode="edge")
        assert np.array_equal(got, padded[h - 2 : h + 2, w - 2 : w + 2])

    def test_write_block(self, space, img):
        surf = make_surface(space, img)
        block = np.arange(6.0).reshape(2, 3)
        surf.write_block(space, 4, 5, block, 3, 2)
        assert np.array_equal(surf.download(space)[5:7, 4:7], block)

    def test_write_block_out_of_bounds(self, space, img):
        surf = make_surface(space, img)
        with pytest.raises(MemorySystemError):
            surf.write_block(space, 15, 0, np.zeros(4), 2, 2)

    def test_blocks_on_tiled(self, space, img):
        surf = make_surface(space, img, tiling=TileMode.TILED)
        got = surf.read_block(space, 1, 2, 5, 3)
        assert np.array_equal(got, img[2:5, 1:6].reshape(-1))
        surf.write_block(space, 0, 0, np.full(4, 9.0), 2, 2)
        assert surf.download(space)[0, 0] == 9.0


class TestSampling:
    def test_exact_texel(self, space, img):
        surf = make_surface(space, img)
        got = surf.sample_bilinear(space, np.array([3.0]), np.array([2.0]))
        assert got[0] == img[2, 3]

    def test_midpoint(self, space):
        img = np.array([[0.0, 10.0], [20.0, 30.0]])
        surf = make_surface(space, img)
        got = surf.sample_bilinear(space, np.array([0.5]), np.array([0.5]))
        assert got[0] == 15.0

    def test_clamped_outside(self, space, img):
        surf = make_surface(space, img)
        got = surf.sample_bilinear(space, np.array([-5.0, 100.0]),
                                   np.array([-5.0, 100.0]))
        assert got[0] == img[0, 0]
        assert got[1] == img[-1, -1]

    @given(st.floats(min_value=0.0, max_value=14.9),
           st.floats(min_value=0.0, max_value=10.9))
    def test_matches_numpy_oracle(self, x, y):
        img = np.arange(12.0 * 16.0).reshape(12, 16)
        from repro.memory.address_space import AddressSpace
        space = AddressSpace()
        surf = Surface.alloc(space, "S", 16, 12, DataType.F)
        surf.upload(space, img)
        got = surf.sample_bilinear(space, np.array([x]), np.array([y]))[0]
        x0, y0 = int(np.floor(x)), int(np.floor(y))
        fx, fy = x - x0, y - y0
        top = img[y0, x0] * (1 - fx) + img[y0, x0 + 1] * fx
        bot = img[y0 + 1, x0] * (1 - fx) + img[y0 + 1, x0 + 1] * fx
        assert got == pytest.approx(top * (1 - fy) + bot * fy, rel=1e-12)

    def test_sampling_tiled_surface_uses_element_path(self, space, img):
        surf = make_surface(space, img, tiling=TileMode.TILED)
        got = surf.sample_bilinear(space, np.array([1.5]), np.array([1.5]))
        expected = img[1:3, 1:3].mean()
        assert got[0] == pytest.approx(expected)
