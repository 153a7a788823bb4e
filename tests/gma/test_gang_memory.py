"""Batched-memory edge cases: the lockstep BATCH_MEM step vs scalar.

Rides the same differential harness as ``test_gang_differential``; every
scenario must be bit-identical between engines, and the happy paths must
actually retire lanes through the batched gather/scatter pipeline
(``batched_mem_lanes > 0``) rather than silently falling back.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exo.shred import ShredDescriptor
from repro.gma.device import GmaDevice
from repro.gma.gang import _replay_charges
from repro.gma.interpreter import ShredRun
from repro.isa.assembler import assemble
from repro.isa.types import DataType
from repro.memory.address_space import AddressSpace
from repro.memory.physical import PAGE_SHIFT, PAGE_SIZE
from repro.memory.surface import Surface, TileMode

from tests.helpers import RUN_FIELDS, assert_identical, run_engines

#: Elements per page for the F (4-byte float) surfaces used throughout.
ELEMS_PER_PAGE = PAGE_SIZE // DataType.F.size


COPY_ASM = """
mov.1.dw vr2 = base
ld.16.f vr1 = (IN, vr2, 0)
add.16.f vr1 = vr1, vr1
st.16.f (OUT, vr2, 0) = vr1
end
"""


COPY_BLOCK_ASM = """
mov.1.dw vr8 = bx
mov.1.dw vr9 = by
ldblk.16x1.f vr1 = (IN, vr8, vr9)
stblk.16x1.f (OUT, vr8, vr9) = vr1
end
"""


def _image(width, height, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(-64.0, 64.0, size=(height, width))


def test_row_spans_page_boundary():
    """A 16-wide access straddling a page boundary must translate both
    pages and stay batched (elements never cross pages; the *span* does)."""
    width = 2 * ELEMS_PER_PAGE  # exactly two pages per row
    image = _image(width, 1)
    bases = [ELEMS_PER_PAGE - 8,  # straddles the boundary
             ELEMS_PER_PAGE - 16,  # flush against it, page 0
             ELEMS_PER_PAGE,       # flush against it, page 1
             ELEMS_PER_PAGE + 24]
    scalar, gang = run_engines(
        COPY_ASM, [{"base": float(b)} for b in bases],
        surfaces_spec={"IN": (width, 1), "OUT": (width, 1)},
        inputs={"IN": image})
    assert_identical(scalar, gang)
    assert gang[0].scalar_fallbacks == 0
    assert gang[0].batched_mem_lanes > 0
    assert gang[0].batched_translations > 0


def test_duplicate_store_indices_last_writer_wins():
    """All lanes store to the same elements: the batched scatter must
    resolve duplicates exactly like scalar queue order (last shred wins)."""
    asm = """
    mov.1.dw vr2 = 0
    bcast.16.f vr1 = rank
    st.16.f (OUT, vr2, 0) = vr1
    end
    """
    scalar, gang = run_engines(
        asm, [{"rank": float(i)} for i in range(6)],
        surfaces_spec={"OUT": (64, 1)})
    assert_identical(scalar, gang)
    out = gang[1]["OUT"]
    assert np.all(out[0, :16] == 5.0)  # queue-last shred won every lane
    assert gang[0].batched_mem_lanes > 0


def test_unaligned_strides():
    """Lane bases on a stride that never aligns to the access width."""
    width = 256
    image = _image(width, 1)
    bases = [7 * i + 3 for i in range(8)]
    scalar, gang = run_engines(
        COPY_ASM, [{"base": float(b)} for b in bases],
        surfaces_spec={"IN": (width, 1), "OUT": (width, 1)},
        inputs={"IN": image})
    assert_identical(scalar, gang)
    assert gang[0].scalar_fallbacks == 0
    assert gang[0].batched_mem_lanes > 0


def test_overlapping_load_stores_interleave():
    """Overlapping unpredicated ranges: every lane's full span is written,
    later lanes overwrite earlier ones element-by-element."""
    asm = """
    mov.1.dw vr2 = base
    bcast.16.f vr1 = rank
    st.16.f (OUT, vr2, 0) = vr1
    end
    """
    bindings = [{"base": float(8 * i), "rank": float(i)} for i in range(4)]
    scalar, gang = run_engines(asm, bindings,
                               surfaces_spec={"OUT": (64, 1)})
    assert_identical(scalar, gang)
    assert gang[0].batched_mem_lanes > 0


def test_masked_store_overlap_falls_back():
    """A predicated store whose lanes overlap cannot be batched (scalar
    read-modify-write lets later lanes observe earlier writes); the gang
    must take the per-shred reference step and still match bit-for-bit."""
    asm = """
    mov.1.dw vr2 = 0
    iota.16.f vr1
    bcast.16.f vr4 = rank
    add.16.f vr1 = vr1, vr4
    cmp.lt.16.f p1 = vr1, 10
    (p1) st.16.f (OUT, vr2, 0) = vr1
    end
    """
    scalar, gang = run_engines(
        asm, [{"rank": float(i)} for i in range(4)],
        surfaces_spec={"OUT": (32, 1)})
    assert_identical(scalar, gang)


def test_masked_store_disjoint_stays_batched():
    """Predicated stores on disjoint ranges keep the batched path (the
    pre-read merge is then equivalent to scalar RMW)."""
    asm = """
    mov.1.dw vr2 = base
    iota.16.f vr1
    cmp.lt.16.f p1 = vr1, 10
    (p1) st.16.f (OUT, vr2, 0) = vr1
    end
    """
    bindings = [{"base": float(16 * i)} for i in range(4)]
    scalar, gang = run_engines(asm, bindings,
                               surfaces_spec={"OUT": (64, 1)})
    assert_identical(scalar, gang)
    assert gang[0].batched_mem_lanes > 0


def test_mid_batch_miss_peels_trailing_lanes():
    """Half the gang hits a page the first launch already mapped; the
    other half misses.  The batched translate is side-effect free, so the
    fallback reproduces scalar exactly: the first missing lane and every
    lane behind it peel in queue order."""
    program = assemble(COPY_ASM, name="gang-mem-miss")
    width = 2 * ELEMS_PER_PAGE
    image = _image(width, 1)
    out = {}
    for engine in ("scalar", "megaop"):
        space = AddressSpace()
        device = GmaDevice(space, engine=engine)
        surfaces = {
            "IN": Surface.alloc(space, "IN", width, 1, DataType.F,
                                eager=True),
            "OUT": Surface.alloc(space, "OUT", width, 1, DataType.F,
                                 eager=True),
        }
        surfaces["IN"].upload(space, image)
        results = []
        for bases in ([0, 16, 32, 48],
                      [64, 80, ELEMS_PER_PAGE, ELEMS_PER_PAGE + 16]):
            shreds = [ShredDescriptor(program=program,
                                      bindings={"base": float(b)},
                                      surfaces=surfaces)
                      for b in bases]
            results.append(device.run(shreds, prepare_surfaces=False))
        out[engine] = (results, surfaces["OUT"].download(space))
    (first_s, second_s), out_s = out["scalar"]
    (first_g, second_g), out_g = out["megaop"]
    assert np.array_equal(out_s, out_g)
    for result_s, result_g in ((first_s, first_g), (second_s, second_g)):
        for run_s, run_g in zip(result_s.runs, result_g.runs):
            for fieldname in RUN_FIELDS:
                assert (getattr(run_s, fieldname)
                        == getattr(run_g, fieldname)), fieldname
            assert run_s.trace == run_g.trace
    # second launch: lanes 0-1 translate, lane 2 misses (once on IN's
    # second page, once on OUT's), lane 3 trails it in queue order
    assert [run.atr_events for run in second_s.runs] == [0, 0, 2, 0]
    assert [run.atr_events for run in second_g.runs] == [0, 0, 2, 0]
    assert second_g.scalar_fallbacks == 2
    assert second_g.batched_mem_lanes > 0  # lanes 0-1 retired batched


def test_tiled_surface_stays_batched():
    """The 4KB-tile address formula vectorizes; tiled loads/stores keep
    the batched path and the linear-offset line charges of scalar."""
    width, height = 64, 32
    image = _image(width, height)
    program = assemble(COPY_ASM, name="gang-mem-tiled")
    out = {}
    for engine in ("scalar", "megaop"):
        space = AddressSpace()
        device = GmaDevice(space, engine=engine)
        surf_in = Surface.alloc(space, "IN", width, height, DataType.F,
                                tiling=TileMode.TILED)
        surf_out = Surface.alloc(space, "OUT", width, height, DataType.F,
                                 tiling=TileMode.TILED)
        surf_in.upload(space, image)
        shreds = [ShredDescriptor(program=program,
                                  bindings={"base": float(64 * i)},
                                  surfaces={"IN": surf_in, "OUT": surf_out})
                  for i in range(8)]
        result = device.run(shreds)
        out[engine] = (result, surf_out.download(space))
    result_s, out_s = out["scalar"]
    result_g, out_g = out["megaop"]
    assert np.array_equal(out_s, out_g)
    for run_s, run_g in zip(result_s.runs, result_g.runs):
        for fieldname in RUN_FIELDS:
            assert getattr(run_s, fieldname) == getattr(run_g, fieldname), \
                fieldname
        assert run_s.trace == run_g.trace
    assert result_g.batched_mem_lanes > 0


def test_block_loads_and_stores_batched():
    """ldblk/stblk with edge clamping: the clamped gather grid must cover
    the same lines scalar's row reads touch."""
    asm = """
    mov.1.dw vr8 = bx
    mov.1.dw vr9 = by
    ldblk.4x4.f [vr1..vr1] = (IN, vr8, vr9)
    mov.1.dw vr8 = sx
    mov.1.dw vr9 = sy
    stblk.4x4.f (OUT, vr8, vr9) = [vr1..vr1]
    end
    """
    width, height = 32, 16
    image = _image(width, height)
    # loads in bounds and hanging off the left, top, right and bottom
    # edges and a corner (clamped); every store stays in bounds
    loads = [(0, 0), (12, 8), (-2, 4), (8, -3), (30, 6), (16, 14),
             (-5, 15), (29, -1)]
    stores = [(4 * i, 4 * (i % 4)) for i in range(len(loads))]
    scalar, gang = run_engines(
        asm, [{"bx": float(bx), "by": float(by), "sx": float(sx),
               "sy": float(sy)} for (bx, by), (sx, sy) in zip(loads, stores)],
        surfaces_spec={"IN": (width, height), "OUT": (width, height)},
        inputs={"IN": image})
    assert_identical(scalar, gang)
    assert gang[0].scalar_fallbacks == 0
    assert gang[0].batched_mem_lanes == 2 * len(loads)


@pytest.mark.parametrize("overhang", [(-1, 4), (29, 4), (4, -1), (4, 13)])
def test_block_load_one_past_an_edge(overhang):
    """One lane's 4x4 block hangs exactly one element off an edge of the
    32x16 surface while the other lane is inside: the whole step must
    take the clamped grid, not the in-bounds template."""
    asm = """
    mov.1.dw vr8 = bx
    mov.1.dw vr9 = by
    ldblk.4x4.f vr1 = (IN, vr8, vr9)
    mov.1.dw vr8 = 0
    mov.1.dw vr9 = sy
    stblk.4x4.f (OUT, vr8, vr9) = vr1
    end
    """
    width, height = 32, 16
    lanes = [(4, 4), overhang]
    scalar, gang = run_engines(
        asm, [{"bx": float(x), "by": float(y), "sy": float(4 * i)}
              for i, (x, y) in enumerate(lanes)],
        surfaces_spec={"IN": (width, height), "OUT": (width, height)},
        inputs={"IN": _image(width, height)})
    assert_identical(scalar, gang)
    assert gang[0].scalar_fallbacks == 0


def test_sampler_reads_batched():
    """Bilinear sampler taps gather through the vectorized path and stay
    bit-identical (same float64 lerp, same sample accounting)."""
    asm = """
    iota.16.f vr1
    mul.16.f vr2 = vr1, 0.73
    mul.16.f vr3 = vr1, 1.19
    sample.16.f vr4 = (TEX, vr2, vr3)
    mov.1.dw vr5 = base
    st.16.f (OUT, vr5, 0) = vr4
    end
    """
    width, height = 32, 32
    image = _image(width, height)
    bindings = [{"base": float(16 * i)} for i in range(4)]
    scalar, gang = run_engines(
        asm, bindings,
        surfaces_spec={"TEX": (width, height), "OUT": (64, 1)},
        inputs={"TEX": image})
    assert_identical(scalar, gang)
    assert scalar[0].runs[0].sampler_samples > 0
    assert gang[0].scalar_fallbacks == 0
    assert gang[0].batched_mem_lanes > 0


# ---------------------------------------------------------------------------
# generated block accesses: the memory plan's template and clamped paths
# ---------------------------------------------------------------------------

#: (surface dtype of IN, instruction dtype); OUT is a surface of the
#: instruction dtype.  ``b`` of ``ub`` passes the type check but its
#: loaded values must still wrap.
_BLOCK_TYPES = [(DataType.F, DataType.F), (DataType.UB, DataType.UB),
                (DataType.UB, DataType.B), (DataType.DW, DataType.DW),
                (DataType.W, DataType.W)]


def _block_asm(w: int, h: int, ty: DataType) -> str:
    """Load a block, then store it twice: as ``ty`` to OUT and unwrapped
    as ``df`` to DUMP, so the loaded registers themselves are compared."""
    n = w * h
    regs = "vr1" if n <= 16 else f"[vr1..vr{-(-n // 16)}]"
    return f"""
    mov.1.dw vr50 = bx
    mov.1.dw vr51 = by
    ldblk.{w}x{h}.{ty.value} {regs} = (IN, vr50, vr51)
    mov.1.dw vr52 = sx
    mov.1.dw vr53 = sy
    stblk.{w}x{h}.{ty.value} (OUT, vr52, vr53) = {regs}
    stblk.{w}x{h}.df (DUMP, vr52, vr53) = {regs}
    end
    """


def _block_coord(draw, size: int, extent: int, kind: str) -> int:
    """A block origin inside the surface, or hanging off its low or high
    edge (possibly entirely outside: the load clamps every element)."""
    if kind == "low":
        return draw(st.integers(-extent - 2, -1))
    if kind == "high":
        return draw(st.integers(size - extent + 1, size + 2))
    return draw(st.integers(0, size - extent))


@st.composite
def _block_cases(draw):
    in_dtype, ty = draw(st.sampled_from(_BLOCK_TYPES))
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    width, height = draw(st.integers(w, 40)), draw(st.integers(h, 12))
    tiling = draw(st.sampled_from([TileMode.LINEAR, TileMode.TILED]))
    # pitch 1100 puts row boundaries inside pages and rows across them
    pitch = draw(st.sampled_from([0, width + 5, 1100]))
    # one lane off an edge sends the whole gang's load down the clamped
    # path: half the cases keep every load in bounds (the template path)
    kinds = ["in", "low", "high"] if draw(st.booleans()) else ["in"]
    lanes = []
    for _ in range(draw(st.integers(2, 40))):
        xk = draw(st.sampled_from(kinds))
        yk = draw(st.sampled_from(kinds))
        lanes.append({
            "bx": _block_coord(draw, width, w, xk),
            "by": _block_coord(draw, height, h, yk),
            "sx": draw(st.integers(0, width - w)),
            "sy": draw(st.integers(0, height - h))})
    groups = draw(st.integers(1, 3))  # >1: congruent, distinct bases
    return (in_dtype, ty, w, h, width, height, tiling, pitch, lanes,
            groups, draw(st.integers(0, 2 ** 16)))


def _run_block_case(case):
    """One generated launch on both engines: ``run_engines``'s shape,
    with every distinct surface downloaded."""
    (in_dtype, ty, w, h, width, height, tiling, pitch, lanes, groups,
     seed) = case
    program = assemble(_block_asm(w, h, ty), name="gen-blocks")
    out = []
    for engine in GmaDevice.ENGINES:
        space = AddressSpace()
        device = GmaDevice(space, engine=engine)
        sets = []
        for g in range(groups):
            bound = {
                name: Surface.alloc(space, f"{name}{g}", width, height,
                                    dtype, pitch=pitch, tiling=tiling)
                for name, dtype in (("IN", in_dtype), ("OUT", ty),
                                    ("DUMP", DataType.DF))}
            rng = np.random.default_rng(seed + g)
            if in_dtype.is_float:
                image = rng.uniform(-300.0, 300.0, (height, width))
            else:
                info = np.iinfo(in_dtype.np_dtype)
                image = rng.integers(info.min, info.max, (height, width),
                                     endpoint=True)
            bound["IN"].upload(space, image)
            sets.append(bound)
        shreds = [ShredDescriptor(program=program,
                                  bindings={k: float(v)
                                            for k, v in lane.items()},
                                  surfaces=sets[i % groups])
                  for i, lane in enumerate(lanes)]
        result = device.run(shreds)
        downloads = {surf.name: surf.download(space)
                     for bound in sets for surf in bound.values()}
        out.append((result, downloads))
    return out, sets


def _block_pages(case, sets) -> int:
    """Distinct pages of each memory step (the clamped load grid, the two
    exact store grids), summed: what ``batched_translations`` counts."""
    _, _, w, h, width, height, _, _, lanes, groups, _ = case
    total = 0
    for name, ox, oy, clamp in (("IN", "bx", "by", True),
                                ("OUT", "sx", "sy", False),
                                ("DUMP", "sx", "sy", False)):
        pages = set()
        for i, lane in enumerate(lanes):
            surf = sets[i % groups][name]
            xs = lane[ox] + np.arange(w)
            ys = lane[oy] + np.arange(h)
            if clamp:
                xs = np.clip(xs, 0, width - 1)
                ys = np.clip(ys, 0, height - 1)
            addrs = surf.element_addrs(xs[None, :], ys[:, None])
            pages.update((addrs >> PAGE_SHIFT).ravel().tolist())
        total += len(pages)
    return total


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_block_cases())
def test_generated_block_accesses_match_scalar(case):
    """Random block shapes, coordinates (in bounds and off each edge),
    layouts, gang sizes and congruent bindings: outputs, the loaded
    registers, every ``ShredRun`` record and trace match scalar, and
    every step retires batched with the scalar-derived page count."""
    (scalar, megaop), sets = _run_block_case(case)
    assert_identical(scalar, megaop)
    lanes = case[8]
    result = megaop[0]
    assert result.scalar_fallbacks == 0
    assert result.gang_lanes_retired == result.instructions
    assert result.batched_mem_lanes == 3 * len(lanes)
    assert result.batched_translations == _block_pages(case, sets)
    assert result.tlb_vector_hits <= result.batched_translations


def test_wrapped_load_of_unsigned_surface():
    """``ldblk.b`` of a ``ub`` surface in bounds takes the template path
    but must still wrap: 200 loads as -56."""
    lanes = [{"bx": 0, "by": 0, "sx": 0, "sy": 0},
             {"bx": 4, "by": 0, "sx": 4, "sy": 0}]
    case = (DataType.UB, DataType.B, 4, 1, 8, 1, TileMode.LINEAR, 0,
            lanes, 1, 0)
    (scalar, megaop), _ = _run_block_case(case)
    assert_identical(scalar, megaop)
    image = megaop[1]["IN0"][0]
    assert (image > 127).any()
    assert np.array_equal(megaop[1]["DUMP0"][0],
                          np.where(image > 127, image - 256, image))


REPACK_ASM = """
    mov.1.dw vr8 = 0
    mov.1.dw vr9 = 0
top:
    ldblk.4x1.dw vr1 = (SRC, vr8, vr9)
    add.4.dw vr1 = vr1, 1
    stblk.4x1.dw (DST, vr8, vr9) = vr1
    add.1.dw vr9 = vr9, 1
    cmp.lt.1.dw p1 = vr9, trips
    br p1, top
    end
"""


def test_plan_rebuilt_when_gang_repacks_between_executions():
    """Lanes 0 and 2 leave the loop after one trip; lanes 1 and 3 park
    as a sub-gang on their own rows and run the same ``ldblk`` again.
    Each lane binds its own congruent surfaces, so a plan kept across
    the repack would apply the old lanes' base deltas."""
    program = assemble(REPACK_ASM, name="gang-mem-repack")
    trips = [1, 3, 1, 3]
    out = {}
    for engine in GmaDevice.ENGINES:
        space = AddressSpace()
        device = GmaDevice(space, engine=engine)
        bound = []
        for lane in range(len(trips)):
            src = Surface.alloc(space, f"SRC{lane}", 4, 3, DataType.DW)
            dst = Surface.alloc(space, f"DST{lane}", 4, 3, DataType.DW)
            src.upload(space, np.arange(12).reshape(3, 4) + 100 * lane)
            bound.append({"SRC": src, "DST": dst})
        shreds = [ShredDescriptor(program=program,
                                  bindings={"trips": float(t)},
                                  surfaces=bound[lane])
                  for lane, t in enumerate(trips)]
        result = device.run(shreds)
        out[engine] = (result, {f"DST{lane}": b["DST"].download(space)
                                for lane, b in enumerate(bound)})
    assert_identical(out["scalar"], out["megaop"])
    result = out["megaop"][0]
    assert result.gang_repacks == 1 and result.lanes_readmitted == 2
    assert result.scalar_fallbacks == 0
    # 4 lanes x 2 accesses on the first trip, 2 x 2 on each of two more
    assert result.batched_mem_lanes == 16


@pytest.mark.parametrize("shootdown", ["free", "protect"])
def test_shootdown_between_launches_reaches_memory_step(shootdown):
    """Two launches of one program on one device with a shootdown in
    between.  ``free``: the second launch reads the dangling surface,
    whose pages re-fault onto fresh zeroed frames while the old frames
    now back OUT2 and hold sentinels.  ``protect``: a read-only and back
    round trip drops IN's translations, so the second launch's first
    access misses and takes ATR.  A
    translation kept anywhere outside the TLB and the GTT would read the
    sentinels, or hit where scalar misses."""
    program = assemble(COPY_BLOCK_ASM, name="gang-mem-shootdown")
    width, height = 2 * ELEMS_PER_PAGE, 4
    coords = [(16 * i, i % height) for i in range(8)]
    out = {}
    for engine in GmaDevice.ENGINES:
        space = AddressSpace()
        device = GmaDevice(space, engine=engine)
        src = Surface.alloc(space, "IN", width, height, DataType.F)
        dst = Surface.alloc(space, "OUT", width, height, DataType.F)
        src.upload(space, _image(width, height))
        launches = []
        shreds = [ShredDescriptor(program=program,
                                  bindings={"bx": float(x), "by": float(y)},
                                  surfaces={"IN": src, "OUT": dst})
                  for x, y in coords]
        launches.append((device.run(shreds), {"OUT": dst.download(space)}))
        if shootdown == "free":
            space.free(src.base)
            dst = Surface.alloc(space, "OUT2", width, height, DataType.F,
                                eager=True)  # takes the recycled frames
            dst.upload(space, np.full((height, width), 7.0))
            prepare = True
        else:
            # ATR services every miss for writing, so the round trip
            # leaves IN writable but every device translation of it gone
            space.protect(src.base, writable=False)
            space.protect(src.base, writable=True)
            prepare = False
        shreds = [ShredDescriptor(program=program,
                                  bindings={"bx": float(x), "by": float(y)},
                                  surfaces={"IN": src, "OUT": dst})
                  for x, y in coords]
        launches.append((device.run(shreds, prepare_surfaces=prepare),
                         {"OUT": dst.download(space)}))
        out[engine] = launches
    for scalar, megaop in zip(out["scalar"], out["megaop"]):
        assert_identical(scalar, megaop)
    second, downloads = out["megaop"][1]
    if shootdown == "free":
        assert second.scalar_fallbacks == 0 and second.pages_prepared > 0
        written = downloads["OUT"][[y for _, y in coords],
                                   [x for x, _ in coords]]
        assert not written.any()  # zeros from the fresh frames
    else:
        assert second.runs[0].atr_events > 0


# ---------------------------------------------------------------------------
# deferred first-touch charging: numpy replay vs the per-shred set walk
# ---------------------------------------------------------------------------

def _set_walk_oracle(touched, logs, recs):
    """Walk each shred's spans against the first-touch line sets, one
    shred after another in queue order (the scalar engine's order)."""
    line = 64
    for log, rec in zip(logs, recs):
        for lo, nbytes, write in log:
            lines = touched[write]
            first = lo // line
            last = (lo + max(nbytes, 1) - 1) // line
            fresh = [ln for ln in range(first, last + 1) if ln not in lines]
            lines.update(fresh)
            if write:
                rec.bytes_written += len(fresh) * line
            else:
                rec.bytes_read += len(fresh) * line


_span_start = st.integers(0, 40 * 64)
_span_size = st.sampled_from([0, 1, 4, 16, 63, 64, 65, 200])


@st.composite
def _charge_logs(draw):
    """Lockstep step records and per-shred spans over a few shreds."""
    count = draw(st.integers(2, 6))
    records = []
    for _ in range(draw(st.integers(0, 6))):
        lanes = sorted(draw(st.sets(st.integers(0, count - 1), min_size=1)))
        nrows = draw(st.integers(1, 3))
        lo = np.array([[draw(_span_start) for _ in range(nrows)]
                       for _ in lanes], dtype=np.int64)
        if draw(st.booleans()):
            size = draw(_span_size)  # ld/st: one size for every lane
        else:
            size = np.array([[draw(_span_size) for _ in range(nrows)]
                             for _ in lanes], dtype=np.int64)
        records.append((np.asarray(lanes, dtype=np.int64), lo, size,
                        draw(st.booleans())))
    scalar = [draw(st.lists(st.tuples(_span_start, _span_size,
                                      st.booleans()), max_size=4))
              for _ in range(count)]
    touched = {write: draw(st.sets(st.integers(0, 45), max_size=10))
               for write in (False, True)}
    return count, records, scalar, touched


@given(_charge_logs())
def test_replay_charges_matches_set_walk(case):
    """The numpy replay charges the same bytes per shred, and leaves the
    same touched sets, as walking every shred's spans in queue order —
    zero-byte and multi-line spans and pre-touched lines included."""
    count, records, scalar, touched = case
    program = assemble("end")
    recs = [ShredRun(shred=ShredDescriptor(program=program))
            for _ in range(count)]
    expected = [ShredRun(shred=rec.shred) for rec in recs]
    logs = [[] for _ in range(count)]
    for lanes, lo, size, write in records:
        sizes = np.broadcast_to(size, lo.shape)
        for pos, q in enumerate(lanes):
            logs[q].extend((int(a), int(b), write)
                           for a, b in zip(lo[pos], sizes[pos]))
    for q in range(count):
        logs[q].extend(scalar[q])
    oracle_touched = {w: set(lines) for w, lines in touched.items()}
    _set_walk_oracle(oracle_touched, logs, expected)

    device = SimpleNamespace(touched_read_lines=set(touched[False]),
                             touched_write_lines=set(touched[True]))
    ctxs = [SimpleNamespace(charge_log=list(log)) for log in scalar]
    span_log = list(records)
    _replay_charges(device, ctxs, recs, span_log)
    assert [(r.bytes_read, r.bytes_written) for r in recs] == \
        [(r.bytes_read, r.bytes_written) for r in expected]
    assert device.touched_read_lines == oracle_touched[False]
    assert device.touched_write_lines == oracle_touched[True]
    assert not span_log and not any(ctx.charge_log for ctx in ctxs)
