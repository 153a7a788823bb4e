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
from hypothesis import given
from hypothesis import strategies as st

from repro.exo.shred import ShredDescriptor
from repro.gma.device import GmaDevice
from repro.gma.gang import _replay_charges
from repro.gma.interpreter import ShredRun
from repro.isa.assembler import assemble
from repro.isa.types import DataType
from repro.memory.address_space import AddressSpace
from repro.memory.physical import PAGE_SIZE
from repro.memory.surface import Surface, TileMode

from .test_gang_differential import (RUN_FIELDS, assert_identical,
                                     run_engines)

#: Elements per page for the F (4-byte float) surfaces used throughout.
ELEMS_PER_PAGE = PAGE_SIZE // DataType.F.size


COPY_ASM = """
mov.1.dw vr2 = base
ld.16.f vr1 = (IN, vr2, 0)
add.16.f vr1 = vr1, vr1
st.16.f (OUT, vr2, 0) = vr1
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
    for engine in ("scalar", "gang"):
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
    (first_g, second_g), out_g = out["gang"]
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
    for engine in ("scalar", "gang"):
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
    result_g, out_g = out["gang"]
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
    stblk.4x4.f (OUT, vr8, vr9) = [vr1..vr1]
    end
    """
    width, height = 32, 16
    image = _image(width, height)
    # includes a block hanging off the left/top edge (clamped loads) but
    # inside bounds for the store
    coords = [(0, 0), (4, 4), (12, 8), (28, 12), (8, 0), (16, 4)]
    scalar, gang = run_engines(
        asm, [{"bx": float(x), "by": float(y)} for x, y in coords],
        surfaces_spec={"IN": (width, height), "OUT": (width, height)},
        inputs={"IN": image})
    assert_identical(scalar, gang)
    assert gang[0].scalar_fallbacks == 0
    assert gang[0].batched_mem_lanes > 0


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
