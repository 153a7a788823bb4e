"""Congruent-surface ganging: different bindings, one batched datapath.

Cross-launch coalescing hands the gang engine shreds whose surface
*names* match but whose objects differ per lane (each request allocated
its own).  When the bindings are congruent — same width/height/pitch/
tiling/dtype, only the base differs — the batched memory pipeline
applies per-lane base deltas and stays engaged; results must remain
bit-identical to scalar.  Non-congruent bindings must fall back.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exo.shred import ShredDescriptor
from repro.gma.device import GmaDevice
from repro.isa.assembler import assemble
from repro.isa.types import DataType
from repro.memory.address_space import AddressSpace
from repro.memory.surface import Surface, TileMode

LD_ST_ASM = """
mov.1.dw vr1 = off
ld.4.dw [vr2..vr5] = (SRC, vr1, 0)
add.4.dw [vr6..vr9] = [vr2..vr5], [vr2..vr5]
st.4.dw (DST, vr1, 0) = [vr6..vr9]
end
"""

BLK_ASM = """
mov.1.dw vr1 = 0
ldblk.8x1.dw vr2 = (SRC, vr1, row)
stblk.8x1.dw (DST, vr1, row) = vr2
end
"""

SAMPLE_ASM = """
mov.1.f vr1 = x
mov.1.f vr2 = y
sample.4.f vr3 = (SRC, vr1, vr2)
mov.1.dw vr4 = 0
st.4.f (DST, vr4, 0) = [vr3..vr6]
end
"""


def _run(engine: str, asm: str, make_surfaces, bindings_for, lanes=4):
    """One launch of ``lanes`` shreds, each with its own surface dict."""
    space = AddressSpace()
    device = GmaDevice(space, engine=engine)
    program = assemble(asm, name="congruent")
    surfaces = [make_surfaces(space, lane) for lane in range(lanes)]
    shreds = [
        ShredDescriptor(program=program, bindings=bindings_for(lane),
                        surfaces=surfaces[lane])
        for lane in range(lanes)
    ]
    result = device.run(shreds)
    outs = [
        {name: surf.download(space) for name, surf in bound.items()}
        for bound in surfaces
    ]
    return result, outs


def _congruent_pair(space, lane):
    """Per-lane SRC/DST: distinct objects, identical geometry."""
    src = Surface.alloc(space, f"SRC{lane}", 16, 2, DataType.DW)
    dst = Surface.alloc(space, f"DST{lane}", 16, 2, DataType.DW)
    img = (np.arange(32, dtype=np.int64).reshape(2, 16) + 100 * lane)
    src.upload(space, img)
    dst.upload(space, np.zeros((2, 16), dtype=np.int64))
    return {"SRC": src, "DST": dst}


@pytest.mark.parametrize("asm,bindings_for", [
    (LD_ST_ASM, lambda lane: {"off": float((lane % 2) * 4)}),
    (BLK_ASM, lambda lane: {"row": float(lane % 2)}),
])
def test_congruent_surfaces_gang_bit_identical(asm, bindings_for):
    scalar, scalar_outs = _run("scalar", asm, _congruent_pair, bindings_for)
    gang, gang_outs = _run("megaop", asm, _congruent_pair, bindings_for)
    assert gang.instructions == scalar.instructions
    assert gang.scalar_fallbacks == 0  # congruence kept the gang engaged
    assert gang.gang_lanes_retired > 0
    assert gang.batched_mem_lanes > 0  # deltas rode the batched datapath
    for lane, (want, got) in enumerate(zip(scalar_outs, gang_outs)):
        for name in want:
            np.testing.assert_array_equal(
                want[name], got[name],
                err_msg=f"lane {lane} surface {name!r}")


def test_congruent_sample_bit_identical():
    def bindings(lane):
        return {"x": float(lane * 2), "y": 0.5}

    def make(space, lane):
        src = Surface.alloc(space, f"SRC{lane}", 16, 4, DataType.F)
        dst = Surface.alloc(space, f"DST{lane}", 16, 1, DataType.F)
        rng = np.random.default_rng(lane)
        src.upload(space, rng.random((4, 16)).astype(np.float32))
        dst.upload(space, np.zeros((1, 16), dtype=np.float32))
        return {"SRC": src, "DST": dst}

    scalar, scalar_outs = _run("scalar", SAMPLE_ASM, make, bindings)
    gang, gang_outs = _run("megaop", SAMPLE_ASM, make, bindings)
    assert gang.instructions == scalar.instructions
    assert gang.scalar_fallbacks == 0
    for lane, (want, got) in enumerate(zip(scalar_outs, gang_outs)):
        for name in want:
            np.testing.assert_array_equal(
                want[name], got[name],
                err_msg=f"lane {lane} surface {name!r}")


def test_incongruent_surfaces_fall_back():
    """A lane binding a different-width SRC forces the per-shred path —
    results still correct, just not batched."""
    def make(space, lane):
        width = 16 if lane != 2 else 32  # lane 2 is the odd one out
        src = Surface.alloc(space, f"SRC{lane}", width, 2, DataType.DW)
        dst = Surface.alloc(space, f"DST{lane}", 16, 2, DataType.DW)
        img = np.arange(2 * width, dtype=np.int64).reshape(2, width)
        src.upload(space, img + 100 * lane)
        dst.upload(space, np.zeros((2, 16), dtype=np.int64))
        return {"SRC": src, "DST": dst}

    scalar, scalar_outs = _run("scalar", LD_ST_ASM, make,
                               lambda lane: {"off": 0.0})
    gang, gang_outs = _run("megaop", LD_ST_ASM, make,
                           lambda lane: {"off": 0.0})
    assert gang.instructions == scalar.instructions
    for lane, (want, got) in enumerate(zip(scalar_outs, gang_outs)):
        for name in want:
            np.testing.assert_array_equal(
                want[name], got[name],
                err_msg=f"lane {lane} surface {name!r}")


def test_mixed_tiling_falls_back():
    """Same shape but different tiling is not congruent."""
    def make(space, lane):
        tiling = TileMode.LINEAR if lane != 1 else TileMode.TILED
        src = Surface.alloc(space, f"SRC{lane}", 16, 4, DataType.DW,
                            tiling=tiling)
        dst = Surface.alloc(space, f"DST{lane}", 16, 4, DataType.DW)
        img = np.arange(64, dtype=np.int64).reshape(4, 16)
        src.upload(space, img + lane)
        dst.upload(space, np.zeros((4, 16), dtype=np.int64))
        return {"SRC": src, "DST": dst}

    scalar, scalar_outs = _run("scalar", LD_ST_ASM, make,
                               lambda lane: {"off": 0.0})
    gang, gang_outs = _run("megaop", LD_ST_ASM, make,
                           lambda lane: {"off": 0.0})
    assert gang.instructions == scalar.instructions
    for want, got in zip(scalar_outs, gang_outs):
        for name in want:
            np.testing.assert_array_equal(want[name], got[name])
