"""Differential suite: the fused tier must be bit-identical to scalar.

Mirrors ``test_gang_differential``: every scenario runs on a scalar
device and a megaop device over fresh address spaces, then compares
outputs, per-shred ``ShredRun`` records (including
the ``(issue, latency)`` traces the timing model replays) and every
aggregate counter.  The targeted scenarios aim at the fusion-specific
seams: divergence *inside* a compiled block's loop, guarded ALU steps in
a block body, a TLB miss interrupting a chained trace, and a CEH fault
raised by a block's batched step.
"""

from __future__ import annotations

import numpy as np

from repro.exo.shred import ShredDescriptor
from repro.gma.device import GmaDevice
from repro.isa.assembler import assemble
from repro.isa.types import DataType
from repro.memory.address_space import AddressSpace
from repro.memory.surface import Surface

RUN_FIELDS = ("instructions", "issue_cycles", "bytes_read", "bytes_written",
              "sampler_samples", "atr_events", "ceh_events", "spawned")
AGG_FIELDS = ("shreds_executed", "instructions", "bytes_read",
              "bytes_written", "atr_events", "ceh_events", "spawned_shreds")


def run_engines(asm: str, bindings_list, surfaces_spec=None, inputs=None,
                prepare_surfaces: bool = True):
    """The same launch on scalar and megaop, each on a fresh device."""
    program = assemble(asm, name="fusion-differential")
    out = {}
    for engine in GmaDevice.ENGINES:
        space = AddressSpace()
        device = GmaDevice(space, engine=engine)
        surfaces = {
            name: Surface.alloc(space, name, width, height, DataType.F)
            for name, (width, height) in (surfaces_spec or {}).items()
        }
        for name, image in (inputs or {}).items():
            surfaces[name].upload(space, np.asarray(image))
        shreds = [ShredDescriptor(program=program, bindings=dict(bindings),
                                  surfaces=surfaces)
                  for bindings in bindings_list]
        result = device.run(shreds, prepare_surfaces=prepare_surfaces)
        downloads = {name: surf.download(space)
                     for name, surf in surfaces.items()}
        out[engine] = (result, downloads)
    return out["scalar"], out["megaop"]


def assert_identical(scalar, fused):
    result_s, surfaces_s = scalar
    result_f, surfaces_f = fused
    for fieldname in AGG_FIELDS:
        assert getattr(result_s, fieldname) == getattr(result_f, fieldname), \
            fieldname
    assert result_s.cycles == result_f.cycles
    assert len(result_s.runs) == len(result_f.runs)
    for position, (run_s, run_f) in enumerate(
            zip(result_s.runs, result_f.runs)):
        for fieldname in RUN_FIELDS:
            assert getattr(run_s, fieldname) == getattr(run_f, fieldname), \
                f"shred {position}: {fieldname}"
        assert run_s.trace == run_f.trace, f"shred {position}: trace"
    assert set(surfaces_s) == set(surfaces_f)
    for name in surfaces_s:
        assert np.array_equal(surfaces_s[name], surfaces_f[name]), name


# -- fusion-specific seams -------------------------------------------------------------


def test_homogeneous_loop_chains_traces():
    """The counted-loop fast path: every back edge is a chained trace."""
    asm = """
    iota.16.f vr1
    mov.1.dw vr2 = 0
    loop:
    mad.16.f vr3 = vr1, vr1, vr1
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    end
    """
    scalar, fused = run_engines(asm, [{"iters": 6.0}] * 8)
    assert_identical(scalar, fused)
    result = fused[0]
    assert result.scalar_fallbacks == 0
    assert result.gang_lanes_retired == result.instructions
    assert result.fused_blocks_retired > 0
    # 5 back edges + the loop-exit fall-through are all uniform
    assert result.trace_chains >= 6
    assert result.fusion_compiles > 0


def test_divergence_inside_loop():
    """A branch that splits mid-loop: the fused divergence path parks the
    minority toward the reconvergence point, the majority keeps chaining
    blocks, and the merge at the join stays bit-identical to scalar."""
    asm = """
    mov.1.dw vr2 = 0
    loop:
    add.16.f vr3 = vr2, vr2
    mul.16.f vr4 = vr3, vr3
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    end
    """
    bindings = [{"iters": 9.0}] * 5 + [{"iters": 3.0}] * 3
    scalar, fused = run_engines(asm, bindings)
    assert_identical(scalar, fused)
    assert fused[0].scalar_fallbacks == 0  # repacked, not peeled
    assert fused[0].gang_repacks == 1
    assert fused[0].lanes_readmitted == 3
    assert fused[0].fused_blocks_retired > 0


def test_guarded_alu_inside_block():
    """Predicated ALU steps inside a block body blend against old
    register lanes exactly as the scalar engine does."""
    asm = """
    iota.16.f vr1
    mov.16.f vr3 = vr1
    cmp.gt.16.f p2 = vr1, thresh
    (p2) mul.16.f vr3 = vr1, 2.0
    (!p2) add.16.f vr3 = vr3, 100.0
    add.16.f vr4 = vr3, vr1
    end
    """
    bindings = [{"thresh": float(t)} for t in (4.0, 4.0, 8.0, 8.0)]
    scalar, fused = run_engines(asm, bindings)
    assert_identical(scalar, fused)
    assert fused[0].scalar_fallbacks == 0


def test_tlb_miss_interrupts_chained_trace():
    """An unprepared surface faults a store mid-program: the fused run
    must abandon the chain before any state changes and preserve ATR
    service order through the deferred peel."""
    asm = """
    mov.1.dw vr2 = base
    iota.16.f vr1
    mad.16.f vr3 = vr1, vr1, vr1
    st.16.f (OUT, vr2, 0) = vr3
    end
    """
    bindings = [{"base": float(16 * i)} for i in range(4)]
    scalar, fused = run_engines(asm, bindings,
                                surfaces_spec={"OUT": (64, 1)},
                                prepare_surfaces=False)
    assert_identical(scalar, fused)
    assert scalar[0].atr_events == 1  # first store faults, rest hit
    assert fused[0].scalar_fallbacks == 4


def test_ceh_fault_mid_block():
    """A divide-by-zero inside a block body: the failing step commits
    nothing, earlier steps commit exactly once, and the faulting shreds
    ride the CEH proxy path in scalar order."""
    asm = """
    bcast.16.f vr1 = d
    mov.16.f vr2 = vr1
    add.16.f vr4 = vr2, 1.0
    div.16.f vr3 = vr4, vr1
    end
    """
    bindings = [{"d": 0.0 if i in (1, 4) else 2.0} for i in range(6)]
    scalar, fused = run_engines(asm, bindings)
    assert_identical(scalar, fused)
    assert scalar[0].ceh_events == 2
    assert fused[0].scalar_fallbacks == 2  # only the faulting shreds peel


def test_spawn_boundary_stops_fusion():
    """SPAWN is never part of a block; the whole gang peels at the spawn
    point and children join the queue in scalar order."""
    asm = """
    mov.1.dw vr2 = __spawn_arg
    cmp.gt.1.dw p1 = vr2, 0
    (!p1) jmp done
    spawn 0
    done:
    end
    """
    bindings = [{"__spawn_arg": 1.0}] * 2 + [{"__spawn_arg": 0.0}] * 2
    scalar, fused = run_engines(asm, bindings)
    assert_identical(scalar, fused)
    assert scalar[0].spawned_shreds == 2
    assert scalar[0].shreds_executed == 6  # 4 parents + 2 children
