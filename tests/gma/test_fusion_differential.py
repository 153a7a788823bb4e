"""Differential suite: compiled blocks must be bit-identical to scalar.

Every scenario runs on a scalar device and a megaop device over fresh
address spaces, at the shipped promotion threshold, then compares
outputs, per-shred ``ShredRun`` records (including the ``(issue,
latency)`` traces the timing model replays) and every aggregate
counter.  The targeted scenarios aim at the seams of a basic block's
compiled trace: divergence *inside* a chained loop, guarded ALU steps
in a block body, a TLB miss interrupting a chained trace, and a CEH
fault raised by a block's batched step.
"""

from __future__ import annotations

from tests.helpers import assert_identical, run_engines


# -- block seams -------------------------------------------------------------


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
    scalar, megaop = run_engines(asm, [{"iters": 6.0}] * 8)
    assert_identical(scalar, megaop)
    result = megaop[0]
    assert result.scalar_fallbacks == 0
    assert result.gang_lanes_retired == result.instructions
    assert result.fused_blocks_retired > 0
    # 5 back edges + the loop-exit fall-through are all uniform
    assert result.trace_chains >= 6
    assert result.fusion_compiles > 0


def test_divergence_inside_loop():
    """A branch that splits mid-loop: the block's divergence path parks the
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
    scalar, megaop = run_engines(asm, bindings)
    assert_identical(scalar, megaop)
    assert megaop[0].scalar_fallbacks == 0  # repacked, not peeled
    assert megaop[0].gang_repacks == 1
    assert megaop[0].lanes_readmitted == 3
    assert megaop[0].fused_blocks_retired > 0


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
    scalar, megaop = run_engines(asm, bindings)
    assert_identical(scalar, megaop)
    assert megaop[0].scalar_fallbacks == 0


def test_tlb_miss_interrupts_chained_trace():
    """An unprepared surface faults a store mid-program: the block chain
    must abandon the trace before any state changes and preserve ATR
    service order through the deferred peel."""
    asm = """
    mov.1.dw vr2 = base
    iota.16.f vr1
    mad.16.f vr3 = vr1, vr1, vr1
    st.16.f (OUT, vr2, 0) = vr3
    end
    """
    bindings = [{"base": float(16 * i)} for i in range(4)]
    scalar, megaop = run_engines(asm, bindings,
                                surfaces_spec={"OUT": (64, 1)},
                                prepare_surfaces=False)
    assert_identical(scalar, megaop)
    assert scalar[0].atr_events == 1  # first store faults, rest hit
    assert megaop[0].scalar_fallbacks == 4


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
    scalar, megaop = run_engines(asm, bindings)
    assert_identical(scalar, megaop)
    assert scalar[0].ceh_events == 2
    assert megaop[0].scalar_fallbacks == 2  # only the faulting shreds peel


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
    scalar, megaop = run_engines(asm, bindings)
    assert_identical(scalar, megaop)
    assert scalar[0].spawned_shreds == 2
    assert scalar[0].shreds_executed == 6  # 4 parents + 2 children
