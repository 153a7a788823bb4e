"""Differential suite: compiled blocks must be bit-identical to scalar.

Every scenario runs on a scalar device and a megaop device over fresh
address spaces, at the shipped promotion threshold, then compares
outputs, per-shred ``ShredRun`` records (including the ``(issue,
latency)`` traces the timing model replays) and every aggregate
counter.  The targeted scenarios aim at the seams of a basic block's
compiled trace: divergence *inside* a chained loop, guarded ALU steps
in a block body, a TLB miss interrupting a chained trace, a CEH fault
raised by a block's batched step, and memory steps inside a block —
a block that fails mid-way re-enters through a suffix trace after the
failing step's reference step.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exo.shred import ShredDescriptor
from repro.gma.device import GmaDevice
from repro.isa.assembler import assemble
from repro.isa.types import DataType
from repro.memory.address_space import AddressSpace
from repro.memory.surface import Surface
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


# -- memory inside blocks and mid-block re-entry -----------------------------


def run_primed(asm: str, bindings_list):
    """Two launches per engine on one device: the first maps ``IN`` and
    ``OUT``; the second runs ``asm`` with ``FAR`` also bound but left
    unmapped (``prepare_surfaces=False``), so its first touch of ``FAR``
    misses the TLB.  Returns ``[(result, downloads)]``, scalar first."""
    program = assemble(asm, name="primed")
    prime = assemble("end", name="prime")
    out = []
    for engine in GmaDevice.ENGINES:
        space = AddressSpace()
        device = GmaDevice(space, engine=engine)
        surfaces = {name: Surface.alloc(space, name, 256, 1, DataType.F)
                    for name in ("IN", "OUT", "FAR")}
        surfaces["IN"].upload(space, np.arange(256.0).reshape(1, 256))
        mapped = {name: surfaces[name] for name in ("IN", "OUT")}
        device.run([ShredDescriptor(program=prime, surfaces=mapped)
                    for _ in range(2)])
        shreds = [ShredDescriptor(program=program, bindings=dict(bindings),
                                  surfaces=surfaces)
                  for bindings in bindings_list]
        result = device.run(shreds, prepare_surfaces=False)
        out.append((result, {name: surf.download(space)
                             for name, surf in surfaces.items()}))
    return out


def test_straight_line_memory_retires_as_one_block():
    """Loads and stores are block body items: a straight-line
    ``ld``/ALU/``st``/ALU/``st`` program is one block per launch."""
    asm = """
    ld.16.f vr1 = (IN, base, 0)
    add.16.f vr2 = vr1, 1.0
    st.16.f (OUT, base, 0) = vr2
    mul.16.f vr3 = vr2, vr1
    st.16.f (OUT, base, 16) = vr3
    end
    """
    bindings = [{"base": float(32 * i)} for i in range(4)]
    scalar, megaop = run_engines(asm, bindings,
                                 surfaces_spec={"IN": (128, 1),
                                                "OUT": (128, 1)},
                                 inputs={"IN": np.arange(128.0)
                                         .reshape(1, 128)})
    assert_identical(scalar, megaop)
    result = megaop[0]
    assert result.fused_blocks_retired == 1
    assert result.scalar_fallbacks == 0
    assert result.batched_mem_lanes == 3 * 4
    assert result.gang_lanes_retired == result.instructions


def test_zero_divisor_mid_block_reenters_through_a_suffix():
    """One lane's divisor is zero mid-block: the block charges its
    prefix, the retry at the head of the divide's suffix writes nothing,
    the reference step peels that lane alone, and the rest of the block
    retires through a suffix compiled on first use."""
    asm = """
    ld.16.f vr1 = (IN, base, 0)
    bcast.16.f vr5 = d
    div.16.f vr2 = vr1, vr5
    add.16.f vr3 = vr2, 1.0
    st.16.f (OUT, base, 0) = vr3
    end
    """
    bindings = [{"base": float(16 * i), "d": 0.0 if i == 2 else 4.0}
                for i in range(5)]
    scalar, megaop = run_engines(asm, bindings,
                                 surfaces_spec={"IN": (128, 1),
                                                "OUT": (128, 1)},
                                 inputs={"IN": np.arange(128.0)
                                         .reshape(1, 128)})
    assert_identical(scalar, megaop)
    assert scalar[0].ceh_events == 1
    result = megaop[0]
    assert result.scalar_fallbacks == 1  # only the zero-divisor lane
    # the block, the divide's suffix (retried, never retired) and the
    # add's suffix, which retires
    assert result.fusion_compiles == 3
    assert result.fused_blocks_retired == 1


def test_tlb_miss_mid_block_peels_in_queue_order():
    """``ld IN; add; st FAR``: the load hits, the store misses mid-block
    and the miss peels in queue order before the ATR service."""
    asm = """
    ld.16.f vr1 = (IN, base, 0)
    add.16.f vr2 = vr1, 1.0
    st.16.f (FAR, base, 0) = vr2
    mul.16.f vr3 = vr2, vr2
    st.16.f (OUT, base, 0) = vr3
    end
    """
    bindings = [{"base": float(16 * i)} for i in range(4)]
    scalar, megaop = run_primed(asm, bindings)
    assert_identical(scalar, megaop)
    assert scalar[0].atr_events == 1  # the first store maps FAR's page
    assert megaop[0].scalar_fallbacks == 4


def test_masked_store_overlapping_a_neighbour_inside_a_block():
    """A guarded store whose span overlaps the next lane's: one batched
    read-modify-write cannot see the earlier lane's merge, so the step
    takes the reference path in queue order and the gang re-enters the
    block after it."""
    asm = """
    iota.16.f vr1
    add.16.f vr2 = vr1, tag
    cmp.lt.16.f p1 = vr1, 8.0
    (p1) st.16.f (OUT, base, 0) = vr2
    add.16.f vr3 = vr2, 1.0
    st.16.f (OUT, base, 64) = vr3
    end
    """
    bindings = [{"base": float(4 * i), "tag": float(100 * (i + 1))}
                for i in range(4)]
    scalar, megaop = run_engines(asm, bindings,
                                 surfaces_spec={"OUT": (128, 1)})
    assert_identical(scalar, megaop)
    result = megaop[0]
    assert result.scalar_fallbacks == 0  # the reference step keeps lanes
    assert result.fused_blocks_retired == 1  # the suffix after the store


_REGS = st.integers(1, 4)
#: ALU ops whose values stay finite over a short block (no overflow,
#: so no NaN that would make equal outputs compare unequal).
_ITEMS = st.one_of(
    st.tuples(st.just("ld"), _REGS),
    st.tuples(st.just("st"), _REGS),
    st.tuples(st.sampled_from(("add", "sub", "max", "min")), _REGS, _REGS,
              _REGS),
)


def _item_asm(item) -> str:
    if item[0] == "ld":
        return f"ld.16.f vr{item[1]} = (IN, base, 0)"
    if item[0] == "st":
        return f"st.16.f (OUT, base, 0) = vr{item[1]}"
    op, dst, a, b = item
    return f"{op}.16.f vr{dst} = vr{a}, vr{b}"


@settings(max_examples=60, derandomize=True, deadline=None)
@given(items=st.lists(_ITEMS, min_size=2, max_size=11),
       fault=st.sampled_from(("div", "far_ld", "far_st")),
       where=st.integers(0, 11), lane=st.integers(0, 4))
def test_block_with_a_fault_at_any_item_matches_scalar(items, fault, where,
                                                       lane):
    """A 3-12 item block mixing ``ld``/``st``/ALU with a zero divisor in
    one lane or a first touch of an unmapped page at a random item."""
    faulting = {"div": "div.16.f vr5 = vr6, dv",
                "far_ld": "ld.16.f vr3 = (FAR, base, 0)",
                "far_st": "st.16.f (FAR, base, 0) = vr4"}[fault]
    body = [_item_asm(item) for item in items]
    body.insert(min(where, len(body)), faulting)
    # vr6 is nonzero, so the zero divisor yields inf, never NaN
    asm = "\n".join(["iota.16.f vr1", "add.16.f vr6 = vr1, 1.0"] + body
                    + ["st.16.f (OUT, base, 16) = vr5", "end"])
    bindings = [{"base": float(32 * i), "dv": 0.0 if i == lane else 2.0}
                for i in range(5)]
    scalar, megaop = run_primed(asm, bindings)
    assert_identical(scalar, megaop)
