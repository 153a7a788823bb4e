"""Differential suite: promoted cycles must be bit-identical to scalar.

Runs with a low promotion threshold so short test loops actually
promote: every scenario runs on a scalar device and a megaop device over
fresh address spaces, then compares outputs, per-shred ``ShredRun``
records (including the ``(issue, latency)`` traces the timing model
replays) and every aggregate counter, through the shared harness in
``tests/helpers.py``.  The targeted scenarios aim at the seams of a
promoted cycle: divergence *inside* it, a TLB miss raised by a mem step
mid-cycle, a CEH-proxied fault mid-cycle, the in-place generic fallback
of a step whose specialized form cannot prove its result, symbol reads
at several dtypes and widths, spawn boundaries, the promotion threshold
itself, and promotion/eviction interplay with the ``PredecodeCache``'s
GC-driven eviction.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.exo.shred import ShredDescriptor
from repro.gma import megaop as megaop_tier
from repro.gma.device import GmaDevice
from repro.isa import predecode
from repro.isa.assembler import assemble
from repro.isa.types import DataType
from repro.kernels import ALL_KERNELS, run_kernel_on_gma
from repro.memory.address_space import AddressSpace
from repro.memory.surface import Surface
from repro.perf import SMOKE_GEOMETRIES
from tests.helpers import assert_identical, run_engines

#: Low enough that a handful of loop traversals promotes the cycle.
THRESHOLD = 3


@pytest.fixture(autouse=True)
def low_threshold(monkeypatch):
    monkeypatch.setattr(megaop_tier, "PROMOTE_THRESHOLD", THRESHOLD)


# -- the whole kernel suite ------------------------------------------------------------


@pytest.mark.parametrize("threshold",
                         (THRESHOLD, megaop_tier.PROMOTE_THRESHOLD),
                         ids=("low", "shipped"))
@pytest.mark.parametrize("kernel_cls", ALL_KERNELS,
                         ids=[cls.abbrev for cls in ALL_KERNELS])
def test_kernel_bit_identical(kernel_cls, threshold, monkeypatch):
    """Every kernel, with cycles promoting early (every tier seam gets
    crossed) and at the shipped threshold (what users run)."""
    monkeypatch.setattr(megaop_tier, "PROMOTE_THRESHOLD", threshold)
    kernel = kernel_cls()
    geom = SMOKE_GEOMETRIES[kernel.abbrev]
    outcomes = {}
    for engine in GmaDevice.ENGINES:
        device = GmaDevice(AddressSpace(), engine=engine)
        outcomes[engine] = run_kernel_on_gma(
            kernel, geom, device=device, space=device.space, max_frames=1)
    scalar, megaop = outcomes["scalar"], outcomes["megaop"]
    for fieldname in ("instructions", "shreds", "bytes_read",
                      "bytes_written", "atr_events", "ceh_events",
                      "sampler_samples", "gma_cycles"):
        assert getattr(scalar, fieldname) == getattr(megaop, fieldname), \
            fieldname
    for name in scalar.outputs:
        assert np.array_equal(scalar.outputs[name], megaop.outputs[name]), \
            name


# -- megaop-specific seams -------------------------------------------------------------


def test_homogeneous_loop_promotes_and_retires():
    """The counted-loop fast path: the hot cycle promotes once and the
    steady state retires whole traversals per dispatch."""
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
    scalar, megaop = run_engines(asm, [{"iters": 40.0}] * 8)
    assert_identical(scalar, megaop)
    result = megaop[0]
    assert result.scalar_fallbacks == 0
    assert result.gang_lanes_retired == result.instructions
    assert result.megaop_compiles == 1
    # threshold traversals profile, the rest retire inside the megaop
    # (minus the final traversal, whose branch exits the cycle)
    assert result.megaops_retired >= 30
    assert result.megaop_deopts == 0


def test_divergence_mid_megaop_deopts():
    """A promoted trace whose guard branch splits: the megaop charges
    only completed traversals, deopts, and the block/gang machinery
    defers the minority at the exact exit ip."""
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
    bindings = [{"iters": 30.0}] * 5 + [{"iters": 9.0}] * 3
    scalar, megaop = run_engines(asm, bindings)
    assert_identical(scalar, megaop)
    result = megaop[0]
    assert result.megaop_compiles == 1
    assert result.megaops_retired > 0
    assert result.megaop_deopts >= 1  # the iters=9 split mid-trace
    assert result.scalar_fallbacks == 0  # repacked, not peeled
    assert result.gang_repacks == 1
    assert result.lanes_readmitted == 3


def test_readmitted_gang_repromotes_from_join():
    """Divergence inside a hot trace: a two-phase kernel whose first
    loop splits trip counts, then a long convergent tail loop.  The
    re-admitted gang is a fresh trace head, so the tail must promote
    and retire megaops *after* the reconvergence merge — the repack
    must not deopt the tier for the rest of the launch."""
    asm = """
    mov.1.dw vr2 = 0
    mov.16.f vr4 = 1.0
    warm:
    add.16.f vr4 = vr4, vr4
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, warm
    mov.1.dw vr3 = 0
    tail:
    mul.16.f vr4 = vr4, 0.5
    add.1.dw vr3 = vr3, 1
    cmp.lt.1.dw p2 = vr3, 24
    br p2, tail
    end
    """
    bindings = [{"iters": 12.0}] * 6 + [{"iters": 4.0}] * 2
    scalar, megaop = run_engines(asm, bindings)
    assert_identical(scalar, megaop)
    result = megaop[0]
    assert result.gang_repacks == 1
    assert result.lanes_readmitted == 2
    assert result.scalar_fallbacks == 0
    # both the warm loop (pre-split) and the tail loop (post-merge,
    # recorded from the fresh trace head) promoted and retired
    assert result.megaop_compiles == 2
    assert result.megaops_retired > 0


def test_tlb_miss_mid_megaop_deopts():
    """A cached megaop meets an unmapped page: a prepared first launch
    promotes the store loop; a second launch on a *fresh* space with
    unprepared surfaces dispatches the cached megaop, whose mem step
    raises ``TlbMiss`` mid-trace — the megaop charges only the retired
    prefix, deopts at the store ip, and the peel services the ATR proxy
    in scalar order."""
    asm = """
    mov.1.dw vr2 = 0
    mov.1.dw vr4 = base
    iota.16.f vr1
    loop:
    mad.16.f vr3 = vr1, vr2, vr1
    st.16.f (OUT, vr4, 0) = vr3
    add.1.dw vr4 = vr4, 16
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    end
    """
    program = assemble(asm, name="megaop-tlb-miss")

    def launch(engine, prepare):
        space = AddressSpace()
        device = GmaDevice(space, engine=engine)
        surfaces = {"OUT": Surface.alloc(space, "OUT", 800, 1, DataType.F)}
        shreds = [ShredDescriptor(program=program,
                                  bindings={"base": float(64 * i),
                                            "iters": 12.0},
                                  surfaces=surfaces)
                  for i in range(4)]
        result = device.run(shreds, prepare_surfaces=prepare)
        return result, {"OUT": surfaces["OUT"].download(space)}

    prime = launch("megaop", True)
    assert prime[0].megaop_compiles == 1
    assert prime[0].megaops_retired > 0
    scalar = launch("scalar", False)
    megaop = launch("megaop", False)
    assert_identical(scalar, megaop)
    assert scalar[0].atr_events > 0
    assert megaop[0].megaop_compiles == 0  # reused the cached megaop
    assert megaop[0].megaop_deopts >= 1    # unmapped page mid-trace


def test_ceh_fault_mid_megaop_deopts():
    """A divide whose divisor reaches zero mid-loop: the ALU guard fails
    inside the promoted trace, the megaop deopts at the precise ip, and
    the faulting shreds ride the CEH proxy path in scalar order."""
    asm = """
    iota.16.f vr1
    mov.16.f vr5 = 12.0
    mov.1.dw vr2 = 0
    loop:
    div.16.f vr6 = vr1, vr5
    sub.16.f vr5 = vr5, 1.0
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    end
    """
    scalar, megaop = run_engines(asm, [{"iters": 20.0}] * 6)
    assert_identical(scalar, megaop)
    result = megaop[0]
    assert scalar[0].ceh_events > 0  # divisor hits zero at iteration 12
    assert result.megaop_compiles == 1
    assert result.megaops_retired > 0
    assert result.megaop_deopts >= 1


def test_pass_through_inf_falls_back_in_place():
    """A hot ``f`` loop whose loaded input holds an inf in one lane: the
    specialized add cannot tell that pass-through inf from an overflow,
    so it writes nothing and the executor hands the instruction to the
    generic batched step in place.  The cycle keeps retiring whole
    traversals instead of deopting on every one."""
    asm = """
    mov.1.dw vr2 = 0
    loop:
    ld.16.f vr5 = (IN, 0, 0)
    add.16.f vr6 = vr5, 1.0
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    st.16.f (OUT, base, 0) = vr6
    end
    """
    image = np.arange(16.0).reshape(1, 16)
    image[0, 5] = np.inf
    bindings = [{"iters": 20.0, "base": float(16 * i)} for i in range(4)]
    scalar, megaop = run_engines(asm, bindings,
                                 surfaces_spec={"IN": (16, 1),
                                                "OUT": (64, 1)},
                                 inputs={"IN": image})
    assert_identical(scalar, megaop)
    assert np.isinf(scalar[1]["OUT"][0, 5::16]).all()
    result = megaop[0]
    assert result.scalar_fallbacks == 0
    assert result.megaop_compiles == 1
    assert result.megaops_retired > 0
    assert result.megaop_deopts == 0


def test_symbol_read_at_two_dtypes():
    """One symbol read at two dtypes in a promoted cycle: each read
    wraps the bound value for its own dtype (300 reads 44 as ``ub`` and
    300 as ``dw``), so a memoized symbol read must not serve one
    dtype's wrap to the other."""
    asm = """
    iota.16.dw vr1
    mov.1.dw vr2 = 0
    loop:
    add.16.ub vr3 = vr1, s
    add.16.dw vr4 = vr1, s
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    st.16.f (OUT, base, 0) = vr3
    st.16.f (OUT, base, 16) = vr4
    end
    """
    bindings = [{"s": 300.0, "iters": 20.0, "base": float(32 * i)}
                for i in range(4)]
    scalar, megaop = run_engines(asm, bindings,
                                 surfaces_spec={"OUT": (128, 1)})
    assert_identical(scalar, megaop)
    out = megaop[1]["OUT"][0]
    assert np.array_equal(out[:16], np.arange(44.0, 60.0))
    assert np.array_equal(out[16:32], np.arange(300.0, 316.0))
    assert megaop[0].megaop_compiles == 1
    assert megaop[0].megaops_retired > 0


def test_symbol_read_at_two_widths():
    """One symbol read at width 16 and then at width 1 in a promoted
    cycle: each read gets its own shape."""
    asm = """
    iota.16.dw vr1
    mov.1.dw vr2 = 0
    loop:
    add.16.dw vr3 = vr1, s
    add.1.dw vr4 = vr2, s
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    st.16.f (OUT, base, 0) = vr3
    st.1.f (OUT, base, 16) = vr4
    end
    """
    bindings = [{"s": 7.0, "iters": 20.0, "base": float(32 * i)}
                for i in range(4)]
    scalar, megaop = run_engines(asm, bindings,
                                 surfaces_spec={"OUT": (128, 1)})
    assert_identical(scalar, megaop)
    out = megaop[1]["OUT"][0]
    assert np.array_equal(out[:16], np.arange(7.0, 23.0))
    assert out[16] == 7.0 + 19.0  # the last traversal's counter + s
    assert megaop[0].megaop_compiles == 1
    assert megaop[0].megaops_retired > 0


def test_spawn_boundary_never_promotes(monkeypatch):
    """SPAWN is never part of a block, so no cycle containing it can
    promote; children join the queue in scalar order."""
    asm = """
    mov.1.dw vr2 = __spawn_arg
    cmp.gt.1.dw p1 = vr2, 0
    (!p1) jmp done
    spawn 0
    done:
    end
    """
    bindings = [{"__spawn_arg": 1.0}] * 2 + [{"__spawn_arg": 0.0}] * 2
    monkeypatch.setattr(megaop_tier, "PROMOTE_THRESHOLD", 1)
    scalar, megaop = run_engines(asm, bindings)
    assert_identical(scalar, megaop)
    assert scalar[0].spawned_shreds == 2
    assert scalar[0].shreds_executed == 6  # 4 parents + 2 children
    assert megaop[0].megaop_compiles == 0


def test_promotion_threshold_knob(monkeypatch):
    """The promotion threshold gates promotion: a loop hotter than the
    threshold promotes, one colder never compiles."""
    asm = """
    iota.16.f vr1
    mov.1.dw vr2 = 0
    loop:
    add.16.f vr3 = vr1, vr1
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    end
    """

    def run(threshold):
        monkeypatch.setattr(megaop_tier, "PROMOTE_THRESHOLD", threshold)
        program = assemble(asm, name=f"threshold-{threshold}")
        device = GmaDevice(AddressSpace(), engine="megaop")
        shreds = [ShredDescriptor(program=program, bindings={"iters": 20.0})
                  for _ in range(4)]
        return device.run(shreds)

    hot = run(2)
    assert hot.megaop_compiles == 1
    assert hot.megaops_retired > 0
    cold = run(1000)
    assert cold.megaop_compiles == 0
    assert cold.megaops_retired == 0
    assert hot.instructions == cold.instructions
    assert hot.cycles == cold.cycles


def test_promotion_survives_across_runs_and_evicts_with_program():
    """Megaops live in the PredecodeCache beside the predecode entry: a
    second run of the same program reuses the compiled megaop (no
    recompile), and dropping the program evicts it with GC."""
    asm = """
    iota.16.f vr1
    mov.1.dw vr2 = 0
    loop:
    mul.16.f vr3 = vr1, vr1
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    end
    """
    program = assemble(asm, name="megaop-eviction")

    def launch():
        device = GmaDevice(AddressSpace(), engine="megaop")
        shreds = [ShredDescriptor(program=program, bindings={"iters": 20.0})
                  for _ in range(4)]
        return device.run(shreds)

    first = launch()
    assert first.megaop_compiles == 1
    assert predecode.CACHE.stats()["megaops"] >= 1
    second = launch()
    assert second.megaop_compiles == 0  # cache hit: already promoted
    assert second.megaops_retired > 0
    assert first.instructions == second.instructions
    before = predecode.CACHE.stats()["megaops"]
    # drop every reference to the program (results hold it via their
    # shred descriptors) so the weakref eviction can fire
    del program, first, second
    gc.collect()
    assert predecode.CACHE.stats()["megaops"] < before


def test_clear_cache_mid_profile_recompiles():
    """A ``PredecodeCache.clear`` between runs (the eviction race seam)
    drops megaops and counts; the next run re-profiles and re-promotes
    without corrupting results."""
    asm = """
    iota.16.f vr1
    mov.1.dw vr2 = 0
    loop:
    add.16.f vr3 = vr1, 1.0
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    end
    """
    program = assemble(asm, name="megaop-clear")

    def launch():
        device = GmaDevice(AddressSpace(), engine="megaop")
        shreds = [ShredDescriptor(program=program, bindings={"iters": 15.0})
                  for _ in range(4)]
        return device.run(shreds)

    first = launch()
    assert first.megaop_compiles == 1
    predecode.CACHE.clear()
    assert predecode.CACHE.stats()["megaops"] == 0
    second = launch()
    assert second.megaop_compiles == 1  # profiled from scratch
    assert first.instructions == second.instructions
    assert first.cycles == second.cycles
