"""The program predecode cache: classification, keying, invalidation."""

from __future__ import annotations

import gc

from repro.isa import predecode
from repro.isa.assembler import assemble


def _program(asm: str, name: str = "predecode-test"):
    return assemble(asm, name=name)


def test_batch_classes():
    program = _program("""
    iota.16.f vr1
    mov.1.dw vr2 = 0
    ld.16.f vr3 = (IN, vr2, 0)
    cmp.lt.1.dw p1 = vr2, n
    br p1, done
    done:
    end
    """)
    pre = predecode.predecode_program(program)
    classes = [p.batch_class for p in pre.instrs]
    assert classes == [predecode.BATCH_ALU, predecode.BATCH_ALU,
                       predecode.BATCH_MEM, predecode.BATCH_ALU,
                       predecode.BATCH_CONTROL, predecode.BATCH_CONTROL]
    assert pre.gangable


def test_memory_batchability():
    """Regular loads/stores gang; shapes the lockstep step can't honor
    bit-identically stay per-shred."""
    batchable = _program("""
    mov.1.dw vr2 = 0
    ld.16.f vr3 = (IN, vr2, 0)
    st.16.f (OUT, vr2, 0) = vr3
    ldblk.4x4.f [vr4..vr4] = (IN, vr1, vr2)
    sample.16.f vr5 = (TEX, vr6, vr7)
    end
    """)
    pre = predecode.predecode_program(batchable)
    for slot in pre.instrs[1:-1]:
        assert slot.batch_class == predecode.BATCH_MEM
    # sample.df has no DF sampler path: it must fault through the
    # per-shred reference step so the CEH event stays identical
    df = _program("sample.16.df vr5 = (TEX, vr6, vr7)\nend\n")
    pre_df = predecode.predecode_program(df)
    assert pre_df.instrs[0].batch_class == predecode.BATCH_PER_SHRED


def test_branch_targets_resolved():
    program = _program("""
    mov.1.dw vr1 = 0
    loop:
    add.1.dw vr1 = vr1, 1
    cmp.lt.1.dw p1 = vr1, n
    br p1, loop
    end
    """)
    pre = predecode.predecode_program(program)
    br = pre.instrs[3]
    assert br.batch_class == predecode.BATCH_CONTROL
    assert br.target == program.labels["loop"] == 1


def test_sendreg_poisons_gangability():
    program = _program("sendreg.1.dw (vr3, vr7) = vr5\nend\n")
    pre = predecode.predecode_program(program)
    assert not pre.gangable
    assert "sendreg" in pre.reason
    # spawn merely peels; the program stays gangable
    spawning = predecode.predecode_program(_program("spawn 0\nend\n"))
    assert spawning.gangable
    assert spawning.instrs[0].batch_class == predecode.BATCH_PEEL


def test_cache_hits_misses_and_eviction():
    cache = predecode.PredecodeCache()
    program = _program("iota.16.f vr1\nend\n")
    first = cache.lookup(program)
    again = cache.lookup(program)
    assert first is again
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == 0.5
    assert len(cache) == 1
    del program
    gc.collect()
    assert len(cache) == 0  # weakref eviction, no strong Program refs held
    assert cache.evictions == 1


def test_cache_survives_id_reuse():
    """A new Program landing on a dead program's id() must miss."""
    cache = predecode.PredecodeCache()
    asm = "iota.16.f vr1\nend\n"
    seen = set()
    for _ in range(8):
        program = _program(asm)
        pre = cache.lookup(program)
        assert pre.instrs[0].instr is program.instructions[0]
        seen.add(id(program))
        del program, pre
        gc.collect()
    # every lookup was against a fresh object: all misses, no false hits
    assert cache.hits == 0
    assert cache.misses == 8


def test_process_cache_used_by_execution():
    from repro.exo.shred import ShredDescriptor
    from repro.gma.device import GmaDevice
    from repro.memory.address_space import AddressSpace

    program = _program("iota.16.f vr1\nend\n")
    predecode.CACHE.clear()
    device = GmaDevice(AddressSpace(), engine="megaop")
    shreds = [ShredDescriptor(program=program, bindings={})
              for _ in range(4)]
    first = device.run(shreds)
    assert first.predecode_misses == 1
    assert first.predecode_hits >= 1
    second = device.run([ShredDescriptor(program=program, bindings={})
                         for _ in range(4)])
    assert second.predecode_misses == 0
    assert second.predecode_hits >= 1


def test_cache_stats_snapshot():
    cache = predecode.PredecodeCache()
    program = _program("iota.16.f vr1\nend\n")
    cache.lookup(program)
    cache.lookup(program)
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["evictions"] == 0
    assert stats["fused_blocks"] == 0


def test_fused_entries_evict_with_the_program():
    """Compiled traces ride the predecode entry's lifetime: when the
    program dies, its trace entry must go too (no id-reuse leak)."""
    from repro.gma.megaop import ProgramTraces

    cache = predecode.PredecodeCache()
    program = _program("iota.16.f vr1\nadd.16.f vr2 = vr1, vr1\nend\n")
    pre = cache.lookup(program)
    traces = ProgramTraces(program, pre)
    cache.store_traces(program, traces)
    assert cache.lookup_traces(program) is traces
    assert cache.stats()["fused_blocks"] == len(traces.blocks) == 1

    del program, pre, traces
    gc.collect()
    assert len(cache) == 0
    assert cache.stats()["fused_blocks"] == 0  # trace entry evicted too


def test_fused_store_requires_live_predecode_entry():
    """store_traces on an uncached program is a no-op: the trace entry
    would have no eviction anchor."""
    from repro.gma.megaop import ProgramTraces

    cache = predecode.PredecodeCache()
    program = _program("iota.16.f vr1\nend\n")
    traces = ProgramTraces(program, predecode.predecode_program(program))
    cache.store_traces(program, traces)
    assert cache.lookup_traces(program) is None


def test_transformed_program_gets_fresh_cache_entry():
    """A schedule transform emits a *new* Program object: the predecode
    cache must key source and transformed programs separately, and
    evicting one must not disturb the other."""
    from repro.isa import transforms

    cache = predecode.PredecodeCache()
    program = _program("""
    mov.16.f vr3 = 0.0
    mov.1.dw vr1 = 0
    loop:
    add.16.f vr3 = vr3, 1.0
    add.1.dw vr1 = vr1, 1
    cmp.lt.1.dw p1 = vr1, 8
    br p1, loop
    end
    """, name="xform-cache")
    unrolled = transforms.unroll(program, "loop", 2)
    assert unrolled is not program

    entry_src = cache.lookup(program)
    entry_new = cache.lookup(unrolled)
    assert entry_new is not entry_src
    assert len(cache) == 2 and cache.misses == 2
    # each entry decodes its own program's instructions, never aliases
    assert entry_src.instrs[0].instr is program.instructions[0]
    assert entry_new.instrs[0].instr is unrolled.instructions[0]

    # evicting the source leaves the transformed entry live and hot
    del program, entry_src
    gc.collect()
    assert len(cache) == 1
    assert cache.lookup(unrolled) is entry_new
    assert cache.hits == 1


def test_transformed_id_reuse_never_aliases():
    """Repeatedly transforming and dropping programs must never produce
    a stale predecode hit on a recycled id()."""
    from repro.isa import transforms

    cache = predecode.PredecodeCache()
    asm = """
    mov.1.dw vr1 = 0
    loop:
    add.16.f vr2 = vr2, 1.0
    add.1.dw vr1 = vr1, 1
    cmp.lt.1.dw p1 = vr1, 8
    br p1, loop
    end
    """
    for factor in (2, 4, 8, 2, 4, 8):
        program = _program(asm, name="xform-reuse")
        unrolled = transforms.unroll(program, "loop", factor)
        pre = cache.lookup(unrolled)
        assert pre.instrs[0].instr is unrolled.instructions[0]
        del program, unrolled, pre
        gc.collect()
    assert cache.hits == 0
    assert cache.misses == 6


def test_fused_id_reuse_never_leaks():
    """A new Program landing on a dead program's id() must not see the
    dead program's compiled traces."""
    from repro.exo.shred import ShredDescriptor
    from repro.gma.device import GmaDevice
    from repro.memory.address_space import AddressSpace

    asm = "iota.16.f vr1\nend\n"
    predecode.CACHE.clear()
    for _ in range(8):
        program = _program(asm)
        result = GmaDevice(AddressSpace()).run(
            [ShredDescriptor(program=program, bindings={})
             for _ in range(2)])
        traces = predecode.CACHE.lookup_traces(program)
        # a stale hit would reuse the dead program's blocks: the run
        # would compile nothing for a program never compiled before
        assert result.fusion_compiles == len(traces.blocks) == 1
        del program, result, traces
        gc.collect()
