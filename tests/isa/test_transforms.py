"""Differential suite for the schedule-transform layer.

Every primitive runs over all 10 media kernels (the transformed program
must reproduce the numpy reference bit-exactly) plus hand-written
divergent / CEH / spawn scenarios across all four execution engines.
The tuner, the Schedule API and the scheduler-composition property
(satellite: list scheduling after unroll) are covered at the end.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.helpers import run_program

from repro.errors import ReproError
from repro.exo.shred import ShredDescriptor
from repro.gma.device import GmaDevice
from repro.isa import transforms as T
from repro.isa import tuning
from repro.isa.assembler import assemble
from repro.isa.predecode import predecode_program
from repro.isa.scheduler import schedule_program
from repro.isa.types import DataType
from repro.kernels import ALL_KERNELS
from repro.kernels.harness import run_kernel_on_gma
from repro.memory.address_space import AddressSpace
from repro.memory.surface import Surface
from repro.perf import BENCH_GEOMETRIES, SMOKE_GEOMETRIES

ENGINES = GmaDevice.ENGINES

#: Specs that exercise every primitive (unroll, reorder, stage_mem);
#: a spec that does not apply to a kernel is a documented no-op, which
#: the harness treats as baseline.
ALL_SPECS = ("unroll4", "reorder", "stage_mem", "unroll8+stage_mem")

#: The tuner's pick per kernel at bench geometry.
TUNED_AT_BENCH = {
    "LinearFilter": "baseline",
    "SepiaTone": "baseline",
    "ProcAmp": "unroll4+stage_mem",
    "Kalman": "unroll8+stage_mem",
    "FMD": "unroll8+stage_mem+reorder",
    "BOB": "unroll8+stage_mem+reorder",
    "ADVDI": "unroll8+stage_mem+reorder",
    "FGT": "unroll8+stage_mem+reorder",
    "Bicubic": "unroll8+stage_mem+reorder",
    "AlphaBlend": "unroll8+stage_mem+reorder",
}


def run_engines(program, bindings_list, surfaces_spec=None, inputs=None,
                engines=ENGINES):
    """One launch of ``program`` per engine, each on a fresh device."""
    out = []
    for engine in engines:
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
        result = device.run(shreds)
        downloads = {name: surf.download(space)
                     for name, surf in surfaces.items()}
        out.append((result, downloads))
    return out


def assert_engines_identical(runs):
    """Outputs and side-effect counters agree across all engine runs."""
    base_result, base_surfaces = runs[0]
    for result, surfaces in runs[1:]:
        for fieldname in ("shreds_executed", "instructions", "bytes_read",
                          "bytes_written", "atr_events", "ceh_events",
                          "spawned_shreds"):
            assert getattr(result, fieldname) == \
                getattr(base_result, fieldname), fieldname
        assert set(surfaces) == set(base_surfaces)
        for name in surfaces:
            assert np.array_equal(surfaces[name], base_surfaces[name]), name


# -- every primitive over every kernel -------------------------------------------------


@pytest.mark.parametrize("kernel_cls", ALL_KERNELS,
                         ids=[cls.abbrev for cls in ALL_KERNELS])
@pytest.mark.parametrize("spec", ALL_SPECS)
def test_kernel_schedules_match_reference(kernel_cls, spec):
    """A scheduled kernel must still match the numpy reference exactly
    (run_kernel_on_gma raises on the first mismatching pixel) and must
    be byte-identical to the unscheduled run's outputs."""
    kernel = kernel_cls()
    geom = SMOKE_GEOMETRIES[kernel.abbrev]
    baseline = run_kernel_on_gma(kernel, geom, max_frames=1)
    scheduled = run_kernel_on_gma(kernel, geom, max_frames=1, schedule=spec)
    for name in baseline.outputs:
        assert np.array_equal(baseline.outputs[name],
                              scheduled.outputs[name]), name
    # the kernel's observable memory traffic is engine-visible state the
    # transforms may legitimately reshape (merged block ops), but bytes
    # written must be conserved: every output pixel is still written
    assert scheduled.bytes_written == baseline.bytes_written


@pytest.mark.parametrize("kernel_cls", ALL_KERNELS,
                         ids=[cls.abbrev for cls in ALL_KERNELS])
def test_kernel_auto_schedule_verified(kernel_cls):
    """schedule='auto' runs the tuner with the frame-0 verify hook."""
    kernel = kernel_cls()
    geom = SMOKE_GEOMETRIES[kernel.abbrev]
    result = run_kernel_on_gma(kernel, geom, max_frames=1, schedule="auto")
    assert result.verified
    assert result.schedule != ""  # at minimum "baseline"


@pytest.mark.parametrize("engine", ENGINES[1:])
@pytest.mark.parametrize("kernel_cls", [ALL_KERNELS[7], ALL_KERNELS[8]],
                         ids=["BOB", "ADVDI"])
def test_scheduled_kernel_bit_identical_across_engines(kernel_cls, engine):
    """The tuner's pick flows into the megaop engine unchanged and stays
    bit-identical to the scheduled scalar run."""
    kernel = kernel_cls()
    geom = SMOKE_GEOMETRIES[kernel.abbrev]
    outcomes = {}
    for eng in ("scalar", engine):
        device = GmaDevice(AddressSpace(), engine=eng)
        outcomes[eng] = run_kernel_on_gma(
            kernel, geom, device=device, space=device.space, max_frames=1,
            schedule="auto")
    scalar, other = outcomes["scalar"], outcomes[engine]
    assert scalar.schedule == other.schedule
    for name in scalar.outputs:
        assert np.array_equal(scalar.outputs[name], other.outputs[name])


# -- divergence / CEH / spawn scenarios under transforms -------------------------------


def test_unrolled_divergent_loop_all_engines():
    """Per-shred trip counts diverge; unroll(2) divides both trips, so
    the transformed program is legal for every lane and every engine
    tier must agree with scalar."""
    asm = """
    bcast.16.f vr3 = x
    mov.16.f vr4 = 0.0
    mov.1.dw vr2 = 0
    loop:
    add.16.f vr4 = vr4, vr3
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    mov.1.dw vr5 = base
    st.16.f (OUT, vr5, 0) = vr4
    end
    """
    program = assemble(asm, name="divergent-loop")
    unrolled = T.unroll(program, "loop", 2, bindings={"iters": 8.0})
    assert len(unrolled.instructions) > len(program.instructions)
    bindings = [{"iters": 8.0, "x": float(i), "base": float(16 * i)}
                for i in range(5)]
    bindings += [{"iters": 4.0, "x": float(i + 5), "base": float(16 * (i + 5))}
                 for i in range(3)]
    spec = {"OUT": (16 * 8, 1)}
    baseline = run_engines(program, bindings, spec, engines=("scalar",))
    runs = run_engines(unrolled, bindings, spec)
    assert_engines_identical(runs)
    assert np.array_equal(runs[0][1]["OUT"], baseline[0][1]["OUT"])


def test_unrolled_ceh_faults_all_engines():
    """Division by zero inside an unrolled loop: the CEH proxy fires the
    same number of times on every engine and results agree."""
    asm = """
    bcast.16.f vr1 = d
    mov.16.f vr4 = 4.0
    mov.1.dw vr2 = 0
    loop:
    div.16.f vr3 = vr4, vr1
    add.16.f vr4 = vr4, 1.0
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, 4
    br p1, loop
    mov.1.dw vr5 = base
    st.16.f (OUT, vr5, 0) = vr3
    end
    """
    program = assemble(asm, name="ceh-loop")
    unrolled = T.unroll(program, "loop", 2)
    bindings = [{"d": 0.0 if i in (1, 2) else 2.0, "base": float(16 * i)}
                for i in range(6)]
    spec = {"OUT": (16 * 6, 1)}
    baseline = run_engines(program, bindings, spec, engines=("scalar",))
    runs = run_engines(unrolled, bindings, spec)
    assert_engines_identical(runs)
    assert runs[0][0].ceh_events == baseline[0][0].ceh_events > 0
    assert np.array_equal(runs[0][1]["OUT"], baseline[0][1]["OUT"])


def test_unrolled_spawn_preserves_child_order():
    """SPAWN inside an unrolled loop: children must enter the global
    queue in scalar-identical order on every engine."""
    asm = """
    mov.1.dw vr3 = __spawn_arg
    mov.1.dw vr2 = 0
    cmp.lt.1.dw p2 = vr3, 1
    br p2, done
    loop:
    spawn 0
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, 4
    br p1, loop
    done:
    end
    """
    program = assemble(asm, name="spawn-loop")
    unrolled = T.unroll(program, "loop", 4)
    # parents carry arg >= 1 and spawn; children get arg 0 and exit
    bindings = [{"__spawn_arg": float(i + 1)} for i in range(4)]
    baseline = run_engines(program, bindings, engines=("scalar",))
    runs = run_engines(unrolled, bindings)
    assert_engines_identical(runs)
    assert runs[0][0].spawned_shreds == baseline[0][0].spawned_shreds == 16


def test_stage_mem_never_crosses_spawn_barrier():
    """SPAWN is an ordering barrier: adjacent-row block loads straddling
    it must not merge."""
    asm = """
    mov.1.dw vr1 = 0
    mov.1.dw vr2 = 1
    ldblk.16x1.f [vr4..vr4] = (IN, vr1, vr1)
    spawn 0
    ldblk.16x1.f [vr5..vr5] = (IN, vr1, vr2)
    end
    """
    program = assemble(asm, name="spawn-barrier")
    assert T.stage_mem(program) is program  # no legal merge


# -- unit tests: the primitives on hand-written programs -------------------------------


LOOP_ASM = """
mov.16.f vr3 = 0.0
mov.1.dw vr1 = 0
loop:
add.16.f vr3 = vr3, 2.0
add.1.dw vr1 = vr1, 1
cmp.lt.1.dw p1 = vr1, 12
br p1, loop
end
"""


def _final_reg(ctx, reg: int):
    return ctx.regs.read_lanes(reg, 16)


def test_find_counted_loops_recognizes_idiom():
    program = assemble(LOOP_ASM, name="loop")
    loops = T.find_counted_loops(program)
    assert len(loops) == 1
    loop = loops[0]
    assert (loop.label, loop.trip, loop.init, loop.step) == ("loop", 12, 0, 1)
    assert loop.innermost


def test_unroll_preserves_results_and_shrinks_branches():
    program = assemble(LOOP_ASM, name="loop")
    unrolled = T.unroll(program, "loop", 4)
    base = run_program(program.source)
    out = run_program(unrolled.source)
    assert np.array_equal(_final_reg(base, 3), _final_reg(out, 3))
    n_br = sum(1 for i in unrolled.instructions if i.opcode.value == "br")
    assert n_br == 1  # still one backedge, but 4 bodies per trip
    assert unrolled.labels != {}  # fresh labels recomputed


def test_unroll_rejects_nondividing_factor():
    program = assemble(LOOP_ASM, name="loop")
    with pytest.raises(T.ScheduleError):
        T.unroll(program, "loop", 5)  # 5 does not divide 12
    with pytest.raises(T.ScheduleError):
        T.unroll(program, "nope", 2)  # no such loop


def test_reorder_is_list_scheduling():
    asm = """
    mov.16.f vr1 = 1.0
    mul.16.f vr2 = vr1, vr1
    mov.16.f vr3 = 3.0
    add.16.f vr4 = vr2, vr1
    end
    """
    program = assemble(asm, name="straight")
    reordered = T.reorder(program)
    assert sorted(str(i) for i in reordered.instructions) == \
        sorted(str(i) for i in program.instructions)
    base, out = run_program(program.source), run_program(reordered.source)
    for reg in (1, 2, 3, 4):
        assert np.array_equal(_final_reg(base, reg), _final_reg(out, reg))


def test_stage_mem_merges_adjacent_rows():
    asm = """
    mov.1.dw vr1 = 0
    mov.1.dw vr2 = 1
    ldblk.16x1.f [vr4..vr4] = (IN, vr1, vr1)
    ldblk.16x1.f [vr5..vr5] = (IN, vr1, vr2)
    add.16.f vr6 = vr4, vr5
    st.16.f (OUT, vr1, 0) = vr6
    end
    """
    program = assemble(asm, name="rows")
    staged = T.stage_mem(program)
    assert staged is not program
    merged = [i for i in staged.instructions
              if i.opcode.value == "ldblk"]
    assert len(merged) == 1 and "16x2" in str(merged[0])
    img = np.arange(64, dtype=np.float64).reshape(4, 16)
    base = run_program(program.source,
                       surfaces={"IN": img, "OUT": np.zeros((1, 16))})
    out = run_program(staged.source,
                      surfaces={"IN": img, "OUT": np.zeros((1, 16))})
    assert np.array_equal(base.surfaces["OUT"], out.surfaces["OUT"])


def test_stage_mem_merges_scalar_ld_chain():
    """Four scalar loads at consecutive offsets become one ld.4; the
    result is observed through memory because dead register state is
    not part of the transform contract (copy forwarding may delete
    writes nothing reads)."""
    asm = """
    mov.1.dw vr1 = 0
    ld.1.f vr4 = (IN, vr1, 0)
    ld.1.f vr5 = (IN, vr1, 1)
    ld.1.f vr6 = (IN, vr1, 2)
    ld.1.f vr7 = (IN, vr1, 3)
    add.1.f vr8 = vr4, vr7
    st.1.f (OUT, vr1, 0) = vr8
    end
    """
    program = assemble(asm, name="ld-chain")
    staged = T.stage_mem(program)
    assert staged is not program
    lds = [i for i in staged.instructions if i.opcode.value == "ld"]
    assert len(lds) == 1 and lds[0].width == 4
    img = np.arange(16, dtype=np.float64)
    base = run_program(program.source,
                       surfaces={"IN": img, "OUT": np.zeros(4)})
    out = run_program(staged.source,
                      surfaces={"IN": img, "OUT": np.zeros(4)})
    assert np.array_equal(base.surfaces["OUT"], out.surfaces["OUT"])


def test_stage_mem_forwards_and_deletes_staging_copies():
    """After block merging, consumers read the staged registers directly
    and the dead copies — plus the address arithmetic whose access was
    absorbed — are deleted, not just bypassed."""
    asm = """
    mov.1.dw vr1 = 0
    mov.1.dw vr2 = 1
    ldblk.16x1.f [vr4..vr4] = (IN, vr1, vr1)
    ldblk.16x1.f [vr7..vr7] = (IN, vr1, vr2)
    add.16.f vr6 = vr4, vr7
    stblk.16x1.f (OUT, vr1, vr1) = [vr6..vr6]
    end
    """
    program = assemble(asm, name="forward")
    staged = T.stage_mem(program)
    movs = [i for i in staged.instructions if i.opcode.value == "mov"]
    # non-contiguous destinations force the staged path; the two copies
    # died after forwarding, and so did the vr2 = 1 row index whose
    # only consumer was the merged-away ldblk
    assert len(movs) == 1 and movs[0].width == 1
    adds = [i for i in staged.instructions if i.opcode.value == "add"]
    used = {str(op) for i in adds for op in i.srcs}
    assert not used & {"vr4", "vr7"}  # consumers read the staged regs
    img = np.arange(32, dtype=np.float64).reshape(2, 16)
    base = run_program(program.source,
                       surfaces={"IN": img, "OUT": np.zeros((1, 16))})
    out = run_program(staged.source,
                      surfaces={"IN": img, "OUT": np.zeros((1, 16))})
    assert np.array_equal(base.surfaces["OUT"], out.surfaces["OUT"])


def test_transforms_return_fresh_programs():
    program = assemble(LOOP_ASM, name="loop")
    unrolled = T.unroll(program, "loop", 2)
    assert unrolled is not program
    assert unrolled.source != program.source
    # the new source round-trips through the assembler
    again = assemble(unrolled.source, name="again")
    assert [str(i) for i in again.instructions] == \
        [str(i) for i in unrolled.instructions]


# -- satellite: list scheduler composed after unroll -----------------------------------


def test_scheduler_composes_after_unroll():
    """Block-local reordering of an unrolled body preserves labels,
    reconvergence ipdoms and bit-identical outputs."""
    asm = """
    bcast.16.f vr3 = x
    mov.16.f vr4 = 0.0
    mov.1.dw vr1 = 0
    loop:
    mul.16.f vr5 = vr3, vr3
    add.16.f vr4 = vr4, vr5
    add.1.dw vr1 = vr1, 1
    cmp.lt.1.dw p1 = vr1, 8
    br p1, loop
    cmp.gt.1.dw p2 = vr4, 100
    br p2, big
    mov.1.dw vr6 = 0
    jmp join
    big:
    mov.1.dw vr6 = 1
    join:
    mov.1.dw vr7 = base
    st.16.f (OUT, vr7, 0) = vr4
    end
    """
    program = assemble(asm, name="compose")
    unrolled = T.unroll(program, "loop", 4)
    scheduled = schedule_program(unrolled)
    assert scheduled.labels == unrolled.labels

    def reconv_by_target(program):
        """branch-target label -> reconvergence ip, from predecode."""
        pre = predecode_program(program)
        out = {}
        for ip, slot in enumerate(pre.instrs):
            reconv = getattr(slot, "reconv", None)
            if reconv is not None:
                out[program.instructions[ip].srcs[-1].name] = reconv
        return out

    div_u = reconv_by_target(unrolled)
    div_s = reconv_by_target(scheduled)
    assert set(div_u) == set(div_s) != set()
    for label in div_u:
        # same reconvergence *point* (ips shift with reordering; the
        # label map gives the stable anchor)
        anchors_u = {lbl for lbl, ip in unrolled.labels.items()
                     if ip == div_u[label]}
        anchors_s = {lbl for lbl, ip in scheduled.labels.items()
                     if ip == div_s[label]}
        assert anchors_u == anchors_s

    bindings = [{"x": float(i), "base": float(16 * i)} for i in range(4)]
    spec = {"OUT": (64, 1)}
    base = run_engines(program, bindings, spec, engines=("scalar",))
    for candidate in (unrolled, scheduled):
        runs = run_engines(candidate, bindings, spec)
        assert_engines_identical(runs)
        assert np.array_equal(runs[0][1]["OUT"], base[0][1]["OUT"])


# -- the Schedule API and the tuner ----------------------------------------------------


def test_parse_schedule_round_trips():
    schedule = T.parse_schedule("unroll4+stage_mem+reorder")
    assert schedule.describe() == "unroll4+stage_mem+reorder"
    assert T.parse_schedule("baseline") == T.BASELINE
    assert T.parse_schedule("").describe() == "baseline"
    for unknown in ("frobnicate", "split2", "replace_avg"):
        with pytest.raises(T.ScheduleError):
            T.parse_schedule(unknown)


def test_apply_schedule_noop_returns_same_object():
    program = assemble("iota.16.f vr1\nend\n", name="flat")
    assert T.apply_schedule(program, T.BASELINE) is program
    # stage_mem has nothing to do on a memless program
    assert T.apply_schedule(program, T.Schedule().stage_mem()) is program


def test_tuner_picks_and_caches():
    tuning.clear_cache()
    program = assemble(LOOP_ASM, name="tune-loop")
    first = tuning.tune_program(program)
    assert first.trials > 0 and not first.cached
    assert first.cost <= first.baseline_cost
    second = tuning.tune_program(program)
    assert second.cached and second.trials == 0
    assert second.program is first.program
    assert second.spec == first.spec


def test_tuner_verifier_can_veto_every_candidate():
    tuning.clear_cache()
    program = assemble(LOOP_ASM, name="veto-loop")
    result = tuning.tune_program(program, verifier=lambda p: False,
                                 use_cache=False)
    assert result.spec == "baseline"
    assert result.program is program


def test_tuner_cost_model_weights_loops():
    flat = assemble("add.16.f vr1 = vr1, vr1\nend\n", name="flat")
    loop = assemble(LOOP_ASM, name="loop")
    assert tuning.estimated_program_cost(loop) > \
        tuning.estimated_program_cost(flat)
    # an unrolled loop estimates cheaper: fewer cmp/br per element
    unrolled = T.unroll(loop, "loop", 4)
    assert tuning.estimated_program_cost(unrolled) < \
        tuning.estimated_program_cost(loop)


def test_resolve_schedule_rejects_garbage():
    program = assemble(LOOP_ASM, name="loop")
    with pytest.raises(ReproError):
        tuning.resolve_schedule(program, 42)


@pytest.fixture(scope="module")
def bench_picks():
    """Tuned spec per kernel at bench geometry (no verifier, no cache)."""
    picks = {}
    for cls in ALL_KERNELS:
        kernel = cls()
        geom = BENCH_GEOMETRIES[kernel.abbrev]
        program = assemble(kernel.asm_source(geom), name=kernel.abbrev)
        picks[kernel.abbrev] = tuning.tune_program(
            program, kernel.constants(geom), use_cache=False).spec
    return picks


@pytest.mark.parametrize("abbrev", sorted(TUNED_AT_BENCH))
def test_tuned_spec_at_bench_geometry(bench_picks, abbrev):
    assert bench_picks[abbrev] == TUNED_AT_BENCH[abbrev]


def test_every_menu_entry_wins_on_some_kernel(bench_picks):
    """The menu holds only schedules some kernel picks."""
    assert set(bench_picks.values()) == set(tuning.DEFAULT_CANDIDATES)
