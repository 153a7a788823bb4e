"""The megaop engine vs the scalar interpreter.

A launch whose shreds share one program runs as a *gang*: one
numpy-batched register file with a shred axis, each predecoded
instruction applied to every active shred in one vectorized operation;
basic blocks and promoted hot cycles retire as compiled traces (see
``docs/ENGINE.md``).  Results, traces and
counters are bit-identical to the scalar interpreter — only the host
wall-clock changes.  This benchmark measures that change four ways:

* a homogeneous 32-shred ALU loop (every shred fully gang-resident), the
  best case and the first CI gate: megaop must reach >= 10.8x scalar
  instructions/second;
* a memory-bound media kernel (SepiaTone, whose inner loop is
  load/store dominated) through the standard harness — the second CI
  gate (>= 3x scalar wall-clock), exercising the batched gather/scatter
  and vectorized TLB translation path end to end;
* two *divergent* kernels whose branches depend on per-shred data — a
  ragged-trip-count loop and a sustained sawtooth diamond — the
  divergence-repacking gate: megaop must hold >= 1.5x scalar
  instructions/second and >= 50% gang residency (share of instructions
  retired ganged) even though the lanes disagree at every branch;
* the full kernel suite at smoke geometries (the per-kernel speedup
  table CI publishes).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py --check   # CI gate

or under pytest (``pytest benchmarks/bench_engine.py``).  Writes
``BENCH_engine.json`` next to the working directory (``--json`` to
move), headed by the host it ran on (cores, Python, numpy, engine,
commit); a ``--check`` run writes only to an explicit ``--json`` path,
so gating never rewrites the committed row.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from provenance import host_provenance

from repro.exo.shred import ShredDescriptor
from repro.gma.device import GmaDevice
from repro.isa import predecode
from repro.isa.assembler import assemble
from repro.kernels import ALL_KERNELS, SepiaTone, run_kernel_on_gma
from repro.memory.address_space import AddressSpace
from repro.perf import SMOKE_GEOMETRIES

DEFAULT_SHREDS = 32
DEFAULT_ITERS = 300
#: megaop vs scalar, homogeneous instr/s: the product of the per-tier
#: gates this one replaced (gang >= 3x scalar, fused >= 1.8x gang,
#: megaop >= 2x fused)
CHECK_SPEEDUP = 10.8
CHECK_KERNEL = 3.0  # megaop vs scalar, memory-bound kernel wall-clock
CHECK_DIVERGENT = 1.5  # megaop vs scalar, divergent kernels, instr/s
CHECK_RESIDENCY = 50.0  # minimum gang_residency_pct, divergent kernels
DIVERGENT_ITERS = 160

#: Homogeneous by construction: the trip count is one uniform symbol, so
#: every shred follows the same path and the gang never peels.  The lane
#: values contract toward a fixed point (|vr1| < 1), so the mad chain
#: never overflows f32 no matter the trip count.
HOMOGENEOUS_ASM = """
iota.16.f vr1
mul.16.f vr1 = vr1, 0.05
mov.1.dw vr2 = 0
bcast.16.f vr3 = vr1
loop:
mad.16.f vr3 = vr3, vr1, vr1
mad.16.f vr4 = vr3, vr1, vr1
add.16.f vr5 = vr3, vr4
mul.16.f vr6 = vr5, vr1
add.1.dw vr2 = vr2, 1
cmp.lt.1.dw p1 = vr2, iters
br p1, loop
end
"""


def _shreds(program, count: int, iters: int):
    return [ShredDescriptor(program=program,
                            bindings={"iters": float(iters)})
            for _ in range(count)]


def measure_homogeneous(engine: str, shreds: int = DEFAULT_SHREDS,
                        iters: int = DEFAULT_ITERS, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall time for one homogeneous launch."""
    program = assemble(HOMOGENEOUS_ASM, name="uniform-loop")
    best = None
    for _ in range(repeats):
        predecode.CACHE.clear()
        device = GmaDevice(AddressSpace(), engine=engine)
        batch = _shreds(program, shreds, iters)
        started = time.perf_counter()
        result = device.run(batch)
        wall = time.perf_counter() - started
        if best is None or wall < best["wall_seconds"]:
            best = {
                "engine": engine,
                "shreds": shreds,
                "instructions": result.instructions,
                "wall_seconds": wall,
                "instructions_per_second": result.instructions / wall,
                "gma_cycles": result.cycles,
                "gang_lanes_retired": result.gang_lanes_retired,
                "scalar_fallbacks": result.scalar_fallbacks,
                "predecode_hits": result.predecode_hits,
                "predecode_misses": result.predecode_misses,
                "fused_blocks_retired": result.fused_blocks_retired,
                "trace_chains": result.trace_chains,
                "fusion_compiles": result.fusion_compiles,
                "megaops_retired": result.megaops_retired,
                "megaop_compiles": result.megaop_compiles,
                "megaop_deopts": result.megaop_deopts,
                "gang_repacks": result.gang_repacks,
                "lanes_readmitted": result.lanes_readmitted,
                "gang_residency_pct": result.gang_residency_pct,
            }
    return best


#: Ragged trip counts: the loop body is the homogeneous kernel's, but
#: the per-shred ``iters`` binding splits the gang into four trip-count
#: classes.  The gang diverges at the loop-exit branch three times;
#: each time the early-exit class parks at the join and the survivors
#: repack dense instead of peeling to the scalar interpreter.
RAGGED_LOOP_ASM = HOMOGENEOUS_ASM

#: Sustained divergence: each shred's ``vr3`` follows its own sawtooth
#: (phase ``x``, slope ``step``, wrap at the ``> 7`` threshold), so the
#: gang splits at the diamond on almost every trip — the worst case for
#: lockstep execution and the showcase for compaction + re-admission.
#: Both arms contract ``vr4`` (multipliers < 1), so no overflow.
SAWTOOTH_DIAMOND_ASM = """
iota.16.f vr1
mul.16.f vr1 = vr1, 0.03
mov.1.dw vr2 = 0
bcast.16.f vr3 = x
mov.16.f vr4 = 0.0
loop:
cmp.gt.1.dw p2 = vr3, 7
br p2, high
mul.16.f vr4 = vr4, 0.5
add.16.f vr4 = vr4, vr1
jmp next
high:
mul.16.f vr4 = vr4, 0.25
add.16.f vr4 = vr4, 1.0
sub.16.f vr3 = vr3, 16.0
next:
add.16.f vr3 = vr3, step
add.1.dw vr2 = vr2, 1
cmp.lt.1.dw p1 = vr2, iters
br p1, loop
end
"""


def _ragged_bindings(shreds: int, iters: int):
    return [{"iters": float(max(1, iters * (i * 4 // shreds + 1) // 4))}
            for i in range(shreds)]


def _sawtooth_bindings(shreds: int, iters: int):
    return [{"x": float((i * 5) % 16), "step": float(1 + i % 3),
             "iters": float(iters)}
            for i in range(shreds)]


DIVERGENT_KERNELS = {
    "ragged-loop": (RAGGED_LOOP_ASM, _ragged_bindings),
    "sawtooth-diamond": (SAWTOOTH_DIAMOND_ASM, _sawtooth_bindings),
}


def measure_divergent(name: str, engine: str, shreds: int = DEFAULT_SHREDS,
                      iters: int = DIVERGENT_ITERS, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall time for one divergent launch."""
    asm, make_bindings = DIVERGENT_KERNELS[name]
    program = assemble(asm, name=f"divergent-{name}")
    bindings = make_bindings(shreds, iters)
    best = None
    for _ in range(repeats):
        predecode.CACHE.clear()
        device = GmaDevice(AddressSpace(), engine=engine)
        batch = [ShredDescriptor(program=program, bindings=dict(b))
                 for b in bindings]
        started = time.perf_counter()
        result = device.run(batch)
        wall = time.perf_counter() - started
        if best is None or wall < best["wall_seconds"]:
            best = {
                "engine": engine,
                "kernel": name,
                "shreds": shreds,
                "instructions": result.instructions,
                "wall_seconds": wall,
                "instructions_per_second": result.instructions / wall,
                "gang_lanes_retired": result.gang_lanes_retired,
                "gang_residency_pct": result.gang_residency_pct,
                "gang_repacks": result.gang_repacks,
                "lanes_readmitted": result.lanes_readmitted,
                "scalar_fallbacks": result.scalar_fallbacks,
            }
    return best


def measure_divergent_table(shreds: int = DEFAULT_SHREDS,
                            iters: int = DIVERGENT_ITERS) -> dict:
    """Both engines over both divergent kernels."""
    table = {}
    for name in DIVERGENT_KERNELS:
        row = {engine: measure_divergent(name, engine, shreds, iters)
               for engine in GmaDevice.ENGINES}
        megaop = row["megaop"]
        table[name] = {
            "speedup": (megaop["instructions_per_second"]
                        / row["scalar"]["instructions_per_second"]),
            "gang_residency_pct": megaop["gang_residency_pct"],
            "gang_repacks": megaop["gang_repacks"],
            "lanes_readmitted": megaop["lanes_readmitted"],
            "scalar_fallbacks": megaop["scalar_fallbacks"],
            "instructions": megaop["instructions"],
            "engines": row,
        }
    return table


def measure_kernel(engine: str, repeats: int = 2,
                   kernel_cls=SepiaTone) -> dict:
    """One media kernel through the standard harness on one engine."""
    kernel = kernel_cls()
    geom = SMOKE_GEOMETRIES[kernel.abbrev]
    best = None
    for _ in range(repeats):
        device = GmaDevice(AddressSpace(), engine=engine)
        started = time.perf_counter()
        outcome = run_kernel_on_gma(kernel, geom, device=device,
                                    space=device.space, max_frames=1)
        wall = time.perf_counter() - started
        if best is None or wall < best["wall_seconds"]:
            best = {
                "engine": engine,
                "kernel": kernel.abbrev,
                "instructions": outcome.instructions,
                "shreds": outcome.shreds,
                "wall_seconds": wall,
                "instructions_per_second": outcome.instructions / wall,
                "batched_translations": device.view.batched_translations,
                "tlb_vector_hits": device.view.tlb.vector_hits,
                "scalar_fallbacks": outcome.scalar_fallbacks,
                "fused_blocks_retired": outcome.fused_blocks_retired,
                "trace_chains": outcome.trace_chains,
                "fusion_compiles": outcome.fusion_compiles,
                "megaops_retired": outcome.megaops_retired,
                "megaop_compiles": outcome.megaop_compiles,
                "megaop_deopts": outcome.megaop_deopts,
                "gang_repacks": outcome.gang_repacks,
                "lanes_readmitted": outcome.lanes_readmitted,
                "gang_residency_pct": outcome.gang_residency_pct,
            }
    return best


def measure_all_kernels(repeats: int = 1) -> dict:
    """Per-engine wall clock for every kernel at smoke geometry."""
    table = {}
    for kernel_cls in ALL_KERNELS:
        row = {engine: measure_kernel(engine, repeats, kernel_cls)
               for engine in GmaDevice.ENGINES}
        megaop = row["megaop"]
        table[kernel_cls.abbrev] = {
            "scalar_seconds": row["scalar"]["wall_seconds"],
            "megaop_seconds": megaop["wall_seconds"],
            "speedup": (row["scalar"]["wall_seconds"]
                        / megaop["wall_seconds"]),
            **{name: megaop[name] for name in (
                "batched_translations", "fused_blocks_retired",
                "trace_chains", "fusion_compiles", "megaops_retired",
                "megaop_compiles", "megaop_deopts", "scalar_fallbacks",
                "shreds")},
        }
    return table


def compare(shreds: int = DEFAULT_SHREDS, iters: int = DEFAULT_ITERS) -> dict:
    scalar = measure_homogeneous("scalar", shreds, iters)
    # the megaop side of the homogeneous gate runs in tens of
    # milliseconds; extra repeats let best-of-N converge under host noise
    megaop = measure_homogeneous("megaop", shreds, iters, repeats=5)
    kernel = {engine: measure_kernel(engine) for engine in GmaDevice.ENGINES}
    return {
        "homogeneous": {"scalar": scalar, "megaop": megaop},
        "divergent": measure_divergent_table(shreds),
        "kernel": kernel,
        "kernels": measure_all_kernels(),
        "speedup": (megaop["instructions_per_second"]
                    / scalar["instructions_per_second"]),
        "kernel_speedup": (kernel["scalar"]["wall_seconds"]
                           / kernel["megaop"]["wall_seconds"]),
    }


def report(outcome: dict) -> str:
    homo = outcome["homogeneous"]
    lines = [
        f"engine comparison, {homo['scalar']['shreds']} homogeneous shreds:",
        f"  {'':8s} {'instr':>8s} {'wall ms':>9s} {'Minstr/s':>9s} "
        f"{'ganged':>7s} {'peeled':>7s}",
    ]
    for name in GmaDevice.ENGINES:
        m = homo[name]
        lines.append(
            f"  {name:8s} {m['instructions']:8d} "
            f"{m['wall_seconds'] * 1e3:9.2f} "
            f"{m['instructions_per_second'] / 1e6:9.3f} "
            f"{m['gang_lanes_retired']:7d} {m['scalar_fallbacks']:7d}")
    megaop = homo["megaop"]
    lines.append(f"  megaop speedup: {outcome['speedup']:.1f}x scalar "
                 f"(gate: >= {CHECK_SPEEDUP:.1f}x), "
                 f"{megaop['fused_blocks_retired']} blocks retired, "
                 f"{megaop['trace_chains']} trace chains, "
                 f"{megaop['megaops_retired']} traversals retired, "
                 f"{megaop['megaop_compiles']} compiles, "
                 f"{megaop['megaop_deopts']} deopts")
    lines.append("  divergent kernels (data-dependent branches, "
                 f"gates: >= {CHECK_DIVERGENT:.1f}x scalar, "
                 f">= {CHECK_RESIDENCY:.0f}% residency):")
    lines.append(f"    {'kernel':18s} {'speedup':>8s} {'resid':>6s} "
                 f"{'repacks':>8s} {'readmit':>8s} {'peeled':>7s}")
    for name, row in outcome["divergent"].items():
        lines.append(
            f"    {name:18s} {row['speedup']:7.2f}x "
            f"{row['gang_residency_pct']:5.1f}% {row['gang_repacks']:8d} "
            f"{row['lanes_readmitted']:8d} {row['scalar_fallbacks']:7d}")
    kern = outcome["kernel"]
    lines.append(f"  {kern['scalar']['kernel']}: "
                 f"{outcome['kernel_speedup']:.1f}x faster wall-clock "
                 f"under megaop (gate: >= {CHECK_KERNEL:.0f}x), "
                 f"{kern['megaop']['batched_translations']} pages "
                 f"translated batched")
    lines.append("  per-kernel megaop vs scalar (smoke geometry):")
    lines.append(f"    {'kernel':14s} {'scalar ms':>10s} {'megaop ms':>10s} "
                 f"{'speedup':>8s} {'blocks':>7s} {'chains':>7s} "
                 f"{'megaops':>8s} {'fallback':>9s}")
    for name, row in outcome["kernels"].items():
        fallback = (row["scalar_fallbacks"] / row["shreds"]
                    if row["shreds"] else 0.0)
        lines.append(f"    {name:14s} {row['scalar_seconds'] * 1e3:10.2f} "
                     f"{row['megaop_seconds'] * 1e3:10.2f} "
                     f"{row['speedup']:7.2f}x "
                     f"{row['fused_blocks_retired']:7d} "
                     f"{row['trace_chains']:7d} {row['megaops_retired']:8d} "
                     f"{fallback:8.0%}")
    total = megaop["predecode_hits"] + megaop["predecode_misses"]
    rate = megaop["predecode_hits"] / total if total else 0.0
    lines.append(f"  decode cache: {megaop['predecode_hits']}/{total} hits "
                 f"({rate:.0%})")
    return "\n".join(lines)


def step_summary(outcome: dict) -> str:
    """GitHub Actions step-summary markdown: the engine tables."""
    homo = outcome["homogeneous"]
    megaop = homo["megaop"]
    lines = [
        "### Engine benchmark",
        "",
        f"- megaop vs scalar (homogeneous): "
        f"**{outcome['speedup']:.1f}x** (gate >= {CHECK_SPEEDUP:.1f}x), "
        f"{megaop['megaops_retired']} traversals retired, "
        f"{megaop['megaop_deopts']} deopts",
        f"- megaop vs scalar ({outcome['kernel']['scalar']['kernel']}, "
        f"memory-bound): **{outcome['kernel_speedup']:.1f}x** "
        f"(gate >= {CHECK_KERNEL:.0f}x)",
        "",
        "| engine | ns/instr | Minstr/s |",
        "|---|---|---|",
    ]
    for name in GmaDevice.ENGINES:
        m = homo[name]
        ns = m["wall_seconds"] * 1e9 / m["instructions"]
        lines.append(f"| {name} | {ns:.0f} "
                     f"| {m['instructions_per_second'] / 1e6:.3f} |")
    lines += [
        "",
        "#### Gang residency: convergent vs divergent",
        "",
        "| kernel | speedup | residency | repacks | readmitted | peeled |",
        "|---|---|---|---|---|---|",
        f"| uniform-loop (convergent) | {outcome['speedup']:.2f}x "
        f"| {megaop['gang_residency_pct']:.1f}% "
        f"| {megaop['gang_repacks']} "
        f"| {megaop['lanes_readmitted']} "
        f"| {megaop['scalar_fallbacks']} |",
    ]
    for name, row in outcome["divergent"].items():
        lines.append(
            f"| {name} (divergent) | {row['speedup']:.2f}x "
            f"| {row['gang_residency_pct']:.1f}% | {row['gang_repacks']} "
            f"| {row['lanes_readmitted']} | {row['scalar_fallbacks']} |")
    lines += [
        "",
        "| kernel | scalar | megaop | speedup | blocks | chained traces "
        "| megaops | fallback rate |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name, row in outcome["kernels"].items():
        fallback = (row["scalar_fallbacks"] / row["shreds"]
                    if row["shreds"] else 0.0)
        lines.append(
            f"| {name} | {row['scalar_seconds'] * 1e3:.1f}ms "
            f"| {row['megaop_seconds'] * 1e3:.1f}ms | {row['speedup']:.2f}x "
            f"| {row['fused_blocks_retired']} | {row['trace_chains']} "
            f"| {row['megaops_retired']} | {fallback:.0%} |")
    return "\n".join(lines) + "\n"


# -- pytest entry points ---------------------------------------------------------------


def test_megaop_beats_scalar():
    """The CI acceptance bar: a homogeneous launch must vectorize, fuse
    and promote."""
    scalar = measure_homogeneous("scalar")
    megaop = measure_homogeneous("megaop", repeats=5)
    assert megaop["instructions"] == scalar["instructions"]
    assert megaop["gma_cycles"] == scalar["gma_cycles"]
    assert megaop["scalar_fallbacks"] == 0  # fully gang-resident
    assert megaop["gang_lanes_retired"] == megaop["instructions"]
    assert megaop["fused_blocks_retired"] > 0
    assert megaop["megaops_retired"] > 0
    speedup = (megaop["instructions_per_second"]
               / scalar["instructions_per_second"])
    assert speedup >= CHECK_SPEEDUP, f"megaop only {speedup:.2f}x scalar"


def test_memory_bound_kernel_beats_scalar():
    """The batched-memory acceptance bar: a load/store-dominated kernel
    must run well clear of the scalar interpreter."""
    scalar = measure_kernel("scalar")
    megaop = measure_kernel("megaop")
    assert megaop["instructions"] == scalar["instructions"]
    assert megaop["batched_translations"] > 0  # the fast path really ran
    speedup = scalar["wall_seconds"] / megaop["wall_seconds"]
    assert speedup >= CHECK_KERNEL, \
        f"megaop only {speedup:.2f}x scalar on {megaop['kernel']}"


def test_divergent_megaop_beats_scalar():
    """The divergence-repacking acceptance bar: data-dependent branches
    must not collapse the gang to the scalar interpreter."""
    for name in DIVERGENT_KERNELS:
        scalar = measure_divergent(name, "scalar")
        megaop = measure_divergent(name, "megaop")
        assert megaop["instructions"] == scalar["instructions"], name
        assert megaop["scalar_fallbacks"] == 0, name
        assert megaop["gang_repacks"] > 0, name
        assert megaop["lanes_readmitted"] > 0, name
        assert megaop["gang_residency_pct"] >= CHECK_RESIDENCY, name
        speedup = (megaop["instructions_per_second"]
                   / scalar["instructions_per_second"])
        assert speedup >= CHECK_DIVERGENT, \
            f"megaop only {speedup:.2f}x scalar on {name}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shreds", type=int, default=DEFAULT_SHREDS,
                        help="launch width (default %(default)s)")
    parser.add_argument("--iters", type=int, default=DEFAULT_ITERS,
                        help="loop trip count (default %(default)s)")
    parser.add_argument("--json", type=str, default=None,
                        help="result file (default BENCH_engine.json; a "
                             "--check run writes one only when given)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless megaop reaches "
                             f">= {CHECK_SPEEDUP:.1f}x scalar "
                             "instructions/second on the homogeneous "
                             f"loop, >= {CHECK_KERNEL:.0f}x scalar "
                             "wall-clock on the memory-bound kernel, and "
                             f">= {CHECK_DIVERGENT:.1f}x scalar at "
                             f">= {CHECK_RESIDENCY:.0f}% gang residency "
                             "on the divergent kernels")
    args = parser.parse_args(argv)

    outcome = compare(args.shreds, args.iters)
    print(report(outcome))
    path = args.json or (None if args.check else "BENCH_engine.json")
    if path:
        with open(path, "w") as handle:
            json.dump({"host": host_provenance("megaop"), **outcome},
                      handle, indent=2)
        print(f"wrote {path}")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(step_summary(outcome))
        print(f"appended engine stats to {summary_path}")
    if args.check:
        failed = False
        if outcome["speedup"] < CHECK_SPEEDUP:
            print(f"CHECK FAILED: megaop speedup {outcome['speedup']:.2f}x "
                  f"< {CHECK_SPEEDUP:.1f}x scalar", file=sys.stderr)
            failed = True
        if outcome["kernel_speedup"] < CHECK_KERNEL:
            print(f"CHECK FAILED: kernel speedup "
                  f"{outcome['kernel_speedup']:.2f}x "
                  f"< {CHECK_KERNEL:.0f}x", file=sys.stderr)
            failed = True
        for name, row in outcome["divergent"].items():
            if row["speedup"] < CHECK_DIVERGENT:
                print(f"CHECK FAILED: divergent speedup {row['speedup']:.2f}x"
                      f" < {CHECK_DIVERGENT:.1f}x on {name}",
                      file=sys.stderr)
                failed = True
            if row["gang_residency_pct"] < CHECK_RESIDENCY:
                print(f"CHECK FAILED: gang residency "
                      f"{row['gang_residency_pct']:.1f}% "
                      f"< {CHECK_RESIDENCY:.0f}% on {name}",
                      file=sys.stderr)
                failed = True
        if failed:
            return 1
        divergent = min(row["speedup"]
                        for row in outcome["divergent"].values())
        residency = min(row["gang_residency_pct"]
                        for row in outcome["divergent"].values())
        print(f"check passed: megaop {outcome['speedup']:.1f}x scalar "
              f"(homogeneous), {outcome['kernel_speedup']:.1f}x "
              f"(memory-bound kernel), divergent >= {divergent:.1f}x at "
              f">= {residency:.0f}% residency")
    return 0


if __name__ == "__main__":
    sys.exit(main())
