"""Gang-vectorized execution vs the scalar interpreter.

A launch whose shreds share one program runs as a *gang*: one
numpy-batched register file with a shred axis, each predecoded
instruction applied to every active shred in one vectorized operation
(see ``docs/ENGINE.md``).  Results, traces and counters are bit-identical
to the scalar interpreter — only the host wall-clock changes.  This
benchmark measures that change two ways:

* a homogeneous 32-shred ALU loop (every shred fully gang-resident), the
  best case and the first CI gate: gang must reach >= 3x scalar
  instructions/second, the fused engine (superblock trace fusion,
  ``docs/ENGINE.md``) must reach >= 1.8x *gang* instructions/second, and
  the megaop engine (profile-guided trace promotion) must reach >= 2x
  *fused* instructions/second;
* a memory-bound media kernel (SepiaTone, whose inner loop is
  load/store dominated) through the standard harness — the second CI
  gate, exercising the batched gather/scatter and vectorized TLB
  translation path end to end;
* two *divergent* kernels whose branches depend on per-shred data — a
  ragged-trip-count loop and a sustained sawtooth diamond — the
  divergence-repacking gate: gang must hold >= 1.5x scalar
  instructions/second and >= 50% gang residency (share of instructions
  retired ganged) even though the lanes disagree at every branch;
* the full kernel suite at smoke geometries (the per-kernel speedup
  table CI publishes).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py --check   # CI gate

or under pytest (``pytest benchmarks/bench_engine.py``).  Writes
``BENCH_engine.json`` next to the working directory (``--json`` to move).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.exo.shred import ShredDescriptor
from repro.gma.device import GmaDevice
from repro.isa import predecode
from repro.isa.assembler import assemble
from repro.kernels import ALL_KERNELS, SepiaTone, run_kernel_on_gma
from repro.memory.address_space import AddressSpace
from repro.perf import SMOKE_GEOMETRIES

DEFAULT_SHREDS = 32
DEFAULT_ITERS = 300
CHECK_SPEEDUP = 3.0
CHECK_FUSION = 1.8  # fused vs plain gang, homogeneous instr/s
CHECK_MEGAOP = 2.0  # megaop vs fused, homogeneous instr/s
CHECK_DIVERGENT = 1.5  # gang vs scalar, divergent kernels, instr/s
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
    """Every engine tier over both divergent kernels."""
    table = {}
    for name in DIVERGENT_KERNELS:
        row = {engine: measure_divergent(name, engine, shreds, iters)
               for engine in ("scalar", "gang", "fused", "megaop")}
        scalar_ips = row["scalar"]["instructions_per_second"]
        gang = row["gang"]
        table[name] = {
            "speedup": gang["instructions_per_second"] / scalar_ips,
            "fused_speedup":
                row["fused"]["instructions_per_second"] / scalar_ips,
            "megaop_speedup":
                row["megaop"]["instructions_per_second"] / scalar_ips,
            "gang_residency_pct": gang["gang_residency_pct"],
            "gang_repacks": gang["gang_repacks"],
            "lanes_readmitted": gang["lanes_readmitted"],
            "scalar_fallbacks": gang["scalar_fallbacks"],
            "instructions": gang["instructions"],
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
               for engine in ("scalar", "gang", "fused", "megaop")}
        table[kernel_cls.abbrev] = {
            "scalar_seconds": row["scalar"]["wall_seconds"],
            "gang_seconds": row["gang"]["wall_seconds"],
            "fused_seconds": row["fused"]["wall_seconds"],
            "megaop_seconds": row["megaop"]["wall_seconds"],
            "speedup": (row["scalar"]["wall_seconds"]
                        / row["gang"]["wall_seconds"]),
            "fused_speedup": (row["scalar"]["wall_seconds"]
                              / row["fused"]["wall_seconds"]),
            "megaop_speedup": (row["scalar"]["wall_seconds"]
                               / row["megaop"]["wall_seconds"]),
            "batched_translations": row["gang"]["batched_translations"],
            "fused_blocks_retired": row["fused"]["fused_blocks_retired"],
            "trace_chains": row["fused"]["trace_chains"],
            "fusion_compiles": row["fused"]["fusion_compiles"],
            "megaops_retired": row["megaop"]["megaops_retired"],
            "megaop_compiles": row["megaop"]["megaop_compiles"],
            "megaop_deopts": row["megaop"]["megaop_deopts"],
            "scalar_fallbacks": row["fused"]["scalar_fallbacks"],
            "shreds": row["fused"]["shreds"],
        }
    return table


def compare(shreds: int = DEFAULT_SHREDS, iters: int = DEFAULT_ITERS) -> dict:
    scalar = measure_homogeneous("scalar", shreds, iters)
    gang = measure_homogeneous("gang", shreds, iters)
    # the fused-vs-megaop gate is the tightest ratio in --check; give
    # both sides extra repeats so best-of-N converges under host noise
    fused = measure_homogeneous("fused", shreds, iters, repeats=5)
    megaop = measure_homogeneous("megaop", shreds, iters, repeats=5)
    kernel = {"scalar": measure_kernel("scalar"),
              "gang": measure_kernel("gang")}
    return {
        "homogeneous": {"scalar": scalar, "gang": gang, "fused": fused,
                        "megaop": megaop},
        "divergent": measure_divergent_table(shreds),
        "kernel": kernel,
        "kernels": measure_all_kernels(),
        "speedup": (gang["instructions_per_second"]
                    / scalar["instructions_per_second"]),
        "fusion_speedup": (fused["instructions_per_second"]
                           / gang["instructions_per_second"]),
        "megaop_speedup": (megaop["instructions_per_second"]
                           / fused["instructions_per_second"]),
        "kernel_speedup": (kernel["scalar"]["wall_seconds"]
                           / kernel["gang"]["wall_seconds"]),
    }


def report(outcome: dict) -> str:
    homo = outcome["homogeneous"]
    lines = [
        f"engine comparison, {homo['scalar']['shreds']} homogeneous shreds:",
        f"  {'':8s} {'instr':>8s} {'wall ms':>9s} {'Minstr/s':>9s} "
        f"{'ganged':>7s} {'peeled':>7s}",
    ]
    for name in ("scalar", "gang", "fused", "megaop"):
        m = homo[name]
        lines.append(
            f"  {name:8s} {m['instructions']:8d} "
            f"{m['wall_seconds'] * 1e3:9.2f} "
            f"{m['instructions_per_second'] / 1e6:9.3f} "
            f"{m['gang_lanes_retired']:7d} {m['scalar_fallbacks']:7d}")
    lines.append(f"  gang speedup: {outcome['speedup']:.1f}x "
                 f"(gate: >= {CHECK_SPEEDUP:.0f}x)")
    fused = homo["fused"]
    lines.append(f"  fusion speedup: {outcome['fusion_speedup']:.2f}x gang "
                 f"(gate: >= {CHECK_FUSION:.1f}x), "
                 f"{fused['fused_blocks_retired']} blocks retired, "
                 f"{fused['trace_chains']} trace chains, "
                 f"{fused['fusion_compiles']} compiles")
    megaop = homo["megaop"]
    lines.append(f"  megaop speedup: {outcome['megaop_speedup']:.2f}x fused "
                 f"(gate: >= {CHECK_MEGAOP:.1f}x), "
                 f"{megaop['megaops_retired']} traversals retired, "
                 f"{megaop['megaop_compiles']} compiles, "
                 f"{megaop['megaop_deopts']} deopts")
    lines.append("  divergent kernels (data-dependent branches, "
                 f"gates: >= {CHECK_DIVERGENT:.1f}x gang, "
                 f">= {CHECK_RESIDENCY:.0f}% residency):")
    lines.append(f"    {'kernel':18s} {'gang':>7s} {'fused':>7s} "
                 f"{'megaop':>7s} {'resid':>6s} {'repacks':>8s} "
                 f"{'readmit':>8s} {'peeled':>7s}")
    for name, row in outcome["divergent"].items():
        lines.append(
            f"    {name:18s} {row['speedup']:6.2f}x "
            f"{row['fused_speedup']:6.2f}x {row['megaop_speedup']:6.2f}x "
            f"{row['gang_residency_pct']:5.1f}% {row['gang_repacks']:8d} "
            f"{row['lanes_readmitted']:8d} {row['scalar_fallbacks']:7d}")
    kern = outcome["kernel"]
    kname = kern["scalar"]["kernel"]
    lines.append(f"  {kname}: {outcome['kernel_speedup']:.1f}x faster "
                 f"wall-clock under gang (gate: >= {CHECK_SPEEDUP:.0f}x), "
                 f"{kern['gang']['batched_translations']} pages translated "
                 f"batched")
    lines.append("  per-kernel wall-clock speedups (smoke geometry):")
    for name, row in outcome["kernels"].items():
        lines.append(f"    {name:14s} {row['speedup']:5.2f}x gang / "
                     f"{row['fused_speedup']:5.2f}x fused / "
                     f"{row['megaop_speedup']:5.2f}x megaop "
                     f"(scalar {row['scalar_seconds'] * 1e3:7.2f}ms, "
                     f"gang {row['gang_seconds'] * 1e3:7.2f}ms, "
                     f"fused {row['fused_seconds'] * 1e3:7.2f}ms, "
                     f"megaop {row['megaop_seconds'] * 1e3:7.2f}ms)")
    lines.append("  per-kernel block fusion (smoke geometry):")
    lines.append(f"    {'kernel':14s} {'blocks':>7s} {'chains':>7s} "
                 f"{'compiles':>8s} {'fallback':>9s}")
    for name, row in outcome["kernels"].items():
        fallback = (row["scalar_fallbacks"] / row["shreds"]
                    if row["shreds"] else 0.0)
        lines.append(f"    {name:14s} {row['fused_blocks_retired']:7d} "
                     f"{row['trace_chains']:7d} {row['fusion_compiles']:8d} "
                     f"{fallback:8.0%}")
    m = homo["gang"]
    total = m["predecode_hits"] + m["predecode_misses"]
    rate = m["predecode_hits"] / total if total else 0.0
    lines.append(f"  decode cache: {m['predecode_hits']}/{total} hits "
                 f"({rate:.0%})")
    return "\n".join(lines)


def step_summary(outcome: dict) -> str:
    """GitHub Actions step-summary markdown: the engine-tier tables."""
    homo = outcome["homogeneous"]
    fused = homo["fused"]
    megaop = homo["megaop"]
    lines = [
        "### Engine benchmark",
        "",
        f"- gang vs scalar (homogeneous): "
        f"**{outcome['speedup']:.1f}x** (gate >= {CHECK_SPEEDUP:.0f}x)",
        f"- fused vs gang (homogeneous): "
        f"**{outcome['fusion_speedup']:.2f}x** (gate >= {CHECK_FUSION:.1f}x),"
        f" {fused['fused_blocks_retired']} blocks retired, "
        f"{fused['trace_chains']} trace chains",
        f"- megaop vs fused (homogeneous): "
        f"**{outcome['megaop_speedup']:.2f}x** (gate >= {CHECK_MEGAOP:.1f}x),"
        f" {megaop['megaops_retired']} traversals retired, "
        f"{megaop['megaop_deopts']} deopts",
        "",
        "| tier | ns/instr | Minstr/s |",
        "|---|---|---|",
    ]
    for name in ("gang", "fused", "megaop"):
        m = homo[name]
        ns = m["wall_seconds"] * 1e9 / m["instructions"]
        lines.append(f"| {name} | {ns:.0f} "
                     f"| {m['instructions_per_second'] / 1e6:.3f} |")
    lines += [
        "",
        "#### Gang residency: convergent vs divergent",
        "",
        "| kernel | gang speedup | residency | repacks | readmitted "
        "| peeled |",
        "|---|---|---|---|---|---|",
        f"| uniform-loop (convergent) | {outcome['speedup']:.2f}x "
        f"| {homo['gang']['gang_residency_pct']:.1f}% "
        f"| {homo['gang']['gang_repacks']} "
        f"| {homo['gang']['lanes_readmitted']} "
        f"| {homo['gang']['scalar_fallbacks']} |",
    ]
    for name, row in outcome["divergent"].items():
        lines.append(
            f"| {name} (divergent) | {row['speedup']:.2f}x "
            f"| {row['gang_residency_pct']:.1f}% | {row['gang_repacks']} "
            f"| {row['lanes_readmitted']} | {row['scalar_fallbacks']} |")
    lines += [
        "",
        "| kernel | gang speedup | fused speedup | megaop speedup | blocks "
        "| chained traces | fallback rate |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, row in outcome["kernels"].items():
        fallback = (row["scalar_fallbacks"] / row["shreds"]
                    if row["shreds"] else 0.0)
        lines.append(
            f"| {name} | {row['speedup']:.2f}x | {row['fused_speedup']:.2f}x "
            f"| {row['megaop_speedup']:.2f}x "
            f"| {row['fused_blocks_retired']} | {row['trace_chains']} "
            f"| {fallback:.0%} |")
    return "\n".join(lines) + "\n"


# -- pytest entry points ---------------------------------------------------------------


def test_gang_beats_scalar():
    """The CI acceptance bar: a homogeneous launch must vectorize."""
    scalar = measure_homogeneous("scalar")
    gang = measure_homogeneous("gang")
    assert gang["instructions"] == scalar["instructions"]
    assert gang["gma_cycles"] == scalar["gma_cycles"]
    assert gang["scalar_fallbacks"] == 0  # fully gang-resident
    assert gang["gang_lanes_retired"] == gang["instructions"]
    speedup = (gang["instructions_per_second"]
               / scalar["instructions_per_second"])
    assert speedup >= CHECK_SPEEDUP, f"gang only {speedup:.2f}x scalar"


def test_memory_bound_kernel_beats_scalar():
    """The batched-memory acceptance bar: a load/store-dominated kernel
    workload must clear the same 3x gate as the ALU loop."""
    scalar = measure_kernel("scalar")
    gang = measure_kernel("gang")
    assert gang["instructions"] == scalar["instructions"]
    assert gang["batched_translations"] > 0  # the fast path really ran
    speedup = scalar["wall_seconds"] / gang["wall_seconds"]
    assert speedup >= CHECK_SPEEDUP, \
        f"gang only {speedup:.2f}x scalar on {gang['kernel']}"


def test_fused_beats_gang():
    """The fusion acceptance bar: superblock fusion must beat plain
    per-instruction gang dispatch on the homogeneous loop."""
    gang = measure_homogeneous("gang")
    fused = measure_homogeneous("fused")
    assert fused["instructions"] == gang["instructions"]
    assert fused["gma_cycles"] == gang["gma_cycles"]
    assert fused["scalar_fallbacks"] == 0
    assert fused["fused_blocks_retired"] > 0
    assert fused["trace_chains"] > 0
    speedup = (fused["instructions_per_second"]
               / gang["instructions_per_second"])
    assert speedup >= CHECK_FUSION, f"fused only {speedup:.2f}x gang"


def test_megaop_beats_fused():
    """The megaop acceptance bar: promoted hot traces must beat the
    per-block fused loop on the homogeneous loop."""
    fused = measure_homogeneous("fused", repeats=5)
    megaop = measure_homogeneous("megaop", repeats=5)
    assert megaop["instructions"] == fused["instructions"]
    assert megaop["gma_cycles"] == fused["gma_cycles"]
    assert megaop["scalar_fallbacks"] == 0
    assert megaop["megaop_compiles"] > 0
    assert megaop["megaops_retired"] > 0
    speedup = (megaop["instructions_per_second"]
               / fused["instructions_per_second"])
    assert speedup >= CHECK_MEGAOP, f"megaop only {speedup:.2f}x fused"


def test_divergent_gang_beats_scalar():
    """The divergence-repacking acceptance bar: data-dependent branches
    must not collapse the gang to the scalar interpreter."""
    for name in DIVERGENT_KERNELS:
        scalar = measure_divergent(name, "scalar")
        gang = measure_divergent(name, "gang")
        assert gang["instructions"] == scalar["instructions"], name
        assert gang["scalar_fallbacks"] == 0, name
        assert gang["gang_repacks"] > 0, name
        assert gang["lanes_readmitted"] > 0, name
        assert gang["gang_residency_pct"] >= CHECK_RESIDENCY, name
        speedup = (gang["instructions_per_second"]
                   / scalar["instructions_per_second"])
        assert speedup >= CHECK_DIVERGENT, \
            f"gang only {speedup:.2f}x scalar on {name}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shreds", type=int, default=DEFAULT_SHREDS,
                        help="launch width (default %(default)s)")
    parser.add_argument("--iters", type=int, default=DEFAULT_ITERS,
                        help="loop trip count (default %(default)s)")
    parser.add_argument("--json", type=str, default="BENCH_engine.json",
                        help="result file (default %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless gang reaches "
                             f">= {CHECK_SPEEDUP:.0f}x scalar, fused "
                             f">= {CHECK_FUSION:.1f}x gang, megaop "
                             f">= {CHECK_MEGAOP:.1f}x fused "
                             "instructions/second, and divergent kernels "
                             f">= {CHECK_DIVERGENT:.1f}x scalar at "
                             f">= {CHECK_RESIDENCY:.0f}% gang residency")
    args = parser.parse_args(argv)

    outcome = compare(args.shreds, args.iters)
    print(report(outcome))
    with open(args.json, "w") as handle:
        json.dump(outcome, handle, indent=2)
    print(f"wrote {args.json}")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(step_summary(outcome))
        print(f"appended fusion stats to {summary_path}")
    if args.check:
        failed = False
        if outcome["speedup"] < CHECK_SPEEDUP:
            print(f"CHECK FAILED: gang speedup {outcome['speedup']:.2f}x "
                  f"< {CHECK_SPEEDUP:.0f}x", file=sys.stderr)
            failed = True
        if outcome["fusion_speedup"] < CHECK_FUSION:
            print(f"CHECK FAILED: fusion speedup "
                  f"{outcome['fusion_speedup']:.2f}x "
                  f"< {CHECK_FUSION:.1f}x gang", file=sys.stderr)
            failed = True
        if outcome["megaop_speedup"] < CHECK_MEGAOP:
            print(f"CHECK FAILED: megaop speedup "
                  f"{outcome['megaop_speedup']:.2f}x "
                  f"< {CHECK_MEGAOP:.1f}x fused", file=sys.stderr)
            failed = True
        if outcome["kernel_speedup"] < CHECK_SPEEDUP:
            print(f"CHECK FAILED: kernel speedup "
                  f"{outcome['kernel_speedup']:.2f}x "
                  f"< {CHECK_SPEEDUP:.0f}x", file=sys.stderr)
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
        print(f"check passed: gang {outcome['speedup']:.1f}x scalar "
              f"(homogeneous), fused {outcome['fusion_speedup']:.2f}x gang, "
              f"megaop {outcome['megaop_speedup']:.2f}x fused, "
              f"{outcome['kernel_speedup']:.1f}x (memory-bound kernel), "
              f"divergent >= {divergent:.1f}x at >= {residency:.0f}% "
              f"residency")
    return 0


if __name__ == "__main__":
    sys.exit(main())
