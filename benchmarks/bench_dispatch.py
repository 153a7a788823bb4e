"""Per-instruction dispatch overhead: scalar vs megaop.

Both engines retire the same instruction stream; what differs is how
much *host* work each instruction costs before numpy does the lane
math.  The scalar interpreter pays a full decode-dispatch-account round
per instruction per shred.  The megaop engine pays one batched round
per instruction for the whole gang, one round per *block* once a
straight-line region is compiled (``docs/ENGINE.md``), and one round per
*hot-loop traversal* once the trace cycle has been promoted.

This benchmark isolates that overhead by timing a pure-ALU counted loop
where every instruction is host-bound (16-lane mads on resident
registers — no memory traffic, no faults, no divergence), and reporting
**nanoseconds of host wall-clock per retired instruction** at several
trip counts.  Longer loops amortize fixed launch cost, so the asymptote
approximates the steady-state dispatch cost per instruction.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_dispatch.py

or under pytest (``pytest benchmarks/bench_dispatch.py``).  Writes
``BENCH_dispatch.json`` (``--json`` to move).  ``--check`` compares the
fresh sweep against the committed baseline and fails if megaop ns/instr
regressed by more than ``CHECK_REGRESSION`` at the longest trip count.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.exo.shred import ShredDescriptor
from repro.gma.device import GmaDevice
from repro.isa import predecode
from repro.isa.assembler import assemble
from repro.memory.address_space import AddressSpace

ENGINES = GmaDevice.ENGINES
DEFAULT_SHREDS = 32
#: ``--check`` tolerance: megaop ns/instr may drift this much above the
#: committed baseline before the gate fails (noisy-host headroom).
CHECK_REGRESSION = 0.20
#: Trip counts for the amortization sweep: the launch-overhead-dominated
#: short end through the dispatch-dominated long end.
TRIP_COUNTS = (10, 100, 600)

#: Same contract-to-fixed-point ALU loop shape as ``bench_engine`` — all
#: dispatch, no memory system.
LOOP_ASM = """
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


def measure(engine: str, iters: int, shreds: int = DEFAULT_SHREDS,
            repeats: int = 3) -> dict:
    """Best-of-``repeats`` ns/instruction for one engine and trip count."""
    program = assemble(LOOP_ASM, name="dispatch-loop")
    best = None
    for _ in range(repeats):
        predecode.CACHE.clear()
        device = GmaDevice(AddressSpace(), engine=engine)
        batch = [ShredDescriptor(program=program,
                                 bindings={"iters": float(iters)})
                 for _ in range(shreds)]
        started = time.perf_counter()
        result = device.run(batch)
        wall = time.perf_counter() - started
        if best is None or wall < best["wall_seconds"]:
            best = {
                "engine": engine,
                "iters": iters,
                "instructions": result.instructions,
                "wall_seconds": wall,
                "ns_per_instruction": wall * 1e9 / result.instructions,
                "fused_blocks_retired": result.fused_blocks_retired,
                "trace_chains": result.trace_chains,
                "megaops_retired": result.megaops_retired,
                "megaop_compiles": result.megaop_compiles,
                "megaop_deopts": result.megaop_deopts,
            }
    return best


def compare(shreds: int = DEFAULT_SHREDS) -> dict:
    """The full sweep: every engine at every trip count."""
    rows = {}
    for iters in TRIP_COUNTS:
        rows[str(iters)] = {engine: measure(engine, iters, shreds)
                            for engine in ENGINES}
    longest = rows[str(TRIP_COUNTS[-1])]
    return {
        "shreds": shreds,
        "trip_counts": list(TRIP_COUNTS),
        "rows": rows,
        # steady-state overhead ratio at the longest trip count
        "megaop_dispatch_ratio": (longest["scalar"]["ns_per_instruction"]
                                  / longest["megaop"]["ns_per_instruction"]),
    }


def report(outcome: dict) -> str:
    lines = [f"per-instruction dispatch overhead, "
             f"{outcome['shreds']} homogeneous shreds:"]
    lines.append(f"  {'iters':>6s} {'engine':8s} {'instr':>8s} "
                 f"{'wall ms':>9s} {'ns/instr':>9s}")
    for iters in outcome["trip_counts"]:
        for engine in ENGINES:
            m = outcome["rows"][str(iters)][engine]
            lines.append(f"  {iters:6d} {engine:8s} {m['instructions']:8d} "
                         f"{m['wall_seconds'] * 1e3:9.2f} "
                         f"{m['ns_per_instruction']:9.0f}")
    lines.append(f"  steady state (iters={outcome['trip_counts'][-1]}): "
                 f"megaop removes {outcome['megaop_dispatch_ratio']:.1f}x "
                 f"dispatch cost")
    return "\n".join(lines)


def check(outcome: dict, baseline_path: str) -> list:
    """Regression gate against the committed baseline.

    Returns a list of failure strings (empty = pass).  Only megaop at
    the longest trip count is gated — it is the steady-state dispatch
    number the engine docs quote, and the short trip counts are
    launch-overhead-dominated and too noisy to gate."""
    try:
        with open(baseline_path) as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        return [f"baseline {baseline_path} not found; run without --check "
                f"once to create it"]
    iters = str(outcome["trip_counts"][-1])
    if iters not in baseline.get("rows", {}) \
            or "megaop" not in baseline["rows"][iters]:
        return [f"baseline {baseline_path} has no megaop row at "
                f"iters={iters}; regenerate it"]
    was = baseline["rows"][iters]["megaop"]["ns_per_instruction"]
    now = outcome["rows"][iters]["megaop"]["ns_per_instruction"]
    failures = []
    if now > was * (1.0 + CHECK_REGRESSION):
        failures.append(
            f"megaop ns/instr regressed: {now:.0f} vs baseline {was:.0f} "
            f"(+{(now / was - 1.0) * 100:.0f}%, limit "
            f"+{CHECK_REGRESSION * 100:.0f}%)")
    return failures


# -- pytest entry points ---------------------------------------------------------------


def test_dispatch_overhead_shrinks_by_engine():
    """Soft ordering check at the amortized trip count: megaop must cut
    host cost per instruction (generous margin — this asserts the
    mechanism works, the hard perf gate lives in ``bench_engine
    --check``)."""
    iters = TRIP_COUNTS[-1]
    scalar = measure("scalar", iters, repeats=2)
    megaop = measure("megaop", iters, repeats=2)
    assert scalar["instructions"] == megaop["instructions"]
    assert megaop["ns_per_instruction"] < scalar["ns_per_instruction"] / 2
    assert megaop["fused_blocks_retired"] > 0
    assert megaop["trace_chains"] > 0
    assert megaop["megaop_compiles"] > 0
    assert megaop["megaops_retired"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shreds", type=int, default=DEFAULT_SHREDS)
    parser.add_argument("--json", default="BENCH_dispatch.json")
    parser.add_argument("--check", action="store_true",
                        help="gate the fresh sweep against the committed "
                             "baseline: fail if megaop ns/instr regressed "
                             "more than %d%%" % (CHECK_REGRESSION * 100))
    args = parser.parse_args(argv)

    outcome = compare(args.shreds)
    print(report(outcome))
    if args.check:
        failures = check(outcome, args.json)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}")
            return 1
        print(f"check passed: megaop ns/instr within "
              f"{CHECK_REGRESSION * 100:.0f}% of {args.json}")
        return 0
    with open(args.json, "w") as handle:
        json.dump(outcome, handle, indent=2)
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
