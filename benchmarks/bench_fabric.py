"""The device fabric: multi-accelerator scaling and work-stealing dispatch.

Three claims to hold the subsystem to:

* an N-accelerator fabric (every GMA sharing the one virtual address
  space) drains a parallel region strictly faster than a single device —
  the scaling the EXO model's shared virtual memory makes cheap;
* the event-driven work-stealing dispatcher is a faithful generalization
  of section 5.3's self-scheduling: run over one two-sequencer loop it
  converges to the oracle partition as chunks shrink, for every Table 2
  kernel;
* the **cross-process fabric** (``--fabric-workers``) escapes the GIL:
  on a host with >= 4 usable cores, draining one region over 4 worker
  processes beats the in-process serial drain by >= 1.6x wall-clock;
  on 2-3 cores, 2 workers beat it by >= 1.1x.  On one core genuine
  parallel speedup is physically unavailable, so the gate degrades to
  an *overhead* bound: the shared-memory + pipe tax may cost at most
  ~2x (speedup >= 0.5x at 4 workers, on every host below 4 cores).
  The region runs the ``scalar`` engine: all of its cost is
  interpretation, which is what the workers take off the one GIL, and
  at the default load it outweighs worker start-up and payload pickling
  (the ``megaop`` engine retires this loop too fast for that).  Each
  configuration is timed as the best of three interleaved rounds.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_fabric.py
    PYTHONPATH=src python benchmarks/bench_fabric.py --check   # CI gate

or under pytest (``pytest benchmarks/bench_fabric.py``).  Writes
``BENCH_fabric.json`` (``--json`` to move), headed by the host it ran
on (cores, Python, numpy, engine, commit); a ``--check`` run writes
only to an explicit ``--json`` path, so gating never rewrites the
committed row.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import pytest
from provenance import host_provenance, usable_cores

from repro.chi import ChiRuntime, ExoPlatform
from repro.errors import FabricError
from repro.exo.shred import ShredDescriptor
from repro.fabric.workers import ProcessWorkerPool
from repro.isa.assembler import assemble
from repro.memory.address_space import AddressSpace
from repro.memory.physical import PhysicalMemory

KERNEL = """
    mul.1.dw vr1 = tid, 3
    add.1.dw vr2 = vr1, 1
    add.1.dw vr3 = vr2, vr1
    end
"""
SHREDS = 256


def region_seconds(num_devices: int) -> float:
    rt = ChiRuntime(ExoPlatform(num_gma_devices=num_devices))
    region = rt.parallel(KERNEL, num_threads=SHREDS)
    assert region.result.shreds_executed == SHREDS
    return region.gma_seconds


def test_fabric_scaling(show):
    lines = [f"{SHREDS}-shred region across N GMA X3000 devices:"]
    seconds = {n: region_seconds(n) for n in (1, 2, 4)}
    for n, s in seconds.items():
        bar = "#" * int(40 * s / seconds[1])
        lines.append(f"  {n} device(s): {s * 1e6:8.3f} us  {bar}")
    show("\n".join(lines))

    # the acceptance bar: two devices are strictly faster than one
    assert seconds[2] < seconds[1]
    assert seconds[4] < seconds[2]


def test_fabric_split_is_balanced():
    rt = ChiRuntime(ExoPlatform(num_gma_devices=2))
    rt.parallel(KERNEL, num_threads=SHREDS)
    shreds = rt.stats.device_shreds
    assert abs(shreds["gma0"] - shreds["gma1"]) <= 2


def test_work_stealing_converges_to_oracle(suite, show):
    """The dispatcher's two-device outcome lands within 5% of the oracle
    at fine chunking, for every kernel in the suite."""
    lines = ["work-stealing vs oracle (gap at 16 / 64 / 256 chunks):"]
    for abbrev, m in suite.items():
        oracle = m.partition("oracle").total_seconds
        gaps = []
        for chunks in (16, 64, 256):
            ws = m.partition("work-stealing", num_chunks=chunks)
            gaps.append(ws.total_seconds / oracle - 1)
        lines.append(f"  {abbrev:10s} " +
                     "  ".join(f"{100 * g:+6.2f}%" for g in gaps))
        # convergence is not monotone chunk by chunk (a coarse split can
        # land on the oracle point by luck); the bound at fine chunking
        # is the claim
        assert m.partition(
            "work-stealing", num_chunks=256).total_seconds <= oracle * 1.05
    show("\n".join(lines))


def test_work_stealing_tracks_dynamic_partition(suite):
    """Queue-based stealing and the closed-form greedy loop describe the
    same mechanism; their outcomes agree to within one chunk."""
    for m in suite.values():
        dyn = m.partition("dynamic", num_chunks=128).total_seconds
        ws = m.partition("work-stealing", num_chunks=128).total_seconds
        chunk = max(m.cpu_seconds, m.gma_seconds) / 128
        assert ws == pytest.approx(dyn, abs=chunk)


# -- cross-process fabric scaling -------------------------------------------

CHECK_PROCESS_SPEEDUP = 1.6   # 4 process workers vs serial, >= 4 cores
CHECK_TWO_CORE_SPEEDUP = 1.1   # 2 process workers vs serial, 2-3 cores
CHECK_PROCESS_OVERHEAD = 0.5  # below 4 cores: IPC tax bounded to ~2x
PROCESS_WORKERS = (1, 2, 4)
PROCESS_SHREDS = 64
PROCESS_ITERS = 600
PROCESS_ENGINE = "scalar"
PROCESS_ROUNDS = 3


def _loop_kernel(iters: int) -> str:
    """Compute-heavy and memory-free: all cost is interpreter cycles, so
    wall-clock measures drain concurrency, not shared-frame bandwidth."""
    return f"""
    mov.1.dw vr1 = 0
loop:
    add.1.dw vr1 = vr1, 1
    cmp.lt.1.dw p1 = vr1, {iters}
    br p1, loop
    end
"""


def _region_wall(fabric_workers: int, shreds: int, iters: int) -> float:
    fabric = ExoPlatform(num_gma_devices=4, fabric_workers=fabric_workers,
                         gma_engine=PROCESS_ENGINE)
    try:
        rt = ChiRuntime(fabric)
        t0 = time.perf_counter()
        region = rt.parallel(_loop_kernel(iters), num_threads=shreds)
        wall = time.perf_counter() - t0
        assert region.result.shreds_executed == shreds
        return wall
    finally:
        fabric.close()


def measure_process_scaling(workers=PROCESS_WORKERS,
                            shreds: int = PROCESS_SHREDS,
                            iters: int = PROCESS_ITERS) -> dict:
    """Wall-clock of one region: in-process serial vs N process workers.

    Each configuration's wall is the best of :data:`PROCESS_ROUNDS`
    rounds that run every configuration in turn, so a slow stretch of a
    shared host slows one round of each rather than one configuration.
    """
    walls = {n: [] for n in (0, *workers)}
    for _ in range(PROCESS_ROUNDS):
        for n in walls:
            walls[n].append(_region_wall(n, shreds, iters))
    serial = min(walls[0])
    rows = []
    for n in workers:
        wall = min(walls[n])
        rows.append({
            "workers": n,
            "wall_seconds": wall,
            "throughput_sps": shreds / wall,
            "speedup": serial / wall,
        })
    return {
        "cores": usable_cores(),
        "shreds": shreds,
        "iters": iters,
        "rounds": PROCESS_ROUNDS,
        "serial_wall_seconds": serial,
        "serial_throughput_sps": shreds / serial,
        "rows": rows,
    }


def measure_worker_crash() -> dict:
    """A killed worker must surface as a clean FabricError; its peers and
    the shootdown broadcast keep working."""
    physical = PhysicalMemory(size=16 * 1024 * 1024, backing="shared")
    space = AddressSpace(physical=physical)
    pool = ProcessWorkerPool(physical, num_workers=2)
    pool.adopt_space(space)
    try:
        program = assemble(_loop_kernel(4), name="crash-probe")
        batch = [ShredDescriptor(program=program, bindings={"tid": i})
                 for i in range(4)]
        pool.worker_for(0).launch("gma0", space, batch)
        pool.worker_for(1).launch("gma1", space, batch)
        pool.worker_for(1).kill()
        clean_error = False
        try:
            pool.worker_for(1).launch("gma1", space, batch)
        except FabricError:
            clean_error = True
        survivor = pool.worker_for(0).launch("gma0", space, batch)
        base = space.alloc(4096)
        space.free(base)  # shootdown broadcast with one worker dead
        return {
            "clean_error_on_dead_worker": clean_error,
            "survivor_completed_shreds": survivor.shreds,
            "shootdown_after_crash": True,
            "passed": clean_error and survivor.shreds == len(batch),
        }
    finally:
        pool.close()
        physical.close()


def _gate(outcome: dict):
    """(workers, bound) the scaling gate checks at the measured core
    count."""
    if outcome["cores"] >= 4:
        return 4, CHECK_PROCESS_SPEEDUP
    if outcome["cores"] >= 2:
        return 2, CHECK_TWO_CORE_SPEEDUP
    return 4, CHECK_PROCESS_OVERHEAD


def report_process(outcome: dict, crash: dict) -> str:
    workers, bound = _gate(outcome)
    lines = [
        f"process-fabric scaling ({outcome['shreds']} shreds x "
        f"{outcome['iters']} iterations, {outcome['cores']} usable "
        f"core(s)):",
        f"  serial (in-process): {outcome['serial_wall_seconds']:7.3f}s  "
        f"{outcome['serial_throughput_sps']:7.1f} shreds/s",
    ]
    for row in outcome["rows"]:
        lines.append(
            f"  {row['workers']} process worker(s): "
            f"{row['wall_seconds']:7.3f}s  "
            f"{row['throughput_sps']:7.1f} shreds/s  "
            f"{row['speedup']:5.2f}x")
    if outcome["cores"] == 1:
        lines.append(
            f"  gate: single-core host, genuine speedup unavailable; "
            f"overhead bound >= {CHECK_PROCESS_OVERHEAD:.1f}x applies")
    else:
        lines.append(f"  gate: >= {bound:g}x at {workers} workers")
        if outcome["cores"] < 4:
            lines.append(f"  and the overhead bound >= "
                         f"{CHECK_PROCESS_OVERHEAD:.1f}x at 4 workers")
    lines.append(
        "  worker-crash robustness: "
        + ("PASS" if crash["passed"] else "FAIL")
        + f" (clean error: {crash['clean_error_on_dead_worker']}, "
          f"survivor shreds: {crash['survivor_completed_shreds']})")
    return "\n".join(lines)


def step_summary(outcome: dict, crash: dict) -> str:
    lines = [
        "### Fabric benchmark (cross-process scaling)",
        "",
        f"- host: {outcome['cores']} usable core(s); region: "
        f"{outcome['shreds']} shreds x {outcome['iters']} iterations",
        f"- worker-crash robustness: "
        + ("**pass**" if crash["passed"] else "**FAIL**"),
        "",
        "| drain | wall (s) | shreds/s | speedup |",
        "|---|---|---|---|",
        f"| serial (in-process) | "
        f"{outcome['serial_wall_seconds']:.3f} | "
        f"{outcome['serial_throughput_sps']:.1f} | 1.00x |",
    ]
    for row in outcome["rows"]:
        lines.append(
            f"| {row['workers']} process worker(s) "
            f"| {row['wall_seconds']:.3f} "
            f"| {row['throughput_sps']:.1f} "
            f"| {row['speedup']:.2f}x |")
    return "\n".join(lines) + "\n"


# -- pytest entry points for the process tier -------------------------------

def test_process_drain_overhead_bounded():
    """On any host the process tier may cost at most ~2x the serial
    drain (IPC + pickle tax); with >= 4 cores it must win outright."""
    outcome = measure_process_scaling(workers=(4,), shreds=PROCESS_SHREDS,
                                      iters=PROCESS_ITERS)
    speedup = outcome["rows"][0]["speedup"]
    assert speedup >= CHECK_PROCESS_OVERHEAD
    if outcome["cores"] >= 4:
        assert speedup > 1.0


def test_process_worker_crash_is_contained():
    crash = measure_worker_crash()
    assert crash["passed"], crash


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shreds", type=int, default=PROCESS_SHREDS,
                        help="region width (default %(default)s)")
    parser.add_argument("--iters", type=int, default=PROCESS_ITERS,
                        help="loop iterations per shred "
                             "(default %(default)s)")
    parser.add_argument("--json", type=str, default=None,
                        help="result file (default BENCH_fabric.json; a "
                             "--check run writes one only when given)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless 4 process workers "
                             f"reach >= {CHECK_PROCESS_SPEEDUP:.1f}x over "
                             "the serial drain (>= 4 usable cores; 2 "
                             f"workers >= {CHECK_TWO_CORE_SPEEDUP:g}x on "
                             "2-3 cores; below 4 cores 4 workers keep "
                             f">= {CHECK_PROCESS_OVERHEAD:.1f}x) and the "
                             "worker-crash probe passes")
    args = parser.parse_args(argv)

    outcome = measure_process_scaling(shreds=args.shreds, iters=args.iters)
    crash = measure_worker_crash()
    print(report_process(outcome, crash))
    payload = {"host": host_provenance(PROCESS_ENGINE), "scaling": outcome,
               "crash": crash}
    path = args.json or (None if args.check else "BENCH_fabric.json")
    if path:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {path}")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(step_summary(outcome, crash))
        print(f"appended fabric stats to {summary_path}")
    if args.check:
        failed = False
        speedup = {r["workers"]: r["speedup"] for r in outcome["rows"]}
        workers, bound = _gate(outcome)
        gates = [(workers, bound)]
        if 2 <= outcome["cores"] < 4:
            gates.append((4, CHECK_PROCESS_OVERHEAD))
        for n, floor in gates:
            if speedup[n] < floor:
                print(f"CHECK FAILED: {speedup[n]:.2f}x at {n} workers "
                      f"< {floor:g}x ({outcome['cores']} core(s))",
                      file=sys.stderr)
                failed = True
        if not crash["passed"]:
            print(f"CHECK FAILED: worker-crash probe {crash}",
                  file=sys.stderr)
            failed = True
        if failed:
            return 1
        print(f"check passed: {speedup[workers]:.2f}x at {workers} "
              f"workers on {outcome['cores']} core(s), crash probe "
              f"contained")
    return 0


if __name__ == "__main__":
    sys.exit(main())
