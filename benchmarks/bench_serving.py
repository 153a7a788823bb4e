"""The serving layer under load: latency, throughput, coalescing lift.

Two measurements drive the CI gates:

* **Mixed-stream serving** — N tenants (default 4), each its own
  isolated address space, replay mixed-kernel request streams through
  one :class:`~repro.serving.ExoServer` concurrently.  Reports p50/p99
  request latency, sustained throughput, and the coalescing rate; every
  output is verified bit-identical to the kernel reference.
* **Coalescing lift** — the four flat kernels (AlphaBlend, BOB, ADVDI,
  ProcAmp) launch a *single* shred each at smoke geometry, so solo
  requests execute on the scalar-fallback path (one lane is not a
  gang).  Queueing 8 same-program requests lets cross-launch gang
  formation merge them into one 8-lane gang; the gate requires >= 3x
  solo instructions/second on at least two of the four.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --check   # CI gate

or under pytest (``pytest benchmarks/bench_serving.py``).  Writes
``BENCH_serving.json`` (``--json`` to move), headed by the host it ran
on (cores, Python, numpy, engine, commit); a ``--check`` run writes
only to an explicit ``--json`` path, so gating never rewrites the
committed row.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

from provenance import host_provenance

from repro.fabric.queue import AdmissionPolicy
from repro.kernels import kernel_by_abbrev
from repro.serving import ExoServer, SessionQuotas, TenantWorkload

FLAT_KERNELS = ("AlphaBlend", "BOB", "ADVDI", "ProcAmp")
CHECK_COALESCE_SPEEDUP = 3.0  # x solo instr/s, per kernel
CHECK_COALESCE_KERNELS = 2    # at least this many of the four must clear
CHECK_THROUGHPUT = 6.0        # sustained req/s on the smoke mix
CHECK_P99_SECONDS = 5.0       # p99 latency bound on the smoke mix
# (local runs measure ~19 req/s / p99 ~1.6s; the gates leave 3x headroom
# for CI hardware)


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(int(round(q * (len(ordered) - 1))), len(ordered) - 1)
    return ordered[idx]


async def _tenant_stream(server: ExoServer, session, kernels,
                         requests: int, latencies: list,
                         verify: bool) -> None:
    workloads = [TenantWorkload(session, kernel_by_abbrev(abbrev))
                 for abbrev in kernels]

    async def one(workload, launch):
        started = time.perf_counter()
        await server.submit(session, launch.program,
                            bindings=launch.bindings,
                            surfaces=launch.surfaces)
        latencies.append(time.perf_counter() - started)
        if verify:
            launch.verify(session)
        workload.release(launch)

    # issue in bursts of the stream's kernel mix: launches of one kernel
    # land adjacent in the queue, the shape coalescing feeds on
    pairs = [(workloads[i % len(workloads)],) for i in range(requests)]
    await asyncio.gather(*[
        one(w, w.new_launch()) for (w,) in pairs
    ])


async def _serve(tenants: int, requests: int, devices: int,
                 engine: str, verify: bool) -> dict:
    async with ExoServer(num_devices=devices, engine=engine,
                         admission_policy=AdmissionPolicy.BLOCK) as server:
        latencies: list = []
        sessions = []
        streams = []
        for i in range(tenants):
            kernels = (FLAT_KERNELS[i % len(FLAT_KERNELS)],
                       FLAT_KERNELS[(i + 1) % len(FLAT_KERNELS)])
            session = server.open_session(
                f"tenant-{i}",
                SessionQuotas(weight=1.0 + (i % 2),
                              max_inflight=requests,
                              max_surfaces=8 * requests,
                              max_surface_bytes=64 << 20,
                              max_descriptors=4 * requests))
            sessions.append(session)
            streams.append(_tenant_stream(server, session, kernels,
                                          requests, latencies, verify))
        started = time.perf_counter()
        await asyncio.gather(*streams)
        wall = time.perf_counter() - started
        for session in sessions:
            server.close_session(session)
        stats = server.stats
        total = tenants * requests
        return {
            "tenants": tenants,
            "requests_per_tenant": requests,
            "devices": devices,
            "engine": engine,
            "completed": stats.launches_completed,
            "wall_seconds": wall,
            "throughput_rps": total / wall,
            "p50_seconds": _percentile(latencies, 0.50),
            "p99_seconds": _percentile(latencies, 0.99),
            "batches_dispatched": stats.batches_dispatched,
            "gangs_coalesced": stats.gangs_coalesced,
            "coalesced_lanes": stats.coalesced_lanes,
            "coalescing_rate": (stats.coalesced_lanes / total
                                if total else 0.0),
            "verified": verify,
            "per_tenant": [s.stats() for s in sessions],
        }


def measure_serving(tenants: int = 4, requests: int = 8,
                    devices: int = 2, engine: str = "megaop",
                    verify: bool = True) -> dict:
    """The mixed-stream measurement (synchronous wrapper)."""
    return asyncio.run(_serve(tenants, requests, devices, engine, verify))


async def _coalesce_probe(abbrev: str, lanes: int, coalesce: bool) -> dict:
    """``lanes`` single-shred launches of one kernel: queued together
    (one gang) or awaited one at a time (scalar fallback per launch)."""
    async with ExoServer(num_devices=1, engine="megaop") as server:
        session = server.open_session(
            "probe", SessionQuotas(max_inflight=lanes,
                                   max_surfaces=8 * lanes,
                                   max_surface_bytes=64 << 20,
                                   max_descriptors=4 * lanes))
        workload = TenantWorkload(session, kernel_by_abbrev(abbrev))
        launches = [workload.new_launch() for _ in range(lanes)]
        started = time.perf_counter()
        if coalesce:
            results = await asyncio.gather(*[
                server.submit(session, launch.program,
                              bindings=launch.bindings,
                              surfaces=launch.surfaces)
                for launch in launches
            ])
        else:
            results = []
            for launch in launches:
                results.append(await server.submit(
                    session, launch.program, bindings=launch.bindings,
                    surfaces=launch.surfaces))
        wall = time.perf_counter() - started
        for launch in launches:
            launch.verify(session)
        instructions = sum(r.instructions for r in results)
        return {
            "kernel": abbrev,
            "lanes": lanes,
            "coalesced": coalesce,
            "instructions": instructions,
            "wall_seconds": wall,
            "instructions_per_second": instructions / wall,
            "gangs_coalesced": server.stats.gangs_coalesced,
            "coalesced_lanes": server.stats.coalesced_lanes,
        }


def measure_coalescing(abbrev: str, lanes: int = 8,
                       repeats: int = 3) -> dict:
    """Solo-vs-coalesced instr/s for one flat kernel, best of repeats."""
    best_solo = best_gang = None
    for _ in range(repeats):
        solo = asyncio.run(_coalesce_probe(abbrev, lanes, coalesce=False))
        gang = asyncio.run(_coalesce_probe(abbrev, lanes, coalesce=True))
        if (best_solo is None
                or solo["wall_seconds"] < best_solo["wall_seconds"]):
            best_solo = solo
        if (best_gang is None
                or gang["wall_seconds"] < best_gang["wall_seconds"]):
            best_gang = gang
    return {
        "kernel": abbrev,
        "lanes": lanes,
        "solo": best_solo,
        "coalesced": best_gang,
        "speedup": (best_gang["instructions_per_second"]
                    / best_solo["instructions_per_second"]),
    }


def compare(tenants: int = 4, requests: int = 8, devices: int = 2,
            lanes: int = 8) -> dict:
    serving = measure_serving(tenants, requests, devices)
    coalescing = {abbrev: measure_coalescing(abbrev, lanes)
                  for abbrev in FLAT_KERNELS}
    cleared = sum(1 for row in coalescing.values()
                  if row["speedup"] >= CHECK_COALESCE_SPEEDUP)
    return {
        "serving": serving,
        "coalescing": coalescing,
        "kernels_cleared": cleared,
    }


def report(outcome: dict) -> str:
    serving = outcome["serving"]
    lines = [
        f"serving: {serving['tenants']} tenants x "
        f"{serving['requests_per_tenant']} requests on "
        f"{serving['devices']} devices ({serving['engine']} engine):",
        f"  throughput {serving['throughput_rps']:.1f} req/s "
        f"(gate: >= {CHECK_THROUGHPUT:.0f}), "
        f"p50 {serving['p50_seconds'] * 1e3:.1f}ms, "
        f"p99 {serving['p99_seconds'] * 1e3:.1f}ms "
        f"(gate: <= {CHECK_P99_SECONDS * 1e3:.0f}ms)",
        f"  {serving['batches_dispatched']} batches for "
        f"{serving['completed']} launches; "
        f"{serving['gangs_coalesced']} gangs formed, "
        f"{serving['coalesced_lanes']} lanes "
        f"({serving['coalescing_rate']:.0%} of requests rode a gang)",
        f"  cross-launch coalescing lift, {CHECK_COALESCE_SPEEDUP:.0f}x "
        f"gate on >= {CHECK_COALESCE_KERNELS} kernels:",
    ]
    for abbrev, row in outcome["coalescing"].items():
        mark = "PASS" if row["speedup"] >= CHECK_COALESCE_SPEEDUP else "    "
        lines.append(
            f"    {abbrev:12s} {row['speedup']:5.2f}x  "
            f"(solo {row['solo']['instructions_per_second'] / 1e6:6.3f} "
            f"Minstr/s, coalesced "
            f"{row['coalesced']['instructions_per_second'] / 1e6:6.3f}) "
            f"{mark}")
    lines.append(f"  {outcome['kernels_cleared']}/{len(FLAT_KERNELS)} "
                 f"kernels cleared the coalescing gate")
    return "\n".join(lines)


def step_summary(outcome: dict) -> str:
    serving = outcome["serving"]
    lines = [
        "### Serving benchmark",
        "",
        f"- throughput: **{serving['throughput_rps']:.1f} req/s** "
        f"(p50 {serving['p50_seconds'] * 1e3:.1f}ms / "
        f"p99 {serving['p99_seconds'] * 1e3:.1f}ms)",
        f"- coalescing: {serving['gangs_coalesced']} gangs, "
        f"{serving['coalesced_lanes']} lanes "
        f"({serving['coalescing_rate']:.0%} of requests)",
        "",
        "| kernel | solo Minstr/s | coalesced Minstr/s | lift |",
        "|---|---|---|---|",
    ]
    for abbrev, row in outcome["coalescing"].items():
        lines.append(
            f"| {abbrev} "
            f"| {row['solo']['instructions_per_second'] / 1e6:.3f} "
            f"| {row['coalesced']['instructions_per_second'] / 1e6:.3f} "
            f"| {row['speedup']:.2f}x |")
    return "\n".join(lines) + "\n"


# -- pytest entry points ---------------------------------------------------------------


def test_serving_mixed_stream():
    """Four isolated tenants serve concurrently, outputs verified."""
    serving = measure_serving(tenants=4, requests=4)
    assert serving["completed"] == 16
    assert serving["verified"]
    assert serving["gangs_coalesced"] > 0


def test_coalescing_lifts_flat_kernels():
    """The acceptance bar: >= 3x instr/s on >= 2 of the four flat
    kernels when 8 same-program launches queue together."""
    cleared = 0
    for abbrev in FLAT_KERNELS:
        row = measure_coalescing(abbrev, repeats=2)
        # every coalesced probe must actually have formed a gang
        assert row["coalesced"]["coalesced"]
        assert row["coalesced"]["gangs_coalesced"] > 0
        if row["speedup"] >= CHECK_COALESCE_SPEEDUP:
            cleared += 1
    assert cleared >= CHECK_COALESCE_KERNELS, \
        f"only {cleared} kernels cleared {CHECK_COALESCE_SPEEDUP:.0f}x"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=4,
                        help="concurrent sessions (default %(default)s)")
    parser.add_argument("--requests", type=int, default=8,
                        help="requests per tenant (default %(default)s)")
    parser.add_argument("--devices", type=int, default=2,
                        help="GMA devices in the pool (default %(default)s)")
    parser.add_argument("--lanes", type=int, default=8,
                        help="queued launches per coalescing probe "
                             "(default %(default)s)")
    parser.add_argument("--json", type=str, default=None,
                        help="result file (default BENCH_serving.json; a "
                             "--check run writes one only when given)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless throughput >= "
                             f"{CHECK_THROUGHPUT:.0f} req/s at p99 <= "
                             f"{CHECK_P99_SECONDS:.1f}s and coalescing "
                             f"reaches {CHECK_COALESCE_SPEEDUP:.0f}x on "
                             f">= {CHECK_COALESCE_KERNELS} flat kernels")
    args = parser.parse_args(argv)

    outcome = compare(args.tenants, args.requests, args.devices, args.lanes)
    print(report(outcome))
    path = args.json or (None if args.check else "BENCH_serving.json")
    if path:
        with open(path, "w") as handle:
            json.dump({"host": host_provenance(outcome["serving"]["engine"]),
                       **outcome}, handle, indent=2)
        print(f"wrote {path}")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(step_summary(outcome))
        print(f"appended serving stats to {summary_path}")
    if args.check:
        serving = outcome["serving"]
        failed = False
        if serving["throughput_rps"] < CHECK_THROUGHPUT:
            print(f"CHECK FAILED: throughput "
                  f"{serving['throughput_rps']:.1f} req/s "
                  f"< {CHECK_THROUGHPUT:.0f}", file=sys.stderr)
            failed = True
        if serving["p99_seconds"] > CHECK_P99_SECONDS:
            print(f"CHECK FAILED: p99 {serving['p99_seconds']:.2f}s "
                  f"> {CHECK_P99_SECONDS:.1f}s", file=sys.stderr)
            failed = True
        if outcome["kernels_cleared"] < CHECK_COALESCE_KERNELS:
            print(f"CHECK FAILED: only {outcome['kernels_cleared']} "
                  f"kernels >= {CHECK_COALESCE_SPEEDUP:.0f}x "
                  f"(need {CHECK_COALESCE_KERNELS})", file=sys.stderr)
            failed = True
        if failed:
            return 1
        print(f"check passed: {serving['throughput_rps']:.1f} req/s, "
              f"p99 {serving['p99_seconds'] * 1e3:.0f}ms, "
              f"{outcome['kernels_cleared']}/{len(FLAT_KERNELS)} kernels "
              f">= {CHECK_COALESCE_SPEEDUP:.0f}x coalesced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
