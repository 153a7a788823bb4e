"""A small self-contained serving demo: two tenants, mixed kernels.

Used by ``chirun --serve`` and ``examples/serving_demo.py``.  Starts an
:class:`~repro.serving.ExoServer`, opens two sessions with different
fair-share weights, replays a short mixed-kernel trace from each, then
prints per-tenant stats and the server's coalescing counters.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from ..kernels import kernel_by_abbrev
from .server import ExoServer
from .session import SessionQuotas
from .workload import TenantWorkload

#: Tenant name -> (kernel abbreviations replayed round-robin, weight).
DEFAULT_TENANTS = {
    "tenant-a": (["AlphaBlend", "ProcAmp"], 2.0),
    "tenant-b": (["BOB", "ADVDI"], 1.0),
}


async def _client(server: ExoServer, session, kernels: List[str],
                  requests: int, verify: bool) -> None:
    workloads = [TenantWorkload(session, kernel_by_abbrev(abbrev))
                 for abbrev in kernels]
    launches = []
    for i in range(requests):
        workload = workloads[i % len(workloads)]
        launch = workload.new_launch()
        launches.append((workload, launch))
    results = await asyncio.gather(*[
        server.submit(session, launch.program, bindings=launch.bindings,
                      surfaces=launch.surfaces)
        for _, launch in launches
    ])
    if verify:
        for (_, launch), _result in zip(launches, results):
            launch.verify(session)


async def serve_demo(tenants: Optional[Dict] = None, requests: int = 6,
                     devices: int = 2, engine: str = "megaop",
                     verify: bool = True,
                     fabric_workers: int = 0) -> ExoServer:
    """Run the demo trace; returns the stopped server for inspection."""
    tenants = tenants or DEFAULT_TENANTS
    async with ExoServer(num_devices=devices, engine=engine,
                         fabric_workers=fabric_workers) as server:
        sessions = {
            name: server.open_session(
                name, SessionQuotas(weight=weight, max_inflight=requests,
                                    max_surfaces=8 * requests,
                                    max_surface_bytes=64 << 20))
            for name, (_, weight) in tenants.items()
        }
        await asyncio.gather(*[
            _client(server, sessions[name], kernels, requests, verify)
            for name, (kernels, _) in tenants.items()
        ])
        for session in sessions.values():
            server.close_session(session)
    return server


def run_serving_demo(requests: int = 6, devices: int = 2,
                     engine: str = "megaop", verify: bool = True,
                     out=print, fabric_workers: int = 0) -> ExoServer:
    """Synchronous wrapper: run the demo and print a report."""
    server = asyncio.run(serve_demo(requests=requests, devices=devices,
                                    engine=engine, verify=verify,
                                    fabric_workers=fabric_workers))
    stats = server.stats
    out("serving demo: "
        f"{stats.sessions_opened} sessions, "
        f"{stats.launches_admitted} launches admitted, "
        f"{stats.launches_completed} completed, "
        f"{stats.batches_dispatched} batches "
        f"({stats.gangs_coalesced} coalesced, "
        f"{stats.coalesced_lanes} lanes)")
    for name in sorted(server.sessions):
        session = server.sessions[name]
        s = session.stats()
        out(f"  {name}: {s['completed']}/{s['launches']} launches, "
            f"{s['shreds_executed']} shreds, "
            f"{s['instructions']} instructions, "
            f"{s['gma_seconds'] * 1e3:.3f} ms simulated")
    if verify:
        out("  outputs verified bit-identical to kernel references")
    return server
