"""Serving on process workers: the same answers as in-process slots.

``ExoServer(fabric_workers=N)`` places its slots on the fabric's
worker-hosted device fronts.  A coalesced burst must demux bit-identically
to the in-process server, a tenant's frees must reach the worker's
translations, and nothing the pool made may outlive ``stop()`` — whether
or not the server ever started.
"""

from __future__ import annotations

import asyncio
import multiprocessing
from pathlib import Path

import numpy as np

from repro.kernels import kernel_by_abbrev
from repro.serving import ExoServer, SessionQuotas, TenantWorkload

from .test_coalescing import RUN_FIELDS

BURST = 4


def _leftovers():
    """Live child processes and shared-memory segments, by identity."""
    return ({p.pid for p in multiprocessing.active_children()},
            {p.name for p in Path("/dev/shm").glob("psm_*")})


async def _burst(server):
    """One AlphaBlend burst; returns (results, outputs, translations
    before and after freeing the first launch's surfaces)."""
    session = server.open_session(
        "t", SessionQuotas(max_inflight=BURST, max_surfaces=8 * BURST,
                           max_surface_bytes=64 << 20))
    workload = TenantWorkload(session, kernel_by_abbrev("AlphaBlend"),
                              seed=11)
    launches = [workload.new_launch() for _ in range(BURST)]
    results = await asyncio.gather(*[
        server.submit(session, launch.program, bindings=launch.bindings,
                      surfaces=launch.surfaces)
        for launch in launches
    ])
    outputs = [{name: launch.surfaces[name].download(session.space)
                for name in launch.expected} for launch in launches]
    for launch in launches:
        launch.verify(session)
    translations = []
    slot = server.slots[0]
    if slot.worker is not None:
        translations.append(slot.worker.translation_count(slot.name,
                                                          session.space))
        workload.release(launches[0])
        translations.append(slot.worker.translation_count(slot.name,
                                                          session.space))
    return results, outputs, translations


def _serve(**server_kwargs):
    async def scenario():
        async with ExoServer(num_devices=2, **server_kwargs) as server:
            results, outputs, translations = await _burst(server)
            return results, outputs, translations, server.stats
    return asyncio.run(scenario())


def test_coalesced_burst_matches_in_process_server():
    before = _leftovers()
    local, local_out, _, local_stats = _serve()
    remote, remote_out, translations, remote_stats = _serve(
        fabric_workers=2)

    for stats in (local_stats, remote_stats):
        assert stats.gangs_coalesced == 1
        assert stats.coalesced_lanes == BURST
    for k in range(BURST):
        for name in local_out[k]:
            np.testing.assert_array_equal(
                remote_out[k][name], local_out[k][name],
                err_msg=f"request {k} output {name!r} diverged")
        assert remote[k].coalesced_requests == BURST
        assert remote[k].seconds == local[k].seconds
        assert len(remote[k].runs) == len(local[k].runs) == 1
        for field in RUN_FIELDS:
            got = getattr(remote[k].runs[0], field)
            want = getattr(local[k].runs[0], field)
            assert got == want, f"request {k}: {field} {got} != {want}"

    # the tenant's free reached the worker's view of its space
    held, after_free = translations
    assert 0 < after_free < held
    # and stop() reaped the workers and every segment they used
    assert _leftovers() == before


def test_stop_without_start_releases_the_pool():
    before = _leftovers()
    server = ExoServer(fabric_workers=1)
    assert server.fabric_pool is not None
    asyncio.run(server.stop())
    assert server.fabric_pool is None
    assert _leftovers() == before
