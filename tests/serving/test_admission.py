"""Admission control: caps, retry-after, weighted fairness under load."""

from __future__ import annotations

import asyncio
import random
from types import SimpleNamespace

import pytest

from repro.errors import AdmissionRejected
from repro.fabric.queue import AdmissionPolicy
from repro.isa.assembler import assemble
from repro.serving import ExoServer, SessionQuotas
from repro.serving.admission import (
    UNSEEDED_RETRY_AFTER,
    AdmissionController,
)


#: A small but nontrivial shred: enough work that batches take real
#: (host) time, so contention actually queues.
LOOP_ASM = """
mov.1.dw vr1 = 0
loop:
add.1.dw vr1 = vr1, 1
cmp.lt.1.dw p1 = vr1, 40
br p1, loop
end
"""


def test_raise_policy_rejects_with_retry_after():
    async def scenario():
        async with ExoServer(num_devices=1,
                             admission_policy=AdmissionPolicy.RAISE,
                             coalesce_window=1) as server:
            session = server.open_session(
                "t", SessionQuotas(max_inflight=1))
            program = assemble(LOOP_ASM, name="loop")
            first = asyncio.ensure_future(
                server.submit(session, program, bindings=[{}]))
            await asyncio.sleep(0)  # first submit takes the inflight slot
            with pytest.raises(AdmissionRejected) as info:
                await server.submit(session, program, bindings=[{}])
            assert info.value.retry_after >= 0.0
            await first
            assert server.stats.launches_rejected == 1
            assert session.rejected == 1
    asyncio.run(scenario())


SERVING_COUNTERS = ("sessions_opened", "launches_admitted",
                    "launches_rejected", "gangs_coalesced",
                    "coalesced_lanes")


def test_runtime_stats_report_the_server_counters():
    """``runtime_stats()`` copies the serving counters the server keeps,
    each time it is asked, so the two views never drift."""
    def snapshot(server):
        stats = server.runtime_stats()
        got = {name: getattr(stats, name) for name in SERVING_COUNTERS}
        assert got == {name: getattr(server.stats, name)
                       for name in SERVING_COUNTERS}
        return got

    async def scenario():
        async with ExoServer(num_devices=1,
                             admission_policy=AdmissionPolicy.RAISE
                             ) as server:
            session = server.open_session(
                "t", SessionQuotas(max_inflight=2))
            program = assemble(LOOP_ASM, name="loop")
            await asyncio.gather(*[
                server.submit(session, program, bindings=[{}])
                for _ in range(2)
            ])
            first = snapshot(server)
            held = [asyncio.ensure_future(
                        server.submit(session, program, bindings=[{}]))
                    for _ in range(2)]
            await asyncio.sleep(0)  # both take the inflight slots
            with pytest.raises(AdmissionRejected):
                await server.submit(session, program, bindings=[{}])
            await asyncio.gather(*held)
            return first, snapshot(server)

    first, second = asyncio.run(scenario())
    assert first["sessions_opened"] == 1
    assert first["launches_admitted"] == 2
    assert first["launches_rejected"] == 0
    assert second["launches_admitted"] == 4
    assert second["launches_rejected"] == 1
    assert second["coalesced_lanes"] >= first["coalesced_lanes"]


def test_block_policy_waits_instead_of_raising():
    async def scenario():
        async with ExoServer(num_devices=1,
                             admission_policy=AdmissionPolicy.BLOCK,
                             coalesce_window=1) as server:
            session = server.open_session(
                "t", SessionQuotas(max_inflight=1))
            program = assemble(LOOP_ASM, name="loop")
            results = await asyncio.gather(*[
                server.submit(session, program, bindings=[{}])
                for _ in range(4)
            ])
            assert len(results) == 4
            assert server.stats.launches_rejected == 0
            assert server.stats.launches_completed == 4
    asyncio.run(scenario())


def test_block_policy_fairness_under_contention():
    """With every tenant saturating one device, dequeue is weighted
    fair: equal weights drain interleaved, not one tenant first."""
    async def scenario():
        async with ExoServer(num_devices=1, coalesce_window=1,
                             admission_policy=AdmissionPolicy.BLOCK
                             ) as server:
            program = assemble(LOOP_ASM, name="loop")
            sessions = [
                server.open_session(f"t{i}",
                                    SessionQuotas(max_inflight=8))
                for i in range(3)
            ]
            await asyncio.gather(*[
                server.submit(session, program, bindings=[{}])
                for _ in range(6)
                for session in sessions
            ])
            order = [entry["session"] for entry in server.trace_log]
            # no tenant's whole stream drains before another starts:
            # within any window of 3 batches all tenants must appear
            # once the queue is saturated
            for start in range(3, len(order) - 3):
                window = set(order[start:start + 3])
                assert len(window) == 3, \
                    f"unfair window {order[start:start + 3]} in {order}"
    asyncio.run(scenario())


def test_weighted_tenant_gets_proportional_share():
    """Stride accounting: a weight-2 tenant's first K dispatches finish
    by the time a weight-1 tenant gets K/2 (2:1 interleave)."""
    async def scenario():
        async with ExoServer(num_devices=1, coalesce_window=1,
                             admission_policy=AdmissionPolicy.BLOCK
                             ) as server:
            program = assemble(LOOP_ASM, name="loop")
            heavy = server.open_session(
                "heavy", SessionQuotas(max_inflight=12, weight=2.0))
            light = server.open_session(
                "light", SessionQuotas(max_inflight=12, weight=1.0))
            await asyncio.gather(*[
                server.submit(session, program, bindings=[{}])
                for session in (heavy, light)
                for _ in range(9)
            ])
            order = [entry["session"] for entry in server.trace_log]
            # count heavy's dispatches among the first 9 steady-state
            # batches: 2:1 stride means at least 5
            steady = order[3:12]
            assert steady.count("heavy") >= 5, order
    asyncio.run(scenario())


def test_controller_retry_after_scales_with_backlog():
    ctrl = AdmissionController(max_pending=4)
    ctrl.note_service(1, 0.1)
    empty = ctrl.retry_after(slots=2)
    ctrl.pending = 4
    full = ctrl.retry_after(slots=2)
    assert full > empty > 0.0


def test_retry_after_unseeded_is_nominal_floor():
    ctrl = AdmissionController()
    assert ctrl.retry_after(slots=4) == UNSEEDED_RETRY_AFTER


def test_retry_after_tracks_batch_wall_under_coalescing():
    """Regression: the old model charged ``wall / len(requests)`` per
    request, so a 0.8 s drain carrying an 8-way coalesced gang looked
    like 0.1 s of service and retry_after collapsed ~8x below the time
    the next batch actually takes."""
    ctrl = AdmissionController()
    for _ in range(3):
        ctrl.note_service(8, 0.8)  # steady state: 8 riders per drain
    ctrl.pending = 0
    est = ctrl.retry_after(slots=1)
    # a retry lands behind at least one drain: within 2x of batch wall
    assert 0.8 / 2 <= est <= 0.8 * 2


def test_retry_after_grows_with_backlog_under_coalescing():
    ctrl = AdmissionController()
    for _ in range(3):
        ctrl.note_service(8, 0.8)
    estimates = []
    for pending in (0, 8, 32, 64):
        ctrl.pending = pending
        estimates.append(ctrl.retry_after(slots=1))
    assert estimates == sorted(estimates)
    assert estimates[3] > estimates[1] > 0.0
    # 64 queued requests at 8-wide is ~8 batches behind, not 64
    assert estimates[3] <= 0.8 * (65 / 8 + 1)


# -- heap-based pick: pinned against the old linear scan ---------------------

def _stub_session(name: str, weight: float = 1.0):
    return SimpleNamespace(name=name,
                           quotas=SimpleNamespace(weight=weight))


def _stub_request(session, lanes: int = 1):
    return SimpleNamespace(session=session, shreds=[None] * lanes)


def _reference_pick(ctrl: AdmissionController):
    """The pre-heap implementation, verbatim: linear scan for the
    backlogged session with the smallest ``(vtime, name)``."""
    best = None
    for name, queue in ctrl._queues.items():
        if not queue:
            continue
        vt = ctrl._vtime.get(name, 0.0)
        if best is None or (vt, name) < best:
            best = (vt, name)
    return best[1] if best else None


def test_pick_breaks_vtime_ties_by_name():
    ctrl = AdmissionController()
    for name in ("zeta", "alpha", "mid"):
        ctrl.enqueue(_stub_request(_stub_session(name)))
    assert ctrl.pick() == "alpha"


def test_heap_pick_matches_linear_scan_throughout():
    """Dequeue order is pinned: at every step of an interleaved
    enqueue/pop sequence over weighted sessions, the heap pick must
    equal the old linear scan's choice."""
    rng = random.Random(1234)
    sessions = [_stub_session(f"s{i}", weight=w)
                for i, w in enumerate((1.0, 2.0, 0.5, 1.0, 3.0))]
    ctrl = AdmissionController(max_pending=10_000)
    pops = 0
    for _ in range(400):
        assert ctrl.pick() == _reference_pick(ctrl)
        if rng.random() < 0.6:
            ctrl.enqueue(_stub_request(rng.choice(sessions),
                                       lanes=rng.randint(1, 4)))
        else:
            name = ctrl.pick()
            if name is not None:
                ctrl.pop_batch(name, window=8)
                pops += 1
    while True:
        name = ctrl.pick()
        assert name == _reference_pick(ctrl)
        if name is None:
            break
        ctrl.pop_batch(name, window=8)
        pops += 1
    assert pops > 50  # the interleave actually exercised both paths
    assert ctrl.pending == 0


def test_server_pending_bound_rejects():
    async def scenario():
        async with ExoServer(num_devices=1, max_pending=2,
                             coalesce_window=1,
                             admission_policy=AdmissionPolicy.RAISE
                             ) as server:
            session = server.open_session(
                "t", SessionQuotas(max_inflight=64))
            program = assemble(LOOP_ASM, name="loop")
            futures = [
                asyncio.ensure_future(
                    server.submit(session, program, bindings=[{}]))
                for _ in range(2)
            ]
            await asyncio.sleep(0)
            # both pending slots are taken and the dispatcher has not
            # drained them yet on this tick
            if server.admission.pending >= 2:
                with pytest.raises(AdmissionRejected):
                    await server.submit(session, program, bindings=[{}])
            await asyncio.gather(*futures)
    asyncio.run(scenario())
