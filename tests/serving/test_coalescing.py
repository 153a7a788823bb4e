"""Cross-launch gang formation must be invisible to every tenant.

For each of the four flat (single-shred) kernels: eight same-program
requests served one at a time (scalar fallback — one lane is no gang)
and eight queued together (one coalesced gang) must produce
bit-identical output surfaces and identical per-request ``ShredRun``
counters.  Inputs are seeded per request, so lane k of the gang and
solo request k see the same frame.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ServingError
from repro.gma import megaop
from repro.isa.assembler import assemble
from repro.isa.types import DataType
from repro.kernels import kernel_by_abbrev
from repro.serving import ExoServer, SessionQuotas, TenantWorkload
from repro.serving.coalescer import demux

FLAT_KERNELS = ("AlphaBlend", "BOB", "ADVDI", "ProcAmp")
LANES = 8

RUN_FIELDS = ("instructions", "issue_cycles", "bytes_read",
              "bytes_written", "sampler_samples", "atr_events",
              "ceh_events", "spawned")


async def _serve_kernel(abbrev: str, coalesce: bool, seed: int = 7):
    """Returns (results, outputs) for LANES seeded requests."""
    async with ExoServer(num_devices=1, engine="megaop") as server:
        session = server.open_session(
            "t", SessionQuotas(max_inflight=LANES,
                               max_surfaces=8 * LANES,
                               max_surface_bytes=64 << 20,
                               max_descriptors=4 * LANES))
        workload = TenantWorkload(session, kernel_by_abbrev(abbrev),
                                  seed=seed)
        launches = [workload.new_launch() for _ in range(LANES)]
        if coalesce:
            results = await asyncio.gather(*[
                server.submit(session, launch.program,
                              bindings=launch.bindings,
                              surfaces=launch.surfaces)
                for launch in launches
            ])
        else:
            results = [
                await server.submit(session, launch.program,
                                    bindings=launch.bindings,
                                    surfaces=launch.surfaces)
                for launch in launches
            ]
        outputs = [
            {name: launch.surfaces[name].download(session.space)
             for name in launch.expected}
            for launch in launches
        ]
        for launch in launches:
            launch.verify(session)
        return results, outputs, server.stats


@pytest.mark.parametrize("abbrev", FLAT_KERNELS)
def test_coalesced_bit_identical_to_solo(abbrev):
    solo_results, solo_outputs, solo_stats = asyncio.run(
        _serve_kernel(abbrev, coalesce=False))
    gang_results, gang_outputs, gang_stats = asyncio.run(
        _serve_kernel(abbrev, coalesce=True))

    # the two modes really took different paths
    assert solo_stats.gangs_coalesced == 0
    assert gang_stats.gangs_coalesced >= 1
    assert gang_stats.coalesced_lanes == LANES

    for k in range(LANES):
        for name in solo_outputs[k]:
            np.testing.assert_array_equal(
                solo_outputs[k][name], gang_outputs[k][name],
                err_msg=f"{abbrev} request {k} output {name!r} diverged")
        solo, gang = solo_results[k], gang_results[k]
        assert solo.shreds == gang.shreds == 1
        assert gang.coalesced_requests > 1
        assert solo.coalesced_requests == 1
        for field in RUN_FIELDS:
            s = getattr(solo.runs[0], field)
            g = getattr(gang.runs[0], field)
            assert s == g, (f"{abbrev} request {k}: {field} "
                            f"solo={s} coalesced={g}")


def test_coalescing_respects_program_identity():
    """Launches of *different* kernels from one session never merge."""
    async def scenario():
        async with ExoServer(num_devices=1, engine="megaop") as server:
            session = server.open_session(
                "t", SessionQuotas(max_inflight=8, max_surfaces=64,
                                   max_surface_bytes=64 << 20))
            wa = TenantWorkload(session, kernel_by_abbrev("AlphaBlend"))
            wb = TenantWorkload(session, kernel_by_abbrev("BOB"))
            launches = [wa.new_launch(), wb.new_launch(),
                        wa.new_launch(), wb.new_launch()]
            results = await asyncio.gather(*[
                server.submit(session, launch.program,
                              bindings=launch.bindings,
                              surfaces=launch.surfaces)
                for launch in launches
            ])
            for launch in launches:
                launch.verify(session)
            # AlphaBlend pair coalesced with itself, BOB with itself
            for result in results:
                assert result.coalesced_requests == 2
            assert server.stats.batches_dispatched == 2
    asyncio.run(scenario())


# -- demux attribution: transitive parent chains -----------------------------

def _run(shred_id, parent_id=None):
    return SimpleNamespace(
        shred=SimpleNamespace(shred_id=shred_id, parent_id=parent_id))


def _request(ident, *shred_ids):
    return SimpleNamespace(
        ident=ident,
        shreds=[SimpleNamespace(shred_id=s) for s in shred_ids])


class TestDemuxAttribution:
    def test_transitive_chain_when_descendants_retire_first(self):
        """Regression: a grandchild retiring before its parent.  The old
        single forward walk only knew launch-time shreds and already-
        attributed parents, so run order [grandchild, child, root] was
        unattributable and the whole batch failed."""
        requests = [_request(0, 1)]
        merged = SimpleNamespace(runs=[_run(3, 2), _run(2, 1), _run(1)])
        out = demux(requests, merged)
        assert [r.shred.shred_id for r in out[0]] == [3, 2, 1]

    def test_interleaved_generations_across_requests(self):
        requests = [_request(0, 1), _request(1, 10)]
        merged = SimpleNamespace(runs=[
            _run(12, 11), _run(3, 2), _run(11, 10),
            _run(2, 1), _run(10), _run(1),
        ])
        out = demux(requests, merged)
        assert [r.shred.shred_id for r in out[0]] == [3, 2, 1]
        assert [r.shred.shred_id for r in out[1]] == [12, 11, 10]

    def test_parent_cycle_raises(self):
        requests = [_request(0, 1)]
        merged = SimpleNamespace(runs=[_run(1), _run(5, 6), _run(6, 5)])
        with pytest.raises(ServingError, match="cycle"):
            demux(requests, merged)

    def test_orphan_run_raises(self):
        requests = [_request(0, 1)]
        merged = SimpleNamespace(runs=[_run(1), _run(9)])
        with pytest.raises(ServingError, match="cannot attribute"):
            demux(requests, merged)


#: Two generations of on-device spawns: the root stores 1 and spawns a
#: child (arg 1), the child stores 2 and spawns a grandchild (arg 2),
#: the grandchild stores 3.
NESTED_SPAWN_ASM = """
mov.1.dw vr1 = __spawn_arg
cmp.eq.1.dw p1 = vr1, 0
(!p1) jmp gen1
st.1.dw (OUT, 0, 0) = 1
spawn 1
end
gen1:
cmp.eq.1.dw p2 = vr1, 1
(!p2) jmp gen2
st.1.dw (OUT, 1, 0) = 2
spawn 2
end
gen2:
st.1.dw (OUT, 2, 0) = 3
end
"""


def test_coalesced_nested_spawns_attribute_per_request():
    """Regression: nested spawns inside a coalesced batch.  Each of the
    four riders must get back exactly its own three-generation lineage,
    with the spawned work landing on the spawning request's ledger."""
    async def scenario():
        async with ExoServer(num_devices=1, engine="megaop") as server:
            session = server.open_session(
                "t", SessionQuotas(max_inflight=8, max_surfaces=16,
                                   max_surface_bytes=64 << 20,
                                   max_descriptors=32))
            program = assemble(NESTED_SPAWN_ASM, name="nested-spawn")
            surfs = [session.alloc_surface(f"OUT{k}", 4, 1, DataType.DW)
                     for k in range(4)]
            results = await asyncio.gather(*[
                server.submit(session, program,
                              bindings=[{"__spawn_arg": 0.0}],
                              surfaces={"OUT": surfs[k]})
                for k in range(4)
            ])
            for k, result in enumerate(results):
                assert result.shreds == 3, \
                    f"request {k}: root + child + grandchild"
                assert result.spawned == 2
                got = surfs[k].download(session.space).reshape(-1)
                np.testing.assert_array_equal(got, [1.0, 2.0, 3.0, 0.0])
            assert server.stats.launches_completed == 4
            return server.stats
    stats = asyncio.run(scenario())
    assert stats.gangs_coalesced >= 1  # the batch really merged


def test_gang_engine_engages_under_coalescing():
    """The point of the tentpole: coalesced flat kernels retire on the
    gang path (zero scalar fallbacks), solo ones cannot."""
    _, _, solo_stats = asyncio.run(
        _serve_kernel("AlphaBlend", coalesce=False))
    _, _, gang_stats = asyncio.run(
        _serve_kernel("AlphaBlend", coalesce=True))
    assert gang_stats.gangs_coalesced >= 1
    assert solo_stats.gangs_coalesced == 0


LOOP_ASM = """
iota.16.f vr1
mov.1.dw vr2 = 0
loop:
mad.16.f vr3 = vr1, vr1, vr1
add.1.dw vr2 = vr2, 1
cmp.lt.1.dw p1 = vr2, iters
br p1, loop
end
"""


def test_coalesced_batches_hit_promoted_megaops_across_launches(
        monkeypatch):
    """The megaop cache is keyed by program, not by launch: the first
    coalesced batch profiles and promotes the hot loop, the second one
    reuses the compiled megaop without recompiling."""
    monkeypatch.setattr(megaop, "PROMOTE_THRESHOLD", 2)
    program = assemble(LOOP_ASM, name="serving-megaop-loop")

    async def scenario():
        async with ExoServer(num_devices=1, engine="megaop") as server:
            session = server.open_session(
                "t", SessionQuotas(max_inflight=8, max_surfaces=8,
                                   max_surface_bytes=1 << 20,
                                   max_descriptors=32))
            snapshots = []
            for _ in range(2):
                await asyncio.gather(*[
                    server.submit(session, program,
                                  bindings=[{"iters": 40.0}])
                    for _ in range(4)
                ])
                stats = server.runtime_stats()
                snapshots.append((stats.megaop_compiles,
                                  stats.megaops_retired,
                                  stats.gangs_coalesced))
            return snapshots

    (compiles1, retired1, coalesced1), (compiles2, retired2, coalesced2) \
        = asyncio.run(scenario())
    assert coalesced1 >= 1 and coalesced2 >= 2  # both batches merged
    assert compiles1 == 1          # the first batch promotes the cycle
    assert retired1 > 0
    assert compiles2 == compiles1  # warm cache: no recompile
    assert retired2 > retired1     # ...but the second batch still hits it


def test_coalesced_gang_survives_request_divergence():
    """One rider's lanes exit the shared loop early: the gang splits at
    the loop-exit branch, compacts the survivors (still coalesced), and
    re-admits the early riders at the reconvergence point.  Demux must
    hand every request exactly its solo accounting, and the admission
    EWMAs must see one batch at the full coalesced width — not a
    scalar-fallback stampede."""
    program = assemble(LOOP_ASM, name="serving-divergent-loop")
    iters = [40.0] * 6 + [12.0] * 2

    async def scenario(coalesce):
        async with ExoServer(num_devices=1, engine="megaop") as server:
            session = server.open_session(
                "t", SessionQuotas(max_inflight=8, max_surfaces=8,
                                   max_surface_bytes=1 << 20,
                                   max_descriptors=32))
            if coalesce:
                results = await asyncio.gather(*[
                    server.submit(session, program,
                                  bindings=[{"iters": it}])
                    for it in iters
                ])
            else:
                results = [await server.submit(session, program,
                                               bindings=[{"iters": it}])
                           for it in iters]
            return (results, server.runtime_stats(),
                    server.admission._width_ewma)

    solo_results, _, _ = asyncio.run(scenario(False))
    gang_results, gang_stats, width = asyncio.run(scenario(True))

    # the batch merged and stayed merged straight through the divergence
    assert gang_stats.gangs_coalesced >= 1
    assert gang_stats.gang_repacks >= 1
    assert gang_stats.lanes_readmitted == 2   # the two early riders
    assert gang_stats.scalar_fallbacks == 0   # nobody retired on scalar
    # admission saw one batch of eight riders, not eight narrow batches
    assert width == pytest.approx(8.0)
    # demux attribution: every rider gets back its exact solo accounting
    for k, (solo, gang) in enumerate(zip(solo_results, gang_results)):
        assert solo.shreds == gang.shreds == 1
        assert gang.coalesced_requests == 8
        for field in RUN_FIELDS:
            s = getattr(solo.runs[0], field)
            g = getattr(gang.runs[0], field)
            assert s == g, f"request {k}: {field} solo={s} coalesced={g}"
