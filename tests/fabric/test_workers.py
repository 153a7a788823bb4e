"""Cross-process fabric workers: coherence, determinism, crash paths."""

import pickle

import numpy as np
import pytest

from repro.chi import ChiRuntime, ExoPlatform
from repro.errors import FabricError, TlbMiss
from repro.exo.shred import ShredDescriptor
from repro.fabric import FabricRunResult
from repro.fabric.workers import (
    WORKER_SHRED_ID_BASE,
    ProcessGmaFabricDevice,
    ProcessWorkerPool,
)
from repro.isa.assembler import assemble
from repro.isa.types import DataType
from repro.memory.address_space import AddressSpace
from repro.memory.physical import PhysicalMemory
from repro.memory.surface import Surface

SIZE = 16 * 1024 * 1024

KERNEL = """
    mul.1.dw vr1 = tid, 3
    add.1.dw vr2 = vr1, 1
    st.1.dw (OUT, tid, 0) = vr2
    end
"""


@pytest.fixture
def pool():
    physical = PhysicalMemory(size=SIZE, backing="shared")
    space = AddressSpace(physical=physical)
    pool = ProcessWorkerPool(physical, num_workers=2)
    pool.adopt_space(space)
    try:
        yield pool, space
    finally:
        pool.close()
        physical.close()


def _shreds(space, n=32, name="OUT"):
    out = Surface.alloc(space, name, n, 1, DataType.DW)
    program = assemble(KERNEL)
    return out, [ShredDescriptor(program=program, bindings={"tid": i},
                                 surfaces={name: out}) for i in range(n)]


class TestPoolSetup:
    def test_requires_shared_backing(self):
        physical = PhysicalMemory(size=SIZE)  # local
        with pytest.raises(FabricError, match="shared-memory"):
            ProcessWorkerPool(physical, num_workers=1)

    def test_requires_a_worker(self):
        physical = PhysicalMemory(size=SIZE, backing="shared")
        try:
            with pytest.raises(FabricError, match="at least one"):
                ProcessWorkerPool(physical, num_workers=0)
        finally:
            physical.close()

    def test_foreign_space_rejected(self, pool):
        workers, _ = pool
        other = AddressSpace()  # its own local physical
        with pytest.raises(FabricError, match="not backed"):
            workers.adopt_space(other)

    def test_ping(self, pool):
        workers, _ = pool
        assert all(w.ping() for w in workers.workers)


class TestRemoteExecution:
    def test_results_match_kernel_semantics(self, pool):
        workers, space = pool
        out, shreds = _shreds(space, n=64)
        dev = ProcessGmaFabricDevice("gma0", workers.worker_for(0), space,
                                     workers.gma_config)
        report = dev.run_shreds(shreds)
        assert report.shreds == 64
        assert report.worker == "worker0"
        assert report.seconds > 0.0
        got = out.download(space).reshape(-1)
        np.testing.assert_array_equal(got, np.arange(64) * 3 + 1)

    def test_remote_matches_local_bit_for_bit(self, pool):
        workers, space = pool
        out_r, shreds_r = _shreds(space, n=16)
        dev = ProcessGmaFabricDevice("gma0", workers.worker_for(0), space,
                                     workers.gma_config)
        dev.run_shreds(shreds_r)

        local_space = AddressSpace()
        out_l, shreds_l = _shreds(local_space, n=16)
        from repro.gma.device import GmaDevice

        GmaDevice(local_space, config=workers.gma_config).run(shreds_l)
        np.testing.assert_array_equal(out_r.download(space),
                                      out_l.download(local_space))

    def test_spawned_shreds_use_worker_id_band(self, pool):
        workers, space = pool
        out = Surface.alloc(space, "OUT", 2, 1, DataType.DW)
        program = assemble("""
            mov.1.dw vr1 = __spawn_arg
            cmp.eq.1.dw p1 = vr1, 0
            (!p1) jmp child
            st.1.dw (OUT, 0, 0) = 1
            spawn 7
            end
        child:
            st.1.dw (OUT, 1, 0) = vr1
            end
        """)
        shred = ShredDescriptor(program=program,
                                bindings={"__spawn_arg": 0.0},
                                surfaces={"OUT": out})
        worker = workers.worker_for(1)
        report = worker.launch("gma1", space, [shred])
        result = report.results[0]
        assert result.spawned_shreds == 1
        spawned_ids = [run.shred.shred_id for run in result.runs
                       if run.shred.parent_id is not None]
        assert spawned_ids
        assert all(sid >= WORKER_SHRED_ID_BASE for sid in spawned_ids)
        assert out.download(space).reshape(-1).tolist() == [1.0, 7.0]


class TestDescriptorPickling:
    def test_descriptor_round_trip_equality(self, pool):
        """What goes over the pipe is what arrives: every launch-relevant
        field of the descriptor survives pickling bit-for-bit."""
        _, space = pool
        out, shreds = _shreds(space, n=4)
        clones = pickle.loads(pickle.dumps(shreds))
        for orig, clone in zip(shreds, clones):
            assert clone.shred_id == orig.shred_id
            assert clone.parent_id == orig.parent_id
            assert clone.entry == orig.entry
            assert clone.bindings == orig.bindings
            assert clone.depends_on == orig.depends_on
            assert clone.program.name == orig.program.name
            assert clone.program.source == orig.program.source
            assert len(clone.program.instructions) == \
                len(orig.program.instructions)
            for name, surf in orig.surfaces.items():
                csurf = clone.surfaces[name]
                assert (csurf.base, csurf.nbytes) == (surf.base, surf.nbytes)

    def test_pickle_preserves_program_identity_within_batch(self, pool):
        """Gang eligibility needs one program *object* per batch; pickle
        memoization must keep shared identity across a batch's shreds."""
        _, space = pool
        _, shreds = _shreds(space, n=8)
        clones = pickle.loads(pickle.dumps(shreds))
        assert len({id(c.program) for c in clones}) == 1


class TestCrossProcessShootdown:
    def test_free_invalidates_remote_translations(self, pool):
        workers, space = pool
        out, shreds = _shreds(space, n=32)
        worker = workers.worker_for(0)
        dev = ProcessGmaFabricDevice("gma0", worker, space,
                                     workers.gma_config)
        dev.run_shreds(shreds)
        assert worker.translation_count("gma0", space) > 0
        probe = [out.base + 4 * i for i in range(4)]
        worker.probe_gather("gma0", space, probe, np.float32)  # warm: ok

        space.free(out.base)

        # the worker's mirror PTEs, GTT and TLB are gone before free()
        # returned; a stale-translation access now faults remotely
        assert worker.translation_count("gma0", space) == 0
        with pytest.raises(TlbMiss):
            worker.probe_gather("gma0", space, [out.base], np.float32)

    def test_shootdown_only_reaches_workers_that_saw_the_space(self, pool):
        workers, space = pool
        out, shreds = _shreds(space, n=32)
        dev = ProcessGmaFabricDevice("gma0", workers.worker_for(0), space,
                                     workers.gma_config)
        dev.run_shreds(shreds)
        w0, w1 = workers.workers
        assert w0.seen_keys and not w1.seen_keys
        space.free(out.base)  # must not hang on the idle worker


class TestFaultProxy:
    def test_resolve_fault_returns_pte_snapshot(self, pool):
        workers, space = pool
        out = Surface.alloc(space, "OUT", 8, 1, DataType.DW)
        key = workers.space_key(space)
        kind, ptes = workers.resolve_fault(key, [out.base], write=True)
        assert kind == "fault-ok"
        assert ptes  # the page is now mapped parent-side
        assert space.page_table.entry(out.base >> 12)

    def test_resolve_fault_unknown_key(self, pool):
        workers, _ = pool
        kind, payload = workers.resolve_fault(9999, [0x1000], write=False)
        assert kind == "fault-err"
        assert isinstance(payload, FabricError)


class TestStagedLaunchPayloads:
    def test_launches_ride_the_staging_segment(self, pool):
        """Default-size payloads go through shared memory; the pipe
        carries only the control message."""
        workers, space = pool
        _, shreds = _shreds(space, n=32)
        worker = workers.worker_for(0)
        worker.launch("gma0", space, shreds)
        assert worker.staged_launches == 1
        assert worker.piped_launches == 0
        assert workers.staged_launches == 1

    def test_oversized_payload_falls_back_to_pipe(self, pool):
        workers, space = pool
        _, shreds = _shreds(space, n=16)
        worker = workers.worker_for(1)

        class _TinySegment:
            size = 0  # nothing fits: every launch is "oversized"

        staging, worker.staging = worker.staging, _TinySegment()
        try:
            worker.launch("gma1", space, shreds)
        finally:
            worker.staging = staging
        assert worker.piped_launches == 1
        assert worker.staged_launches == 0

    def test_staged_and_piped_results_identical(self, pool):
        workers, space = pool
        out_s, shreds = _shreds(space, n=8, name="OUT")
        worker = workers.worker_for(0)
        staged = worker.launch("gma0", space, shreds[:4])
        staging, worker.staging = worker.staging, None
        try:
            piped = worker.launch("gma0", space, shreds[4:])
        finally:
            worker.staging = staging
        assert staged.results[0].instructions == \
            piped.results[0].instructions

    def test_crashed_worker_staging_is_unlinked(self, pool):
        """``_dead`` marks the worker closed, but ``close()`` must still
        reap the process and unlink the staging segment."""
        from multiprocessing import shared_memory

        workers, space = pool
        worker = workers.worker_for(1)
        name = worker.staging.name
        worker.kill()
        with pytest.raises(FabricError, match="died|closed"):
            worker.ping()
        worker.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name, create=False)


class TestCrashRobustness:
    def test_killed_worker_raises_fabric_error_not_hang(self, pool):
        workers, space = pool
        _, shreds = _shreds(space, n=8)
        worker = workers.worker_for(1)
        worker.launch("gma1", space, shreds[:2])  # known-good first
        worker.kill()
        with pytest.raises(FabricError, match="died"):
            worker.launch("gma1", space, shreds[2:4])
        # subsequent use stays a clean error, not a broken pipe
        with pytest.raises(FabricError, match="closed"):
            worker.launch("gma1", space, shreds[4:6])

    def test_shootdown_skips_dead_worker(self, pool):
        workers, space = pool
        out, shreds = _shreds(space, n=8)
        worker = workers.worker_for(0)
        dev = ProcessGmaFabricDevice("gma0", worker, space,
                                     workers.gma_config)
        dev.run_shreds(shreds)
        worker.kill()
        space.free(out.base)  # dead worker holds no live translations

    def test_pool_close_is_idempotent(self, pool):
        workers, _ = pool
        workers.close()
        workers.close()


class TestPlatformIntegration:
    def test_fabric_workers_platform_end_to_end(self):
        with ExoPlatform(num_gma_devices=2, fabric_workers=2) as platform:
            rt = ChiRuntime(platform)
            out = Surface.alloc(platform.space, "OUT", 64, 1, DataType.DW)
            region = rt.parallel(KERNEL, num_threads=64,
                                 shared={"OUT": out})
            assert isinstance(region.result, FabricRunResult)
            assert region.result.shreds_executed == 64
            got = out.download(platform.space).reshape(-1)
            np.testing.assert_array_equal(got, np.arange(64) * 3 + 1)
            assert rt.stats.drains_process == 1
            shreds = rt.stats.device_shreds
            assert shreds["gma0"] + shreds["gma1"] == 64

    def test_platform_close_reaps_segment(self):
        platform = ExoPlatform(fabric_workers=1)
        name = platform.space.physical.shm_name
        assert name is not None
        platform.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name, create=False)

    def test_platform_close_is_idempotent(self):
        platform = ExoPlatform(fabric_workers=1)
        platform.close()
        platform.close()


class TestEngineValidation:
    """A name outside ``GmaDevice.ENGINES`` fails at construction on
    every layer, before any worker process or shared segment exists."""

    @staticmethod
    def _leftovers():
        import multiprocessing
        from pathlib import Path

        return ({p.pid for p in multiprocessing.active_children()},
                {p.name for p in Path("/dev/shm").glob("psm_*")})

    @pytest.mark.parametrize("workers", [0, 1])
    @pytest.mark.parametrize("engine", ["bogus", "gang", "fused"])
    def test_constructors_reject_and_leave_nothing(self, engine, workers):
        from repro.serving import ExoServer

        before = self._leftovers()
        with pytest.raises(ValueError, match="unknown GMA engine"):
            ExoPlatform(gma_engine=engine, fabric_workers=workers)
        with pytest.raises(ValueError, match="unknown GMA engine"):
            ExoServer(engine=engine, fabric_workers=workers)
        assert self._leftovers() == before
