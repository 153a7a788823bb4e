"""ChiRuntime routing parallel constructs through the device fabric."""

import numpy as np
import pytest

from repro.chi import ChiRuntime, ExoPlatform
from repro.errors import SchedulingError
from repro.fabric import AdmissionPolicy, FabricRunResult
from repro.gma.firmware import GmaRunResult
from repro.isa.types import DataType
from repro.memory.surface import Surface

KERNEL = """
    mul.1.dw vr1 = tid, 3
    add.1.dw vr2 = vr1, 1
    end
"""

SAMPLE = """
    mov.4.f vr1 = 0.5
    mov.4.f vr2 = 0.5
    sample.4.f vr3 = (T, vr1, vr2)
    st.4.f (O, 0, 0) = vr3
    end
"""


def runtime(**platform_kwargs):
    return ChiRuntime(ExoPlatform(**platform_kwargs))


class TestMultiDeviceRouting:
    def test_single_device_keeps_gma_run_result(self):
        region = runtime().parallel(KERNEL, num_threads=8)
        assert isinstance(region.result, GmaRunResult)
        assert region.result.shreds_executed == 8

    def test_two_devices_split_the_batch(self):
        rt = runtime(num_gma_devices=2)
        region = rt.parallel(KERNEL, num_threads=64)
        assert isinstance(region.result, FabricRunResult)
        assert region.result.shreds_executed == 64
        shreds = rt.stats.device_shreds
        assert shreds["gma0"] + shreds["gma1"] == 64
        # identical devices, identical shreds: the split is balanced
        assert abs(shreds["gma0"] - shreds["gma1"]) <= 2

    def test_two_devices_strictly_faster_than_one(self):
        single = runtime().parallel(KERNEL, num_threads=128)
        dual = runtime(num_gma_devices=2).parallel(KERNEL, num_threads=128)
        assert dual.gma_seconds < single.gma_seconds

    def test_unknown_target_isa(self):
        with pytest.raises(SchedulingError, match="no accelerator"):
            runtime().parallel(KERNEL, num_threads=4, target="SPE")

    def test_per_device_stats_accumulate(self):
        rt = runtime(num_gma_devices=2)
        rt.parallel(KERNEL, num_threads=32)
        rt.parallel(KERNEL, num_threads=32)
        stats = rt.stats
        assert set(stats.device_seconds) == {"gma0", "gma1"}
        assert all(s > 0 for s in stats.device_seconds.values())
        assert sum(stats.device_shreds.values()) == 64
        # regions span their slowest device; per-device busy times sum
        assert stats.gma_seconds <= sum(stats.device_seconds.values())

    def test_timeline_gets_one_span_per_device(self):
        rt = runtime(num_gma_devices=2)
        rt.parallel(KERNEL, num_threads=64)
        labels = {label for _, _, label in rt.timeline.events}
        assert "gma-region:gma0" in labels
        assert "gma-region:gma1" in labels

    def test_single_device_label_unchanged(self):
        rt = runtime()
        rt.parallel(KERNEL, num_threads=8)
        labels = [label for _, _, label in rt.timeline.events]
        assert labels == ["gma-region"]


class TestDependenciesAcrossTheFabric:
    def chain(self, queue, program, length):
        handles = []
        for _ in range(length):
            depends = handles[-1:] if handles else []
            handles.append(queue.task(program, depends=depends))
        return handles

    def test_dependency_chains_stay_on_one_device(self):
        rt = runtime(num_gma_devices=2)
        program = "end"
        with rt.taskq() as q:
            chains = [self.chain(q, program, 3) for _ in range(4)]
        result = q.region.result
        reports = (result.reports if isinstance(result, FabricRunResult)
                   else None)
        assert reports is not None and len(reports) == 2
        located = {run.shred.shred_id: report.device
                   for report in reports
                   for res in report.results for run in res.runs}
        for chain in chains:
            devices = {located[h.shred_id] for h in chain}
            assert len(devices) == 1  # producer and consumers co-located

    def test_both_devices_used_for_independent_chains(self):
        rt = runtime(num_gma_devices=2)
        with rt.taskq() as q:
            for _ in range(6):
                self.chain(q, "end", 2)
        assert set(rt.stats.device_shreds) == {"gma0", "gma1"}


class TestBackpressureThroughTheRuntime:
    def test_overflow_raises_from_parallel(self):
        rt = runtime(queue_depth=4)
        with pytest.raises(SchedulingError, match="overflow on 'gma0'"):
            rt.parallel(KERNEL, num_threads=10)

    def test_block_policy_completes_but_pays(self):
        free = runtime().parallel(KERNEL, num_threads=32)
        blocked = runtime(
            queue_depth=8,
            admission_policy=AdmissionPolicy.BLOCK,
        ).parallel(KERNEL, num_threads=32)
        assert blocked.result.shreds_executed == 32
        assert len(blocked.result.timing.spans) == 32
        # four serialized sub-batch drains cost real simulated time
        assert blocked.gma_seconds > free.gma_seconds

    def test_string_policy_accepted_by_platform(self):
        rt = runtime(queue_depth=8, admission_policy="block")
        region = rt.parallel(KERNEL, num_threads=20)
        assert region.result.shreds_executed == 20


class TestFeatureFanOut:
    def test_sampler_filter_reaches_every_gma_device(self):
        rt = runtime(num_gma_devices=3)
        rt.chi_set_feature("X3000", "sampler_filter", "nearest")
        for device in rt.platform.gma_devices:
            assert device.gma.sampler.filter_mode == "nearest"

    def test_sampler_filter_reaches_local_device_of_worker_platform(self):
        """In worker mode ``platform.device`` is a local, unregistered GMA
        (the debugger's device); the global feature must reach it too,
        and the platform must leave no worker or segment behind."""
        import multiprocessing
        from pathlib import Path

        def leftovers():
            return ({p.pid for p in multiprocessing.active_children()},
                    {p.name for p in Path("/dev/shm").glob("psm_*")})

        before = leftovers()
        with ExoPlatform(fabric_workers=1) as platform:
            rt = ChiRuntime(platform)
            rt.chi_set_feature("X3000", "sampler_filter", "nearest")
            assert platform.device.sampler.filter_mode == "nearest"
            for device in platform.gma_devices:
                assert device.sampler_filter == "nearest"
        assert leftovers() == before

    @pytest.mark.parametrize("mode, texel", [("bilinear", 100.0),
                                              ("nearest", 200.0)])
    def test_sampler_filter_reaches_worker_hosted_devices(self, mode, texel):
        """One sampling region reads the same, bit for bit, in process
        and on a fabric worker: the filter travels with each launch."""
        def sample(**platform_kwargs):
            with ExoPlatform(**platform_kwargs) as platform:
                rt = ChiRuntime(platform)
                tex = Surface.alloc(platform.space, "T", 4, 4, DataType.UB)
                out = Surface.alloc(platform.space, "O", 4, 1, DataType.F)
                tex.upload(platform.host,
                           np.array([[0, 100], [200, 60]] * 2,
                                    dtype=float).repeat(2, axis=1))
                rt.chi_set_feature("X3000", "sampler_filter", mode)
                rt.parallel(SAMPLE, shared={"T": tex, "O": out},
                            num_threads=1)
                return out.download(platform.host)

        local = sample()
        remote = sample(fabric_workers=1)
        assert local[0, 0] == texel
        np.testing.assert_array_equal(remote, local)

    def test_priority_orders_multi_device_dispatch(self):
        rt = runtime(num_gma_devices=2)
        with rt.taskq() as q:
            handles = [q.task("end") for _ in range(8)]
            rt.chi_set_feature_pershred("X3000", handles[-1].shred_id,
                                        "priority", 9)
        assert q.region.result.shreds_executed == 8
