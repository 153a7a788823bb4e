"""Engine counters: runtime stats, fabric aggregation, trace export,
drain wall-clock, and the shared-mutable-default constructor fixes."""

from __future__ import annotations

import json
from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro.chi.platform import ExoPlatform
from repro.chi.runtime import ChiRuntime, RuntimeStats
from repro.exo.exoskeleton import Exoskeleton
from repro.exo.shred import ShredDescriptor
from repro.fabric.device import DeviceRunReport, FabricRunResult
from repro.fabric.dispatcher import drain_devices
from repro.gma.device import GmaDevice
from repro.gma.counters import EngineCounters
from repro.gma.firmware import GmaRunResult
from repro.isa.assembler import assemble
from repro.memory.address_space import AddressSpace
from repro.perf.trace import fabric_chrome_trace_events

UNIFORM_ASM = """
iota.16.f vr1
mov.1.dw vr2 = 0
loop:
add.16.f vr3 = vr1, vr1
add.1.dw vr2 = vr2, 1
cmp.lt.1.dw p1 = vr2, iters
br p1, loop
end
"""


def _result(**kwargs) -> GmaRunResult:
    return GmaRunResult(**kwargs)


def _report(name: str, *results, wall: float = 0.0) -> DeviceRunReport:
    return DeviceRunReport(device=name, isa="X3000", seconds=0.0,
                           shreds=0, results=list(results),
                           wall_seconds=wall)


class TestCounterAggregation:
    def test_fabric_result_sums_engine_counters(self):
        fabric = FabricRunResult(reports=[
            _report("gma0", _result(gang_lanes_retired=10, scalar_fallbacks=1,
                                    predecode_hits=4, predecode_misses=1,
                                    batched_mem_lanes=8,
                                    batched_translations=2,
                                    tlb_vector_hits=1)),
            _report("gma1", _result(gang_lanes_retired=5, scalar_fallbacks=2,
                                    predecode_hits=3, predecode_misses=0,
                                    batched_mem_lanes=4,
                                    batched_translations=3,
                                    tlb_vector_hits=2,
                                    fused_blocks_retired=7, trace_chains=4,
                                    fusion_compiles=2,
                                    gang_repacks=2, lanes_readmitted=6)),
        ])
        assert fabric.gang_lanes_retired == 15
        assert fabric.scalar_fallbacks == 3
        assert fabric.predecode_hits == 7
        assert fabric.predecode_misses == 1
        assert fabric.batched_mem_lanes == 12
        assert fabric.batched_translations == 5
        assert fabric.tlb_vector_hits == 3
        assert fabric.fused_blocks_retired == 7
        assert fabric.trace_chains == 4
        assert fabric.fusion_compiles == 2
        assert fabric.gang_repacks == 2
        assert fabric.lanes_readmitted == 6

    def test_fabric_residency_derives_from_totals(self):
        fabric = FabricRunResult(reports=[
            _report("gma0", _result(instructions=100,
                                    gang_lanes_retired=80)),
            _report("gma1", _result(instructions=100,
                                    gang_lanes_retired=20)),
        ])
        # 100 * (80 + 20) / (100 + 100): derived from the sums, never
        # an average of per-device percentages
        assert fabric.gang_residency_pct == pytest.approx(50.0)
        assert FabricRunResult().gang_residency_pct == 0.0

    def test_merged_result_carries_engine_counters(self):
        report = _report(
            "gma0",
            _result(gang_lanes_retired=10, scalar_fallbacks=1,
                    predecode_hits=4, predecode_misses=1,
                    batched_mem_lanes=6, batched_translations=2,
                    tlb_vector_hits=1),
            _result(gang_lanes_retired=2, scalar_fallbacks=0,
                    predecode_hits=1, predecode_misses=0,
                    batched_mem_lanes=2, batched_translations=1,
                    tlb_vector_hits=1, fused_blocks_retired=3,
                    trace_chains=2, fusion_compiles=1,
                    gang_repacks=1, lanes_readmitted=3))
        merged = report.merged_result()
        assert merged.gang_lanes_retired == 12
        assert merged.scalar_fallbacks == 1
        assert merged.predecode_hits == 5
        assert merged.predecode_misses == 1
        assert merged.batched_mem_lanes == 8
        assert merged.batched_translations == 3
        assert merged.tlb_vector_hits == 2
        assert merged.fused_blocks_retired == 3
        assert merged.trace_chains == 2
        assert merged.fusion_compiles == 1
        assert merged.gang_repacks == 1
        assert merged.lanes_readmitted == 3

    def test_runtime_stats_note_engine_round_trip(self):
        stats = RuntimeStats()
        stats.note_engine(_result(gang_lanes_retired=10, scalar_fallbacks=2,
                                  predecode_hits=3, predecode_misses=1,
                                  batched_mem_lanes=4,
                                  batched_translations=2,
                                  tlb_vector_hits=1))
        stats.note_engine(_result(gang_lanes_retired=5, scalar_fallbacks=0,
                                  predecode_hits=2, predecode_misses=0,
                                  batched_mem_lanes=3,
                                  batched_translations=1,
                                  tlb_vector_hits=1,
                                  fused_blocks_retired=6, trace_chains=3,
                                  fusion_compiles=2,
                                  gang_repacks=1, lanes_readmitted=4))
        assert stats.gang_lanes_retired == 15
        assert stats.scalar_fallbacks == 2
        assert stats.predecode_hits == 5
        assert stats.predecode_misses == 1
        assert stats.batched_mem_lanes == 7
        assert stats.batched_translations == 3
        assert stats.tlb_vector_hits == 2
        assert stats.fused_blocks_retired == 6
        assert stats.trace_chains == 3
        assert stats.fusion_compiles == 2
        assert stats.gang_repacks == 1
        assert stats.lanes_readmitted == 4
        # objects without the counters (other backends) contribute nothing
        stats.note_engine(object())
        assert stats.gang_lanes_retired == 15

    def test_runtime_accumulates_engine_counters(self):
        platform = ExoPlatform(gma_engine="megaop")
        runtime = ChiRuntime(platform)
        runtime.parallel(UNIFORM_ASM, num_threads=4,
                         firstprivate={"iters": 3.0})
        assert runtime.stats.gang_lanes_retired > 0
        assert runtime.stats.scalar_fallbacks == 0
        assert runtime.stats.predecode_misses >= 1


class TestChromeTrace:
    def test_engine_counter_track_and_wall_metadata(self):
        reports = [
            _report("gma0", _result(gang_lanes_retired=10, scalar_fallbacks=1,
                                    predecode_hits=4, predecode_misses=1,
                                    batched_mem_lanes=8,
                                    batched_translations=2,
                                    tlb_vector_hits=1),
                    wall=0.25),
            _report("gma1", _result()),  # all-zero: no counter track
        ]
        events = fabric_chrome_trace_events(reports)
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["name"] == "engine"
        assert counters[0]["pid"] == 0
        assert counters[0]["args"] == {
            "gang_lanes_retired": 10, "scalar_fallbacks": 1,
            "predecode_hits": 4, "predecode_misses": 1,
            "batched_mem_lanes": 8, "batched_translations": 2,
            "tlb_vector_hits": 1, "fused_blocks_retired": 0,
            "trace_chains": 0, "fusion_compiles": 0,
            "megaops_retired": 0, "megaop_compiles": 0,
            "megaop_deopts": 0, "gang_repacks": 0,
            "lanes_readmitted": 0,
        }
        meta = {e["pid"]: e for e in events
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert meta[0]["args"]["wall_seconds"] == 0.25
        assert "wall_seconds" not in meta[1]["args"]

    def test_counter_track_reports_residency(self):
        reports = [
            _report("gma0", _result(instructions=200,
                                    gang_lanes_retired=150,
                                    gang_repacks=2, lanes_readmitted=5)),
        ]
        events = fabric_chrome_trace_events(reports)
        args = [e for e in events if e["ph"] == "C"][0]["args"]
        assert args["gang_repacks"] == 2
        assert args["lanes_readmitted"] == 5
        assert args["gang_residency_pct"] == 75.0

    def test_export_round_trips(self, tmp_path):
        from repro.perf.trace import export_fabric_chrome_trace
        reports = [_report("gma0", _result(gang_lanes_retired=3,
                                           predecode_misses=1))]
        path = tmp_path / "fabric.json"
        export_fabric_chrome_trace(reports, path)
        loaded = json.loads(path.read_text())
        counters = [e for e in loaded["traceEvents"] if e["ph"] == "C"]
        assert counters[0]["args"]["gang_lanes_retired"] == 3


COUNTERS = [counter.name for counter in fields(EngineCounters)]


def _distinct(base: int) -> dict:
    """A value for every engine counter, no two alike."""
    return {name: base + 7 * index + 1 for index, name in enumerate(COUNTERS)}


class TestRecordSurvivesEveryLayer:
    """Every field of :class:`EngineCounters`, not a hand-picked list,
    sums through each layer that merges the record."""

    left, right = _distinct(0), _distinct(1000)

    def _expect(self, holder):
        for name in COUNTERS:
            assert getattr(holder, name) == \
                self.left[name] + self.right[name], name

    def test_merged_result(self):
        report = _report("gma0", _result(**self.left),
                         _result(**self.right))
        self._expect(report.merged_result())

    def test_fabric_result(self):
        self._expect(FabricRunResult(reports=[
            _report("gma0", _result(**self.left)),
            _report("gma1", _result(**self.right)),
        ]))

    def test_runtime_stats(self):
        stats = RuntimeStats()
        stats.note_engine(_result(instructions=5000, **self.left))
        stats.note_engine(_result(instructions=3000, **self.right))
        self._expect(stats)
        assert stats.instructions_retired == 8000
        assert stats.gang_residency_pct == pytest.approx(
            100.0 * (self.left["gang_lanes_retired"]
                     + self.right["gang_lanes_retired"]) / 8000)

    def test_chrome_counter_track(self):
        events = fabric_chrome_trace_events([
            _report("gma0", _result(**self.left), _result(**self.right)),
        ])
        args = [e for e in events if e["ph"] == "C"][0]["args"]
        assert list(args) == COUNTERS
        self._expect(SimpleNamespace(**args))

    def test_kernel_result_equals_sum_of_frames(self, monkeypatch):
        from repro.gma import megaop
        from repro.kernels import kernel_by_abbrev, run_kernel_on_gma
        from repro.perf import SMOKE_GEOMETRIES

        monkeypatch.setattr(megaop, "PROMOTE_THRESHOLD", 2)
        device = GmaDevice(AddressSpace(), engine="megaop")
        frames = []
        run = device.run

        def recording(shreds):
            frames.append(run(shreds))
            return frames[-1]

        device.run = recording
        result = run_kernel_on_gma(kernel_by_abbrev("Kalman"),
                                   SMOKE_GEOMETRIES["Kalman"],
                                   device=device, space=device.space,
                                   max_frames=2)
        assert len(frames) == 2
        for name in COUNTERS:
            assert getattr(result, name) == sum(
                getattr(frame, name) for frame in frames), name
        assert result.megaops_retired > 0
        assert result.predecode_hits > 0
        assert result.instructions == sum(f.instructions for f in frames)
        assert result.gang_residency_pct == pytest.approx(
            100.0 * result.gang_lanes_retired / result.instructions)


class TestDrainDevices:
    def test_wall_seconds_measured_and_empties_skipped(self):
        platform = ExoPlatform(num_gma_devices=2)
        program = assemble("iota.16.f vr1\nend\n", name="tiny")
        shreds = [ShredDescriptor(program=program, bindings={})]
        devices = platform.gma_devices
        reports = drain_devices([(devices[0], shreds), (devices[1], [])])
        assert len(reports) == 1  # the empty assignment never ran
        assert reports[0].device == devices[0].name
        assert reports[0].wall_seconds > 0.0


class TestNoSharedMutableDefaults:
    def test_gma_device_configs_are_per_instance(self):
        one = GmaDevice(AddressSpace())
        two = GmaDevice(AddressSpace())
        assert one.config is not two.config

    def test_exoskeleton_costs_are_per_instance(self):
        one = Exoskeleton(AddressSpace())
        two = Exoskeleton(AddressSpace())
        assert one.costs is not two.costs

    def test_ia32_cpu_config_is_per_instance(self):
        from repro.cpu.ia32 import Ia32Cpu
        assert Ia32Cpu().config is not Ia32Cpu().config

    def test_misp_pool_config_is_per_instance(self):
        from repro.exo.misp import MispPool
        assert MispPool().cpu.config is not MispPool().cpu.config

    def test_gpgpu_driver_bandwidth_is_per_instance(self):
        from repro.gpgpu.driver import GpgpuDriver
        assert GpgpuDriver()._bandwidth is not GpgpuDriver()._bandwidth
