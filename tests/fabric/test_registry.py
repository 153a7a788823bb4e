"""The device registry and the GMA device fronts behind it."""

import pytest

from repro.errors import SchedulingError
from repro.fabric import (
    AdmissionPolicy,
    DeviceRegistry,
    DeviceWorkQueue,
    FabricRunResult,
    GmaFabricDevice,
)
from repro.gma.device import GmaDevice
from repro.isa.assembler import assemble
from repro.exo.shred import ShredDescriptor
from repro.memory.address_space import AddressSpace


def gma_fabric_device(name="gma0", queue=None):
    return GmaFabricDevice(name, GmaDevice(AddressSpace()), queue=queue)


def make_shreds(n):
    program = assemble("end", name="noop")
    return [ShredDescriptor(program=program) for _ in range(n)]


class TestRegistry:
    def test_registration_and_lookup(self):
        registry = DeviceRegistry()
        device = registry.register(gma_fabric_device("gma0"))
        assert registry.get("gma0") is device
        assert "gma0" in registry
        assert len(registry) == 1
        assert registry.names() == ["gma0"]

    def test_duplicate_name_rejected(self):
        registry = DeviceRegistry([gma_fabric_device("gma0")])
        with pytest.raises(SchedulingError, match="already registered"):
            registry.register(gma_fabric_device("gma0"))

    def test_unknown_name(self):
        with pytest.raises(SchedulingError, match="no device named"):
            DeviceRegistry().get("gma7")

    def test_require_filters_by_isa(self):
        registry = DeviceRegistry([
            gma_fabric_device("gma0"),
            gma_fabric_device("gma1"),
        ])
        devices = registry.require("X3000")
        assert [d.name for d in devices] == ["gma0", "gma1"]
        # the IA32 sequencer runs host work outside the fabric
        with pytest.raises(SchedulingError,
                           match=r"no accelerator with ISA 'IA32' .*"
                                 r"\(have \['X3000'\]\)"):
            registry.require("IA32")

    def test_require_unknown_isa_names_what_exists(self):
        registry = DeviceRegistry([gma_fabric_device("gma0")])
        with pytest.raises(SchedulingError,
                           match=r"no accelerator with ISA 'SPE'"):
            registry.require("SPE")

    def test_describe_lists_every_device(self):
        registry = DeviceRegistry([
            gma_fabric_device("gma0"),
            gma_fabric_device("gma1"),
        ])
        text = registry.describe()
        assert "gma0" in text and "gma1" in text
        assert text.count("ISA X3000") == 2


class TestGmaBackend:
    def test_estimate_is_positive_and_scales(self):
        device = gma_fabric_device()
        small = device.estimate_seconds(make_shreds(2))
        large = device.estimate_seconds(make_shreds(64))
        assert 0 < small < large

    def test_run_produces_report(self):
        device = gma_fabric_device()
        report = device.run_shreds(make_shreds(6))
        assert report.device == "gma0"
        assert report.isa == "X3000"
        assert report.shreds == 6
        assert report.sub_batches == 1
        assert report.seconds > 0
        assert report.merged_result() is report.results[0]

    def test_blocking_queue_serializes_sub_batches(self):
        queue = DeviceWorkQueue(depth=2, policy=AdmissionPolicy.BLOCK,
                                name="gma0")
        device = gma_fabric_device(queue=queue)
        shreds = make_shreds(5)
        report = device.run_shreds(shreds)
        assert report.sub_batches == 3
        merged = report.merged_result()
        assert merged.shreds_executed == 5
        assert len(merged.timing.spans) == 5
        # later sub-batches are offset past their predecessors' drains
        first = min(s for s, _, _, _ in merged.timing.spans.values())
        last = max(f for _, f, _, _ in merged.timing.spans.values())
        assert first == 0.0
        assert merged.timing.cycles == pytest.approx(
            sum(r.timing.cycles for r in report.results))
        assert last <= merged.timing.cycles

    def test_overflow_raises_through_device(self):
        device = gma_fabric_device(
            queue=DeviceWorkQueue(depth=2, name="gma0"))
        with pytest.raises(SchedulingError, match="overflow on 'gma0'"):
            device.run_shreds(make_shreds(5))


class TestFabricRunResult:
    def reports(self):
        left = gma_fabric_device("gma0").run_shreds(make_shreds(4))
        right = gma_fabric_device("gma1").run_shreds(make_shreds(2))
        return left, right

    def test_aggregates_across_devices(self):
        left, right = self.reports()
        fabric = FabricRunResult(reports=[left, right])
        assert fabric.shreds_executed == 6
        assert fabric.instructions == (left.results[0].instructions
                                       + right.results[0].instructions)
        assert len(fabric.runs) == 6
        # devices drained concurrently: the region costs the max, not the sum
        assert fabric.seconds == max(left.seconds, right.seconds)
        assert fabric.bytes_total == fabric.bytes_read + fabric.bytes_written

    def test_report_for(self):
        left, right = self.reports()
        fabric = FabricRunResult(reports=[left, right])
        assert fabric.report_for("gma1") is right
        assert fabric.report_for("gma9") is None

    def test_empty(self):
        fabric = FabricRunResult()
        assert fabric.seconds == 0.0
        assert fabric.shreds_executed == 0
