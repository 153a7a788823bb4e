"""Drain modes: in-process devices drain serially, process proxies
(devices carrying a ``worker``) drain concurrently."""

from __future__ import annotations

import threading

from repro.chi import ChiRuntime, ExoPlatform
from repro.exo.shred import ShredDescriptor
from repro.fabric.device import DeviceRunReport
from repro.fabric.dispatcher import drain_devices
from repro.isa.assembler import assemble

ASM = """
mov.1.dw vr1 = 0
loop:
add.1.dw vr1 = vr1, 1
cmp.lt.1.dw p1 = vr1, 8
br p1, loop
end
"""


def _region(devices=2, shreds=8):
    platform = ExoPlatform(num_gma_devices=devices, gma_engine="megaop")
    runtime = ChiRuntime(platform)
    region = runtime.parallel(ASM, num_threads=shreds)
    return runtime, region.wait()


class FakeDevice:
    """A fabric device front; ``worker`` marks it a process proxy."""

    def __init__(self, name, worker=None, barrier=None):
        self.name = name
        self.worker = worker
        self.barrier = barrier

    def run_shreds(self, shreds):
        if self.barrier is not None:
            # every proxy must be inside its drain at once, or this
            # times out and breaks the barrier
            self.barrier.wait(timeout=10.0)
        return DeviceRunReport(device=self.name, isa="X3000",
                               seconds=0.0, shreds=len(shreds))


def _shred():
    return ShredDescriptor(program=assemble("end", name="nop"))


def test_serial_request_stays_serial():
    """In-process devices always drain one after another."""
    runtime, result = _region(devices=2, shreds=64)
    assert all(r.drain_mode == "serial" for r in result.reports)
    assert runtime.stats.drains_serial == 1
    assert runtime.stats.drains_process == 0


def test_single_pair_never_threads():
    runtime, _ = _region(devices=1, shreds=4)
    assert runtime.stats.drains_serial == 1


def test_drain_devices_skips_empty_and_orders_reports():
    """Devices carrying a worker drain in ``"process"`` mode."""
    shred = _shred()
    reports = drain_devices([
        (FakeDevice("a", worker="w0"), [shred]),
        (FakeDevice("b", worker="w1"), []),
        (FakeDevice("c", worker="w2"), [shred]),
    ])
    assert [r.device for r in reports] == ["a", "c"]
    assert all(r.drain_mode == "process" for r in reports)
    assert all(r.wall_seconds > 0.0 for r in reports)


def test_worker_devices_drain_concurrently():
    barrier = threading.Barrier(2)
    shred = _shred()
    reports = drain_devices([
        (FakeDevice("a", worker="w0", barrier=barrier), [shred]),
        (FakeDevice("b", worker="w1", barrier=barrier), [shred]),
    ])
    assert [r.device for r in reports] == ["a", "b"]
    assert not barrier.broken


def test_mixed_fabric_drains_serially():
    """One in-process device among the proxies keeps the drain serial."""
    shred = _shred()
    reports = drain_devices([
        (FakeDevice("a", worker="w0"), [shred]),
        (FakeDevice("b"), [shred]),
    ])
    assert all(r.drain_mode == "serial" for r in reports)
