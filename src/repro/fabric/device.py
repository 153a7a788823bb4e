"""Pluggable compute backends behind the fabric registry.

Three device classes, mirroring the heterogeneity the paper argues for:

* :class:`GmaFabricDevice` — one GMA X3000 instance sharing the process's
  virtual address space (the EXO model; N of these give an N-accelerator
  fabric, the configuration related SVM work treats as the baseline);
* :class:`Ia32FabricDevice` — the OS-managed IA32 sequencer class, which
  participates in cooperative scheduling but consumes cost-model
  :class:`~repro.cpu.ia32.CpuWork` rather than accelerator shreds;
* :class:`GpgpuFabricDevice` — the Figure 1(a) legacy stack: the same
  silicon driven through :class:`~repro.gpgpu.driver.GpgpuDriver`, with
  its own address space, explicit copies and per-call kernel transitions.
  Registering it alongside EXO devices makes the cost of the
  loosely-coupled model directly visible inside one fabric.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cpu.ia32 import CpuExecution, CpuWork, Ia32Cpu
from ..errors import SchedulingError
from ..exo.shred import ShredDescriptor
from ..gma.device import GmaDevice
from ..gma.eu import DeviceTiming
from ..gma.firmware import GmaRunResult, RunTotals
from ..gma.timing import GmaTimingConfig
from ..memory.address_space import AddressSpace
from .queue import DeviceWorkQueue

#: Static per-instruction cycle estimate used for load balancing before a
#: shred has executed (issue plus a typical exposed-latency share).
_EST_CYCLES_PER_INSTRUCTION = 4.0


def estimate_gma_seconds(config: GmaTimingConfig,
                         shreds: Sequence[ShredDescriptor]) -> float:
    """Pre-execution cost estimate for a GMA batch.

    Shared by the in-process and worker-process device fronts so dispatch
    balancing is identical regardless of where the device lives.
    """
    instructions = sum(len(s.program.instructions) for s in shreds)
    compute = (instructions * _EST_CYCLES_PER_INSTRUCTION
               / config.num_sequencers)
    surfaces = {id(s): s for shred in shreds
                for s in shred.surfaces.values()}
    traffic = sum(s.nbytes for s in surfaces.values())
    bandwidth = traffic / config.mem_bytes_per_cycle
    return config.seconds(max(compute, bandwidth))


@dataclass
class DeviceRunReport:
    """What one device did with one admitted batch."""

    device: str
    isa: str
    seconds: float  # simulated drain time, serialized over sub-batches
    shreds: int
    results: List[GmaRunResult] = field(default_factory=list)
    config: Optional[GmaTimingConfig] = None  # None for non-GMA backends
    copy_seconds: float = 0.0  # explicit transfer time (driver backends)
    sub_batches: int = 1
    #: Host wall-clock seconds the drain took (measured by
    #: :func:`~repro.fabric.dispatcher.drain_devices`; 0.0 when the batch
    #: ran outside it).  Distinct from ``seconds``, which is simulated.
    wall_seconds: float = 0.0
    #: ``"serial"`` or ``"process"`` — how
    #: :func:`~repro.fabric.dispatcher.drain_devices` ran this drain
    #: (empty when the batch ran outside it).
    drain_mode: str = ""
    #: Fabric worker process that drained the batch (empty for in-process
    #: devices); lets traces group rows per worker.
    worker: str = ""

    def merged_result(self) -> GmaRunResult:
        """One :class:`~repro.gma.firmware.GmaRunResult` for the batch.

        Multiple sub-batches (blocking admission) drained back to back, so
        the merged timing offsets each sub-batch by its predecessors'
        cycles and sums the totals.
        """
        if len(self.results) == 1:
            return self.results[0]
        merged = GmaRunResult()
        timing = DeviceTiming(compute_cycles=0.0, bandwidth_cycles=0.0,
                              sampler_cycles=0.0)
        offset = 0.0
        for result in self.results:
            merged.runs.extend(result.runs)
            merged.add_totals(result)
            if result.timing is not None:
                for sid, (s, f, eu, slot) in result.timing.spans.items():
                    timing.spans[sid] = (s + offset, f + offset, eu, slot)
                for sid, f in result.timing.finish_times.items():
                    timing.finish_times[sid] = f + offset
                timing.eu_reports.extend(result.timing.eu_reports)
                offset += result.timing.cycles
        timing.compute_cycles = offset
        merged.timing = timing
        return merged


@dataclass(kw_only=True)
class FabricRunResult(RunTotals):
    """One parallel construct's outcome across several fabric devices.

    Holds the totals of every device's :class:`~repro.gma.firmware.
    GmaRunResult`, summed once at construction (so region handles read
    the same either way), while keeping the per-device
    :class:`DeviceRunReport` list for breakdowns and tracing.  Devices
    ran concurrently, so :attr:`seconds` is the max drain time, not the
    sum.
    """

    reports: List[DeviceRunReport] = field(default_factory=list)

    def __post_init__(self) -> None:
        for report in self.reports:
            for result in report.results:
                self.add_totals(result)

    @property
    def seconds(self) -> float:
        return max((r.seconds for r in self.reports), default=0.0)

    @property
    def runs(self) -> list:
        return [run for report in self.reports
                for result in report.results for run in result.runs]

    def report_for(self, device: str) -> Optional[DeviceRunReport]:
        for report in self.reports:
            if report.device == device:
                return report
        return None


class FabricDevice(abc.ABC):
    """One registered compute backend: an ISA, capacity, and a queue."""

    #: Whether the backend executes accelerator shred descriptors (the
    #: IA32 sequencer class participates in the fabric but consumes
    #: cost-model work instead).
    executes_shreds: bool = True

    def __init__(self, name: str, isa: str, capacity: int,
                 queue: Optional[DeviceWorkQueue] = None):
        self.name = name
        self.isa = isa
        self.capacity = capacity
        self.queue = queue or DeviceWorkQueue(name=name)

    @abc.abstractmethod
    def estimate_seconds(self, shreds: Sequence[ShredDescriptor]) -> float:
        """Pre-execution cost estimate for dispatch balancing."""

    @abc.abstractmethod
    def run_shreds(self, shreds: Sequence[ShredDescriptor]) -> DeviceRunReport:
        """Admit the batch through the queue and drain it."""

    def describe(self) -> str:
        return (f"{self.name}: ISA {self.isa}, capacity {self.capacity}, "
                f"queue depth {self.queue.depth} "
                f"({self.queue.policy.value})")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class GmaFabricDevice(FabricDevice):
    """One GMA X3000 instance in the shared virtual address space."""

    def __init__(self, name: str, device: GmaDevice,
                 queue: Optional[DeviceWorkQueue] = None):
        super().__init__(name, device.ISA, device.config.num_sequencers,
                         queue=queue)
        self.gma = device

    @property
    def config(self) -> GmaTimingConfig:
        return self.gma.config

    def estimate_seconds(self, shreds: Sequence[ShredDescriptor]) -> float:
        return estimate_gma_seconds(self.gma.config, shreds)

    def run_shreds(self, shreds: Sequence[ShredDescriptor]) -> DeviceRunReport:
        batches = self.queue.admit(shreds)
        results = []
        seconds = 0.0
        for batch in batches:
            result = self.gma.run(batch)
            results.append(result)
            seconds += self.gma.config.seconds(result.cycles)
        return DeviceRunReport(
            device=self.name, isa=self.isa, seconds=seconds,
            shreds=len(shreds), results=results, config=self.gma.config,
            sub_batches=max(len(batches), 1))


class Ia32FabricDevice(FabricDevice):
    """The OS-managed sequencer class, as a fabric citizen.

    It advertises timing and capacity like any device, and the dispatcher
    schedules cost-model work onto it (the cooperative scheduling of
    section 5.3); it cannot consume accelerator shred descriptors.
    """

    executes_shreds = False

    def __init__(self, name: str, cpu: Ia32Cpu,
                 queue: Optional[DeviceWorkQueue] = None):
        super().__init__(name, "IA32", cpu.config.num_cores, queue=queue)
        self.cpu = cpu

    def estimate_seconds(self, shreds: Sequence[ShredDescriptor]) -> float:
        raise SchedulingError(
            f"device {self.name!r} is the IA32 sequencer class and cannot "
            f"execute accelerator shreds")

    def run_shreds(self, shreds: Sequence[ShredDescriptor]) -> DeviceRunReport:
        raise SchedulingError(
            f"device {self.name!r} is the IA32 sequencer class and cannot "
            f"execute accelerator shreds")

    def run_work(self, work: CpuWork, fraction: float = 1.0) -> CpuExecution:
        return self.cpu.execute(work, fraction)


class GpgpuFabricDevice(FabricDevice):
    """The legacy driver-managed stack as a fabric backend.

    Every batch pays the Figure 1(a) costs: buffers allocated in the
    driver's private address space, explicit host->device and
    device->host copies for each bound surface, one kernel-mode
    transition per driver call, one synchronous launch per shred.
    ``depends_on`` edges are satisfied trivially because launches are
    serial and the batch arrives in dependency-respecting order.
    """

    def __init__(self, name: str, driver, host_space: AddressSpace,
                 queue: Optional[DeviceWorkQueue] = None):
        super().__init__(name, driver.device.ISA,
                         driver.device.config.num_sequencers, queue=queue)
        self.driver = driver
        self.host_space = host_space
        self._kernel_handles: Dict[int, int] = {}  # id(program) -> handle

    def estimate_seconds(self, shreds: Sequence[ShredDescriptor]) -> float:
        config = self.driver.device.config
        instructions = sum(len(s.program.instructions) for s in shreds)
        compute = config.seconds(instructions * _EST_CYCLES_PER_INSTRUCTION
                                 / config.num_sequencers)
        surfaces = {id(s): s for shred in shreds
                    for s in shred.surfaces.values()}
        traffic = sum(s.nbytes for s in surfaces.values())
        # in and out across address spaces, plus per-call transitions
        copies = 2 * traffic / self.driver._bandwidth.copy_rate
        calls = (2 * len(surfaces) + len(shreds) + 2)
        return compute + copies + calls * self.driver.call_overhead_seconds

    def run_shreds(self, shreds: Sequence[ShredDescriptor]) -> DeviceRunReport:
        batches = self.queue.admit(shreds)
        seconds_before = self.driver.stats.total_seconds
        copies_before = self.driver.stats.copy_seconds
        for batch in batches:
            self._run_batch(batch)
        return DeviceRunReport(
            device=self.name, isa=self.isa,
            seconds=self.driver.stats.total_seconds - seconds_before,
            shreds=len(shreds),
            copy_seconds=self.driver.stats.copy_seconds - copies_before,
            sub_batches=max(len(batches), 1))

    def _run_batch(self, batch: Sequence[ShredDescriptor]) -> None:
        surfaces = {id(s): s for shred in batch
                    for s in shred.surfaces.values()}
        handles = {}
        for key, surf in surfaces.items():
            handle = self.driver.malloc(surf.nbytes, width=surf.width,
                                        height=surf.height, dtype=surf.dtype)
            data = surf.read_linear(self.host_space, 0, surf.nelems)
            self.driver.memcpy_htod(handle, data)
            handles[key] = handle
        for shred in batch:
            kernel = self._kernel_handles.get(id(shred.program))
            if kernel is None:
                kernel = self.driver.load_program(shred.program)
                self._kernel_handles[id(shred.program)] = kernel
            buffers = {name: handles[id(surf)]
                       for name, surf in shred.surfaces.items()}
            self.driver.launch(kernel, grid=[dict(shred.bindings)],
                               buffers=buffers)
        for key, surf in surfaces.items():
            data = self.driver.memcpy_dtoh(handles[key])
            surf.write_linear(self.host_space, 0, data)
            self.driver.free(handles[key])
