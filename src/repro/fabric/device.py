"""The fabric's device fronts: one GMA X3000 instance each.

:class:`FabricDevice` is the one front every layer drives, the CHI
runtime's regions and the serving layer's slots alike: it admits a batch
through the device's bounded queue, runs each sub-batch and builds one
:class:`DeviceRunReport`.  Its two classes differ only in where the
device lives:

* :class:`GmaFabricDevice` — a :class:`~repro.gma.device.GmaDevice` in
  this process, sharing the process's virtual address space (the EXO
  model; N of these give an N-accelerator fabric, the configuration
  related SVM work treats as the baseline);
* :class:`~repro.fabric.workers.ProcessGmaFabricDevice` — a device
  hosted in a fabric worker process over shared physical frames.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..exo.shred import ShredDescriptor
from ..gma.device import GmaDevice
from ..gma.eu import DeviceTiming
from ..gma.firmware import GmaRunResult, RunTotals
from ..gma.timing import GmaTimingConfig
from .queue import DeviceWorkQueue

#: Static per-instruction cycle estimate used for load balancing before a
#: shred has executed (issue plus a typical exposed-latency share).
_EST_CYCLES_PER_INSTRUCTION = 4.0


@dataclass
class DeviceRunReport:
    """What one device did with one admitted batch."""

    device: str
    isa: str
    seconds: float  # simulated drain time, serialized over sub-batches
    shreds: int
    results: List[GmaRunResult] = field(default_factory=list)
    config: Optional[GmaTimingConfig] = None
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
    """One registered GMA device: timing, capacity and an admission queue.

    Every layer drains a device through :meth:`run_shreds`, written once
    here.  Subclasses say only how one admitted sub-batch runs
    (:meth:`_run_batch`) and how a serving tenant's context is bound
    (:meth:`bind_context`).  ``sampler_filter`` is the texture-sampler
    filter ``chi_set_feature`` sets on every device of the ISA.
    """

    isa = GmaDevice.ISA
    #: The fabric worker hosting the device (``None`` in process);
    #: :func:`~repro.fabric.dispatcher.drain_devices` drains devices that
    #: all carry one concurrently.
    worker = None

    def __init__(self, name: str, config: GmaTimingConfig,
                 queue: Optional[DeviceWorkQueue] = None):
        self.name = name
        self.config = config
        self.queue = queue or DeviceWorkQueue(name=name)

    @abc.abstractmethod
    def bind_context(self, session) -> None:
        """Switch the device onto a tenant's context (a
        :class:`~repro.serving.session.Session`: its space, exoskeleton,
        coherence point and per-device views).  The caller serializes
        binds with drains."""

    @abc.abstractmethod
    def _run_batch(self, batch: Sequence[ShredDescriptor]) -> GmaRunResult:
        """Run one admitted sub-batch to completion."""

    def estimate_seconds(self, shreds: Sequence[ShredDescriptor]) -> float:
        """Pre-execution cost estimate for dispatch balancing."""
        instructions = sum(len(s.program.instructions) for s in shreds)
        compute = (instructions * _EST_CYCLES_PER_INSTRUCTION
                   / self.config.num_sequencers)
        surfaces = {id(s): s for shred in shreds
                    for s in shred.surfaces.values()}
        traffic = sum(s.nbytes for s in surfaces.values())
        bandwidth = traffic / self.config.mem_bytes_per_cycle
        return self.config.seconds(max(compute, bandwidth))

    def run_shreds(self, shreds: Sequence[ShredDescriptor]) -> DeviceRunReport:
        """Admit the batch through the queue and drain it."""
        batches = self.queue.admit(shreds)
        results = []
        seconds = 0.0
        for batch in batches:
            result = self._run_batch(batch)
            results.append(result)
            seconds += self.config.seconds(result.cycles)
        return DeviceRunReport(
            device=self.name, isa=self.isa, seconds=seconds,
            shreds=len(shreds), results=results, config=self.config,
            sub_batches=max(len(batches), 1),
            worker=self.worker.name if self.worker is not None else "")

    def describe(self) -> str:
        return (f"{self.name}: ISA {self.isa}, "
                f"capacity {self.config.num_sequencers}, "
                f"queue depth {self.queue.depth} "
                f"({self.queue.policy.value})")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class GmaFabricDevice(FabricDevice):
    """One GMA X3000 instance in this process's virtual address space."""

    def __init__(self, name: str, device: GmaDevice,
                 queue: Optional[DeviceWorkQueue] = None):
        super().__init__(name, device.config, queue=queue)
        self.gma = device

    @property
    def sampler_filter(self) -> str:
        return self.gma.sampler.filter_mode

    @sampler_filter.setter
    def sampler_filter(self, mode: str) -> None:
        self.gma.sampler.filter_mode = mode

    def bind_context(self, session) -> None:
        self.gma.bind_context(session.space, session.exoskeleton,
                              session.coherence, session.view_for(self))

    def _run_batch(self, batch: Sequence[ShredDescriptor]) -> GmaRunResult:
        return self.gma.run(batch)
