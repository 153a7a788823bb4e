"""The heterogeneous device fabric.

The paper's CHI runtime "schedules shreds on heterogeneous targets"; one
GMA X3000 was all the prototype hardware offered, but nothing in the
programming model limits it to a single accelerator.  This package is the
generalization: a :class:`~repro.fabric.registry.DeviceRegistry` of N
GMA devices (in process, or hosted on worker processes over one shared
frame segment, behind the same device front), per-device bounded
:class:`~repro.fabric.queue.DeviceWorkQueue` admission with backpressure,
and an event-driven
:class:`~repro.fabric.dispatcher.WorkStealingDispatcher` that plays the
role section 5.3 sketches for the runtime's ongoing work: "whenever a
sequencer completes its assigned work it requests additional work of the
runtime" — here as stealing from the most-loaded peer's queue.

The fabric is what :class:`~repro.chi.runtime.ChiRuntime` routes
``target(ISA)`` constructs through, and its device fronts are the slots
:class:`~repro.serving.server.ExoServer` drains.
"""

from .device import (
    DeviceRunReport,
    FabricDevice,
    FabricRunResult,
    GmaFabricDevice,
)
from .dispatcher import (
    DispatchOutcome,
    WorkItem,
    WorkStealingDispatcher,
    dependency_groups,
    work_stealing_partition,
)
from .queue import AdmissionPolicy, DeviceWorkQueue, QueueStats
from .registry import DeviceRegistry
from .workers import (
    ProcessDeviceWorker,
    ProcessGmaFabricDevice,
    ProcessWorkerPool,
    WorkerConfig,
)

__all__ = [
    "AdmissionPolicy",
    "DeviceRegistry",
    "DeviceRunReport",
    "DeviceWorkQueue",
    "DispatchOutcome",
    "FabricDevice",
    "FabricRunResult",
    "GmaFabricDevice",
    "ProcessDeviceWorker",
    "ProcessGmaFabricDevice",
    "ProcessWorkerPool",
    "QueueStats",
    "WorkItem",
    "WorkStealingDispatcher",
    "WorkerConfig",
    "dependency_groups",
    "work_stealing_partition",
]
