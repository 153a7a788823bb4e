"""The assembled EXOCHI platform: one IA32 host + one GMA X3000 device
sharing a virtual address space, under a configurable memory model.

The three Figure 8 configurations map onto two switches:

=================  =======================  ==========
configuration      shared_virtual_memory    coherent
=================  =======================  ==========
Data Copy          False                    (n/a)
Non-CC Shared      True                     False
CC Shared          True                     True
=================  =======================  ==========
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cpu.ia32 import Ia32Cpu
from ..cpu.timing import CpuTimingConfig
from ..errors import SchedulingError
from ..exo.exoskeleton import Exoskeleton
from ..fabric.device import GmaFabricDevice
from ..fabric.queue import AdmissionPolicy, DeviceWorkQueue
from ..fabric.registry import DeviceRegistry
from ..fabric.workers import ProcessGmaFabricDevice, ProcessWorkerPool
from ..gma.device import GmaDevice
from ..gma.timing import GmaTimingConfig
from ..memory.address_space import AddressSpace
from ..memory.bandwidth import BandwidthModel
from ..memory.cache import CoherencePoint


class HostAccessor:
    """The IA32 sequencer's tracked window onto the address space.

    Wraps demand-paged access with coherence bookkeeping: host writes dirty
    the host cache (so the Non-CC model knows what a pre-dispatch flush
    must write back), and host reads are checked against the device's
    dirty lines in strict mode.
    """

    def __init__(self, space: AddressSpace, coherence: CoherencePoint):
        self.space = space
        self.coherence = coherence

    def read_bytes(self, vaddr: int, count: int) -> np.ndarray:
        self.coherence.check_read("cpu", vaddr, count)
        return self.space.read_bytes(vaddr, count)

    def write_bytes(self, vaddr: int, data: np.ndarray) -> None:
        self.space.write_bytes(vaddr, data)
        self.coherence.note_write("cpu", vaddr,
                                  np.asarray(data, dtype=np.uint8).size)

    def read_array(self, vaddr: int, count: int, dtype) -> np.ndarray:
        self.coherence.check_read("cpu", vaddr,
                                  count * np.dtype(dtype).itemsize)
        return self.space.read_array(vaddr, count, dtype)

    def write_array(self, vaddr: int, values: np.ndarray) -> None:
        self.space.write_array(vaddr, values)
        self.coherence.note_write(
            "cpu", vaddr, np.ascontiguousarray(values).nbytes)


class ExoPlatform:
    """One simulated Santa Rosa box: Core 2 Duo + 965G with GMA X3000.

    ``num_gma_devices`` scales the box out to an N-accelerator fabric:
    every GMA instance shares the one virtual address space, exoskeleton
    and coherence point (the shared-virtual-memory multi-accelerator
    baseline), and registers in :attr:`fabric`; the IA32 sequencer
    (:attr:`cpu`) runs host work through its cost model, outside the
    fabric.  ``queue_depth`` / ``admission_policy`` configure the
    per-device admission queues (see :mod:`repro.fabric.queue`);
    ``gma_engine`` selects the execution engine every GMA instance uses:
    ``"megaop"`` (the default, see :attr:`GmaDevice.ENGINES`) or the
    ``"scalar"`` reference interpreter.

    ``fabric_workers=N`` moves the GMA devices out of process: a
    :class:`~repro.fabric.workers.ProcessWorkerPool` of N child processes
    attaches a shared-memory frame segment (which the pool creates and
    owns unless ``space`` brings one), and each ``gma{i}`` registers as a
    :class:`~repro.fabric.workers.ProcessGmaFabricDevice` placed
    round-robin on the pool — the scale-out configuration where N
    devices drain genuinely concurrently.  :attr:`device` stays a local
    in-process GMA (unregistered) so single-device call sites keep
    working.  Call :meth:`close` (or use the platform as a context
    manager) to reap the workers and the segment.
    """

    def __init__(self,
                 shared_virtual_memory: bool = True,
                 coherent: bool = True,
                 strict_coherence: bool = False,
                 gma_config: Optional[GmaTimingConfig] = None,
                 cpu_config: Optional[CpuTimingConfig] = None,
                 bandwidth: Optional[BandwidthModel] = None,
                 space: Optional[AddressSpace] = None,
                 num_gma_devices: int = 1,
                 queue_depth: Optional[int] = None,
                 admission_policy=AdmissionPolicy.RAISE,
                 atr_shared_cache: bool = True,
                 gma_engine: str = "megaop",
                 fabric_workers: int = 0,
                 schedule=None):
        if num_gma_devices < 1:
            raise SchedulingError(
                f"need at least one GMA device, got {num_gma_devices}")
        gma_config = gma_config if gma_config is not None else GmaTimingConfig()
        cpu_config = cpu_config if cpu_config is not None else CpuTimingConfig()
        self.shared_virtual_memory = shared_virtual_memory
        self.coherent = coherent
        #: Schedule transform the CHI runtime applies to every parallel
        #: region's program before launch: ``None`` (off), ``"auto"``
        #: (tuner-picked per program), a spec string like
        #: ``"unroll4+stage_mem"``, or a
        #: :class:`~repro.isa.transforms.Schedule`.
        self.schedule = schedule
        self.fabric_pool: Optional[ProcessWorkerPool] = None
        if fabric_workers:
            # the pool validates that a given space's backing is shared,
            # and creates (and owns) a shared segment when none is given
            self.fabric_pool = ProcessWorkerPool(
                space.physical if space is not None else None,
                fabric_workers, gma_config=gma_config, engine=gma_engine)
            if space is None:
                space = AddressSpace(physical=self.fabric_pool.physical)
        self.space = space or AddressSpace()
        self.coherence = CoherencePoint(coherent=coherent,
                                        strict=strict_coherence)
        self.exoskeleton = Exoskeleton(self.space,
                                       atr_shared_cache=atr_shared_cache)
        self.cpu = Ia32Cpu(cpu_config)
        self.bandwidth = bandwidth if bandwidth is not None else BandwidthModel()
        self.host = HostAccessor(self.space, self.coherence)

        policy = AdmissionPolicy.coerce(admission_policy)
        self.fabric = DeviceRegistry()
        if self.fabric_pool is not None:
            self.fabric_pool.adopt_space(self.space)
            for i in range(num_gma_devices):
                self.fabric.register(ProcessGmaFabricDevice(
                    f"gma{i}", self.fabric_pool.worker_for(i), self.space,
                    gma_config,
                    queue=self._make_queue(f"gma{i}", queue_depth, policy)))
        else:
            for i in range(num_gma_devices):
                gma = GmaDevice(self.space, exoskeleton=self.exoskeleton,
                                config=gma_config, coherence=self.coherence,
                                engine=gma_engine)
                self.fabric.register(GmaFabricDevice(
                    f"gma{i}", gma,
                    queue=self._make_queue(f"gma{i}", queue_depth, policy)))
        if self.fabric_pool is not None:
            #: In worker mode the registered devices are out-of-process
            #: proxies; keep one *local* (unregistered) GMA so host-side
            #: single-device call sites — debugger, examples, timing
            #: helpers — keep working against the same space.
            self.device = GmaDevice(self.space,
                                    exoskeleton=self.exoskeleton,
                                    config=gma_config,
                                    coherence=self.coherence,
                                    engine=gma_engine)
        else:
            #: The primary accelerator, kept for single-device call sites.
            self.device = self.fabric.get("gma0").gma

    @staticmethod
    def _make_queue(name: str, depth: Optional[int],
                    policy: AdmissionPolicy) -> DeviceWorkQueue:
        if depth is None:
            return DeviceWorkQueue(policy=policy, name=name)
        return DeviceWorkQueue(depth=depth, policy=policy, name=name)

    @property
    def gma_devices(self):
        """The GMA device fronts, in registration order."""
        return self.fabric.require(GmaDevice.ISA)

    @property
    def atr(self):
        """The shared ATR proxy service (all GMA devices signal it)."""
        return self.exoskeleton.atr

    @property
    def config_name(self) -> str:
        if not self.shared_virtual_memory:
            return "Data Copy"
        return "CC Shared" if self.coherent else "Non-CC Shared"

    def gma_seconds(self, cycles: float) -> float:
        return self.device.config.seconds(cycles)

    def cpu_seconds(self, cycles: float) -> float:
        return self.cpu.config.seconds(cycles)

    # -- worker-pool lifecycle ---------------------------------------------

    def close(self) -> None:
        """Reap fabric worker processes and the shared-memory segment.

        Idempotent, and a no-op for the default in-process platform.
        """
        if self.fabric_pool is not None:
            self.fabric_pool.close()
            self.fabric_pool = None

    def __enter__(self) -> "ExoPlatform":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
