"""The CHI runtime (paper sections 4.2-4.4).

"The CHI runtime is a software library that translates the
programmer-specified OpenMP directives into primitives to create and
manage shreds that can carry out the parallel execution on the
heterogeneous multi-core target."

This module is what the pragma lowering targets: fork-join parallel
regions (:meth:`ChiRuntime.parallel`), the taskq/task work-queuing model
(:meth:`ChiRuntime.taskq`), the five Table 1 APIs, and a simulated-time
*timeline* that gives ``master_nowait`` its meaning — an asynchronous
region occupies device time that overlaps whatever the IA32 shred does
before calling :meth:`ParallelRegion.wait`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..cpu.ia32 import CpuWork
from ..errors import ChiError, DescriptorError, PragmaError
from ..exo.shred import ShredDescriptor
from ..fabric.device import DeviceRunReport, FabricRunResult
from ..fabric.dispatcher import (
    WorkItem,
    WorkStealingDispatcher,
    dependency_groups,
    drain_devices,
)
from ..gma.counters import EngineCounters
from ..gma.firmware import GmaRunResult
from ..isa.assembler import assemble
from ..isa.program import Program
from ..memory.surface import Surface
from .descriptors import AccessMode, DescriptorAttrib, SurfaceDescriptor
from .fatbinary import FatBinary
from .platform import ExoPlatform


@dataclass
class Timeline:
    """Simulated wall-clock of the main IA32 shred."""

    now: float = 0.0
    events: List[tuple] = field(default_factory=list)

    def host_busy(self, seconds: float, label: str = "host") -> None:
        self.events.append((self.now, seconds, label))
        self.now += seconds

    def async_span(self, seconds: float, label: str) -> float:
        """Register overlapped work; returns its completion time."""
        self.events.append((self.now, seconds, label))
        return self.now + seconds

    def wait_until(self, t: float) -> None:
        self.now = max(self.now, t)


@dataclass
class ParallelRegion:
    """Handle for one heterogeneous parallel construct.

    ``result`` is a :class:`~repro.gma.firmware.GmaRunResult` when the
    region ran on a single fabric device (the common case) or a
    :class:`~repro.fabric.device.FabricRunResult` when the dispatcher
    spread it across several; both expose the same aggregate counters.
    """

    runtime: "ChiRuntime"
    result: Union[GmaRunResult, FabricRunResult]
    gma_seconds: float
    completion_time: float
    master_nowait: bool
    waited: bool = False

    def wait(self) -> GmaRunResult:
        """Block the main IA32 shred until all heterogeneous shreds are
        done (the implied barrier, or the deferred one under
        ``master_nowait``)."""
        if not self.waited:
            self.runtime.timeline.wait_until(self.completion_time)
            self.waited = True
        return self.result


class TaskHandle:
    """Identifies one enqueued task for dependence declarations."""

    def __init__(self, shred: ShredDescriptor):
        self._shred = shred

    @property
    def shred_id(self) -> int:
        return self._shred.shred_id


class TaskQueue:
    """The ``taskq`` construct: producer-consumer shred enqueueing.

    The body of the ``with`` statement plays the root shred, which
    "sequentially executes the while or for loop within the taskq
    construct"; each :meth:`task` call enqueues one child shred, and the
    queue launches at scope exit.
    """

    def __init__(self, runtime: "ChiRuntime", target: str,
                 master_nowait: bool = False):
        self.runtime = runtime
        self.target = target
        self.master_nowait = master_nowait
        self._shreds: List[ShredDescriptor] = []
        self.region: Optional[ParallelRegion] = None

    def task(self, section: Union[int, str, Program], *,
             captureprivate: Optional[Dict[str, float]] = None,
             shared: Optional[Dict[str, object]] = None,
             depends: Sequence[TaskHandle] = ()) -> TaskHandle:
        """Enqueue one task; ``captureprivate`` values are copy-constructed
        at enqueue time (hence the eager ``dict(...)``)."""
        program = self.runtime._resolve_section(section, self.target)
        surfaces = self.runtime._resolve_shared(shared or {})
        shred = ShredDescriptor(
            program=program,
            bindings=dict(captureprivate or {}),
            surfaces=surfaces,
            depends_on=tuple(h.shred_id for h in depends),
        )
        self._shreds.append(shred)
        return TaskHandle(shred)

    def __enter__(self) -> "TaskQueue":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.region = self.runtime._launch(
                self._shreds, master_nowait=self.master_nowait,
                target=self.target)
        return False


class ChiRuntime:
    """The user-level runtime layer over one :class:`ExoPlatform`."""

    def __init__(self, platform: Optional[ExoPlatform] = None,
                 fatbinary: Optional[FatBinary] = None):
        self.platform = platform or ExoPlatform()
        self.fatbinary = fatbinary or FatBinary(name="chi-app")
        self.timeline = Timeline()
        #: schedule-transform memo: id(program) + uniform bindings ->
        #: (source program kept alive, scheduled program, spec, trials).
        #: Returning the *same* transformed Program object across
        #: launches keeps the predecode cache warm.
        self._schedule_memo: Dict[tuple, tuple] = {}
        self._descriptors: List[SurfaceDescriptor] = []
        self._features: Dict[str, Dict[str, object]] = {}
        self._pershred_features: Dict[int, Dict[str, object]] = {}
        self.stats = RuntimeStats()

    # ------------------------------------------------------------------
    # Table 1: the CHI APIs
    # ------------------------------------------------------------------

    def chi_alloc_desc(self, target_isa: str, surface: Surface,
                       mode: AccessMode, width: Optional[int] = None,
                       height: Optional[int] = None) -> SurfaceDescriptor:
        """API #1: allocate a descriptor for a shared variable."""
        self._check_isa(target_isa)
        if width is not None and width != surface.width:
            raise DescriptorError(
                f"descriptor width {width} != surface width {surface.width}")
        if height is not None and height != surface.height:
            raise DescriptorError(
                f"descriptor height {height} != surface height "
                f"{surface.height}")
        desc = SurfaceDescriptor(surface=surface, mode=mode,
                                 target_isa=target_isa)
        self._descriptors.append(desc)
        return desc

    def chi_free_desc(self, target_isa: str, desc: SurfaceDescriptor) -> None:
        """API #2: deallocate an existing descriptor."""
        self._check_isa(target_isa)
        desc.check_alive()
        desc.freed = True

    def chi_modify_desc(self, target_isa: str, desc: SurfaceDescriptor,
                        attrib: DescriptorAttrib, value) -> None:
        """API #3: modify a descriptor's default attributes."""
        self._check_isa(target_isa)
        desc.modify(attrib, value)

    #: Feature names APIs #4/#5 understand natively ("An application can
    #: directly utilize new hardware features simply by making the
    #: appropriate call", section 4.4); unknown names are stored verbatim
    #: for application-defined use.  A tuple lists the accepted values;
    #: the ``"numeric"`` sentinel accepts any real number.
    KNOWN_FEATURES = {
        "sampler_filter": ("bilinear", "nearest"),
        "priority": "numeric",
    }

    def _validate_feature(self, feature: str, value) -> None:
        rule = self.KNOWN_FEATURES.get(feature)
        if rule is None:
            return
        if rule == "numeric":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ChiError(
                    f"feature {feature!r} needs a numeric value, "
                    f"got {value!r}")
        elif value not in rule:
            raise ChiError(
                f"feature {feature!r} accepts {rule}, got {value!r}")

    def chi_set_feature(self, target_isa: str, feature: str, value) -> None:
        """API #4: a global change applying to all exo-sequencer state."""
        self._check_isa(target_isa)
        self._validate_feature(feature, value)
        if feature == "sampler_filter":
            for fd in self.platform.fabric.devices_for(target_isa,
                                                       executing=True):
                gma = getattr(fd, "gma", None)
                if gma is None and hasattr(fd, "driver"):
                    gma = fd.driver.device
                if gma is not None:
                    gma.sampler.filter_mode = value
        self._features.setdefault(target_isa, {})[feature] = value

    def chi_set_feature_pershred(self, target_isa: str, shred_id: int,
                                 feature: str, value) -> None:
        """API #5: change an exo-sequencer's state for one shred.

        Values of known features are validated exactly as
        :meth:`chi_set_feature` validates them, so a mistyped per-shred
        priority fails here rather than silently ordering nothing.
        """
        self._check_isa(target_isa)
        self._validate_feature(feature, value)
        self._pershred_features.setdefault(shred_id, {})[feature] = value

    def feature(self, target_isa: str, feature: str, default=None):
        return self._features.get(target_isa, {}).get(feature, default)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------

    def compile_asm(self, asm_text: str, target_isa: str = "X3000",
                    name: str = "asm-block") -> int:
        """Assemble an inline-assembly block into a fat-binary section."""
        self._check_isa(target_isa)
        program = assemble(asm_text, name=name)
        return self.fatbinary.add_section(target_isa, program, asm_text)

    # ------------------------------------------------------------------
    # the OpenMP parallel extension (fork-join)
    # ------------------------------------------------------------------

    def parallel(self, section: Union[int, str, Program], *,
                 target: str = "X3000",
                 shared: Optional[Dict[str, object]] = None,
                 firstprivate: Optional[Dict[str, float]] = None,
                 private: Optional[Iterable[Dict[str, float]]] = None,
                 num_threads: Optional[int] = None,
                 master_nowait: bool = False) -> ParallelRegion:
        """``#pragma omp parallel target(...)``.

        ``private`` supplies one binding dict per shred (the per-iteration
        copy-constructed values); alternatively ``num_threads`` spawns that
        many shreds bound with ``tid``.  ``shared`` maps assembly symbol
        names to surfaces or descriptors.
        """
        program = self._resolve_section(section, target)
        surfaces = self._resolve_shared(shared or {})
        consts = dict(firstprivate or {})

        if private is None:
            if num_threads is None:
                raise PragmaError(
                    "parallel needs either private bindings or num_threads")
            bindings_list = [{"tid": float(i)} for i in range(num_threads)]
        else:
            bindings_list = [dict(b) for b in private]
            if num_threads is not None and num_threads != len(bindings_list):
                raise PragmaError(
                    f"num_threads({num_threads}) != number of private "
                    f"bindings ({len(bindings_list)})")
        program = self._apply_schedule(program, consts, bindings_list)
        self._check_symbols(program, surfaces, consts, bindings_list)

        shreds = [
            ShredDescriptor(program=program, bindings={**consts, **b},
                            surfaces=surfaces)
            for b in bindings_list
        ]
        return self._launch(shreds, master_nowait=master_nowait,
                            target=target)

    def taskq(self, target: str = "X3000",
              master_nowait: bool = False) -> TaskQueue:
        """``#pragma intel omp taskq target(...)``."""
        self._check_isa(target)
        return TaskQueue(self, target, master_nowait=master_nowait)

    # ------------------------------------------------------------------
    # host-side work (the main IA32 shred between constructs)
    # ------------------------------------------------------------------

    def run_host(self, work: CpuWork, fraction: float = 1.0,
                 label: str = "host") -> float:
        """Execute IA32-side work on the timeline; returns its seconds."""
        execution = self.platform.cpu.execute(work, fraction)
        self.timeline.host_busy(execution.seconds, label)
        self.stats.cpu_seconds += execution.seconds
        return execution.seconds

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _apply_schedule(self, program: Program,
                        consts: Dict[str, float],
                        bindings_list: List[Dict[str, float]]) -> Program:
        """Run the platform's schedule transform over a region's program.

        Loop bounds are resolved from the constants plus any binding that
        is *uniform* across the region's shreds.  Results are memoized by
        source-program identity so repeat launches reuse one transformed
        ``Program`` object (warm predecode cache).
        """
        spec = getattr(self.platform, "schedule", None)
        if spec is None:
            return program
        uniform = dict(consts)
        if bindings_list:
            for name, value in bindings_list[0].items():
                if all(b.get(name) == value for b in bindings_list[1:]):
                    uniform.setdefault(name, value)
        try:
            key = (id(program), tuple(sorted(uniform.items())))
        except TypeError:
            key = None
        if key is not None and key in self._schedule_memo:
            source, scheduled, name, trials = self._schedule_memo[key]
            if source is program:
                self.stats.note_schedule(name, 0,
                                         applied=scheduled is not program)
                return scheduled
        from ..isa.tuning import resolve_schedule
        scheduled, name, trials = resolve_schedule(program, spec, uniform)
        if key is not None:
            self._schedule_memo[key] = (program, scheduled, name, trials)
        self.stats.note_schedule(name, trials,
                                 applied=scheduled is not program)
        return scheduled

    def _launch(self, shreds: List[ShredDescriptor],
                master_nowait: bool, target: str = "X3000") -> ParallelRegion:
        platform = self.platform
        devices = platform.fabric.require(target, executing=True)
        # per-shred priorities (API #5) order the work queue: "the CHI
        # runtime allows programmers to carefully orchestrate shred
        # scheduling" (section 5.1).  Stable sort keeps the locality of
        # equal-priority neighbours.
        if self._pershred_features:
            shreds = sorted(
                shreds,
                key=lambda s: -float(self._pershred_features
                                     .get(s.shred_id, {}).get("priority", 0)))
        copy_seconds = 0.0
        if not platform.shared_virtual_memory:
            copy_seconds = self._data_copy_seconds(shreds)
            self.timeline.host_busy(copy_seconds, "data-copy")
        elif not platform.coherent:
            # release the working set to the device before SIGNAL
            flushed = platform.coherence.flush("cpu")
            flush_seconds = platform.bandwidth.flush_seconds(flushed)
            self.timeline.host_busy(flush_seconds, "cache-flush")
            self.stats.flush_seconds += flush_seconds

        atr_before = self._atr_counters(devices)
        if len(devices) == 1:
            reports = drain_devices([(devices[0], shreds)])
            result = reports[0].merged_result()
        else:
            reports = self._dispatch_fabric(shreds, devices)
            result = FabricRunResult(reports=reports)
        for name, after in self._atr_counters(devices).items():
            before = atr_before.get(name, {})
            self.stats.note_atr(name, {k: v - before.get(k, 0)
                                       for k, v in after.items()})
        gma_seconds = max((r.seconds for r in reports), default=0.0)

        if not platform.shared_virtual_memory:
            # results come back by explicit copy as well
            pass  # outbound copy already included in _data_copy_seconds
        elif not platform.coherent:
            # the device commits its lines before releasing the semaphore
            platform.coherence.flush("gma")

        # the devices drain concurrently: the region spans the slowest
        completion = self.timeline.now
        for report in reports:
            label = ("gma-region" if len(reports) == 1
                     else f"gma-region:{report.device}")
            completion = max(
                completion,
                self.timeline.async_span(report.seconds, label))
        region = ParallelRegion(
            runtime=self, result=result, gma_seconds=gma_seconds,
            completion_time=completion, master_nowait=master_nowait)
        self.stats.regions += 1
        self.stats.shreds += len(shreds)
        self.stats.gma_seconds += gma_seconds
        self.stats.copy_seconds += copy_seconds
        self.stats.note_engine(result)
        for report in reports:
            self.stats.note_device(report.device, report.seconds,
                                   report.shreds)
        if reports:
            self.stats.note_drain(getattr(reports[0], "drain_mode", ""))
        if not master_nowait:
            region.wait()
        return region

    @staticmethod
    def _atr_counters(devices) -> Dict[str, Dict[str, int]]:
        """Cumulative per-device translation counters (GMA backends)."""
        out: Dict[str, Dict[str, int]] = {}
        for device in devices:
            gma = getattr(device, "gma", None)
            if gma is None:
                continue
            view = gma.view
            out[device.name] = {
                "tlb_hits": view.tlb.hits,
                "tlb_misses": view.tlb.misses,
                "gtt_walks": view.gtt_walks,
                "shootdowns": view.shootdowns_received,
            }
        return out

    def _dispatch_fabric(self, shreds: List[ShredDescriptor],
                         devices) -> List[DeviceRunReport]:
        """Spread one batch across several devices of the target ISA.

        Dependency-connected shreds travel together (each device's work
        queue resolves ``depends_on`` locally); whole groups are balanced
        by the work-stealing dispatcher using each backend's own cost
        estimate, so a driver-managed device that must copy its inputs
        bids higher than a shared-virtual-memory device for the same work.
        """
        groups = dependency_groups(shreds)
        items = [
            WorkItem(
                ident=index,
                costs={d.name: d.estimate_seconds(group) for d in devices},
                priority=max(
                    (float(self._pershred_features
                           .get(s.shred_id, {}).get("priority", 0))
                     for s in group), default=0.0),
                payload=group,
            )
            for index, group in enumerate(groups)
        ]
        dispatcher = WorkStealingDispatcher([d.name for d in devices])
        outcome = dispatcher.dispatch(items)
        assignments = [
            (device, [shred for item in outcome.items_on(device.name)
                      for shred in item.payload])
            for device in devices
        ]
        return drain_devices(assignments)

    def _data_copy_seconds(self, shreds: List[ShredDescriptor]) -> float:
        """Explicit copies for the no-shared-virtual-memory configuration:
        inputs to the device's address space, outputs back."""
        surfaces = {}
        for shred in shreds:
            surfaces.update(shred.surfaces)
        modes = {d.surface.name: d.mode for d in self._descriptors
                 if not d.freed}
        nbytes = 0
        for name, surf in surfaces.items():
            mode = modes.get(name, AccessMode.CHI_INOUT)
            if mode in (AccessMode.CHI_INPUT, AccessMode.CHI_INOUT):
                nbytes += surf.nbytes
            if mode in (AccessMode.CHI_OUTPUT, AccessMode.CHI_INOUT):
                nbytes += surf.nbytes
        self.stats.bytes_copied += nbytes
        return self.platform.bandwidth.copy_seconds(nbytes)

    def _resolve_section(self, section: Union[int, str, Program],
                         target: str) -> Program:
        self._check_isa(target)
        if isinstance(section, Program):
            return section
        if isinstance(section, int):
            sec = self.fatbinary.section(section)
            if sec.isa != target:
                raise PragmaError(
                    f"section {section} is {sec.isa} code but the pragma "
                    f"targets {target}")
            return self.fatbinary.program(section)
        if isinstance(section, str):
            return assemble(section, name="inline-asm")
        raise PragmaError(f"cannot resolve code section from {section!r}")

    def _resolve_shared(self, shared: Dict[str, object]) -> Dict[str, Surface]:
        out = {}
        for name, obj in shared.items():
            if isinstance(obj, SurfaceDescriptor):
                obj.check_alive()
                out[name] = obj.surface
            elif isinstance(obj, Surface):
                out[name] = obj
            else:
                raise ChiError(
                    f"shared variable {name!r} must be a Surface or "
                    f"SurfaceDescriptor, got {type(obj).__name__}")
        return out

    def _check_symbols(self, program: Program, surfaces: Dict[str, Surface],
                       consts: Dict[str, float],
                       bindings_list: List[Dict[str, float]]) -> None:
        missing_surfaces = program.surface_symbols() - set(surfaces)
        if missing_surfaces:
            raise PragmaError(
                f"assembly references surfaces {sorted(missing_surfaces)} "
                f"not provided by the shared/descriptor clauses")
        scalars = program.scalar_symbols() - {"__spawn_arg"}
        if not bindings_list:
            missing = scalars - set(consts)
            if missing:
                raise PragmaError(
                    f"assembly references symbols {sorted(missing)} not "
                    f"bound by private/firstprivate clauses")
        # every shred launches with its own private copy; validate each
        # binding dict, not just the first
        for index, bindings in enumerate(bindings_list):
            missing = scalars - set(consts) - set(bindings)
            if missing:
                raise PragmaError(
                    f"assembly references symbols {sorted(missing)} not "
                    f"bound by private/firstprivate clauses (shred {index})")

    def _check_isa(self, target: str) -> None:
        """A ``target(ISA)`` clause must resolve to at least one
        shred-executing device in the platform's fabric."""
        self.platform.fabric.require(target, executing=True)


@dataclass(kw_only=True)
class RuntimeStats(EngineCounters):
    """Aggregate accounting across the runtime's lifetime.

    ``gma_seconds`` accumulates *region spans* (devices drain
    concurrently, so each region contributes its slowest device);
    ``device_seconds`` / ``device_shreds`` break the same work down per
    fabric device, where the busy times of a multi-device region sum.
    The engine counters it inherits sum every engine region's.
    """

    regions: int = 0
    shreds: int = 0
    gma_seconds: float = 0.0
    cpu_seconds: float = 0.0
    copy_seconds: float = 0.0
    flush_seconds: float = 0.0
    bytes_copied: int = 0
    device_seconds: Dict[str, float] = field(default_factory=dict)
    device_shreds: Dict[str, int] = field(default_factory=dict)
    #: Per-device translation accounting: TLB hits/misses, GTT hardware
    #: walks, and shootdown broadcasts the device's view absorbed.
    device_atr: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Instructions retired by every engine region, the total
    #: ``gang_residency_pct`` is a share of.
    instructions: int = 0
    #: Fabric drain accounting: regions drained in process, one device
    #: after another, vs on out-of-process fabric workers.
    drains_serial: int = 0
    drains_process: int = 0
    #: Serving-layer accounting (copied from ``ServingStats`` by
    #: :meth:`~repro.serving.ExoServer.runtime_stats` when a server
    #: fronts the runtime): sessions opened, launches through the
    #: admission controller, and cross-launch gang coalescing.
    sessions_opened: int = 0
    launches_admitted: int = 0
    launches_rejected: int = 0
    gangs_coalesced: int = 0
    coalesced_lanes: int = 0
    #: Schedule-transform accounting (``ExoPlatform(schedule=...)``):
    #: the last applied schedule spec, regions whose program was actually
    #: rewritten, and auto-tuner candidates scored (cache hits add 0).
    schedule_name: str = ""
    schedules_applied: int = 0
    tuner_trials: int = 0

    def note_schedule(self, name: str, trials: int, applied: bool) -> None:
        if name:
            self.schedule_name = name
        self.tuner_trials += trials
        if applied:
            self.schedules_applied += 1

    @property
    def instructions_retired(self) -> int:
        """``instructions``, under the name these stats first carried."""
        return self.instructions

    def note_drain(self, mode: str) -> None:
        if mode == "process":
            self.drains_process += 1
        elif mode == "serial":
            self.drains_serial += 1

    def note_device(self, device: str, seconds: float, shreds: int) -> None:
        self.device_seconds[device] = (
            self.device_seconds.get(device, 0.0) + seconds)
        self.device_shreds[device] = (
            self.device_shreds.get(device, 0) + shreds)

    def note_atr(self, device: str, counters: Dict[str, int]) -> None:
        """Accumulate one launch's translation-counter deltas."""
        bucket = self.device_atr.setdefault(device, {})
        for key, value in counters.items():
            bucket[key] = bucket.get(key, 0) + value

    def note_engine(self, result) -> None:
        """Accumulate one region's engine counters and instructions
        (``GmaRunResult`` and ``FabricRunResult`` hold them; objects
        without the record, such as other backends' results, add
        nothing)."""
        if isinstance(result, EngineCounters):
            self.add(result)
            self.instructions += result.instructions
