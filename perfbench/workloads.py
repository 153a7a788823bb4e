"""The three workloads, driven through the program's public API only.

Each workload runs one *epoch* at a time: build the platform, server or
device set from nothing, run the first verified frame of every kernel or
tenant (the set-up), then run warm frames until a deadline.  The harness
(:mod:`perfbench.harness`) clears the process-wide caches between epochs
and turns the returned :class:`Epoch` records into metrics.

Inputs come only from the run's seed: every kernel cycles through
:data:`INPUT_VARIANTS` seeded input sets, and every serving launch draws
its own seed from the run seed, the tenant and the launch number.
"""

from __future__ import annotations

import asyncio
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.chi.platform import ExoPlatform
from repro.chi.runtime import ChiRuntime
from repro.exo.shred import ShredDescriptor
from repro.gma.device import GmaDevice
from repro.isa import assembler
from repro.kernels import ALL_KERNELS, kernel_by_abbrev
from repro.kernels.base import Geometry, MediaKernel
from repro.memory.address_space import AddressSpace
from repro.memory.surface import Surface
from repro.perf.machine import DEFAULT_MACHINE
from repro.perf.study import BENCH_GEOMETRIES, SMOKE_GEOMETRIES
from repro.serving import ExoServer, SessionQuotas

from . import tracing

#: Seeded input sets each kernel cycles through (a bounded set keeps the
#: kernels' own input caches, and so memory, flat over a run).
INPUT_VARIANTS = 4

#: serve-streams: (kernel, launches per frame).  Four tenants send a
#: burst of single-shred launches the coalescer merges into one gang;
#: two send one multi-shred launch that bypasses it.  Weights alternate
#: 1 and 2 in this order.
SERVE_MIX: Tuple[Tuple[str, int], ...] = (
    ("AlphaBlend", 8), ("BOB", 8), ("ProcAmp", 8), ("ADVDI", 8),
    ("LinearFilter", 1), ("SepiaTone", 1))


@dataclass
class Frame:
    """One verified (or failed) frame of one stream."""

    stream: str
    ready: float   # when the stream could issue it
    done: float    # when its last result was back on the host
    ok: bool

    @property
    def latency(self) -> Optional[float]:
        return self.done - self.ready if self.ok else None


@dataclass
class Epoch:
    setup_s: float = 0.0
    warm_start: float = 0.0
    warm_end: float = 0.0
    frames: List[Frame] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: kernel -> simulated seconds of its first (set-up) frame, for the
    #: Figure 7/8 formulas.
    sim_frame_seconds: Dict[str, float] = field(default_factory=dict)
    #: kernel -> (cycles, instructions) of one run of all its device
    #: invocations; identical for every completed run of the epoch.
    sim_pass: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: workload-specific samples (serve-streams: launch waits, lanes).
    extra: Dict[str, object] = field(default_factory=dict)
    #: Private resident memory of the worker processes at the end of
    #: the warm phase, MB (0 without workers).
    worker_mb: float = 0.0

    def note(self, error: str = "") -> None:
        """Count one operation; a non-empty ``error`` marks it failed."""
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(error)


@dataclass
class Hooks:
    """Harness callbacks around the phases a tracer must see."""

    tracer: object
    #: Called once worker processes exist and before any kernel is
    #: assembled (wrappers installed earlier would be forked too).
    after_fork: Callable[[], None]
    #: Called when the set-up ends and again when the warm phase ends,
    #: with the workload's cumulative counters at that moment.
    mark: Callable[[str, Dict[str, float]], None]
    #: Keep the warm phase going until it holds this many latencies.
    min_samples: int
    hard_deadline: float

    def warm_over(self, frames: List[Frame], deadline: float) -> bool:
        """Past the deadline with enough latencies, past the hard
        deadline, or past the deadline with every frame failed."""
        now = time.perf_counter()
        if now >= self.hard_deadline:
            return True
        samples = sum(f.latency is not None for f in frames)
        return now >= deadline and (samples >= self.min_samples
                                    or samples == 0)


def verify(kernel: MediaKernel, outputs: Dict[str, np.ndarray],
           expected: Dict[str, np.ndarray]) -> str:
    """Empty when every output matches its reference bit for bit."""
    for name, want in expected.items():
        want = np.asarray(want)
        got = outputs[name]
        try:
            kernel.compare(name, got, want)
        except AssertionError as exc:
            return str(exc)
        if not np.array_equal(got, want):
            return f"{kernel.abbrev}: output {name!r} not bit-identical"
    return ""


def private_mb(pid: int) -> float:
    """Resident memory only process ``pid`` maps, in MB: what a forked
    worker holds beyond the pages it still shares with its parent."""
    kb = 0
    with open(f"/proc/{pid}/smaps_rollup") as rollup:
        for line in rollup:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                kb += int(line.split()[1])
    return kb / 1024.0


def _input_seed(seed: int, cycle: int) -> int:
    return seed * INPUT_VARIANTS + cycle % INPUT_VARIANTS


class _KernelStream:
    """One kernel's frames, cycling through its device invocations and
    carrying reference state the way ``run_kernel_on_gma`` does."""

    def __init__(self, kernel: MediaKernel, geom: Geometry, seed: int,
                 program, surfaces: Dict[str, Surface], accessor):
        kernel.check_geometry(geom)
        self.kernel = kernel
        self.geom = geom
        self.seed = seed
        self.program = program
        self.surfaces = surfaces
        self.accessor = accessor
        self.consts = kernel.constants(geom)
        self.bindings = list(kernel.shred_bindings(geom))
        self.invocations = kernel.device_invocations(geom)
        self.issued = 0
        self.state: Dict = {}
        self.cycle_counts = [0.0, 0]

    def frame(self, tracer, launch) -> Tuple[float, str, object]:
        """Upload, reference, launch, download, verify one frame."""
        index = self.issued % self.invocations
        cycle = self.issued // self.invocations
        self.issued += 1
        if index == 0:
            self.state = {}
        inputs = self.kernel.make_frame_inputs(
            self.geom, index, _input_seed(self.seed, cycle))
        for name, image in inputs.items():
            self.surfaces[name].upload(self.accessor, np.asarray(image))
        with tracer.span("kernels.reference"):
            expected, self.state = self.kernel.reference_frame(
                self.geom, inputs, self.state)
        result = launch(self)
        outputs = {name: self.surfaces[name].download(self.accessor)
                   for name in expected}
        done = time.perf_counter()
        with tracer.span("kernels.verify"):
            error = verify(self.kernel, outputs, expected)
        return done, error, result


class _RoundRobinWorkload:
    """Shared epoch shape of paper-suite and chi-fabric: one caller
    serving ten kernel streams in round robin."""

    name = ""
    engine = "megaop"

    def __init__(self, geometries: Optional[Dict[str, Geometry]] = None):
        self.geometries = geometries or BENCH_GEOMETRIES

    # subclasses: build the platform and streams, launch, read, tear down
    def _build(self, hooks: Hooks, seed: int) -> List[_KernelStream]:
        raise NotImplementedError

    def _launch(self, stream: _KernelStream):
        raise NotImplementedError

    def _sim(self, result) -> Tuple[float, float, int]:
        """(simulated seconds, cycles, instructions) of one launch."""
        raise NotImplementedError

    def _counts(self) -> Dict[str, float]:
        return {}

    def _worker_mb(self) -> float:
        return 0.0

    def _close(self) -> None:
        raise NotImplementedError

    def _streams(self, seed: int, alloc, accessor) -> List[_KernelStream]:
        streams = []
        for cls in ALL_KERNELS:
            kernel = cls()
            geom = self.geometries[kernel.abbrev]
            program = assembler.assemble(kernel.asm_source(geom),
                                         name=kernel.abbrev)
            surfaces = {spec.name: alloc(kernel.abbrev, spec)
                        for spec in kernel.surface_specs(geom)}
            streams.append(_KernelStream(kernel, geom, seed, program,
                                         surfaces, accessor(kernel.abbrev)))
        return streams

    def run_epoch(self, hooks: Hooks, seed: int,
                  warm_seconds: float) -> Epoch:
        epoch = Epoch()
        tracer = hooks.tracer
        start = time.perf_counter()
        try:
            streams = self._build(hooks, seed)
            tracer.frame = -1
            for stream in streams:
                _, error = self._step(stream, epoch, tracer, first=True)
                epoch.note(error)
            epoch.setup_s = time.perf_counter() - start
            hooks.mark("setup", self._counts())

            epoch.warm_start = time.perf_counter()
            deadline = epoch.warm_start + warm_seconds
            # every stream issues a frame when the warm phase starts, then
            # the next one as soon as its previous one is done
            ready = {s.kernel.abbrev: epoch.warm_start for s in streams}
            while not hooks.warm_over(epoch.frames, deadline):
                for stream in streams:
                    abbrev = stream.kernel.abbrev
                    tracer.frame = len(epoch.frames)
                    done, error = self._step(stream, epoch, tracer)
                    epoch.note(error)
                    epoch.frames.append(
                        Frame(abbrev, ready[abbrev], done, not error))
                    ready[abbrev] = done
            epoch.warm_end = time.perf_counter()
            epoch.worker_mb = self._worker_mb()
            hooks.mark("warm", self._counts())
        finally:
            tracer.frame = None
            self._close()
        return epoch

    def _step(self, stream: _KernelStream, epoch: Epoch, tracer,
              first: bool = False) -> Tuple[float, str]:
        """One frame: (done, error).  Every completed cycle of a kernel's
        invocations must repeat the simulated counts of its first."""
        abbrev = stream.kernel.abbrev
        try:
            done, error, result = stream.frame(tracer, self._launch)
        except Exception as exc:  # a failed operation, not a crash
            return (time.perf_counter(),
                    f"{abbrev}: {type(exc).__name__}: {exc}")
        seconds, cycles, instructions = self._sim(result)
        if first:
            epoch.sim_frame_seconds[abbrev] = seconds
        stream.cycle_counts[0] += cycles
        stream.cycle_counts[1] += instructions
        if stream.issued % stream.invocations == 0:
            whole = tuple(stream.cycle_counts)
            stream.cycle_counts = [0.0, 0]
            known = epoch.sim_pass.setdefault(abbrev, whole)
            if known != whole and not error:
                error = (f"{abbrev}: simulated counts moved from {known} "
                         f"to {whole}")
        return done, error


class PaperSuite(_RoundRobinWorkload):
    """The ten Table 2 kernels, each on its own in-process megaop device."""

    name = "paper-suite"

    def config(self) -> dict:
        return {"engine": self.engine,
                "devices": "one GmaDevice per kernel, one caller",
                "geometries": {k: str(g) for k, g in self.geometries.items()}}

    def _build(self, hooks: Hooks, seed: int) -> List[_KernelStream]:
        hooks.after_fork()  # nothing forks here
        self.devices = {cls.abbrev: GmaDevice(AddressSpace(),
                                              engine=self.engine)
                        for cls in ALL_KERNELS}
        return self._streams(
            seed,
            lambda abbrev, spec: Surface.alloc(
                self.devices[abbrev].space, spec.name, spec.width,
                spec.height, spec.dtype),
            lambda abbrev: self.devices[abbrev].space)

    def _launch(self, stream: _KernelStream):
        shreds = [ShredDescriptor(program=stream.program,
                                  bindings={**stream.consts, **b},
                                  surfaces=stream.surfaces)
                  for b in stream.bindings]
        return self.devices[stream.kernel.abbrev].run(shreds)

    def _sim(self, result) -> Tuple[float, float, int]:
        return (DEFAULT_MACHINE.gma.seconds(result.cycles), result.cycles,
                result.instructions)

    def _close(self) -> None:
        self.devices = {}


class ChiFabric(_RoundRobinWorkload):
    """The same kernels as CHI parallel regions on a two-worker fabric."""

    name = "chi-fabric"
    platform_args = dict(num_gma_devices=2, fabric_workers=2,
                         gma_engine="megaop", schedule="auto")

    def config(self) -> dict:
        return {"engine": self.engine, "platform": dict(self.platform_args),
                "geometries": {k: str(g) for k, g in self.geometries.items()}}

    def _build(self, hooks: Hooks, seed: int) -> List[_KernelStream]:
        self.platform = ExoPlatform(**self.platform_args)
        hooks.after_fork()
        self.runtime = ChiRuntime(self.platform)
        space = self.platform.space
        return self._streams(
            seed,
            lambda abbrev, spec: Surface.alloc(space, spec.name, spec.width,
                                               spec.height, spec.dtype),
            lambda abbrev: self.platform.host)

    def _launch(self, stream: _KernelStream):
        # surfaces shared, constants firstprivate, tile origins private
        return self.runtime.parallel(stream.program, shared=stream.surfaces,
                                     firstprivate=stream.consts,
                                     private=stream.bindings)

    def _sim(self, region) -> Tuple[float, float, int]:
        result = region.result
        reports = getattr(result, "reports", None)
        cycles = (result.cycles if reports is None else
                  sum(r.merged_result().cycles for r in reports))
        return region.gma_seconds, cycles, result.instructions

    def _counts(self) -> Dict[str, float]:
        """Engine counters of the worker-side devices, as the regions
        report them, plus the pool's launch-payload counts."""
        stats = self.runtime.stats
        pool = self.platform.fabric_pool
        return {
            "gma.instructions": stats.instructions_retired,
            "gma.megaops_retired": stats.megaops_retired,
            "gma.megaop_deopts": stats.megaop_deopts,
            "gma.fusion_compiles": stats.fusion_compiles,
            "gma.scalar_fallbacks": stats.scalar_fallbacks,
            "gma.gang_lanes_retired": stats.gang_lanes_retired,
            "fabric.staged_launches": pool.staged_launches,
            "fabric.piped_launches": pool.piped_launches,
        }

    def _worker_mb(self) -> float:
        return sum(private_mb(w.process.pid)
                   for w in self.platform.fabric_pool.workers)

    def _close(self) -> None:
        platform, self.platform = getattr(self, "platform", None), None
        if platform is not None:
            platform.close()


# -- serve-streams --------------------------------------------------------------


class _Tenant:
    """One closed-loop video stream: one frame in flight at a time."""

    def __init__(self, server: ExoServer, index: int, abbrev: str,
                 launches: int, seed: int, geom: Geometry):
        self.server = server
        self.index = index
        self.kernel = kernel_by_abbrev(abbrev)
        self.geom = geom
        self.kernel.check_geometry(geom)
        self.launches = launches
        self.weight = 1.0 + index % 2
        self.seed = seed
        self.session = server.open_session(
            f"tenant{index}-{abbrev}", SessionQuotas(weight=self.weight))
        self.program = assembler.assemble(self.kernel.asm_source(geom),
                                          name=abbrev)
        consts = self.kernel.constants(geom)
        self.bindings = [{**consts, **b}
                         for b in self.kernel.shred_bindings(geom)]
        self.sequence = 0

    @property
    def stream(self) -> str:
        return self.session.name

    async def frame(self, epoch: Epoch, tracer):
        """Alloc + upload every launch, submit them together, then
        download, verify and free each.

        Returns ``(ready, done, ok, replies)`` where each reply is
        ``(submitted, answered, LaunchResult)``.
        """
        kernel, geom, session = self.kernel, self.geom, self.session
        ready = time.perf_counter()
        tracing.current_frame.set(f"{self.stream}#{self.sequence}")
        prepared = []
        for _ in range(self.launches):
            self.sequence += 1
            launch_seed = (self.seed * 1_000_003 + self.index * 10_007
                           + self.sequence)
            surfaces = {
                spec.name: session.alloc_surface(
                    f"{self.sequence}:{spec.name}", spec.width,
                    spec.height, spec.dtype)
                for spec in kernel.surface_specs(geom)}
            inputs = kernel.make_frame_inputs(geom, 0, launch_seed)
            for name, image in inputs.items():
                surfaces[name].upload(session.space, np.asarray(image))
            with tracer.span("kernels.reference"):
                expected, _ = kernel.reference_frame(geom, inputs, {})
            prepared.append((self.sequence, surfaces, expected))

        async def submit(surfaces):
            sent = time.perf_counter()
            result = await self.server.submit(
                session, self.program, bindings=self.bindings,
                surfaces=surfaces)
            return sent, time.perf_counter(), result

        replies = await asyncio.gather(
            *(submit(surfaces) for _, surfaces, _ in prepared),
            return_exceptions=True)
        done = time.perf_counter()
        ok = True
        answered = []
        for (sequence, surfaces, expected), reply in zip(prepared, replies):
            if isinstance(reply, Exception):
                error = f"{self.stream}: {type(reply).__name__}: {reply}"
            elif isinstance(reply, BaseException):
                raise reply
            else:
                outputs = {name: surfaces[name].download(session.space)
                           for name in expected}
                with tracer.span("kernels.verify"):
                    error = verify(kernel, outputs, expected)
                answered.append(reply)
            epoch.note(error)
            ok = ok and not error
            for name in surfaces:
                session.free_surface(f"{sequence}:{name}")
        return ready, done, ok, answered


class ServeStreams:
    """Six closed-loop tenants on one ExoServer with its defaults."""

    name = "serve-streams"

    def __init__(self, geometries: Optional[Dict[str, Geometry]] = None):
        self.geometries = geometries or SMOKE_GEOMETRIES

    def config(self) -> dict:
        defaults = inspect.signature(ExoServer).parameters
        return {"server": {name: str(defaults[name].default) for name in
                           ("num_devices", "engine", "admission_policy",
                            "coalesce_window")},
                "mix": [list(m) for m in SERVE_MIX],
                "weights": [1 + i % 2 for i in range(len(SERVE_MIX))],
                "geometries": {a: str(self.geometries[a])
                               for a, _ in SERVE_MIX}}

    def run_epoch(self, hooks: Hooks, seed: int,
                  warm_seconds: float) -> Epoch:
        return asyncio.run(self._epoch(hooks, seed, warm_seconds))

    async def _epoch(self, hooks: Hooks, seed: int,
                     warm_seconds: float) -> Epoch:
        epoch = Epoch()
        tracer = hooks.tracer
        start = time.perf_counter()
        server = ExoServer()
        await server.start()
        try:
            hooks.after_fork()  # the default server forks nothing
            tenants = [_Tenant(server, i, abbrev, launches, seed,
                               self.geometries[abbrev])
                       for i, (abbrev, launches) in enumerate(SERVE_MIX)]
            firsts = await asyncio.gather(
                *(self._guarded(t, epoch, tracer) for t in tenants))
            epoch.setup_s = time.perf_counter() - start
            for tenant, first in zip(tenants, firsts):
                if first is not None and first[3]:
                    _, _, result = first[3][0]
                    epoch.sim_frame_seconds[tenant.kernel.abbrev] = (
                        result.seconds / result.coalesced_requests)
            hooks.mark("setup", self._counts(server, tenants))

            waits: List[float] = []
            drains: List[float] = []
            epoch.warm_start = time.perf_counter()
            deadline = epoch.warm_start + warm_seconds
            await asyncio.gather(*(
                self._loop(t, epoch, tracer, deadline, hooks, waits, drains)
                for t in tenants))
            epoch.warm_end = time.perf_counter()
            hooks.mark("warm", self._counts(server, tenants))
            epoch.extra = {"waits": waits, "drains": drains,
                           "weights": {t.stream: t.weight for t in tenants},
                           "burst": {t.stream: t.launches > 1
                                     for t in tenants}}
            for tenant in tenants:
                server.close_session(tenant.session)
        finally:
            await server.stop()
        return epoch

    @staticmethod
    def _counts(server: ExoServer, tenants: List[_Tenant]) -> Dict[str, float]:
        counts = {"serving.batches": server.stats.batches_dispatched,
                  "serving.lanes": server.stats.shreds_executed,
                  "memory.shootdowns": sum(t.session.space.shootdowns
                                           for t in tenants)}
        for tenant in tenants:
            counts[f"lanes.{tenant.stream}"] = tenant.session.shreds_executed
        return counts

    @staticmethod
    async def _guarded(tenant: _Tenant, epoch: Epoch, tracer):
        try:
            return await tenant.frame(epoch, tracer)
        except Exception as exc:  # a failed operation, not a crash
            epoch.note(f"{tenant.stream}: {type(exc).__name__}: {exc}")
            return None

    async def _loop(self, tenant: _Tenant, epoch: Epoch, tracer,
                    deadline: float, hooks: Hooks, waits: List[float],
                    drains: List[float]) -> None:
        while not hooks.warm_over(epoch.frames, deadline):
            started = time.perf_counter()
            reply = await self._guarded(tenant, epoch, tracer)
            if reply is None:
                epoch.frames.append(Frame(tenant.stream, started,
                                          time.perf_counter(), False))
                continue
            ready, done, ok, answered = reply
            epoch.frames.append(Frame(tenant.stream, ready, done, ok))
            for sent, back, result in answered:
                waits.append(back - sent - result.wall_seconds)
                drains.append(result.wall_seconds)


WORKLOADS = {cls.name: cls for cls in (PaperSuite, ChiFabric, ServeStreams)}
