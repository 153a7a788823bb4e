"""The asyncio front-end: sessions in, launch results out.

``ExoServer`` owns a pool of :class:`~repro.gma.device.GmaDevice` slots
over one shared :class:`~repro.memory.physical.PhysicalMemory`.  Clients
open sessions, submit launches, and ``await`` results; a single
dispatch loop matches queued work to free device slots under the
admission controller's weighted fair pick, coalescing same-program
launches into gangs (:mod:`repro.serving.coalescer`) before the drain.

Threading model: all control-plane state (sessions, admission queues,
stats) lives on the event-loop thread.  Only the device drain runs on a
worker thread, and each slot's ``busy`` flag guarantees one drain per
device at a time; a drain touches only that slot's device, the batch's
session (space/exoskeleton/coherence, via ``bind_context``), and that
session's per-slot view — so concurrent drains for *different* sessions
on *different* devices never share mutable state except the physical
frame pool, whose allocator is only exercised from the loop thread
(surfaces are allocated at submit time, not during drains; demand-paged
first touches during a drain are serviced through the session's own
exoskeleton and page table).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..chi.runtime import RuntimeStats
from ..errors import AdmissionRejected, ServingError
from ..exo.shred import ShredDescriptor
from ..fabric.device import DeviceRunReport
from ..fabric.queue import AdmissionPolicy, DeviceWorkQueue
from ..fabric.workers import ProcessDeviceWorker, ProcessWorkerPool
from ..gma.device import GmaDevice
from ..gma.timing import GmaTimingConfig
from ..memory.address_space import AddressSpace
from ..memory.physical import PhysicalMemory
from .admission import AdmissionController
from .coalescer import coalescable, demux
from .session import Session, SessionQuotas

_request_ids = itertools.count(1)


@dataclass
class LaunchRequest:
    """One client launch, queued until a device slot picks it up."""

    ident: int
    session: Session
    shreds: List[ShredDescriptor]
    entry: int
    future: asyncio.Future
    submitted: float


@dataclass
class LaunchResult:
    """What one launch produced, demultiplexed back out of its batch."""

    session: str
    request: int
    shreds: int
    instructions: int
    bytes_read: int
    bytes_written: int
    atr_events: int
    ceh_events: int
    sampler_samples: int
    spawned: int
    device: str
    seconds: float        # simulated drain seconds of the whole batch
    wall_seconds: float   # host wall-clock of the whole batch drain
    coalesced_lanes: int  # lanes in the batch this launch rode in
    coalesced_requests: int  # requests in that batch (1 = solo)
    runs: List = field(default_factory=list)


@dataclass
class ServingStats:
    """Server-lifetime counters (flow into ``RuntimeStats`` and traces)."""

    sessions_opened: int = 0
    sessions_closed: int = 0
    launches_admitted: int = 0
    launches_rejected: int = 0
    launches_completed: int = 0
    gangs_coalesced: int = 0   # batches that merged >= 2 requests
    coalesced_lanes: int = 0   # lanes dispatched in such batches
    batches_dispatched: int = 0
    shreds_executed: int = 0
    device_seconds: float = 0.0


class DeviceSlot:
    """One GMA device plus its admission queue and busy flag.

    A slot is either *local* (``gma`` is a live in-process device) or
    *remote* (``gma`` is ``None`` and ``worker`` is the
    :class:`~repro.fabric.workers.ProcessDeviceWorker` hosting the
    device); ``engine`` and ``config`` are carried explicitly so traces
    and drains never need to reach through a device that may not be in
    this process.
    """

    def __init__(self, name: str, gma: Optional[GmaDevice],
                 queue: DeviceWorkQueue,
                 worker: Optional[ProcessDeviceWorker] = None,
                 engine: str = "gang",
                 config: Optional[GmaTimingConfig] = None):
        self.name = name
        self.gma = gma
        self.queue = queue
        self.worker = worker
        self.engine = gma.engine if gma is not None else engine
        self.config = gma.config if gma is not None else config
        self.busy = False


class ExoServer:
    """Async multi-tenant front-end over a pool of GMA devices."""

    def __init__(self, num_devices: int = 2, engine: str = "gang",
                 queue_depth: Optional[int] = None,
                 admission_policy=AdmissionPolicy.BLOCK,
                 max_pending: int = 256, coalesce_window: int = 32,
                 gma_config: Optional[GmaTimingConfig] = None,
                 physical: Optional[PhysicalMemory] = None,
                 fabric_workers: int = 0,
                 megaop_threshold: Optional[int] = None):
        """``fabric_workers=N`` places the device slots on N child
        processes over shared-memory physical frames (round-robin), so
        concurrent tenant drains stop contending on the GIL.  The server
        then owns worker lifetime: :meth:`stop` reaps the pool and the
        segment, and the server cannot be started again afterwards.
        ``megaop_threshold`` overrides the megaop tier's promotion
        threshold on every device slot (see :mod:`repro.gma.megaop`)."""
        self.fabric_pool: Optional[ProcessWorkerPool] = None
        self._owns_physical = False
        if fabric_workers and physical is None:
            physical = PhysicalMemory(backing="shared")
            self._owns_physical = True
        self.physical = physical or PhysicalMemory()
        #: The space idle devices sit bound to between tenant drains.
        self._idle_space = AddressSpace(physical=self.physical)
        self.engine = engine
        self.policy = AdmissionPolicy.coerce(admission_policy)
        self.coalesce_window = coalesce_window
        config = gma_config or GmaTimingConfig()
        depth = queue_depth or config.num_sequencers * 4

        # device queues always BLOCK: overload is absorbed by the
        # admission controller up front, not by a drain-time error
        def _queue(i):
            return DeviceWorkQueue(depth=depth,
                                   policy=AdmissionPolicy.BLOCK,
                                   name=f"gma{i}-queue")

        if fabric_workers:
            self.fabric_pool = ProcessWorkerPool(
                self.physical, fabric_workers, gma_config=config,
                engine=engine, megaop_threshold=megaop_threshold)
            self.slots = [
                DeviceSlot(name=f"gma{i}", gma=None, queue=_queue(i),
                           worker=self.fabric_pool.worker_for(i),
                           engine=engine, config=config)
                for i in range(num_devices)
            ]
        else:
            self.slots = [
                DeviceSlot(name=f"gma{i}",
                           gma=GmaDevice(self._idle_space, config=config,
                                         engine=engine,
                                         megaop_threshold=megaop_threshold),
                           queue=_queue(i))
                for i in range(num_devices)
            ]
        self.admission = AdmissionController(policy=self.policy,
                                             max_pending=max_pending)
        self.sessions: Dict[str, Session] = {}
        self.stats = ServingStats()
        self._rstats = RuntimeStats()
        #: One record per dispatched batch, consumed by
        #: :func:`repro.perf.trace.serving_trace_events`.
        self.trace_log: List[dict] = []
        self._started = time.perf_counter()
        self._running = False
        self._wakeup: Optional[asyncio.Event] = None
        self._capacity: Optional[asyncio.Condition] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._inflight_batches: set = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "ExoServer":
        if self._running:
            return self
        self._running = True
        self._wakeup = asyncio.Event()
        self._capacity = asyncio.Condition()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._wakeup.set()
        await self._dispatcher
        if self._inflight_batches:
            await asyncio.gather(*self._inflight_batches,
                                 return_exceptions=True)
        if self.fabric_pool is not None:
            self.fabric_pool.close()
            self.fabric_pool = None
        if self._owns_physical:
            self._owns_physical = False
            self.physical.close()

    async def __aenter__(self) -> "ExoServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- sessions -----------------------------------------------------------

    def open_session(self, name: str,
                     quotas: Optional[SessionQuotas] = None) -> Session:
        if name in self.sessions and not self.sessions[name].closed:
            raise ServingError(f"session {name!r} already open")
        session = Session(self, name, quotas)
        if self.fabric_pool is not None:
            # arm cross-process shootdown forwarding for this tenant's
            # space before any of its pages can reach a worker's TLB
            self.fabric_pool.adopt_space(session.space)
        self.sessions[name] = session
        self.stats.sessions_opened += 1
        return session

    def close_session(self, session: Session) -> None:
        session.close()
        self.stats.sessions_closed += 1

    # -- the client API -----------------------------------------------------

    async def submit(self, session: Session, program,
                     bindings: Optional[Sequence[dict]] = None,
                     surfaces: Optional[dict] = None,
                     shreds: Optional[Sequence[ShredDescriptor]] = None,
                     entry: int = 0) -> LaunchResult:
        """Launch shreds on behalf of ``session`` and await the result.

        Either pass prebuilt ``shreds`` or let the server build one
        descriptor per entry of ``bindings`` against ``surfaces``.
        Raises :class:`~repro.errors.QuotaExceeded` when the launch would
        blow the session's descriptor quota (always an error), and
        :class:`~repro.errors.AdmissionRejected` with ``retry_after``
        when the server is overloaded under the RAISE policy; under
        BLOCK the caller waits for capacity instead.
        """
        session._check_open()
        if shreds is None:
            shreds = [
                ShredDescriptor(program=program, bindings=dict(b),
                                surfaces=dict(surfaces or {}), entry=entry)
                for b in (bindings or [{}])
            ]
        else:
            shreds = list(shreds)
        session.charge_descriptors(len(shreds))
        try:
            while True:
                reason = self.admission.try_admit(session)
                if reason is None:
                    break
                if self.policy is AdmissionPolicy.RAISE:
                    session.rejected += 1
                    self.stats.launches_rejected += 1
                    raise AdmissionRejected(
                        reason,
                        retry_after=self.admission.retry_after(
                            len(self.slots)))
                async with self._capacity:
                    await self._capacity.wait()
                session._check_open()
        except BaseException:
            session.release_descriptors(len(shreds))
            raise

        request = LaunchRequest(
            ident=next(_request_ids), session=session, shreds=shreds,
            entry=entry, future=asyncio.get_running_loop().create_future(),
            submitted=time.perf_counter())
        session.inflight += 1
        session.launches += 1
        self.stats.launches_admitted += 1
        # enqueue before the first await so a burst of submits from one
        # client task lands in the queue back to back — that adjacency is
        # what the coalescer feeds on
        self.admission.enqueue(request)
        self._wakeup.set()
        try:
            return await request.future
        finally:
            session.inflight -= 1
            session.release_descriptors(len(shreds))
            async with self._capacity:
                self._capacity.notify_all()

    # -- dispatch -----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while self._running:
            await self._wakeup.wait()
            self._wakeup.clear()
            self._pump()

    def _pump(self) -> None:
        """Assign queued work to free device slots (loop thread only)."""
        for slot in self.slots:
            if slot.busy:
                continue
            name = self.admission.pick()
            if name is None:
                return
            requests = self.admission.pop_batch(
                name, self.coalesce_window, coalescable=coalescable)
            session = requests[0].session
            # remote slots keep their views worker-side, per (space,
            # device); only local devices need a parent-side view
            view = session.view_for(slot) if slot.gma is not None else None
            slot.busy = True
            task = asyncio.create_task(
                self._run_batch(slot, session, view, requests))
            self._inflight_batches.add(task)
            task.add_done_callback(self._inflight_batches.discard)

    async def _run_batch(self, slot: DeviceSlot, session: Session,
                         view, requests: List[LaunchRequest]) -> None:
        loop = asyncio.get_running_loop()
        try:
            report = await loop.run_in_executor(
                None, self._drain, slot, session, view, requests)
        except Exception as exc:
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(exc)
            slot.busy = False
            self._wakeup.set()
            return
        merged = report.merged_result()
        lanes = sum(len(r.shreds) for r in requests)
        self.stats.batches_dispatched += 1
        self.stats.shreds_executed += merged.shreds_executed
        self.stats.device_seconds += report.seconds
        if len(requests) > 1:
            self.stats.gangs_coalesced += 1
            self.stats.coalesced_lanes += lanes
        self._rstats.regions += 1
        self._rstats.shreds += merged.shreds_executed
        self._rstats.gma_seconds += report.seconds
        self._rstats.note_engine(merged)
        self._rstats.note_device(slot.name, report.seconds, report.shreds)
        self.trace_log.append({
            "slot": slot.name,
            "worker": report.worker,
            "session": session.name,
            "start": requests[0].submitted - self._started,
            "wall_seconds": report.wall_seconds,
            "seconds": report.seconds,
            "requests": len(requests),
            "lanes": lanes,
            "coalesced": len(requests) > 1,
        })
        per_request = demux(requests, merged)
        for request in requests:
            runs = per_request[request.ident]
            result = LaunchResult(
                session=session.name, request=request.ident,
                shreds=len(runs),
                instructions=sum(r.instructions for r in runs),
                bytes_read=sum(r.bytes_read for r in runs),
                bytes_written=sum(r.bytes_written for r in runs),
                atr_events=sum(r.atr_events for r in runs),
                ceh_events=sum(r.ceh_events for r in runs),
                sampler_samples=sum(r.sampler_samples for r in runs),
                spawned=sum(r.spawned for r in runs),
                device=slot.name, seconds=report.seconds,
                wall_seconds=report.wall_seconds,
                coalesced_lanes=lanes, coalesced_requests=len(requests),
                runs=runs)
            session.completed += 1
            session.shreds_executed += result.shreds
            session.instructions += result.instructions
            session.gma_seconds += report.seconds
            self.stats.launches_completed += 1
            if not request.future.done():
                request.future.set_result(result)
        self.admission.note_service(len(requests), report.wall_seconds)
        slot.busy = False
        self._wakeup.set()

    def _drain(self, slot: DeviceSlot, session: Session, view,
               requests: List[LaunchRequest]) -> DeviceRunReport:
        """Worker thread: context-switch the device and run the batch.

        For a remote slot the context switch happens inside the worker
        process (it keeps one mirror space + view per tenant); this
        thread just feeds the pipe and blocks for the report.
        """
        shreds = [shred for request in requests for shred in request.shreds]
        t0 = time.perf_counter()
        if slot.worker is not None:
            batches = slot.queue.admit(shreds)
            results = []
            seconds = 0.0
            for batch in batches:
                part = slot.worker.launch(slot.name, session.space, batch)
                results.extend(part.results)
                seconds += part.seconds
            report = DeviceRunReport(
                device=slot.name, isa=GmaDevice.ISA, seconds=seconds,
                shreds=len(shreds), results=results, config=slot.config,
                sub_batches=max(len(batches), 1), worker=slot.worker.name)
            report.wall_seconds = time.perf_counter() - t0
            return report
        slot.gma.bind_context(session.space, session.exoskeleton,
                              session.coherence, view)
        batches = slot.queue.admit(shreds)
        results = []
        seconds = 0.0
        for batch in batches:
            result = slot.gma.run(batch)
            results.append(result)
            seconds += slot.gma.config.seconds(result.cycles)
        report = DeviceRunReport(
            device=slot.name, isa=slot.gma.ISA, seconds=seconds,
            shreds=len(shreds), results=results, config=slot.gma.config,
            sub_batches=max(len(batches), 1))
        report.wall_seconds = time.perf_counter() - t0
        return report

    # -- reporting ----------------------------------------------------------

    def runtime_stats(self) -> RuntimeStats:
        """The server's work, in ``RuntimeStats`` shape (for traces/CLI)."""
        for name in ("sessions_opened", "launches_admitted",
                     "launches_rejected", "gangs_coalesced",
                     "coalesced_lanes"):
            setattr(self._rstats, name, getattr(self.stats, name))
        return self._rstats
