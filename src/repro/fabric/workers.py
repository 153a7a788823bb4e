"""Cross-process fabric workers: GMA device pools in child processes.

In-process devices cannot scale device count — every interpreter step
serializes on the GIL, so host threads draining them would only
timeshare one core.  This module shards devices across worker
**processes** instead, while keeping EXO's defining property: one shared
physical memory under everyone.

Architecture
------------

* **Shared frames** — the parent's :class:`~repro.memory.physical.
  PhysicalMemory` is backed by :mod:`multiprocessing.shared_memory`; each
  worker attaches the same segment, so a PFN means the same bytes in
  every process.  Surfaces, register spills, everything data-plane is
  zero-copy.
* **Authoritative paging in the parent** — only the parent's
  :class:`~repro.memory.address_space.AddressSpace` allocates frames.
  Workers run a :class:`MirrorAddressSpace`: launches arrive with a PTE
  snapshot of the surfaces they bind, and any demand fault outside that
  set is proxied back over the pipe (``("fault", ...)``), resolved
  against the real allocator, and the resulting PTE installed in the
  mirror — ATR proxy execution stretched across a process boundary.
* **Cross-process shootdown** — the parent space's shootdown broadcast
  (PR 2) is forwarded over each worker's pipe *synchronously*:
  ``free``/``protect`` does not return until every worker that ever saw
  the space has dropped the PTEs, TLB entries, GTT mirrors and vector
  snapshots for those pages and acked.  A worker that died is skipped —
  it holds no live translations.
* **Staged launch payloads** — each worker owns a small shared-memory
  *staging* segment; a launch's pickled descriptor payload (programs,
  bindings, PTE snapshot) is written there and only a tiny
  ``("launch_shm", seq, nbytes)`` control message crosses the pipe.
  Payloads that outgrow the staging segment fall back to the legacy
  pickled-over-pipe form transparently.  Pickle memoization keeps
  program identity *within* one launch (so ``gang_eligible`` still sees
  one program object); across launches the worker re-interns programs by
  ``(name, source, len)`` so the predecode cache keeps hitting.

Determinism scope: one worker drains one launch at a time (the parent
serializes per-worker conversations), so a single device's results stay
bit-identical to an in-process drain.  Launches on *different* workers
interleave their fault proxies in arrival order at the parent —
partition disjoint surfaces across devices for full determinism.

Shreds spawned on-device inside a worker draw ids from a per-worker
band (:data:`WORKER_SHRED_ID_BASE`), so they can never collide with
parent-side descriptor ids — the serving demux depends on that.
"""

from __future__ import annotations

import itertools
import pickle
import threading
from dataclasses import dataclass
from multiprocessing import Pipe, Process
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import FabricError, ReproError
from ..exo.exoskeleton import Exoskeleton
from ..gma.device import GmaDevice
from ..gma.firmware import GmaRunResult
from ..gma.sampler import TextureSampler
from ..gma.timing import GmaTimingConfig
from ..memory.address_space import AddressSpace
from ..memory.cache import CoherencePoint
from ..memory.physical import PAGE_SHIFT, PhysicalMemory
from .device import DeviceRunReport, FabricDevice
from .queue import DeviceWorkQueue

#: First shred id a worker's on-device spawns may use; worker ``i`` owns
#: the band ``[BASE + i*STRIDE, BASE + (i+1)*STRIDE)``.  Parent-side ids
#: count up from 1 and will not reach this in any realistic run.
WORKER_SHRED_ID_BASE = 1 << 40
WORKER_SHRED_ID_STRIDE = 1 << 32

#: Per-worker launch staging segment size.  Generously above any launch
#: payload seen in practice (a 32-shred kernel batch pickles to a few
#: tens of KiB); oversized payloads fall back to the pipe.
STAGING_BYTES = 8 << 20


@dataclass
class WorkerConfig:
    """Everything a child process needs to rebuild its device pool.

    Must stay picklable under the ``spawn`` start method: plain data
    only, no live objects.
    """

    worker: str
    index: int
    shm_name: str
    shm_size: int
    gma_config: GmaTimingConfig
    engine: str = "megaop"
    #: Launch-payload staging segment (``None`` disables staging and
    #: every launch pickles over the pipe).
    staging_name: Optional[str] = None
    staging_size: int = 0


def _safe_exc(exc: BaseException) -> BaseException:
    """An exception safe to ship over the pipe.

    Library exceptions with positional ``__init__`` args sometimes do not
    survive an unpickle on the far side; round-trip locally and fall back
    to a :class:`FabricError` carrying the text when they do not.
    """
    try:
        clone = pickle.loads(pickle.dumps(exc))
        if type(clone) is type(exc):
            return exc
    except Exception:
        pass
    return FabricError(f"{type(exc).__name__}: {exc}")


class MirrorAddressSpace(AddressSpace):
    """A worker's view of a parent-owned address space.

    The page table mirrors the parent's, filled from launch-time PTE
    snapshots and fault proxies; frames are never allocated here.  The
    shootdown handler (:meth:`AddressSpace.invalidate_mappings`) keeps it
    coherent when the parent frees or reprotects pages.
    """

    def __init__(self, physical: PhysicalMemory, conn, key: int):
        super().__init__(physical=physical, demand_paging=True)
        self._conn = conn
        self._key = key
        #: Faults proxied back to the parent over the pipe.
        self.remote_faults = 0

    def handle_fault(self, vaddr: int, write: bool = False) -> None:
        vpn = vaddr >> PAGE_SHIFT
        if self.page_table.entry(vpn):
            return  # raced with a snapshot install
        self._conn.send(("fault", self._key, (int(vaddr),), bool(write)))
        kind, payload = self._conn.recv()
        if kind == "fault-err":
            raise payload
        for got_vpn, pte in payload.items():
            self.install_pte(got_vpn, pte)
        self.remote_faults += 1
        self.faults_serviced += 1


class _WorkerHost:
    """Child-process state: attached memory, mirror spaces, devices."""

    def __init__(self, conn, config: WorkerConfig):
        self.conn = conn
        self.config = config
        self.physical = PhysicalMemory.attach(config.shm_name,
                                              config.shm_size)
        self.staging = None
        if config.staging_name:
            from multiprocessing import shared_memory

            self.staging = shared_memory.SharedMemory(
                name=config.staging_name, create=False)
        self.spaces: Dict[int, MirrorAddressSpace] = {}
        self.exoskeletons: Dict[int, Exoskeleton] = {}
        self.coherences: Dict[int, CoherencePoint] = {}
        self.devices: Dict[str, GmaDevice] = {}
        self.views: Dict[Tuple[int, str], object] = {}
        # (name, source, len) -> Program: stable identity across launches
        # keeps the predecode cache and its traces hot in this process
        self.programs: Dict[tuple, object] = {}

    # -- contexts -----------------------------------------------------------

    def _space(self, key: int) -> MirrorAddressSpace:
        space = self.spaces.get(key)
        if space is None:
            space = MirrorAddressSpace(self.physical, self.conn, key)
            self.spaces[key] = space
            self.exoskeletons[key] = Exoskeleton(space)
            self.coherences[key] = CoherencePoint(coherent=True)
        return space

    def _device(self, name: str, space: MirrorAddressSpace) -> GmaDevice:
        device = self.devices.get(name)
        if device is None:
            device = GmaDevice(
                space, config=self.config.gma_config,
                engine=self.config.engine)
            self.devices[name] = device
        return device

    def _view(self, key: int, name: str, device: GmaDevice,
              space: MirrorAddressSpace):
        view = self.views.get((key, name))
        if view is None:
            view = device.make_view(space, f"{self.config.worker}:{name}")
            self.views[(key, name)] = view
        return view

    def _intern(self, shreds: List) -> List:
        for shred in shreds:
            program = shred.program
            if not program.source:
                continue  # no stable key; run the fresh copy
            ident = (program.name, program.source,
                     len(program.instructions))
            canonical = self.programs.setdefault(ident, program)
            shred.program = canonical
        return shreds

    # -- operations ---------------------------------------------------------

    def launch(self, seq: int, device_name: str, key: int,
               shreds: List, ptes: Dict[int, int],
               sampler_filter: str) -> None:
        try:
            space = self._space(key)
            for vpn, pte in ptes.items():
                space.install_pte(vpn, pte)
            shreds = self._intern(shreds)
            device = self._device(device_name, space)
            view = self._view(key, device_name, device, space)
            device.bind_context(space, self.exoskeletons[key],
                                self.coherences[key], view)
            device.sampler.filter_mode = sampler_filter
            result = device.run(shreds)
            report = DeviceRunReport(
                device=device_name, isa=device.ISA,
                seconds=device.config.seconds(result.cycles),
                shreds=len(shreds), results=[result],
                config=device.config, sub_batches=1,
                worker=self.config.worker)
        except BaseException as exc:  # ship it; the parent re-raises
            self.conn.send(("error", seq, _safe_exc(exc)))
            return
        self.conn.send(("report", seq, report))

    def launch_shm(self, seq: int, nbytes: int) -> None:
        """A launch whose payload was staged in the shared segment."""
        try:
            if self.staging is None:
                raise FabricError(
                    f"worker {self.config.worker!r} got a staged launch "
                    "but owns no staging segment")
            payload = pickle.loads(self.staging.buf[:nbytes])
        except BaseException as exc:
            self.conn.send(("error", seq, _safe_exc(exc)))
            return
        self.launch(seq, *payload)

    def shootdown(self, key: int, vpns: Sequence[int], reason: str) -> int:
        space = self.spaces.get(key)
        if space is None:
            return 0
        return space.invalidate_mappings(vpns, reason=reason)

    def probe_gather(self, seq: int, device_name: str, key: int,
                     vaddrs: Sequence[int], dtype_name: str) -> None:
        """Debug/test hook: gather through the worker's *cached*
        translations only — exactly what a stale-TLB access would see."""
        try:
            view = self.views.get((key, device_name))
            if view is None:
                raise FabricError(
                    f"no view for space {key} on {device_name!r}")
            values = view.gather(np.asarray(vaddrs, dtype=np.int64),
                                 np.dtype(dtype_name))
        except BaseException as exc:
            self.conn.send(("error", seq, _safe_exc(exc)))
            return
        self.conn.send(("probe-ok", seq, np.asarray(values)))

    def translation_count(self, key: int, device_name: str) -> int:
        view = self.views.get((key, device_name))
        if view is None:
            return 0
        return len(view.gtt)

    def close(self) -> None:
        if self.staging is not None:
            staging, self.staging = self.staging, None
            staging.close()
        self.physical.close()


def _worker_main(conn, config: WorkerConfig) -> None:
    """Child process entry point: serve pipe requests until ``exit``."""
    from ..exo import shred as shred_module

    shred_module._shred_ids = itertools.count(
        WORKER_SHRED_ID_BASE + config.index * WORKER_SHRED_ID_STRIDE)
    host = _WorkerHost(conn, config)
    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "launch_shm":
                host.launch_shm(*msg[1:])
            elif op == "launch":
                host.launch(*msg[1:])
            elif op == "shootdown":
                dropped = host.shootdown(*msg[1:])
                conn.send(("shootdown-ack", dropped))
            elif op == "probe":
                host.probe_gather(*msg[1:])
            elif op == "translations":
                conn.send(("translations", host.translation_count(*msg[1:])))
            elif op == "ping":
                conn.send(("pong", msg[1]))
            elif op == "exit":
                break
    except (EOFError, OSError):
        pass  # parent went away; nothing to clean up but ourselves
    finally:
        host.close()
        try:
            conn.close()
        except OSError:
            pass


class ProcessDeviceWorker:
    """Parent-side handle for one child process hosting GMA devices.

    All pipe conversations are serialized by :attr:`lock` — a launch and
    its fault proxies, a shootdown and its ack, never interleave.  Any
    pipe failure raises :class:`~repro.errors.FabricError` rather than
    hanging on a dead child.
    """

    def __init__(self, pool: "ProcessWorkerPool", name: str, index: int,
                 config: WorkerConfig, staging=None):
        self.pool = pool
        self.name = name
        self.index = index
        self.lock = threading.Lock()
        self.launches = 0
        #: The launch-payload staging segment (parent side owns and
        #: unlinks it; the child only attaches).
        self.staging = staging
        self.staged_launches = 0
        self.piped_launches = 0
        self.closed = False
        #: ``closed`` only means "no more messaging" (``_dead`` sets it
        #: when the child dies mid-conversation); teardown of the
        #: process, pipe and staging segment still has to happen once.
        self._torn_down = False
        #: Space keys this worker has translated for (shootdown targets).
        self.seen_keys: set = set()
        parent_conn, child_conn = Pipe(duplex=True)
        self._conn = parent_conn
        self.process = Process(target=_worker_main,
                               args=(child_conn, config),
                               name=name, daemon=True)
        self.process.start()
        child_conn.close()

    # -- pipe plumbing ------------------------------------------------------

    def _dead(self, what: str) -> FabricError:
        self.closed = True
        return FabricError(
            f"fabric worker {self.name!r} died during {what} "
            f"(pid {self.process.pid}, "
            f"exitcode {self.process.exitcode})")

    def _send(self, msg, what: str) -> None:
        if self.closed:
            raise FabricError(f"fabric worker {self.name!r} is closed")
        try:
            self._conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise self._dead(what) from exc

    def _recv(self, what: str):
        try:
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._dead(what) from exc

    # -- operations ---------------------------------------------------------

    def launch(self, device_name: str, space: AddressSpace,
               shreds: Sequence,
               sampler_filter: str = TextureSampler.filter_mode,
               ) -> DeviceRunReport:
        """Run one batch on ``device_name`` in the worker under
        ``sampler_filter``; blocks until the report arrives, servicing
        the batch's fault proxies inline."""
        key = self.pool.space_key(space)
        ptes = self.pool.prepare(space, shreds)
        seq = self.pool.next_seq()
        args = (device_name, key, list(shreds), ptes, sampler_filter)
        payload = None
        if self.staging is not None:
            payload = pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)
            if len(payload) > self.staging.size:
                payload = None  # oversized: legacy pipe form
        with self.lock:
            self.seen_keys.add(key)
            if payload is not None:
                # the lock serializes conversations, so the staging
                # buffer is free for reuse once _await returns
                self.staging.buf[:len(payload)] = payload
                self._send(("launch_shm", seq, len(payload)), "launch")
                self.staged_launches += 1
            else:
                self._send(("launch", seq) + args, "launch")
                self.piped_launches += 1
            report = self._await(seq, "launch")
        self.launches += 1
        return report

    def _await(self, seq: int, what: str):
        while True:
            msg = self._recv(what)
            op = msg[0]
            if op == "fault":
                _, key, vaddrs, write = msg
                self._send(self.pool.resolve_fault(key, vaddrs, write),
                           "fault reply")
            elif op in ("report", "probe-ok") and msg[1] == seq:
                return msg[2]
            elif op == "error" and msg[1] == seq:
                raise msg[2]
            else:
                raise FabricError(
                    f"fabric worker {self.name!r}: unexpected message "
                    f"{op!r} while awaiting {what}")

    def shootdown(self, key: int, vpns: Sequence[int], reason: str) -> int:
        """Synchronously invalidate the worker's translations for
        ``vpns``; returns PTEs dropped.  No-op for spaces the worker has
        never seen and for dead workers (they hold no translations)."""
        if self.closed or key not in self.seen_keys:
            return 0
        with self.lock:
            self._send(("shootdown", key, tuple(int(v) for v in vpns),
                        reason), "shootdown")
            msg = self._recv("shootdown")
            if msg[0] != "shootdown-ack":
                raise FabricError(
                    f"fabric worker {self.name!r}: expected shootdown-ack, "
                    f"got {msg[0]!r}")
            return msg[1]

    def probe_gather(self, device_name: str, space: AddressSpace,
                     vaddrs: Sequence[int], dtype) -> np.ndarray:
        """Gather through the worker's cached translations (tests)."""
        key = self.pool.space_key(space)
        seq = self.pool.next_seq()
        with self.lock:
            self._send(("probe", seq, device_name, key,
                        [int(v) for v in vaddrs], np.dtype(dtype).name),
                       "probe")
            return self._await(seq, "probe")

    def translation_count(self, device_name: str,
                          space: AddressSpace) -> int:
        """How many GTT entries the worker's view holds (tests)."""
        key = self.pool.space_key(space)
        with self.lock:
            self._send(("translations", key, device_name), "translations")
            msg = self._recv("translations")
            return msg[1]

    def ping(self, timeout: float = 5.0) -> bool:
        seq = self.pool.next_seq()
        with self.lock:
            self._send(("ping", seq), "ping")
            if not self._conn.poll(timeout):
                raise self._dead("ping")
            return self._recv("ping") == ("pong", seq)

    def kill(self) -> None:
        """Hard-kill the child (crash-robustness tests)."""
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)

    def close(self, timeout: float = 5.0) -> None:
        if self._torn_down:
            return
        self._torn_down = True
        self.closed = True
        try:
            with self.lock:
                self._conn.send(("exit",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        self._conn.close()
        if self.staging is not None:
            staging, self.staging = self.staging, None
            staging.close()
            try:
                staging.unlink()
            except FileNotFoundError:
                pass


class ProcessWorkerPool:
    """N worker processes sharing one shared-memory physical store.

    The pool owns the space registry (space -> small integer key shipped
    over pipes), forwards shootdown broadcasts to every worker that has
    translated for the space, and resolves workers' demand faults against
    the authoritative parent page tables.  Given ``physical=None`` it
    creates the shared frame segment itself and owns it: :meth:`close`
    (or a failed construction) releases the segment after the workers.
    A segment passed in stays its creator's to close.
    """

    def __init__(self, physical: Optional[PhysicalMemory], num_workers: int,
                 gma_config: Optional[GmaTimingConfig] = None,
                 engine: str = "megaop",
                 staging_bytes: int = STAGING_BYTES):
        if num_workers < 1:
            raise FabricError(
                f"need at least one fabric worker, got {num_workers}")
        # a bad name must fail here, before any child or segment exists,
        # not in a worker at the first launch
        GmaDevice.check_engine(engine)
        if physical is not None and physical.shm_name is None:
            raise FabricError(
                "process fabric workers need a shared-memory-backed "
                "PhysicalMemory (backing='shared')")
        self._owns_physical = physical is None
        self.physical = physical or PhysicalMemory(backing="shared")
        self.gma_config = gma_config or GmaTimingConfig()
        self.engine = engine
        self.closed = False
        self._seq = itertools.count(1)
        self._keys: Dict[int, int] = {}      # id(space) -> key
        self._spaces: Dict[int, AddressSpace] = {}  # key -> space
        self._next_key = itertools.count(1)
        self._registry_lock = threading.Lock()
        self.workers = []
        try:
            for i in range(num_workers):
                self.workers.append(self._spawn(i, staging_bytes))
        except BaseException:
            self.close()
            raise

    def _spawn(self, index: int, staging_bytes: int) -> ProcessDeviceWorker:
        staging = None
        staging_name, staging_size = None, 0
        if staging_bytes > 0:
            from multiprocessing import shared_memory

            staging = shared_memory.SharedMemory(create=True,
                                                 size=staging_bytes)
            staging_name, staging_size = staging.name, staging.size
        return ProcessDeviceWorker(
            self, f"worker{index}", index,
            WorkerConfig(worker=f"worker{index}", index=index,
                         shm_name=self.physical.shm_name,
                         shm_size=self.physical.size,
                         gma_config=self.gma_config,
                         engine=self.engine,
                         staging_name=staging_name,
                         staging_size=staging_size),
            staging=staging)

    def next_seq(self) -> int:
        return next(self._seq)

    def worker_for(self, index: int) -> ProcessDeviceWorker:
        """Round-robin device placement across the pool."""
        return self.workers[index % len(self.workers)]

    @property
    def staged_launches(self) -> int:
        """Launches whose payload travelled the staging segment."""
        return sum(w.staged_launches for w in self.workers)

    @property
    def piped_launches(self) -> int:
        """Launches that fell back to the pickled-over-pipe form."""
        return sum(w.piped_launches for w in self.workers)

    # -- space registry ------------------------------------------------------

    def adopt_space(self, space: AddressSpace) -> int:
        """Register ``space`` with the pool; its shootdown broadcasts are
        forwarded to workers from now on.  Idempotent."""
        with self._registry_lock:
            key = self._keys.get(id(space))
            if key is None:
                if space.physical is not self.physical:
                    raise FabricError(
                        "space is not backed by the pool's shared "
                        "physical memory")
                key = next(self._next_key)
                self._keys[id(space)] = key
                self._spaces[key] = space
                space.add_shootdown_listener(
                    lambda vpns, reason, _key=key:
                        self._broadcast_shootdown(_key, vpns, reason))
            return key

    def space_key(self, space: AddressSpace) -> int:
        return self.adopt_space(space)

    def _broadcast_shootdown(self, key: int, vpns: Sequence[int],
                             reason: str) -> None:
        """Forward a local shootdown to every worker, synchronously: the
        triggering ``free``/``protect`` returns only after all acks."""
        for worker in self.workers:
            try:
                worker.shootdown(key, vpns, reason)
            except FabricError:
                pass  # a dead worker holds no live translations

    # -- fault service -------------------------------------------------------

    def prepare(self, space: AddressSpace, shreds: Sequence,
                ) -> Dict[int, int]:
        """Eagerly map every bound surface page and snapshot its PTE.

        This is the launch-time half of cross-process ATR: the worker's
        ``_prepare_surfaces`` then transcodes from its mirror table with
        zero pipe round trips.  Pages are only demand-mapped when the
        space does demand paging, matching in-process semantics.
        """
        ptes: Dict[int, int] = {}
        seen: set = set()
        for shred in shreds:
            for surf in shred.surfaces.values():
                if id(surf) in seen:
                    continue
                seen.add(id(surf))
                first = surf.base >> PAGE_SHIFT
                last = (surf.base + surf.nbytes - 1) >> PAGE_SHIFT
                for vpn in range(first, last + 1):
                    if vpn in ptes:
                        continue
                    if (not space.page_table.entry(vpn)
                            and space.demand_paging):
                        space.handle_fault(vpn << PAGE_SHIFT, write=True)
                    pte = space.page_table.entry(vpn)
                    if pte:
                        ptes[vpn] = pte
        return ptes

    def resolve_fault(self, key: int, vaddrs: Sequence[int],
                      write: bool) -> tuple:
        """Service one worker's demand-fault proxy; returns the reply
        message (``fault-ok`` with a PTE snapshot, or ``fault-err``)."""
        space = self._spaces.get(key)
        if space is None:
            return ("fault-err",
                    FabricError(f"unknown space key {key} in fault proxy"))
        try:
            vpns = []
            for vaddr in vaddrs:
                space.translate(int(vaddr), write=bool(write))
                vpns.append(int(vaddr) >> PAGE_SHIFT)
            return ("fault-ok", space.pte_snapshot(vpns))
        except ReproError as exc:
            return ("fault-err", _safe_exc(exc))

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for worker in self.workers:
            worker.close()
        if self._owns_physical:
            self.physical.close()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProcessGmaFabricDevice(FabricDevice):
    """A GMA device hosted in a worker process, as a fabric citizen.

    Drains through the same :meth:`~FabricDevice.run_shreds` as
    :class:`~repro.fabric.device.GmaFabricDevice`; each sub-batch runs in
    the worker, so N of these on N workers actually run concurrently —
    no GIL in common.  The worker keeps one mirror space, exoskeleton
    and view per parent space, so binding a tenant only chooses which
    space launches name, and :attr:`sampler_filter` travels with every
    launch.
    """

    def __init__(self, name: str, worker: ProcessDeviceWorker,
                 space: AddressSpace, config: GmaTimingConfig,
                 queue: Optional[DeviceWorkQueue] = None):
        super().__init__(name, config, queue=queue)
        self.worker = worker
        self.space = space
        self.sampler_filter = TextureSampler.filter_mode

    def bind_context(self, session) -> None:
        self.space = session.space

    def _run_batch(self, batch: Sequence) -> GmaRunResult:
        return self.worker.launch(self.name, self.space, batch,
                                  self.sampler_filter).merged_result()
