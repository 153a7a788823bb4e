"""Event-driven work-stealing dispatch across fabric devices.

This generalizes the closed-form policies of
:mod:`repro.chi.scheduler` — ``static`` / ``oracle`` / ``dynamic``
partitioning of one loop between two sequencer classes — to *real work
queues* over any number of devices on the simulated timeline.  The
mechanism is the one section 5.3 describes as ongoing work: "whenever a
sequencer completes its assigned work it requests additional work of the
runtime".  Here the request is a steal: a device whose local queue has
nothing runnable takes a ready item from the most-loaded peer.

Three properties the dispatcher honors:

* **priority** — among ready items in a queue, the highest per-shred
  priority (CHI API #5) runs first, FIFO among equals;
* **dependencies** — an item never starts before every ``depends_on``
  producer has finished, even when the producer ran on another device;
* **heterogeneous cost** — one item may cost different simulated seconds
  on different devices (the IA32 sequencer vs a GMA core), which is
  exactly what makes the steady state converge to
  :func:`~repro.chi.scheduler.oracle_partition` as items shrink.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..exo.shred import ShredDescriptor


@dataclass
class WorkItem:
    """One schedulable unit: a shred, a shred group, or a loop chunk.

    ``costs`` maps device name to the simulated seconds that device needs
    for the item; the wildcard key ``"*"`` supplies a default for devices
    not named explicitly.
    """

    ident: int
    costs: Dict[str, float]
    priority: float = 0.0
    depends_on: Tuple[int, ...] = ()
    payload: object = None

    def cost_on(self, device: str) -> float:
        cost = self.costs.get(device, self.costs.get("*"))
        if cost is None:
            raise SchedulingError(
                f"work item {self.ident} has no cost for device "
                f"{device!r} (knows {sorted(self.costs)})")
        return cost


@dataclass
class DispatchOutcome:
    """Where everything ran and what it cost."""

    assignments: Dict[str, List[WorkItem]] = field(default_factory=dict)
    #: item ident -> (start, finish, device name), simulated seconds.
    spans: Dict[int, Tuple[float, float, str]] = field(default_factory=dict)
    busy_seconds: Dict[str, float] = field(default_factory=dict)
    makespan: float = 0.0
    steals: int = 0

    def items_on(self, device: str) -> List[WorkItem]:
        return self.assignments.get(device, [])

    def partition_outcome(self, cpu_device: str, gma_device: str):
        """View a two-device dispatch as a
        :class:`~repro.chi.scheduler.PartitionOutcome` for comparison with
        the analytic policies."""
        from ..chi.scheduler import PartitionOutcome

        total = sum(len(v) for v in self.assignments.values())
        on_cpu = len(self.items_on(cpu_device))
        return PartitionOutcome(
            policy=f"work-stealing-{total}",
            cpu_fraction=on_cpu / total if total else 0.0,
            cpu_busy_seconds=self.busy_seconds.get(cpu_device, 0.0),
            gma_busy_seconds=self.busy_seconds.get(gma_device, 0.0),
        )


class WorkStealingDispatcher:
    """Discrete-event simulation of per-device queues plus stealing.

    Each device drains its local queue in priority/FIFO order; a device
    with nothing runnable steals the best ready item from the peer whose
    queue holds the most remaining work.  Items whose producers are still
    in flight block (on whichever queue they sit) until the producer's
    finish time.
    """

    def __init__(self, devices: Sequence[str]):
        if not devices:
            raise SchedulingError("dispatcher needs at least one device")
        if len(set(devices)) != len(devices):
            raise SchedulingError(f"duplicate device names in {devices}")
        self.devices = list(devices)

    def dispatch(self, items: Sequence[WorkItem],
                 initial: Optional[Dict[str, Sequence[WorkItem]]] = None,
                 ) -> DispatchOutcome:
        """Run every item to completion; returns the full schedule.

        ``initial`` pins the starting queue contents per device (unlisted
        items are an error); by default items are dealt out in contiguous
        blocks, which keeps neighbouring items — and the memory lines
        they share — on one device (round-robin interleaving would double
        every device's line traffic).
        """
        items = list(items)
        outcome = DispatchOutcome(
            assignments={name: [] for name in self.devices},
            busy_seconds={name: 0.0 for name in self.devices},
        )
        if not items:
            return outcome
        known = {item.ident for item in items}
        if len(known) != len(items):
            raise SchedulingError("work items carry duplicate idents")
        for item in items:
            missing = [d for d in item.depends_on if d not in known]
            if missing:
                raise SchedulingError(
                    f"work item {item.ident} depends on {missing} which "
                    f"are not part of this dispatch and never complete")

        lanes = self._place(items, initial)
        finish: Dict[int, float] = {}
        remaining = len(items)
        counter = 0  # heap tie-break keeps device order deterministic
        events = []
        for name in self.devices:
            heapq.heappush(events, (0.0, counter, name))
            counter += 1

        while remaining:
            now, _, device = heapq.heappop(events)
            item, stolen = self._acquire(device, lanes, finish, now)
            if item is None:
                wake = self._next_wake(finish, now)
                if wake is None:
                    stuck = sorted(i.ident for lane in lanes.values()
                                   for i in lane)
                    raise SchedulingError(
                        f"dispatch deadlock: items {stuck} wait on "
                        f"dependencies that never complete")
                heapq.heappush(events, (wake, counter, device))
                counter += 1
                continue
            if stolen:
                outcome.steals += 1
            start = max([now] + [finish[d] for d in item.depends_on])
            end = start + item.cost_on(device)
            finish[item.ident] = end
            outcome.spans[item.ident] = (start, end, device)
            outcome.assignments[device].append(item)
            outcome.busy_seconds[device] += end - start
            remaining -= 1
            heapq.heappush(events, (end, counter, device))
            counter += 1

        outcome.makespan = max(f for _, f, _ in outcome.spans.values())
        return outcome

    # -- internals ---------------------------------------------------------

    def _place(self, items: Sequence[WorkItem],
               initial: Optional[Dict[str, Sequence[WorkItem]]],
               ) -> Dict[str, List[WorkItem]]:
        if initial is None:
            lanes: Dict[str, List[WorkItem]] = {n: [] for n in self.devices}
            # contiguous blocks, sized as evenly as the count allows
            quotient, remainder = divmod(len(items), len(self.devices))
            start = 0
            for rank, name in enumerate(self.devices):
                size = quotient + (1 if rank < remainder else 0)
                lanes[name] = list(items[start:start + size])
                start += size
            return lanes
        unknown = set(initial) - set(self.devices)
        if unknown:
            raise SchedulingError(
                f"initial placement names unknown devices {sorted(unknown)}")
        lanes = {n: list(initial.get(n, ())) for n in self.devices}
        placed = [i.ident for lane in lanes.values() for i in lane]
        if sorted(placed) != sorted(i.ident for i in items):
            raise SchedulingError(
                "initial placement must cover every work item exactly once")
        return lanes

    def _acquire(self, device: str, lanes: Dict[str, List[WorkItem]],
                 finish: Dict[int, float], now: float):
        """The device's next item: local queue first, then a steal."""
        item = self._take_ready(lanes[device], finish, now)
        if item is not None:
            return item, False
        # steal from the peer with the most queued work (measured on the
        # victim: that is whose critical path the steal relieves)
        victims = sorted(
            (name for name in self.devices
             if name != device and lanes[name]),
            key=lambda name: -sum(i.cost_on(name) for i in lanes[name]))
        for victim in victims:
            item = self._take_ready(lanes[victim], finish, now)
            if item is not None:
                return item, True
        return None, False

    @staticmethod
    def _take_ready(lane: List[WorkItem], finish: Dict[int, float],
                    now: float) -> Optional[WorkItem]:
        """Pop the highest-priority ready item (FIFO among equals)."""
        best = None
        for idx, item in enumerate(lane):
            if all(d in finish and finish[d] <= now
                   for d in item.depends_on):
                if best is None or item.priority > lane[best].priority:
                    best = idx
        if best is None:
            return None
        return lane.pop(best)

    @staticmethod
    def _next_wake(finish: Dict[int, float], now: float) -> Optional[float]:
        pending = [t for t in finish.values() if t > now]
        return min(pending) if pending else None


def drain_devices(assignments):
    """Run each ``(device, shreds)`` assignment and collect its report.

    In-process devices drain serially, one after another: their
    functional/timing model is single-threaded and deterministic, and
    host threads would only timeshare it under the GIL.  When every
    device is a :class:`~repro.fabric.workers.ProcessGmaFabricDevice`
    proxy (it carries a ``worker``), each host thread just blocks on its
    worker's pipe while the *child process* drains, so the drains run
    concurrently.  Devices share the host
    :class:`~repro.memory.address_space.AddressSpace`: partition
    disjoint surfaces across them for determinism, because concurrent
    drains interleave their fault proxies in arrival order at the
    parent.

    Every report's ``wall_seconds`` records the host wall-clock the drain
    spent inside ``run_shreds`` (useful next to the simulated ``seconds``
    in the fabric Chrome trace), and ``drain_mode`` records whether this
    drain ran ``"process"`` or ``"serial"``.  Empty assignments are
    skipped; report order always matches assignment order.
    """
    pairs = [(device, list(shreds)) for device, shreds in assignments
             if shreds]
    remote = all(getattr(device, "worker", None) is not None
                 for device, _ in pairs)
    mode = "process" if remote else "serial"

    def _run(pair):
        device, shreds = pair
        t0 = time.perf_counter()
        report = device.run_shreds(shreds)
        report.wall_seconds = time.perf_counter() - t0
        report.drain_mode = mode
        return report

    if remote and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=len(pairs)) as pool:
            return list(pool.map(_run, pairs))
    return [_run(pair) for pair in pairs]


def dependency_groups(
        shreds: Sequence[ShredDescriptor]) -> List[List[ShredDescriptor]]:
    """Partition a batch into connected components of ``depends_on``.

    A producer and its consumers must land on the same device (the device
    work queue resolves dependencies locally, exactly as the paper's
    software work queue does), so the dispatcher schedules whole
    components.  Order is preserved within and across groups.
    """
    index = {s.shred_id: i for i, s in enumerate(shreds)}
    parent = list(range(len(shreds)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, shred in enumerate(shreds):
        for dep in shred.depends_on:
            j = index.get(dep)
            if j is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    groups: Dict[int, List[ShredDescriptor]] = {}
    for i, shred in enumerate(shreds):
        groups.setdefault(find(i), []).append(shred)
    return [groups[root] for root in sorted(groups)]


def work_stealing_partition(cpu_full_seconds: float,
                            gma_full_seconds: float,
                            num_chunks: int):
    """The dispatcher run over one two-sequencer loop, as a
    :class:`~repro.chi.scheduler.PartitionOutcome`.

    All chunks start on the GMA queue — the shared software work queue of
    section 3.4 — and the idle IA32 sequencer steals; this is the queue
    realization of :func:`~repro.chi.scheduler.dynamic_partition`, and it
    converges to :func:`~repro.chi.scheduler.oracle_partition` as
    ``num_chunks`` grows.
    """
    if num_chunks < 1:
        raise SchedulingError("need at least one chunk")
    items = [
        WorkItem(ident=i, costs={"cpu": cpu_full_seconds / num_chunks,
                                 "gma": gma_full_seconds / num_chunks})
        for i in range(num_chunks)
    ]
    dispatcher = WorkStealingDispatcher(["cpu", "gma"])
    outcome = dispatcher.dispatch(items, initial={"gma": items})
    partition = outcome.partition_outcome("cpu", "gma")
    return partition
