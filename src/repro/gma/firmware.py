"""The emulation firmware: shred descriptors -> execution on the device.

"The emulation firmware is responsible for translating a shred
descriptor, which includes shred continuation information like instruction
and data pointers to the shared memory, into implementation-specific
hardware commands that the GMA X3000 exo-sequencers can consume and
execute.  The emulation layer hides all device-specific hardware details
from the programmer" (paper section 3.4).

The firmware runs the functional pass (every shred's instructions execute
through :mod:`repro.gma.interpreter`, in dependency-respecting queue
order) and then the timing pass (:func:`repro.gma.eu.simulate_device`,
iterated to a fixed point when producer-consumer dependencies gate shred
start times).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List

import numpy as np

from ..errors import ExecutionFault, SchedulingError
from ..exo.shred import ShredDescriptor
from ..isa import predecode
from .context import ShredContext
from .counters import EngineCounters
from .eu import DeviceTiming, simulate_device
from .gang import gang_eligible, run_gang
from .interpreter import ShredInterpreter, ShredRun
from .workqueue import WorkQueue

#: Fixed-point iterations for dependency-gated timing.
_TIMING_ROUNDS = 4


@dataclass(kw_only=True)
class RunTotals(EngineCounters):
    """The summable totals of device work: the engine record plus what
    the shreds retired and moved.  One run's result and the fabric
    aggregate both hold them and merge with :meth:`add_totals`."""

    shreds_executed: int = 0
    instructions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    atr_events: int = 0
    ceh_events: int = 0
    spawned_shreds: int = 0
    pages_prepared: int = 0  # GTT entries validated at launch (section 4.6)

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    def add_totals(self, other: "RunTotals") -> None:
        """Accumulate every total of ``other`` (engine counters too)."""
        for name in RUN_TOTALS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


RUN_TOTALS = tuple(f.name for f in fields(RunTotals))


@dataclass(kw_only=True)
class GmaRunResult(RunTotals):
    """Everything one device run produced."""

    runs: List[ShredRun] = field(default_factory=list)
    timing: DeviceTiming = None

    @property
    def cycles(self) -> float:
        return self.timing.cycles if self.timing else 0.0


class EmulationFirmware:
    """Executes work-queue contents on the device model."""

    def __init__(self, device):
        self.device = device

    def run_queue(self, queue: WorkQueue, extra_bytes: int = 0) -> GmaRunResult:
        """Drain the queue: functional execution + device timing."""
        result = GmaRunResult()
        mailboxes: Dict[int, list] = {}
        live_contexts: Dict[int, ShredContext] = {}
        self.device._mailboxes = mailboxes
        self.device._live_contexts = live_contexts
        self.device._spawn_queue = queue

        cache = predecode.CACHE
        hits_before, misses_before = cache.hits, cache.misses

        executed: List[ShredRun] = []
        ganged = self.device.engine == "megaop"
        while len(queue):
            if ganged:
                batch = self._gang_batch(queue)
                if batch is not None:
                    outcome = run_gang(self.device, batch, mailboxes,
                                       live_contexts)
                    for shred in batch:
                        queue.mark_done(shred.shred_id)
                    executed.extend(outcome.runs)
                    result.add(outcome)
                    continue
            shred = queue.pop_ready()
            if shred is None:
                raise SchedulingError(
                    "work queue deadlock: pending shreds wait on "
                    "dependencies that never complete")
            run = self._execute_shred(shred, mailboxes, live_contexts)
            if ganged:
                result.scalar_fallbacks += 1
            executed.append(run)
            queue.mark_done(shred.shred_id)

        # per-run deltas; when serving drains several slots at once on
        # executor threads the split between devices is approximate (the
        # cache and its counters are process wide), the fleet total
        # stays exact
        result.predecode_hits = cache.hits - hits_before
        result.predecode_misses = cache.misses - misses_before

        undelivered = {k: v for k, v in mailboxes.items() if v}
        if undelivered:
            raise ExecutionFault(
                f"sendreg values for shreds {sorted(undelivered)} were never "
                f"delivered (consumer missing or already retired)")

        result.runs = executed
        result.shreds_executed = len(executed)
        for run in executed:
            result.instructions += run.instructions
            result.bytes_read += run.bytes_read
            result.bytes_written += run.bytes_written
            result.atr_events += run.atr_events
            result.ceh_events += run.ceh_events
            result.spawned_shreds += run.spawned

        result.timing = self._timing_fixed_point(executed, extra_bytes)
        return result

    # -- functional pass ---------------------------------------------------------

    def _gang_batch(self, queue: WorkQueue):
        """The whole pending FIFO, when it can run as one gang."""
        pending = queue.pending()
        if not gang_eligible(self.device, pending):
            return None
        return [queue.pop_ready() for _ in range(len(pending))]

    def _execute_shred(self, shred: ShredDescriptor,
                       mailboxes: Dict[int, list],
                       live_contexts: Dict[int, ShredContext]) -> ShredRun:
        ctx = ShredContext(shred, self.device.view, self.device.space,
                           device=self.device)
        # deliver producer register writes that arrived before launch
        for reg, values in mailboxes.pop(shred.shred_id, []):
            ctx.regs.write_lanes(reg, np.asarray(values, dtype=np.float64))
        live_contexts[shred.shred_id] = ctx
        interp = ShredInterpreter(shred, ctx, self.device.exoskeleton,
                                  self.device.config)
        try:
            run = interp.run()
        finally:
            live_contexts.pop(shred.shred_id, None)
        return run

    # -- timing pass -----------------------------------------------------------------

    def _timing_fixed_point(self, runs: List[ShredRun],
                            extra_bytes: int) -> DeviceTiming:
        deps_exist = any(run.shred.depends_on for run in runs)
        not_before: Dict[int, float] = {}
        timing = simulate_device(runs, self.device.config,
                                 not_before=not_before,
                                 extra_bytes=extra_bytes)
        if not deps_exist:
            return timing
        for _ in range(_TIMING_ROUNDS):
            new_gates = {}
            for run in runs:
                if run.shred.depends_on:
                    new_gates[run.shred.shred_id] = max(
                        timing.finish_times.get(dep, 0.0)
                        for dep in run.shred.depends_on)
            if new_gates == not_before:
                break
            not_before = new_gates
            timing = simulate_device(runs, self.device.config,
                                     not_before=not_before,
                                     extra_bytes=extra_bytes)
        return timing
