"""EU timing model: switch-on-stall multithreading over shred traces.

"The four exo-sequencers, physically implemented in each GMA X3000 core,
alternate fetching through fly-weight switch-on-stall multithreading.  As
each exo-sequencer fetches and retires instructions in-order, the core's
fine-grained thread multiplexing capability plays a critical role in
sustaining throughput performance" (paper section 3.4).

The model replays each shred's ``(issue, latency)`` trace: an EU issues
one instruction at a time (occupying the issue pipe for ``issue`` cycles);
the issuing context then becomes not-ready for ``latency`` cycles, during
which the EU issues from its other contexts.  Stall cycles are *exposed*
only when no context is ready — exactly the behaviour that makes abundant
shred-level parallelism the first-order performance factor on this device.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .interpreter import ShredRun
from .timing import GmaTimingConfig


@dataclass
class EuReport:
    """Timing outcome for one EU."""

    cycles: float = 0.0
    busy_cycles: float = 0.0
    exposed_stall_cycles: float = 0.0

    @property
    def utilization(self) -> float:
        return self.busy_cycles / self.cycles if self.cycles else 0.0


@dataclass
class DeviceTiming:
    """Timing outcome for the whole device."""

    compute_cycles: float  # max over EUs of their finish time
    bandwidth_cycles: float  # memory-traffic lower bound
    sampler_cycles: float  # fixed-function unit lower bound
    eu_reports: List[EuReport] = field(default_factory=list)
    finish_times: Dict[int, float] = field(default_factory=dict)
    #: shred id -> (start cycle, finish cycle, eu, slot); feeds the
    #: Chrome-trace exporter in :mod:`repro.perf.trace`.
    spans: Dict[int, tuple] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return max(self.compute_cycles, self.bandwidth_cycles,
                   self.sampler_cycles)

    @property
    def bound(self) -> str:
        """Which resource bounds execution: compute, bandwidth or sampler."""
        values = {
            "compute": self.compute_cycles,
            "bandwidth": self.bandwidth_cycles,
            "sampler": self.sampler_cycles,
        }
        return max(values, key=values.get)


class _Context:
    """One hardware thread context replaying its queue of shred traces."""

    __slots__ = ("queue", "slot", "qidx", "trace", "tidx", "ready_time",
                 "current", "start_time")

    def __init__(self, queue: List[ShredRun], slot: int = 0):
        self.queue = queue
        self.slot = slot
        self.qidx = 0
        self.trace: Optional[Sequence] = None
        self.tidx = 0
        self.ready_time = 0.0
        self.current: Optional[ShredRun] = None
        self.start_time = 0.0


def simulate_device(runs: Sequence[ShredRun], config: GmaTimingConfig,
                    not_before: Optional[Dict[int, float]] = None,
                    extra_bytes: int = 0) -> DeviceTiming:
    """Replay shred traces on the device and return its timing.

    ``not_before`` gives per-shred earliest start times (producer/consumer
    dependencies); ``extra_bytes`` adds memory traffic that competes for
    device bandwidth (e.g. overlapped cache flushing).

    An ungated EU whose traces equal those of an ungated EU already
    simulated in this call reuses that EU's schedule (gang launches
    retire the same trace on every shred, so the 8 EUs usually share
    one or two distinct queue shapes); every other EU is simulated.
    """
    not_before = not_before or {}
    nctx = config.num_sequencers
    queues: List[List[ShredRun]] = [[] for _ in range(nctx)]
    # EU-major round robin: leftover shreds spread across EUs instead of
    # piling onto EU 0's thread contexts
    per_eu = config.threads_per_eu
    for i, run in enumerate(runs):
        eu = i % config.num_eus
        slot = (i // config.num_eus) % per_eu
        queues[eu * per_eu + slot].append(run)

    finish: Dict[int, float] = {}
    spans: Dict[int, tuple] = {}
    reports = []
    #: ungated EUs simulated so far: (slot queues, report, finish, spans)
    simulated: List[tuple] = []
    for eu in range(config.num_eus):
        eu_queues = queues[eu * per_eu:(eu + 1) * per_eu]
        ungated = not any(not_before.get(run.shred.shred_id, 0.0) > 0.0
                          for queue in eu_queues for run in queue)
        src = next((entry for entry in simulated
                    if _same_traces(entry[0], eu_queues)),
                   None) if ungated else None
        if src is not None:
            src_queues, src_report, src_finish, src_spans = src
            reports.append(replace(src_report))
            _reuse_schedule(src_queues, eu_queues, src_finish, src_spans,
                            finish, spans, eu)
            continue
        eu_finish: Dict[int, float] = {}
        eu_spans: Dict[int, tuple] = {}
        ctxs = [_Context(queue, slot) for slot, queue in enumerate(eu_queues)]
        report = _simulate_eu(ctxs, not_before, eu_finish, eu_spans, eu)
        reports.append(report)
        finish.update(eu_finish)
        spans.update(eu_spans)
        if ungated:
            simulated.append((eu_queues, report, eu_finish, eu_spans))

    total_bytes = sum(r.bytes_total for r in runs) + extra_bytes
    bandwidth_cycles = total_bytes / config.mem_bytes_per_cycle
    total_samples = sum(r.sampler_samples for r in runs)
    sampler_cycles = total_samples / config.sampler_throughput
    compute_cycles = max((rep.cycles for rep in reports), default=0.0)
    return DeviceTiming(
        compute_cycles=compute_cycles,
        bandwidth_cycles=bandwidth_cycles,
        sampler_cycles=sampler_cycles,
        eu_reports=reports,
        finish_times=finish,
        spans=spans,
    )


def _same_traces(a: Sequence[List[ShredRun]],
                 b: Sequence[List[ShredRun]]) -> bool:
    """Do two EUs hold equal traces, slot by slot and position by
    position?  Then, ungated, their schedules are identical."""
    for qa, qb in zip(a, b):
        if len(qa) != len(qb):
            return False
    return all(ra.trace == rb.trace
               for qa, qb in zip(a, b) for ra, rb in zip(qa, qb))


def _reuse_schedule(src_queues: Sequence[List[ShredRun]],
                    eu_queues: Sequence[List[ShredRun]],
                    src_finish: Dict[int, float],
                    src_spans: Dict[int, tuple],
                    finish: Dict[int, float], spans: Dict[int, tuple],
                    eu_index: int) -> None:
    """Copy an identical ungated EU's finish times and spans onto this
    EU's shreds, in the order the simulation recorded them.

    Without dependency gates an EU's schedule is a function of its slot
    queues' traces alone, so the per-EU event loop would replay exactly
    the same steps: only the shred ids and the EU index differ.
    """
    ids = {ra.shred.shred_id: rb.shred.shred_id
           for qa, qb in zip(src_queues, eu_queues)
           for ra, rb in zip(qa, qb)}
    for sid, (start, end, _, slot) in src_spans.items():
        dst = ids[sid]
        finish[dst] = src_finish[sid]
        spans[dst] = (start, end, eu_index, slot)


def _simulate_eu(ctxs: List[_Context], not_before: Dict[int, float],
                 finish: Dict[int, float], spans: Dict[int, tuple],
                 eu_index: int) -> EuReport:
    populated = [ctx for ctx in ctxs if ctx.queue]
    if not populated:
        return EuReport()
    if len(populated) == 1:
        # one busy context: no interleaving is possible, so replay its
        # traces sequentially instead of event-stepping the full loop.
        # Cycle-exact with the general path (same stalls, spans, drain).
        return _drain_single_context(populated[0], not_before, finish,
                                     spans, eu_index)
    if not any(not_before.get(run.shred.shred_id, 0.0) > 0.0
               for ctx in populated for run in ctx.queue):
        # no dependency gates: activation always happens at the same
        # `now` as the finish that freed the context, so the per-step
        # activation scan of the general loop is dead weight
        report = _try_lockstep_closed_form(populated, finish, spans,
                                           eu_index)
        if report is not None:
            return report
        return _simulate_eu_ungated(ctxs, finish, spans, eu_index)
    now = 0.0
    busy = 0.0
    stall = 0.0
    rr = 0  # round-robin pointer for fairness among ready contexts
    n = len(ctxs)
    local_finish: List[float] = []

    while True:
        # activate queued shreds whose dependencies are satisfied
        for ctx in ctxs:
            if ctx.trace is None and ctx.qidx < len(ctx.queue):
                run = ctx.queue[ctx.qidx]
                start_gate = not_before.get(run.shred.shred_id, 0.0)
                if start_gate <= now:
                    ctx.current = run
                    ctx.trace = run.trace
                    ctx.tidx = 0
                    ctx.qidx += 1
                    ctx.ready_time = max(ctx.ready_time, now)
                    ctx.start_time = max(ctx.ready_time, now)

        # round-robin among ready contexts (fly-weight switch-on-stall):
        # the first ready context scanning from the rr pointer is exactly
        # the minimum of (index - rr) % n over all ready contexts
        ctx = None
        for k in range(n):
            i = rr + k
            if i >= n:
                i -= n
            cand = ctxs[i]
            if cand.trace is not None and cand.ready_time <= now:
                ctx = cand
                rr = i + 1 if i + 1 < n else 0
                break
        if ctx is not None:
            if ctx.tidx < len(ctx.trace):
                issue, latency = ctx.trace[ctx.tidx]
                ctx.tidx += 1
                now += issue
                busy += issue
                ctx.ready_time = now + latency
            if ctx.tidx >= len(ctx.trace):
                shred_id = ctx.current.shred.shred_id
                finish[shred_id] = ctx.ready_time
                spans[shred_id] = (ctx.start_time, ctx.ready_time,
                                   eu_index, ctx.slot)
                local_finish.append(ctx.ready_time)
                ctx.trace = None
                ctx.current = None
            continue

        # nothing ready: either stalled or waiting on a dependency gate
        candidates = []
        for ctx in ctxs:
            if ctx.trace is not None:
                candidates.append(ctx.ready_time)
            elif ctx.qidx < len(ctx.queue):
                run = ctx.queue[ctx.qidx]
                candidates.append(
                    max(now, not_before.get(run.shred.shred_id, 0.0)))
        if not candidates:
            break
        next_time = min(candidates)
        if next_time <= now:
            # dependency gate in the past but shred not yet activated:
            # loop back and activate without advancing time
            continue
        stall += next_time - now
        now = next_time

    # drain: in-flight latency of the last instructions extends past `now`
    end = max([now] + local_finish)
    return EuReport(cycles=end, busy_cycles=busy, exposed_stall_cycles=stall)


def _try_lockstep_closed_form(populated: List[_Context],
                              finish: Dict[int, float],
                              spans: Dict[int, tuple],
                              eu_index: int) -> Optional[EuReport]:
    """Closed-form schedule for gang-lockstep launches, or ``None``.

    When every populated context replays exactly one shred and all the
    traces are identical (a uniform launch on the megaop engine retires
    the same instruction sequence on every shred), the switch-on-stall
    rotation is strict: context ``k`` always issues instruction ``i``
    right after context ``k-1`` does.  If additionally no latency outlives the
    cover provided by the ``n-1`` peer issues between a context's turns
    — ``l[i] <= (n-1) * min(s[i], s[i+1])`` for every non-final
    instruction — then no stall is ever exposed and every event starts
    exactly when the previous one ends.  The whole schedule collapses
    to prefix sums: cycle-exact with the event loop, without stepping
    ``n * len(trace)`` events in Python.
    """
    n = len(populated)
    if any(len(ctx.queue) != 1 for ctx in populated):
        return None
    trace = populated[0].queue[0].trace
    steps = len(trace)
    if steps == 0:
        return None
    for ctx in populated[1:]:
        if ctx.queue[0].trace != trace:
            return None
    charges = np.asarray(trace, dtype=np.float64)
    issue = charges[:, 0]
    latency = charges[:, 1]
    if steps > 1 and not bool(
            np.all(latency[:-1]
                   <= (n - 1) * np.minimum(issue[:-1], issue[1:]))):
        return None
    total_issue = float(issue.sum())
    last_issue = float(issue[-1])
    last_latency = float(latency[-1])
    # context k's final issue ends after the full rotation of earlier
    # instructions (n * prefix) plus the k+1 final issues before its own
    prefix = n * (total_issue - last_issue)
    for k, ctx in enumerate(populated):
        run = ctx.queue[0]
        ctx.qidx = 1
        done = prefix + (k + 1) * last_issue + last_latency
        finish[run.shred.shred_id] = done
        spans[run.shred.shred_id] = (0.0, done, eu_index, ctx.slot)
    return EuReport(cycles=n * total_issue + last_latency,
                    busy_cycles=n * total_issue,
                    exposed_stall_cycles=0.0)


def _simulate_eu_ungated(ctxs: List[_Context], finish: Dict[int, float],
                         spans: Dict[int, tuple], eu_index: int) -> EuReport:
    """The general loop specialized for runs without dependency gates.

    Cycle-exact with :func:`_simulate_eu` when every ``not_before`` gate
    is 0: in that case the general loop activates a queued shred on the
    very iteration after its context frees, at the same ``now``, with
    ``ready_time`` (the previous trace's drain) already >= ``now`` — so
    activating eagerly here, at init and at each finish, is identical
    and the per-step activation scan disappears.
    """
    now = 0.0
    busy = 0.0
    stall = 0.0
    rr = 0
    n = len(ctxs)
    local_finish: List[float] = []
    live = 0
    for ctx in ctxs:
        if ctx.queue:
            ctx.current = ctx.queue[0]
            ctx.trace = ctx.current.trace
            ctx.tidx = 0
            ctx.qidx = 1
            ctx.ready_time = 0.0
            ctx.start_time = 0.0
            live += 1

    while live:
        ctx = None
        for k in range(n):
            i = rr + k
            if i >= n:
                i -= n
            cand = ctxs[i]
            if cand.trace is not None and cand.ready_time <= now:
                ctx = cand
                rr = i + 1 if i + 1 < n else 0
                break
        if ctx is None:
            next_time = min(c.ready_time for c in ctxs
                            if c.trace is not None)
            stall += next_time - now
            now = next_time
            continue
        trace = ctx.trace
        if ctx.tidx < len(trace):
            issue, latency = trace[ctx.tidx]
            ctx.tidx += 1
            now += issue
            busy += issue
            ctx.ready_time = now + latency
        if ctx.tidx >= len(trace):
            shred_id = ctx.current.shred.shred_id
            finish[shred_id] = ctx.ready_time
            spans[shred_id] = (ctx.start_time, ctx.ready_time,
                               eu_index, ctx.slot)
            local_finish.append(ctx.ready_time)
            if ctx.qidx < len(ctx.queue):
                # eager activation: the previous trace's drain
                # (ready_time >= now) gates the next shred's start
                ctx.current = ctx.queue[ctx.qidx]
                ctx.qidx += 1
                ctx.trace = ctx.current.trace
                ctx.tidx = 0
                ctx.start_time = ctx.ready_time if ctx.ready_time > now \
                    else now
            else:
                ctx.trace = None
                ctx.current = None
                live -= 1

    end = max([now] + local_finish)
    return EuReport(cycles=end, busy_cycles=busy, exposed_stall_cycles=stall)


def _drain_single_context(ctx: _Context, not_before: Dict[int, float],
                          finish: Dict[int, float], spans: Dict[int, tuple],
                          eu_index: int) -> EuReport:
    """Sequential replay of one context's queue (the only busy context).

    Mirrors the general loop exactly: every instruction's latency is an
    exposed stall (there is no peer context to cover it), except the last
    instruction of a shred, whose in-flight latency extends the shred's
    finish time instead.
    """
    now = 0.0
    busy = 0.0
    stall = 0.0
    local_finish: List[float] = []
    while ctx.qidx < len(ctx.queue):
        run = ctx.queue[ctx.qidx]
        ctx.qidx += 1
        gate = not_before.get(run.shred.shred_id, 0.0)
        if gate > now:
            stall += gate - now
            now = gate
        ctx.ready_time = max(ctx.ready_time, now)
        start = ctx.ready_time  # previous shred's drain gates this one
        if start > now:
            stall += start - now
            now = start
        end_ready = now
        trace = run.trace
        last = len(trace) - 1
        for t, (issue, latency) in enumerate(trace):
            now += issue
            busy += issue
            if t < last:
                stall += latency
                now += latency
            else:
                end_ready = now + latency
        shred_id = run.shred.shred_id
        finish[shred_id] = end_ready
        spans[shred_id] = (start, end_ready, eu_index, ctx.slot)
        local_finish.append(end_ready)
        ctx.ready_time = end_ready
    end = max([now] + local_finish)
    return EuReport(cycles=end, busy_cycles=busy, exposed_stall_cycles=stall)
