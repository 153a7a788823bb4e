"""Chrome-trace export of device runs.

Turns one :class:`~repro.gma.firmware.GmaRunResult` into the Trace Event
JSON that ``chrome://tracing`` / Perfetto render: one process row per EU,
one thread row per hardware context, one complete event per shred.  The
occupancy picture this draws — full EUs during the steady state, the tail
as the work queue drains — is how the paper's authors reasoned about
shred-level parallelism being the first-order performance factor.

For multi-accelerator runs, :func:`fabric_chrome_trace_events` renders
one *process row per fabric device* instead, with the device's hardware
contexts as thread rows — the view where load balance across the fabric
is the first-order picture and per-EU occupancy the second.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence

from ..gma.counters import ENGINE_COUNTERS
from ..gma.firmware import GmaRunResult, RunTotals
from ..gma.timing import GmaTimingConfig


def chrome_trace_events(result: GmaRunResult,
                        config: Optional[GmaTimingConfig] = None) -> List[dict]:
    """Trace Event objects for one device run (timestamps in us)."""
    config = config or GmaTimingConfig()
    per_us = config.frequency / 1e6  # cycles per microsecond
    events: List[dict] = []
    for eu in range(config.num_eus):
        events.append({
            "ph": "M", "name": "process_name", "pid": eu,
            "args": {"name": f"EU {eu}"},
        })
    by_id = {run.shred.shred_id: run for run in result.runs}
    for shred_id, (start, finish, eu, slot) in sorted(
            result.timing.spans.items()):
        run = by_id.get(shred_id)
        events.append({
            "ph": "X",
            "name": f"shred {shred_id}"
                    + (f" ({run.shred.program.name})" if run else ""),
            "pid": eu,
            "tid": slot,
            "ts": start / per_us,
            "dur": max(finish - start, 1e-9) / per_us,
            "args": {
                "instructions": run.instructions if run else 0,
                "bytes": run.bytes_total if run else 0,
                "atr_events": run.atr_events if run else 0,
            },
        })
    return events


def export_chrome_trace(result: GmaRunResult, path,
                        config: Optional[GmaTimingConfig] = None) -> int:
    """Write a ``chrome://tracing`` JSON file; returns the event count."""
    events = chrome_trace_events(result, config)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events,
                   "displayTimeUnit": "ns"}, handle)
    return len(events)


def fabric_chrome_trace_events(reports: Sequence,
                               device_atr: Optional[dict] = None,
                               ) -> List[dict]:
    """Trace Events for one fabric region: one process row per device.

    ``reports`` are :class:`~repro.fabric.device.DeviceRunReport` objects
    (duck-typed: ``device``, ``isa``, ``seconds``, ``results``,
    ``config``).  Thread rows are the device's hardware contexts
    (``eu * threads_per_eu + slot``); sub-batches of a blocking admission
    appear back to back, offset by their predecessors' drain cycles.
    A report without per-shred timing (no results or no config) gets a
    single span covering its drain time.

    ``device_atr`` (e.g. :attr:`repro.chi.runtime.RuntimeStats.device_atr`)
    attaches each device's translation breakdown — TLB hits/misses, GTT
    walks, shootdowns absorbed — to its process metadata row.

    A report that carries nonzero ``wall_seconds`` (a
    :func:`~repro.fabric.dispatcher.drain_devices` drain) gets the host
    wall-clock attached to its metadata row; a report whose results carry
    engine counters (the megaop engine) gets a Chrome counter track.
    """
    events: List[dict] = []
    for pid, report in enumerate(reports):
        worker = getattr(report, "worker", "")
        row = f"{report.device} ({report.isa})"
        if worker:
            # out-of-process drain: name the row after the hosting worker
            # so per-worker concurrency is visible at a glance
            row = f"{report.device} ({report.isa}) @ {worker}"
        args = {"name": row}
        if worker:
            args["worker"] = worker
        if device_atr and report.device in device_atr:
            args["atr"] = dict(device_atr[report.device])
        wall = getattr(report, "wall_seconds", 0.0)
        if wall > 0.0:
            args["wall_seconds"] = wall
        events.append({
            "ph": "M", "name": "process_name", "pid": pid,
            "args": args,
        })
        totals = RunTotals()
        for result in report.results:
            totals.add_totals(result)
        engine = {key: getattr(totals, key) for key in ENGINE_COUNTERS}
        if any(engine.values()):
            if totals.instructions:
                # derived, not summable: recompute per report
                engine["gang_residency_pct"] = round(
                    totals.gang_residency_pct, 2)
            events.append({
                "ph": "C", "name": "engine", "pid": pid,
                "ts": 0.0, "args": engine,
            })
        config = report.config
        if config is None or not report.results:
            if report.seconds > 0.0:
                events.append({
                    "ph": "X", "name": f"{report.device} drain",
                    "pid": pid, "tid": 0,
                    "ts": 0.0, "dur": report.seconds * 1e6,
                    "args": {"shreds": report.shreds},
                })
            continue
        per_us = config.frequency / 1e6
        offset = 0.0
        for result in report.results:
            by_id = {run.shred.shred_id: run for run in result.runs}
            for shred_id, (start, finish, eu, slot) in sorted(
                    result.timing.spans.items()):
                run = by_id.get(shred_id)
                events.append({
                    "ph": "X",
                    "name": f"shred {shred_id}"
                            + (f" ({run.shred.program.name})" if run else ""),
                    "pid": pid,
                    "tid": eu * config.threads_per_eu + slot,
                    "ts": (start + offset) / per_us,
                    "dur": max(finish - start, 1e-9) / per_us,
                    "args": {
                        "instructions": run.instructions if run else 0,
                        "bytes": run.bytes_total if run else 0,
                        "atr_events": run.atr_events if run else 0,
                    },
                })
            offset += result.timing.cycles
    return events


def export_fabric_chrome_trace(reports: Sequence, path,
                               device_atr: Optional[dict] = None) -> int:
    """Write a fabric region's trace JSON; returns the event count."""
    events = fabric_chrome_trace_events(reports, device_atr=device_atr)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events,
                   "displayTimeUnit": "ns"}, handle)
    return len(events)


#: Process-row id for the shootdown track (kept clear of EU/device rows).
SHOOTDOWN_PID = 1000


def shootdown_trace_events(space, pid: int = SHOOTDOWN_PID) -> List[dict]:
    """One Chrome-trace span per ATR shootdown broadcast.

    ``space`` is an :class:`~repro.memory.address_space.AddressSpace`;
    its :attr:`shootdown_events` carry no simulated timestamps (frees
    happen on the host between regions), so spans are laid out on the
    broadcast sequence number with the page count as duration — the
    Perfetto row then reads as "broadcast #n invalidated k pages across
    m views".
    """
    events: List[dict] = [{
        "ph": "M", "name": "process_name", "pid": pid,
        "args": {"name": "ATR shootdowns"},
    }]
    for event in space.shootdown_events:
        events.append({
            "ph": "X",
            "name": f"shootdown ({event['reason']})",
            "pid": pid,
            "tid": 0,
            "ts": float(event["seq"]),
            "dur": float(max(event["pages"], 1)),
            "args": {
                "reason": event["reason"],
                "pages": event["pages"],
                "views": event["views"],
            },
        })
    return events


def export_shootdown_trace(space, path, pid: int = SHOOTDOWN_PID) -> int:
    """Write the shootdown track as trace JSON; returns the event count."""
    events = shootdown_trace_events(space, pid=pid)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events,
                   "displayTimeUnit": "ns"}, handle)
    return len(events)


#: First process-row id for serving-layer device slots (one row each).
SERVING_PID = 2000


def serving_trace_events(server, pid: int = SERVING_PID) -> List[dict]:
    """Chrome-trace rows for one :class:`~repro.serving.ExoServer` run.

    One process row per device slot; each dispatched batch is a span at
    its host wall-clock position (seconds since the server started),
    tagged with the owning session, the requests it merged, and its lane
    count — a coalesced batch reads directly as "gma0 ran 8 requests of
    tenant-a as one gang".  A counter track accumulates the coalescing
    totals over batch sequence.
    """
    events: List[dict] = []
    rows = {}
    for slot in server.slots:
        rows[slot.name] = pid + len(rows)
        name = f"serving {slot.name} ({server.engine})"
        if slot.worker is not None:
            name += f" @ {slot.worker.name}"
        events.append({
            "ph": "M", "name": "process_name", "pid": rows[slot.name],
            "args": {"name": name},
        })
    gangs = lanes = 0
    for seq, entry in enumerate(server.trace_log):
        row = rows.get(entry["slot"], pid)
        events.append({
            "ph": "X",
            "name": f"{entry['session']}"
                    + (" gang" if entry["coalesced"] else ""),
            "pid": row,
            "tid": 0,
            "ts": max(entry["start"], 0.0) * 1e6,
            "dur": max(entry["wall_seconds"], 1e-9) * 1e6,
            "args": {
                "session": entry["session"],
                "requests": entry["requests"],
                "lanes": entry["lanes"],
                "simulated_seconds": entry["seconds"],
            },
        })
        if entry["coalesced"]:
            gangs += 1
            lanes += entry["lanes"]
        events.append({
            "ph": "C", "name": "coalescing", "pid": rows[
                next(iter(rows))] if rows else pid,
            "ts": float(seq),
            "args": {"gangs_coalesced": gangs, "coalesced_lanes": lanes},
        })
    return events


def export_serving_trace(server, path, pid: int = SERVING_PID) -> int:
    """Write the serving layer's trace JSON; returns the event count."""
    events = serving_trace_events(server, pid=pid)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events,
                   "displayTimeUnit": "ns"}, handle)
    return len(events)
