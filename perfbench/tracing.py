"""Host-time spans recorded from outside the program.

The traced run installs wrappers around public calls of each layer
(:data:`TARGETS`), records one span per call in memory, and writes the
spans at the end as Chrome-trace ``X`` events (the format of
:mod:`repro.perf.trace`, so both files open side by side).

:func:`partition` turns the spans into per-layer *self* times that sum to
the traced wall time: every instant of a traced window is split equally
among the innermost spans active at that instant, on any thread, and an
instant no span covers goes to ``other``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Chrome-trace process row of the host spans (repro.perf.trace uses EU
#: numbers, 1000 for shootdowns and 2000 for serving).
HOST_PID = 3000

#: Frame id of the asyncio task opening a span (serve-streams tenants
#: run as concurrent tasks on one thread, so a tracer attribute cannot
#: tell their frames apart).
current_frame: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_frame", default=None)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    frame: object   # frame id, or None outside a frame


class NullTracer:
    """What untraced runs use: every hook is free."""

    frame: Optional[int] = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, key: str, value: float = 1) -> None:
        pass


class Tracer:
    """In-memory span recorder with per-thread nesting."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.windows: List[Tuple[float, float]] = []
        #: Frame id stamped on spans opened on the caller's thread.
        self.frame: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Span adopting spans opened on threads with an empty stack
        #: (the fabric drain hands launches to pool threads).
        self._adopter: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, batch=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._adopter
        frame = next((f for f in (current_frame.get(), self.frame, batch)
                      if f is not None), None)
        span = Span(name, time.perf_counter(), 0.0, parent,
                    threading.get_ident(), frame)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, adopt: bool = False, batch=None):
        index = self._open(name, batch)
        previous = self._adopter
        if adopt:
            self._adopter = index
        try:
            yield index
        finally:
            if adopt:
                self._adopter = previous
            self._close(index)

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def window(self, start: float, end: float) -> None:
        self.windows.append((start, end))

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable] = None,
             adopt: bool = False,
             batch: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = batch(args) if batch is not None else None
            with tracer.span(name, adopt=adopt, batch=label):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, targets: Sequence["Target"]) -> None:
        for target in targets:
            owner = importlib.import_module(target.module)
            for part in target.owner:
                owner = getattr(owner, part)
            self.wrap(owner, target.attr, target.name, target.on_result,
                      target.adopt, target.batch)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------

    def total(self, name: str, start: float = float("-inf"),
              end: float = float("inf")) -> float:
        """Summed duration of ``name`` spans starting inside the bounds."""
        return sum(s.end - s.start for s in self.spans
                   if s.name == name and start <= s.start < end)

    def in_windows(self, span: Span) -> bool:
        return any(lo <= span.start < hi for lo, hi in self.windows)


# -- the public calls each layer is timed through ------------------------------


def _gma_counts(tracer: Tracer, args, result) -> None:
    for key in ("instructions", "megaops_retired", "megaop_deopts",
                "fusion_compiles", "scalar_fallbacks",
                "gang_lanes_retired"):
        tracer.count(f"gma.{key}", getattr(result, key, 0))


def _atr_pages(tracer: Tracer, args, result) -> None:
    tracer.count("exo.atr_pages", len(result))


def _schedule_trials(tracer: Tracer, args, result) -> None:
    tracer.count("isa.tuner_trials", result[2])


def _batch_id(args):
    """``batch:<first shred id>``: the id of a device run that no frame
    id reaches (serving drains run on executor threads)."""
    shreds = args[1] if len(args) > 1 else None
    if isinstance(shreds, list) and shreds:
        return f"batch:{shreds[0].shred_id}"
    return None


@dataclass(frozen=True)
class Target:
    module: str
    owner: Tuple[str, ...]
    attr: str
    name: str
    on_result: Optional[Callable] = None
    adopt: bool = False
    batch: Optional[Callable] = None


TARGETS: Tuple[Target, ...] = (
    Target("repro.isa.assembler", (), "assemble", "isa.assemble"),
    Target("repro.isa.tuning", (), "resolve_schedule", "isa.schedule",
           _schedule_trials),
    Target("repro.gma.device", ("GmaDevice",), "run", "gma.run",
           _gma_counts, batch=_batch_id),
    Target("repro.gma.firmware", (), "simulate_device", "gma.eu"),
    Target("repro.exo.exoskeleton", ("Exoskeleton",), "request_atr_batch",
           "exo.atr", _atr_pages),
    Target("repro.memory.surface", ("Surface",), "upload", "memory.upload"),
    Target("repro.memory.surface", ("Surface",), "download",
           "memory.download"),
    Target("repro.serving.session", ("Session",), "alloc_surface",
           "memory.alloc_free"),
    Target("repro.serving.session", ("Session",), "free_surface",
           "memory.alloc_free"),
    Target("repro.chi.runtime", ("ChiRuntime",), "parallel", "chi.region"),
    Target("repro.chi.runtime", (), "drain_devices", "fabric.drain",
           adopt=True),
    Target("repro.fabric.workers", ("ProcessDeviceWorker",), "launch",
           "fabric.launch"),
    Target("repro.fabric.workers", ("ProcessWorkerPool",), "prepare",
           "fabric.prepare"),
    Target("repro.fabric.dispatcher", ("WorkStealingDispatcher",),
           "dispatch", "fabric.dispatch"),
    Target("repro.serving.admission", ("AdmissionController",),
           "pop_batch", "serving.pop_batch"),
    Target("repro.serving.server", (), "demux", "serving.demux"),
)

#: Span names whose self time the warm-phase partition reports, besides
#: the benchmark's own checking spans.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [t.name for t in TARGETS] + ["kernels.reference", "kernels.verify"]))


# -- analysis ---------------------------------------------------------------------


def partition(spans: Sequence[Span],
              windows: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Self time per span name plus ``other``, summing to the windows.

    Inside each window, every instant is shared equally by the active
    spans that have no active child; an instant with no active span is
    charged to ``other``.  With one thread this is the usual self time
    (a span's duration minus the part its children cover).
    """
    out: Dict[str, float] = defaultdict(float)
    for lo, hi in windows:
        events = []
        for index, span in enumerate(spans):
            start, end = max(span.start, lo), min(span.end, hi)
            if start < end:
                events.append((start, 1, index))
                events.append((end, 0, index))
        events.sort()
        active_children: Dict[int, int] = defaultdict(int)
        active = set()
        leaves = set()
        clock = lo
        for when, opening, index in events:
            if when > clock:
                share = when - clock
                if leaves:
                    for leaf in leaves:
                        out[spans[leaf].name] += share / len(leaves)
                else:
                    out["other"] += share
                clock = when
            parent = spans[index].parent
            if opening:
                active.add(index)
                if active_children[index] == 0:
                    leaves.add(index)
                if parent in active:
                    active_children[parent] += 1
                    leaves.discard(parent)
            else:
                active.discard(index)
                leaves.discard(index)
                if parent in active:
                    active_children[parent] -= 1
                    if active_children[parent] == 0:
                        leaves.add(parent)
        if hi > clock:
            out["other"] += hi - clock
    return dict(out)


def chrome_events(spans: Sequence[Span], origin: float) -> List[dict]:
    """Chrome-trace ``X`` events, one thread row per host thread."""
    rows: Dict[int, int] = {}
    events: List[dict] = [{"ph": "M", "name": "process_name",
                           "pid": HOST_PID,
                           "args": {"name": "host layers (perfbench)"}}]
    for index, span in enumerate(spans):
        tid = rows.setdefault(span.thread, len(rows))
        events.append({
            "ph": "X", "name": span.name, "cat": span.name.split(".")[0],
            "pid": HOST_PID, "tid": tid,
            "ts": (span.start - origin) * 1e6,
            "dur": max(span.end - span.start, 0.0) * 1e6,
            "args": {"span": index, "parent": span.parent,
                     "frame": span.frame},
        })
    return events


def write_chrome_trace(path, spans: Sequence[Span], origin: float) -> int:
    events = chrome_events(spans, origin)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, handle)
    return len(events)
