"""Epochs, metrics and the result line.

A run is several *epochs* spread over its length.  Each epoch starts
cold: the previous platform, server or device set is gone, and the
process-wide predecode cache and schedule-winner cache are cleared
through their public functions.  ``setup_s`` is the median of the
epochs' set-up times; the warm phases are pooled into the other
end-to-end metrics.

A traced run (``trace=True``) alternates untraced and traced epochs, so
it can report the tracing overhead, and reports only per-layer metrics
(see METRICS.md).  End-to-end metrics come only from untraced runs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform as host_platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cpu.ia32 import Ia32Cpu
from repro.isa import predecode, tuning
from repro.kernels import kernel_by_abbrev
from repro.perf.machine import DEFAULT_MACHINE
from repro.perf.memory_models import MemoryModel
from repro.perf.study import SMOKE_GEOMETRIES, KernelMeasurement

from . import tracing
from .workloads import WORKLOADS, Epoch, Hooks

ROOT = Path(__file__).resolve().parents[1]

#: No epoch starts a warm frame after this many seconds of the run.
HARD_LIMIT_S = 150.0

#: Figure 8 averages the paper reports (EXPERIMENTS.md, "Figure 8"):
#: Data Copy and Non-CC Shared relative to CC Shared, in percent.
PAPER_FIG8 = {MemoryModel.DATA_COPY: 70.5, MemoryModel.NONCC_SHARED: 85.3}


@dataclass
class Settings:
    epochs: int = 3
    #: Override of the workload's geometries (tests use smoke sizes).
    geometries: Optional[dict] = None
    #: p90 is reported only with this many frame latencies beyond it;
    #: the last warm phase runs on until the run holds ten times as many.
    tail: int = 10

    @property
    def min_samples(self) -> int:
        return 10 * self.tail

    @classmethod
    def tiny(cls) -> "Settings":
        return cls(epochs=2, geometries=dict(SMOKE_GEOMETRIES), tail=1)


# -- host provenance and the speed probe ---------------------------------------


def probe_ms() -> float:
    """A fixed slice of pure-Python and small-numpy work, in ms.

    Reported beside the metrics so a slow host can be told from a slow
    change; no metric is ever adjusted by it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc + i * i) % 1_000_003
    a = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0
    for _ in range(150):
        a = np.tanh(a @ a.T + 0.5)
    return (time.perf_counter() - start) * 1e3


def _commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload) -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "machine": host_platform.machine(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "workload_config": workload.config(),
    }


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def latencies(epochs: Sequence[Epoch]) -> List[float]:
    return [f.latency for e in epochs for f in e.frames
            if f.latency is not None]


def jain(values: Sequence[float]) -> float:
    """Jain's fairness index: 1 when all values are equal."""
    total = sum(values)
    squares = sum(v * v for v in values)
    return total * total / (len(values) * squares) if squares else 0.0


def peak_rss_mb(epochs: Sequence[Epoch]) -> float:
    """Peak resident memory of this process plus the largest private
    memory its worker processes held at the end of a warm phase."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + max(e.worker_mb for e in epochs)


def fidelity(sim_frame_seconds: Dict[str, float],
             geometries: Dict[str, object]) -> Dict[str, float]:
    """Figure 7 and Figure 8 errors from simulated per-frame seconds,
    through :class:`repro.perf.study.KernelMeasurement`'s formulas."""
    machine = DEFAULT_MACHINE
    errors7, relative = [], {model: [] for model in PAPER_FIG8}
    for abbrev, gma_seconds in sorted(sim_frame_seconds.items()):
        kernel = kernel_by_abbrev(abbrev)
        geom = geometries[abbrev]
        cpu = Ia32Cpu(machine.cpu).execute(
            kernel.cpu_work(geom),
            fraction=1.0 / kernel.device_invocations(geom))
        in_bytes, out_bytes = kernel.io_bytes_per_frame(geom)
        m = KernelMeasurement(
            kernel=kernel, geometry=geom, machine=machine,
            gma_seconds=gma_seconds, cpu_seconds=cpu.seconds,
            in_bytes=in_bytes, out_bytes=out_bytes,
            frame_shreds=kernel.frame_shreds(geom), instructions=0,
            gma_bound="", atr_events=0)
        errors7.append(abs(m.speedup - kernel.paper_speedup)
                       / kernel.paper_speedup)
        for model in PAPER_FIG8:
            relative[model].append(m.relative_performance(model))
    fig8 = [abs(100.0 * statistics.fmean(relative[model]) - paper)
            for model, paper in PAPER_FIG8.items()]
    return {"fig7_err_pct": 100.0 * statistics.fmean(errors7),
            "fig8_err_pt": statistics.fmean(fig8)}


# -- the run -------------------------------------------------------------------


@dataclass
class _TracedEpoch:
    """A traced epoch and the run tracer's cumulative counters at its
    start, end of set-up and end of warm phase."""

    epoch: Epoch
    marks: Dict[str, Dict[str, float]]
    setup_misses: int

    def setup(self, key: str) -> float:
        return (self.marks["setup"].get(key, 0)
                - self.marks["start"].get(key, 0))

    def warm(self, key: str) -> float:
        return (self.marks["warm"].get(key, 0)
                - self.marks["setup"].get(key, 0))


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        settings: Optional[Settings] = None,
        trace_dir: Optional[Path] = None) -> dict:
    """Run one workload; returns the result line plus provenance."""
    settings = settings or Settings()
    began = time.perf_counter()
    workload = WORKLOADS[workload_name](settings.geometries)
    tracer = tracing.Tracer() if trace else None
    epochs: List[Epoch] = []
    traced: List[_TracedEpoch] = []
    setup_misses: List[int] = []
    probes: List[float] = []
    for index in range(settings.epochs):
        tracer_on = trace and index % 2 == 1
        predecode.CACHE.clear()
        tuning.clear_cache()
        gc.collect()
        probes.append(probe_ms())
        misses = {"start": predecode.CACHE.stats()["misses"]}
        marks = {"start": dict(tracer.counts) if tracer_on else {}}

        def mark(phase, counts):
            misses[phase] = predecode.CACHE.stats()["misses"]
            if tracer_on:
                merged = dict(tracer.counts)
                for key, value in counts.items():
                    merged[key] = merged.get(key, 0) + value
                marks[phase] = merged

        # only untraced runs report latency percentiles
        last = index == settings.epochs - 1 and not trace
        needed = settings.min_samples - len(latencies(epochs))
        hooks = Hooks(
            tracer=tracer if tracer_on else tracing.NullTracer(),
            after_fork=((lambda: tracer.install(tracing.TARGETS))
                        if tracer_on else (lambda: None)),
            mark=mark,
            min_samples=max(needed, 0) if last else 0,
            hard_deadline=began + HARD_LIMIT_S)
        try:
            epoch = workload.run_epoch(hooks, seed,
                                       seconds / settings.epochs)
        finally:
            if tracer_on:
                tracer.uninstall()
        setup_misses.append(misses.get("setup", misses["start"])
                            - misses["start"])
        if tracer_on:
            tracer.window(epoch.warm_start, epoch.warm_end)
            traced.append(_TracedEpoch(epoch, marks, setup_misses[-1]))
        epochs.append(epoch)
    probes.append(probe_ms())

    untraced = [e for i, e in enumerate(epochs)
                if not (trace and i % 2 == 1)]
    attempted = sum(e.attempted for e in epochs)
    failed = sum(e.failed for e in epochs)
    errors = [msg for e in epochs for msg in e.errors][:10]
    geometries = settings.geometries or workload.geometries
    first = epochs[0]
    for epoch in epochs[1:]:
        # a round-robin kernel's simulated counts must repeat exactly
        # across epochs too (serve-streams batches are timing-dependent)
        for abbrev, counts in epoch.sim_pass.items():
            known = first.sim_pass.get(abbrev)
            if known is not None and known != counts:
                failed += 1
                errors.append(f"{abbrev}: simulated counts differ between "
                              f"epochs: {known} vs {counts}")

    samples = latencies(untraced)
    info = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "epochs": settings.epochs,
        "setup_s_epochs": [round(e.setup_s, 4) for e in epochs],
        "setup_predecode_misses": setup_misses,
        "worker_private_mb": [round(e.worker_mb, 3) for e in epochs],
        "latency_samples": len(samples),
        "probe_ms": [round(p, 3) for p in probes],
        "errors": errors,
        "host": provenance(workload),
    }
    if trace:
        metrics = layer_metrics(tracer, traced, untraced, probes)
        info["sim_per_kernel"] = {
            abbrev: {"cycles": c, "instructions": i}
            for abbrev, (c, i) in sorted(first.sim_pass.items())}
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            path = trace_dir / f"{workload_name}-seed{seed}.trace.json"
            tracing.write_chrome_trace(path, tracer.spans, began)
            info["chrome_trace"] = str(path.relative_to(ROOT))
    else:
        metrics = e2e_metrics(workload, untraced, samples, settings,
                              geometries)
    result = {
        "correct": failed == 0 and all(e.frames for e in untraced),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    return {"result": result, "info": info}


def e2e_metrics(workload, epochs: Sequence[Epoch], samples: List[float],
                settings: Settings, geometries) -> Dict[str, float]:
    """End-to-end metrics; a metric without the samples it needs (all
    frames failed, or too few latencies for p90) is left out."""
    warm = sum(e.warm_end - e.warm_start for e in epochs)
    frames = sum(1 for e in epochs for f in e.frames if f.ok)
    out = {
        "setup_s": statistics.median(e.setup_s for e in epochs),
        "frames_per_s": frames / warm,
    }
    if samples:
        out["p50_s"] = statistics.median(samples)
    if len(samples) >= 2:
        p90 = percentile(samples, 90)
        if sum(1 for s in samples if s > p90) >= settings.tail:
            out["p90_s"] = p90
    out["peak_rss_mb"] = peak_rss_mb(epochs)
    if epochs[0].sim_frame_seconds:
        out.update(fidelity(epochs[0].sim_frame_seconds, geometries))
    return out


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def layer_metrics(tracer: tracing.Tracer, traced: Sequence[_TracedEpoch],
                  untraced: Sequence[Epoch],
                  probes: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics of the traced epochs (see METRICS.md)."""
    epochs = [t.epoch for t in traced]
    frames = sum(1 for e in epochs for f in e.frames if f.ok) or 1
    warm = sum(e.warm_end - e.warm_start for e in epochs)
    spans = tracer.spans
    warm_spans = [s for s in spans if tracer.in_windows(s)]

    def per_frame(name: str) -> float:
        return sum(s.end - s.start for s in warm_spans
                   if s.name == name) / frames

    def in_setup(name: str) -> float:
        """Median over traced epochs of ``name``'s time in set-up."""
        return _median(
            tracer.total(name, e.warm_start - e.setup_s, e.warm_start)
            for e in epochs)

    def setup_count(key: str) -> float:
        return _median(t.setup(key) for t in traced)

    def warm_count(key: str) -> float:
        return sum(t.warm(key) for t in traced)

    out: Dict[str, float] = {}
    # isa: set-up cost
    out["isa.assemble_s"] = in_setup("isa.assemble")
    out["isa.predecode_misses"] = _median(t.setup_misses for t in traced)
    out["isa.schedule_s"] = in_setup("isa.schedule")
    out["isa.tuner_trials"] = setup_count("isa.tuner_trials")

    # gma: engine time and why a tier was or was not taken
    run_s, eu_s = per_frame("gma.run"), per_frame("gma.eu")
    instructions = warm_count("gma.instructions")
    engine_s = (run_s - eu_s) * frames
    out["gma.run_s"] = run_s
    out["gma.eu_s"] = eu_s
    out["gma.minstr_per_s"] = (instructions / engine_s / 1e6
                               if run_s > 0 and engine_s > 0 else 0.0)
    for key in ("megaops_retired", "megaop_deopts", "scalar_fallbacks"):
        out[f"gma.{key}"] = warm_count(f"gma.{key}") / frames
    out["gma.fusion_compiles"] = setup_count("gma.fusion_compiles")
    out["gma.gang_residency_pct"] = (
        100.0 * warm_count("gma.gang_lanes_retired") / instructions
        if instructions else 0.0)
    first = epochs[0]
    out["gma.sim_cycles"] = float(sum(c for c, _ in first.sim_pass.values()))
    out["gma.sim_instructions"] = float(sum(
        i for _, i in first.sim_pass.values()))

    # exo: ATR proxy service
    out["exo.atr_s"] = per_frame("exo.atr")
    out["exo.atr_pages"] = warm_count("exo.atr_pages") / frames
    out["exo.setup_atr_s"] = in_setup("exo.atr")
    out["exo.setup_atr_pages"] = setup_count("exo.atr_pages")

    # memory
    out["memory.upload_s"] = per_frame("memory.upload")
    out["memory.download_s"] = per_frame("memory.download")
    out["memory.alloc_free_s"] = per_frame("memory.alloc_free")
    out["memory.shootdowns"] = warm_count("memory.shootdowns") / frames

    # chi + fabric
    out["chi.region_s"] = per_frame("chi.region")
    out["chi.overhead_s"] = out["chi.region_s"] - per_frame("fabric.drain")
    out["fabric.drain_s"] = per_frame("fabric.drain")
    out["fabric.launch_s"] = per_frame("fabric.launch")
    out["fabric.prepare_s"] = per_frame("fabric.prepare")
    out["fabric.dispatch_s"] = per_frame("fabric.dispatch")
    out["fabric.skew"] = _skew(warm_spans, spans)
    out["fabric.staged_launches"] = (warm_count("fabric.staged_launches")
                                     / frames)
    out["fabric.piped_launches"] = (warm_count("fabric.piped_launches")
                                    / frames)

    # serving
    waits = [w for e in epochs for w in e.extra.get("waits", ())]
    drains = [d for e in epochs for d in e.extra.get("drains", ())]
    batches = warm_count("serving.batches")
    out["serving.wait_s"] = _median(waits)
    out["serving.drain_s"] = _median(drains)
    out["serving.lanes_per_batch"] = (warm_count("serving.lanes") / batches
                                      if batches else 0.0)
    out["serving.pop_batch_s"] = per_frame("serving.pop_batch")
    out["serving.demux_s"] = per_frame("serving.demux")
    burst = {}
    weights = {}
    for e in epochs:
        burst.update(e.extra.get("burst", {}))
        weights.update(e.extra.get("weights", {}))
    ok = [f for e in epochs for f in e.frames if f.ok]
    out["serving.burst_p50_s"] = _median(
        f.latency for f in ok if burst.get(f.stream) is True)
    out["serving.multi_p50_s"] = _median(
        f.latency for f in ok if burst.get(f.stream) is False)
    out["serving.fairness"] = (
        jain([warm_count(f"lanes.{name}") / weight
              for name, weight in sorted(weights.items())])
        if weights else 0.0)

    # the benchmark's own checking cost
    out["kernels.reference_s"] = per_frame("kernels.reference")
    out["kernels.verify_s"] = per_frame("kernels.verify")

    # host speed and tracing overhead
    out["host.probe_ms"] = statistics.median(probes)
    traced_fps = frames / warm if warm else 0.0
    plain_frames = sum(1 for e in untraced for f in e.frames if f.ok)
    plain_warm = sum(e.warm_end - e.warm_start for e in untraced)
    plain_fps = plain_frames / plain_warm if plain_warm else 0.0
    out["trace.frames_per_s"] = traced_fps
    out["trace.untraced_frames_per_s"] = plain_fps
    out["trace.overhead_pct"] = (100.0 * (plain_fps - traced_fps) / plain_fps
                                 if plain_fps else 0.0)

    # self times: every traced warm second lands in exactly one bucket
    shares = tracing.partition(spans, tracer.windows)
    out["trace.wall_s"] = warm / frames
    for layer in tracing.LAYERS:
        out[f"self.{layer}_s"] = shares.get(layer, 0.0) / frames
    out["self.other_s"] = shares.get("other", 0.0) / frames
    return out


def _skew(warm_spans, spans) -> float:
    """Median over fabric drains of slowest launch / mean launch."""
    by_parent: Dict[int, List[float]] = {}
    drains = {i for i, s in enumerate(spans) if s.name == "fabric.drain"}
    for span in warm_spans:
        if span.name == "fabric.launch" and span.parent in drains:
            by_parent.setdefault(span.parent, []).append(
                span.end - span.start)
    ratios = [max(d) / statistics.fmean(d) for d in by_parent.values()
              if len(d) > 1]
    return _median(ratios)


# -- names and units -------------------------------------------------------------

#: Unit of every metric, as BENCHMARK.json declares it.
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
