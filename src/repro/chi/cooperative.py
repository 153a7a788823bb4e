"""Cooperative heterogeneous parallel loops (paper section 5.3).

:func:`run_cooperative` is the runtime face of Figure 9/10: one parallel
loop whose iterations can execute on either sequencer class.  The GMA's
share launches as a ``master_nowait`` region; the IA32's share executes
functionally through a host callback while the region is in flight; the
region's barrier closes the loop.  The returned record carries both the
functional outcome and the timeline measurement (who was busy for how
long, how balanced the split was).

The *policy* half — which fraction to put where — lives in
:mod:`repro.chi.scheduler`; this module consumes a concrete fraction, so
callers can use :func:`~repro.chi.scheduler.oracle_partition`,
:func:`~repro.chi.scheduler.dynamic_partition` or a static guess to pick
it, exactly the paper's three schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Union

from ..cpu.ia32 import CpuWork
from ..errors import SchedulingError
from ..isa.program import Program
from .runtime import ChiRuntime, ParallelRegion


@dataclass
class CooperativeOutcome:
    """Result of one cooperatively executed parallel loop."""

    region: ParallelRegion
    total_items: int
    cpu_items: int
    gma_items: int
    cpu_seconds: float
    gma_seconds: float
    start_time: float
    end_time: float

    @property
    def cpu_fraction(self) -> float:
        return self.cpu_items / self.total_items if self.total_items else 0.0

    @property
    def elapsed_seconds(self) -> float:
        return self.end_time - self.start_time

    @property
    def overlap_seconds(self) -> float:
        """Time both sequencer classes were busy simultaneously."""
        return min(self.cpu_seconds, self.gma_seconds)


def run_cooperative(runtime: ChiRuntime,
                    section: Union[int, str, Program], *,
                    bindings: Sequence[Dict[str, float]],
                    host_fn: Callable[[Dict[str, float]], None],
                    host_work_per_item: CpuWork,
                    cpu_fraction: float,
                    shared: Optional[Dict[str, object]] = None,
                    firstprivate: Optional[Dict[str, float]] = None,
                    target: str = "X3000",
                    label: str = "coop-host") -> CooperativeOutcome:
    """Split one parallel loop between the IA32 sequencer and the GMA.

    ``bindings`` lists every iteration's private values.  The tail
    ``cpu_fraction`` of them executes on the host — Figure 9 style, where
    the IA32 sequencer takes iterations ``[GMA_iters, n)`` — via
    ``host_fn(binding)``, costed at ``host_work_per_item`` each; the rest
    become exo-sequencer shreds under ``master_nowait``.
    """
    if not 0.0 <= cpu_fraction <= 1.0:
        raise SchedulingError(
            f"cpu_fraction must be in [0, 1], got {cpu_fraction}")
    bindings = [dict(b) for b in bindings]
    total = len(bindings)
    if total == 0:
        raise SchedulingError("cooperative loop needs at least one iteration")
    n_cpu = int(round(cpu_fraction * total))
    n_cpu = min(max(n_cpu, 0), total)
    gma_items = bindings[: total - n_cpu]
    cpu_items = bindings[total - n_cpu :]

    start_time = runtime.timeline.now
    gma_seconds = 0.0
    if gma_items:
        region = runtime.parallel(section, target=target, shared=shared,
                                  firstprivate=firstprivate,
                                  private=gma_items, master_nowait=True)
        gma_seconds = region.gma_seconds
    else:
        # degenerate split: an empty region handle keeps the API uniform
        region = ParallelRegion(runtime=runtime, result=None, gma_seconds=0.0,
                                completion_time=runtime.timeline.now,
                                master_nowait=True, waited=True)

    cpu_seconds = 0.0
    if cpu_items:
        for binding in cpu_items:
            host_fn(binding)
        cpu_seconds = runtime.run_host(
            CpuWork(pixels=host_work_per_item.pixels * len(cpu_items),
                    cycles_per_pixel=host_work_per_item.cycles_per_pixel,
                    bytes_touched=host_work_per_item.bytes_touched
                    * len(cpu_items)),
            label=label)

    region.wait()
    return CooperativeOutcome(
        region=region,
        total_items=total,
        cpu_items=len(cpu_items),
        gma_items=len(gma_items),
        cpu_seconds=cpu_seconds,
        gma_seconds=gma_seconds,
        start_time=start_time,
        end_time=runtime.timeline.now,
    )
