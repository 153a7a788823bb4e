"""Run harness: execute a media kernel on the simulated EXO platform.

This is the glue the CHI runtime generates behind the paper's pragma
(spawn a team of shreds per frame, wait at the implied barrier) plus the
verification the paper's authors did by eyeball: the GMA output must match
the numpy reference exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..exo.shred import ShredDescriptor
from ..gma.counters import EngineCounters
from ..gma.device import GmaDevice
from ..isa.assembler import assemble
from ..isa.program import Program
from ..isa.tuning import resolve_schedule
from ..memory.address_space import AddressSpace
from ..memory.surface import Surface
from .base import Geometry, MediaKernel


@dataclass(kw_only=True)
class KernelRunResult(EngineCounters):
    """Aggregate outcome of running every frame of one kernel config
    (engine counters stay zero on a ``"scalar"`` device)."""

    kernel: MediaKernel
    geometry: Geometry
    gma_cycles: float = 0.0
    instructions: int = 0
    shreds: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    atr_events: int = 0
    ceh_events: int = 0
    sampler_samples: int = 0
    frames_run: int = 0
    verified: bool = False
    bound: str = ""
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Schedule-transform layer: the spec that was applied to the kernel
    #: program ("" when unscheduled, "baseline" when the tuner kept the
    #: original) and how many candidates the auto-tuner scored.
    schedule: str = ""
    tuner_trials: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written


def build_program(kernel: MediaKernel, geom: Geometry,
                  schedule=None) -> Program:
    """Assemble the kernel's inline-assembly block for this geometry.

    ``schedule`` optionally transforms the result: ``None`` (as
    assembled), ``"auto"`` (tuner-picked), a spec string like
    ``"unroll4+stage_mem"``, or a
    :class:`~repro.isa.transforms.Schedule`.
    """
    program, _, _ = schedule_kernel_program(kernel, geom, schedule)
    return program


def schedule_kernel_program(kernel: MediaKernel, geom: Geometry,
                            schedule=None, verify: bool = False):
    """Build + schedule; returns ``(program, spec, tuner_trials)``.

    With ``verify=True`` the auto-tuner only accepts candidates that
    reproduce frame 0 bit-exactly on a scratch default device.
    """
    program = assemble(kernel.asm_source(geom), name=kernel.abbrev)
    verifier = (make_schedule_verifier(kernel, geom)
                if verify and schedule == "auto" else None)
    return resolve_schedule(program, schedule, kernel.constants(geom),
                            verifier=verifier)


def make_schedule_verifier(kernel: MediaKernel, geom: Geometry, seed: int = 0):
    """A tuner verify hook: candidate must match the numpy reference
    bit-exactly for frame 0 on a fresh default device."""
    def verify(program: Program) -> bool:
        space = AddressSpace()
        device = GmaDevice(space)
        surfaces = allocate_surfaces(kernel, geom, space)
        consts = kernel.constants(geom)
        inputs = kernel.make_frame_inputs(geom, 0, seed)
        for name, image in inputs.items():
            surfaces[name].upload(space, np.asarray(image))
        expected, _ = kernel.reference_frame(geom, inputs, {})
        shreds = [ShredDescriptor(program=program,
                                  bindings={**consts, **bindings},
                                  surfaces=surfaces)
                  for bindings in kernel.shred_bindings(geom)]
        try:
            device.run(shreds)
            for name, want in expected.items():
                kernel.compare(name, surfaces[name].download(space),
                               np.asarray(want))
        except Exception:
            return False
        return True
    return verify


def allocate_surfaces(kernel: MediaKernel, geom: Geometry,
                      space: AddressSpace) -> Dict[str, Surface]:
    return {
        spec.name: Surface.alloc(space, spec.name, spec.width, spec.height,
                                 spec.dtype)
        for spec in kernel.surface_specs(geom)
    }


def run_kernel_on_gma(kernel: MediaKernel, geom: Geometry,
                      device: Optional[GmaDevice] = None,
                      space: Optional[AddressSpace] = None,
                      seed: int = 0, verify: bool = True,
                      max_frames: Optional[int] = None,
                      schedule=None) -> KernelRunResult:
    """Execute the kernel's shreds on the GMA model, frame by frame.

    ``max_frames`` caps how many of ``geom.frames`` actually execute (the
    benchmarks run a frame or two and scale; cycle cost is per-frame
    uniform).  Functional verification compares every output surface
    against the kernel's reference for each executed frame.
    ``schedule`` selects a schedule transform for the kernel program
    (``None`` / ``"auto"`` / spec string / ``Schedule``); under
    ``"auto"`` the tuner's pick must reproduce frame 0 bit-exactly
    before it is accepted.
    """
    kernel.check_geometry(geom)
    space = space or AddressSpace()
    device = device or GmaDevice(space)
    program, spec, tuner_trials = schedule_kernel_program(
        kernel, geom, schedule, verify=True)
    surfaces = allocate_surfaces(kernel, geom, space)
    consts = kernel.constants(geom)

    result = KernelRunResult(kernel=kernel, geometry=geom,
                             schedule=spec, tuner_trials=tuner_trials)
    invocations = kernel.device_invocations(geom)
    frames = invocations if max_frames is None else min(invocations, max_frames)
    state: Dict = {}
    for frame in range(frames):
        inputs = kernel.make_frame_inputs(geom, frame, seed)
        for name, image in inputs.items():
            surfaces[name].upload(space, np.asarray(image))
        expected, state = kernel.reference_frame(geom, inputs, state)

        shreds = [
            ShredDescriptor(program=program,
                            bindings={**consts, **bindings},
                            surfaces=surfaces)
            for bindings in kernel.shred_bindings(geom)
        ]
        run = device.run(shreds)

        result.gma_cycles += run.cycles
        result.instructions += run.instructions
        result.shreds += run.shreds_executed
        result.bytes_read += run.bytes_read
        result.bytes_written += run.bytes_written
        result.atr_events += run.atr_events
        result.ceh_events += run.ceh_events
        result.sampler_samples += sum(r.sampler_samples for r in run.runs)
        result.add(run)
        result.bound = run.timing.bound
        result.frames_run += 1

        for name, want in expected.items():
            got = surfaces[name].download(space)
            result.outputs[name] = got
            if verify:
                kernel.compare(name, got, np.asarray(want))
    result.verified = verify
    return result


def scale_cycles_to_full_run(result: KernelRunResult) -> float:
    """Extrapolate measured cycles to the full device-invocation count."""
    if result.frames_run == 0:
        return 0.0
    per_frame = result.gma_cycles / result.frames_run
    return per_frame * result.kernel.device_invocations(result.geometry)
