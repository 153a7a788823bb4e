"""Host work of the megaop engine as cProfile call counts.

Wall time on a shared or drifting host is too noisy to show a change
of a few percent; a call count of fixed work is exact and repeats
across processes.  The fixed slice: the ten Table 2 kernels, one frame
each at bench geometry, on a megaop device with the predecode and trace
caches cleared before each kernel, so block compiles count too.  Only
``device.run`` is profiled.  It runs twice: on the unscheduled kernel
programs, and on ``schedule="auto"``, where the tuner picks each
program before the profile starts.

Counts differ across Python and numpy versions, so compare two trees
on one interpreter; the CI step that prints them is informational.

Run::

    PYTHONPATH=src python benchmarks/work_counts.py
"""

from __future__ import annotations

import cProfile
import pstats

import numpy as np

from repro.exo.shred import ShredDescriptor
from repro.gma.device import GmaDevice
from repro.isa import predecode, tuning
from repro.kernels import ALL_KERNELS
from repro.kernels.harness import allocate_surfaces, schedule_kernel_program
from repro.memory.address_space import AddressSpace
from repro.perf import BENCH_GEOMETRIES


def kernel_calls(kernel_cls, schedule=None) -> int:
    """cProfile's total call count of one cold bench frame's
    ``device.run``."""
    kernel = kernel_cls()
    geom = BENCH_GEOMETRIES[kernel.abbrev]
    tuning.clear_cache()
    program, _spec, _trials = schedule_kernel_program(
        kernel, geom, schedule, verify=schedule == "auto")
    predecode.CACHE.clear()
    space = AddressSpace()
    device = GmaDevice(space, engine="megaop")
    surfaces = allocate_surfaces(kernel, geom, space)
    for name, image in kernel.make_frame_inputs(geom, 0, 0).items():
        surfaces[name].upload(space, np.asarray(image))
    consts = kernel.constants(geom)
    shreds = [ShredDescriptor(program=program,
                              bindings={**consts, **bindings},
                              surfaces=surfaces)
              for bindings in kernel.shred_bindings(geom)]
    profile = cProfile.Profile()
    profile.runcall(device.run, shreds)
    return pstats.Stats(profile).total_calls


def main() -> int:
    print("### Work counts (cProfile calls of `device.run`, ten kernels "
          "x one cold bench frame)")
    print()
    print("| kernel | unscheduled | schedule=auto |")
    print("|---|---|---|")
    totals = [0, 0]
    for kernel_cls in ALL_KERNELS:
        row = [kernel_calls(kernel_cls), kernel_calls(kernel_cls, "auto")]
        totals = [a + b for a, b in zip(totals, row)]
        print(f"| {kernel_cls.abbrev} | {row[0]} | {row[1]} |")
    print(f"| **total** | **{totals[0]}** | **{totals[1]}** |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
