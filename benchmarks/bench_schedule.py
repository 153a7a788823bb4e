"""Auto-tuned schedule transforms vs the unscheduled kernel programs.

The schedule-transform layer (``src/repro/isa/transforms.py``,
``docs/SCHEDULE.md``) rewrites a kernel program — unroll, reorder,
block-stage memory — without changing a single output bit, and the
auto-tuner (``src/repro/isa/tuning.py``) picks from a four-entry menu
of such schedules against the EU timing model.  This benchmark is the
CI gate for that layer, measured two ways:

* the per-kernel scheduled-vs-baseline table: four kernels whose short
  load/store-dominated inner loops stayed flat under the megaop engine
  run at bench geometry, unscheduled and ``schedule="auto"``, on the
  scalar and megaop engines.  The gate: at least ``CHECK_MIN_KERNELS``
  kernels must clear ``CHECK_SPEEDUP``x scalar wall-clock, and *every*
  scheduled run — scalar and megaop — must reproduce the unscheduled
  scalar output surfaces bit-exactly
  (speedups may be noisy, correctness may not);
* the tuner-cache smoke: tuning a kernel once must score real
  candidates (``trials > 0``); tuning the same source+bindings again
  must hit the winner cache (``trials == 0``, same ``Program`` object,
  so the predecode cache stays warm too).

Only ``device.run`` is on the clock: a multi-frame run tunes on frame 0
and hits the tuner's winner cache ever after, so steady state pays for
the schedule, not the search.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_schedule.py
    PYTHONPATH=src python benchmarks/bench_schedule.py --check   # CI gate

or under pytest (``pytest benchmarks/bench_schedule.py``).  Writes
``BENCH_schedule.json`` next to the working directory (``--json`` to
move); a ``--check`` run writes only to an explicit ``--json`` path, so
gating never rewrites the committed row.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.exo.shred import ShredDescriptor
from repro.gma.device import GmaDevice
from repro.isa import tuning
from repro.kernels import ADVDI, BOB, AlphaBlend, ProcAmp
from repro.kernels.harness import allocate_surfaces, schedule_kernel_program
from repro.memory.address_space import AddressSpace
from repro.perf import BENCH_GEOMETRIES

#: The previously flat kernels: short load/store-dominated inner loops
#: where gang batching alone left wall-clock on the table.  These are
#: the kernels the schedule search is for.
GATE_KERNELS = (BOB, ADVDI, AlphaBlend, ProcAmp)
CHECK_SPEEDUP = 1.3  # scheduled vs unscheduled scalar, wall-clock
CHECK_MIN_KERNELS = 2  # kernels that must clear CHECK_SPEEDUP
DEFAULT_REPEATS = 3


class _KernelBench:
    """One (kernel, schedule, engine) configuration, run-once at a time.

    Splitting setup from the timed run lets the table interleave its
    four configurations round-robin, so slow host-load drift hits every
    configuration equally instead of biasing whichever ran last.
    """

    def __init__(self, kernel_cls, schedule, engine: str):
        self.kernel = kernel_cls()
        self.engine = engine
        self.geom = BENCH_GEOMETRIES[self.kernel.abbrev]
        self.program, self.spec, self.trials = schedule_kernel_program(
            self.kernel, self.geom, schedule, verify=schedule == "auto")
        self.consts = self.kernel.constants(self.geom)
        self.inputs = self.kernel.make_frame_inputs(self.geom, 0, 0)
        self.best = None

    def run_once(self) -> None:
        space = AddressSpace()
        device = GmaDevice(space, engine=self.engine)
        surfaces = allocate_surfaces(self.kernel, self.geom, space)
        for name, image in self.inputs.items():
            surfaces[name].upload(space, np.asarray(image))
        shreds = [ShredDescriptor(program=self.program,
                                  bindings={**self.consts, **bindings},
                                  surfaces=surfaces)
                  for bindings in self.kernel.shred_bindings(self.geom)]
        started = time.perf_counter()
        run = device.run(shreds)
        wall = time.perf_counter() - started
        if self.best is None or wall < self.best["wall_seconds"]:
            self.best = {
                "kernel": self.kernel.abbrev,
                "engine": self.engine,
                "schedule": self.spec,
                "tuner_trials": self.trials,
                "instructions": run.instructions,
                "shreds": run.shreds_executed,
                "wall_seconds": wall,
                "outputs": {name: surface.download(space)
                            for name, surface in surfaces.items()},
            }


def measure_kernel(kernel_cls, schedule=None, engine: str = "scalar",
                   repeats: int = DEFAULT_REPEATS) -> dict:
    """Best-of-``repeats`` ``device.run`` wall time for one frame.

    Scheduling happens once, outside the timed region; under
    ``schedule="auto"`` the tuner only accepts candidates that
    reproduce frame 0 bit-exactly on a scratch device.
    """
    bench = _KernelBench(kernel_cls, schedule, engine)
    for _ in range(repeats):
        bench.run_once()
    return bench.best


def _bit_identical(a: dict, b: dict) -> bool:
    return (sorted(a) == sorted(b)
            and all(np.array_equal(a[name], b[name]) for name in a))


def measure_schedule_table(repeats: int = DEFAULT_REPEATS) -> dict:
    """Scheduled-vs-baseline rows for every gate kernel, interleaved."""
    table = {}
    for kernel_cls in GATE_KERNELS:
        benches = [_KernelBench(kernel_cls, schedule, engine)
                   for engine in GmaDevice.ENGINES
                   for schedule in (None, "auto")]
        for _ in range(repeats):
            for bench in benches:
                bench.run_once()
        base, sched, mega_base, mega_sched = (b.best for b in benches)
        table[base["kernel"]] = {
            "schedule": sched["schedule"],
            "tuner_trials": sched["tuner_trials"],
            "baseline_seconds": base["wall_seconds"],
            "scheduled_seconds": sched["wall_seconds"],
            "megaop_baseline_seconds": mega_base["wall_seconds"],
            "megaop_scheduled_seconds": mega_sched["wall_seconds"],
            "speedup": base["wall_seconds"] / sched["wall_seconds"],
            "megaop_speedup": (mega_base["wall_seconds"]
                               / mega_sched["wall_seconds"]),
            "baseline_instructions": base["instructions"],
            "scheduled_instructions": sched["instructions"],
            "bit_identical": (
                _bit_identical(base["outputs"], sched["outputs"])
                and _bit_identical(base["outputs"], mega_sched["outputs"])),
        }
    return table


def measure_tuner_smoke(kernel_cls=BOB) -> dict:
    """Cold tune must search; warm tune must hit the winner cache."""
    kernel = kernel_cls()
    geom = BENCH_GEOMETRIES[kernel.abbrev]
    tuning.clear_cache()
    first, spec, first_trials = schedule_kernel_program(kernel, geom, "auto")
    second, spec_again, second_trials = schedule_kernel_program(
        kernel, geom, "auto")
    return {
        "kernel": kernel.abbrev,
        "schedule": spec,
        "first_trials": first_trials,
        "second_trials": second_trials,
        "cached_same_program": second is first,
        "cached_same_spec": spec_again == spec,
        "cache_entries": tuning.cache_stats()["entries"],
    }


def compare(repeats: int = DEFAULT_REPEATS) -> dict:
    tuner = measure_tuner_smoke()
    table = measure_schedule_table(repeats)
    cleared = sum(1 for row in table.values()
                  if row["speedup"] >= CHECK_SPEEDUP and row["bit_identical"])
    return {
        "kernels": table,
        "tuner": tuner,
        "kernels_cleared": cleared,
    }


def report(outcome: dict) -> str:
    lines = [
        "auto-tuned schedule vs unscheduled program (bench geometry):",
        f"  {'kernel':12s} {'schedule':26s} {'trials':>6s} "
        f"{'base ms':>9s} {'sched ms':>9s} {'scalar':>7s} "
        f"{'megaop':>7s} {'bits':>5s}",
    ]
    for name, row in outcome["kernels"].items():
        lines.append(
            f"  {name:12s} {row['schedule'] or 'baseline':26s} "
            f"{row['tuner_trials']:6d} "
            f"{row['baseline_seconds'] * 1e3:9.2f} "
            f"{row['scheduled_seconds'] * 1e3:9.2f} "
            f"{row['speedup']:6.2f}x "
            f"{row['megaop_speedup']:6.2f}x "
            f"{'same' if row['bit_identical'] else 'DIFF':>5s}")
    lines.append(
        f"  kernels >= {CHECK_SPEEDUP:.1f}x scalar with bit-identical "
        f"output: {outcome['kernels_cleared']} "
        f"(gate: >= {CHECK_MIN_KERNELS})")
    tuner = outcome["tuner"]
    lines.append(
        f"  tuner smoke ({tuner['kernel']}): first call "
        f"{tuner['first_trials']} trials -> {tuner['schedule']!r}; second "
        f"call {tuner['second_trials']} trials, "
        f"{'cache hit' if tuner['cached_same_program'] else 'CACHE MISS'}")
    return "\n".join(lines)


def step_summary(outcome: dict) -> str:
    """GitHub Actions step-summary markdown: the schedule table."""
    tuner = outcome["tuner"]
    lines = [
        "### Schedule benchmark",
        "",
        f"- kernels >= {CHECK_SPEEDUP:.1f}x scheduled-vs-baseline scalar "
        f"with bit-identical outputs: **{outcome['kernels_cleared']}** "
        f"(gate >= {CHECK_MIN_KERNELS})",
        f"- tuner: {tuner['first_trials']} trials cold, "
        f"{tuner['second_trials']} warm "
        f"({'cache hit' if tuner['cached_same_program'] else 'cache miss'})",
        "",
        "| kernel | auto schedule | trials | baseline ms | scheduled ms "
        "| scalar speedup | megaop speedup | bit-identical |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name, row in outcome["kernels"].items():
        lines.append(
            f"| {name} | `{row['schedule'] or 'baseline'}` "
            f"| {row['tuner_trials']} "
            f"| {row['baseline_seconds'] * 1e3:.2f} "
            f"| {row['scheduled_seconds'] * 1e3:.2f} "
            f"| **{row['speedup']:.2f}x** "
            f"| {row['megaop_speedup']:.2f}x "
            f"| {'yes' if row['bit_identical'] else 'NO'} |")
    return "\n".join(lines) + "\n"


def check(outcome: dict) -> bool:
    """Apply every gate; print failures; True when all pass."""
    ok = True
    for name, row in outcome["kernels"].items():
        if not row["bit_identical"]:
            print(f"CHECK FAILED: scheduled {name} output differs from "
                  f"unscheduled scalar", file=sys.stderr)
            ok = False
    if outcome["kernels_cleared"] < CHECK_MIN_KERNELS:
        print(f"CHECK FAILED: only {outcome['kernels_cleared']} kernel(s) "
              f">= {CHECK_SPEEDUP:.1f}x (need {CHECK_MIN_KERNELS})",
              file=sys.stderr)
        ok = False
    tuner = outcome["tuner"]
    if tuner["first_trials"] <= 0:
        print("CHECK FAILED: cold tune scored no candidates",
              file=sys.stderr)
        ok = False
    if tuner["second_trials"] != 0 or not tuner["cached_same_program"]:
        print("CHECK FAILED: warm tune missed the winner cache",
              file=sys.stderr)
        ok = False
    return ok


# -- pytest entry points ---------------------------------------------------------------


def test_scheduled_outputs_bit_identical():
    """Correctness bar: every auto-scheduled kernel must reproduce the
    unscheduled scalar output exactly, on the scalar and megaop engines."""
    for kernel_cls in GATE_KERNELS:
        base = measure_kernel(kernel_cls, None, "scalar", repeats=1)
        sched = measure_kernel(kernel_cls, "auto", "scalar", repeats=1)
        megaop = measure_kernel(kernel_cls, "auto", "megaop", repeats=1)
        assert _bit_identical(base["outputs"], sched["outputs"]), \
            base["kernel"]
        assert _bit_identical(base["outputs"], megaop["outputs"]), \
            base["kernel"]


def test_schedule_speedup_gate():
    """The perf acceptance bar: auto-tuned schedules must deliver
    >= 1.3x on at least two of the previously flat kernels."""
    outcome = compare()
    assert outcome["kernels_cleared"] >= CHECK_MIN_KERNELS, \
        {name: round(row["speedup"], 2)
         for name, row in outcome["kernels"].items()}


def test_tuner_searches_then_caches():
    smoke = measure_tuner_smoke()
    assert smoke["first_trials"] > 0
    assert smoke["second_trials"] == 0
    assert smoke["cached_same_program"]
    assert smoke["cached_same_spec"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="best-of-N wall clock (default %(default)s)")
    parser.add_argument("--json", type=str, default=None,
                        help="result file (default BENCH_schedule.json; a "
                             "--check run writes one only when given)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless >= "
                             f"{CHECK_MIN_KERNELS} kernels reach >= "
                             f"{CHECK_SPEEDUP:.1f}x scheduled-vs-baseline "
                             "scalar wall clock, every scheduled output "
                             "is bit-identical, and the tuner cache "
                             "smoke passes")
    args = parser.parse_args(argv)

    outcome = compare(args.repeats)
    print(report(outcome))
    path = args.json or (None if args.check else "BENCH_schedule.json")
    if path:
        with open(path, "w") as handle:
            json.dump(outcome, handle, indent=2)
        print(f"wrote {path}")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(step_summary(outcome))
        print(f"appended schedule stats to {summary_path}")
    if args.check:
        if not check(outcome):
            return 1
        print(f"check passed: {outcome['kernels_cleared']} kernel(s) "
              f">= {CHECK_SPEEDUP:.1f}x, outputs bit-identical, tuner "
              f"caches winners")
    return 0


if __name__ == "__main__":
    sys.exit(main())
