"""Command-line toolchain: compile, run and inspect CHI fat binaries.

Three entry points mirror the workflow of Figure 4:

* ``chicc program.c -o program.fatbin`` — the CHI compiler: lex/parse/
  check the pragma-extended C, assemble every ``__asm``/``__dsl`` block,
  emit a fat binary;
* ``chirun program.fatbin`` (or a ``.c`` directly) — load the fat binary
  and execute it on a freshly simulated EXO platform;
* ``chidump program.fatbin`` — list the multi-ISA code sections and
  disassemble them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .chi.fatbinary import FatBinary
from .chi.frontend.driver import CompiledProgram, compile_source
from .chi.frontend.parser import parse
from .chi.frontend import lower, sema
from .chi.platform import ExoPlatform
from .chi.runtime import ChiRuntime
from .errors import ReproError
from .gma.counters import ENGINE_COUNTERS
from .gma.device import GmaDevice
from .isa import predecode
from .isa.disassembler import disassemble


def _load(path: Path) -> CompiledProgram:
    """A CompiledProgram from either a .c source or a .fatbin image."""
    if path.suffix == ".fatbin":
        fat = FatBinary.deserialize(path.read_bytes())
        if not fat.host_source:
            raise ReproError(
                f"{path} carries no host code section; cannot execute")
        unit = parse(fat.host_source)
        sema.check(unit)
        # re-lower against a scratch binary so AsmBlock nodes carry their
        # section ids, then keep the original's sections
        rebuilt = lower.lower(unit, name=fat.name)
        if sorted(rebuilt.sections) != sorted(fat.sections):
            raise ReproError(
                f"{path}: host source and code sections disagree")
        return CompiledProgram(unit=unit, fatbinary=fat, name=fat.name)
    return compile_source(path.read_text(), name=path.stem)


def chicc(argv=None) -> int:
    """The CHI compiler driver."""
    parser_ = argparse.ArgumentParser(
        prog="chicc", description="Compile a CHI C program to a fat binary.")
    parser_.add_argument("source", type=Path)
    parser_.add_argument("-o", "--output", type=Path, default=None)
    parser_.add_argument("--sections", action="store_true",
                         help="list the generated code sections")
    args = parser_.parse_args(argv)
    try:
        program = compile_source(args.source.read_text(),
                                 name=args.source.stem)
    except ReproError as exc:
        print(f"chicc: {exc}", file=sys.stderr)
        return 1
    output = args.output or args.source.with_suffix(".fatbin")
    output.write_bytes(program.fatbinary.serialize())
    print(f"{args.source} -> {output} "
          f"({len(program.fatbinary.sections)} accelerator section(s))")
    if args.sections:
        for section in program.fatbinary.sections.values():
            print(f"  [{section.ident}] {section.isa:8s} {section.name} "
                  f"({len(section.blob)} bytes)")
    return 0


def chirun(argv=None) -> int:
    """Execute a compiled CHI program on a simulated EXO platform."""
    parser_ = argparse.ArgumentParser(
        prog="chirun", description="Run a CHI fat binary (or .c source).")
    parser_.add_argument("image", type=Path, nargs="?", default=None)
    parser_.add_argument("--stats", action="store_true",
                         help="print runtime statistics after execution")
    parser_.add_argument("--gma-devices", type=int, default=1, metavar="N",
                         help="simulate an N-accelerator fabric (default 1)")
    parser_.add_argument("--engine", choices=GmaDevice.ENGINES,
                         default="scalar",
                         help="GMA execution engine: scalar interpretation "
                              "or gang-vectorized batching (default scalar)")
    parser_.add_argument("--schedule", default=None, metavar="SPEC",
                         help="schedule transform applied to every "
                              "parallel region's program: 'auto' tunes "
                              "per program against the timing model, or "
                              "give an explicit spec like "
                              "'unroll4+stage_mem' (steps: unroll[N], "
                              "split[N], stage_mem, reorder, "
                              "replace_avg, replace_mad)")
    parser_.add_argument("--megaop-threshold", type=int, default=None,
                         metavar="N",
                         help="chain traversals of one hot cycle before "
                              "the megaop engine promotes it to a single "
                              "composed numpy expression (default 8; "
                              "only meaningful with --engine megaop)")
    parser_.add_argument("--fabric-workers", type=int, default=0,
                         metavar="N",
                         help="host the GMA devices on N worker processes "
                              "over shared-memory physical frames; drains "
                              "run genuinely concurrently (no shared GIL). "
                              "0 = in-process devices (default)")
    parser_.add_argument("--serve", action="store_true",
                         help="instead of running an image, start the "
                              "multi-tenant serving demo: two tenants "
                              "replay a mixed-kernel trace through an "
                              "ExoServer and per-tenant stats print")
    args = parser_.parse_args(argv)
    if args.serve:
        from .serving.demo import run_serving_demo
        engine = args.engine if args.engine != "scalar" else "gang"
        try:
            server = run_serving_demo(
                devices=max(args.gma_devices, 1), engine=engine,
                fabric_workers=args.fabric_workers)
        except ReproError as exc:
            print(f"chirun: {exc}", file=sys.stderr)
            return 1
        if args.stats:
            stats = server.runtime_stats()
            print(f"[chirun] sessions={stats.sessions_opened} "
                  f"admitted={stats.launches_admitted} "
                  f"rejected={stats.launches_rejected} "
                  f"gangs_coalesced={stats.gangs_coalesced} "
                  f"coalesced_lanes={stats.coalesced_lanes}",
                  file=sys.stderr)
            print(_engine_line(engine, stats), file=sys.stderr)
        return 0
    if args.image is None:
        parser_.error("an image is required unless --serve is given")
    platform = None
    try:
        platform = ExoPlatform(num_gma_devices=args.gma_devices,
                               gma_engine=args.engine,
                               fabric_workers=args.fabric_workers,
                               megaop_threshold=args.megaop_threshold,
                               schedule=args.schedule)
        runtime = ChiRuntime(platform)
        program = _load(args.image)
        result = program.run(runtime=runtime)
    except ReproError as exc:
        print(f"chirun: {exc}", file=sys.stderr)
        return 1
    finally:
        if platform is not None:
            platform.close()
    sys.stdout.write(result.output)
    if args.stats:
        stats = result.runtime.stats
        print(f"[chirun] regions={stats.regions} shreds={stats.shreds} "
              f"gma={stats.gma_seconds * 1e6:.1f}us "
              f"cpu={stats.cpu_seconds * 1e6:.1f}us "
              f"copied={stats.bytes_copied}B", file=sys.stderr)
        for name in sorted(stats.device_seconds):
            print(f"[chirun]   {name}: "
                  f"{stats.device_seconds[name] * 1e6:.1f}us busy, "
                  f"{stats.device_shreds.get(name, 0)} shreds",
                  file=sys.stderr)
        if args.schedule is not None:
            print(f"[chirun] schedule={stats.schedule_name or 'baseline'} "
                  f"applied={stats.schedules_applied} "
                  f"tuner_trials={stats.tuner_trials}",
                  file=sys.stderr)
        print(_engine_line(args.engine, stats), file=sys.stderr)
        if args.engine != "scalar":
            cache = predecode.CACHE.stats()
            print(f"[chirun] predecode_cache entries={cache['entries']} "
                  f"hits={cache['hits']} misses={cache['misses']} "
                  f"evictions={cache['evictions']} "
                  f"fused_blocks={cache['fused_blocks']} "
                  f"megaops={cache['megaops']}",
                  file=sys.stderr)
    value = result.exit_value
    return int(value) if isinstance(value, (int, float)) else 0


def _engine_line(engine: str, stats) -> str:
    """The ``--stats`` engine line: every counter of the record, then
    the residency derived from them."""
    counters = " ".join(f"{name}={getattr(stats, name)}"
                        for name in ENGINE_COUNTERS)
    return (f"[chirun] engine={engine} {counters} "
            f"gang_residency={stats.gang_residency_pct:.1f}%")


def chidump(argv=None) -> int:
    """Inspect a fat binary: sections, sizes, disassembly."""
    parser_ = argparse.ArgumentParser(
        prog="chidump", description="Disassemble a CHI fat binary.")
    parser_.add_argument("image", type=Path)
    parser_.add_argument("--no-disassembly", action="store_true")
    args = parser_.parse_args(argv)
    try:
        fat = FatBinary.deserialize(args.image.read_bytes())
    except (ReproError, OSError) as exc:
        print(f"chidump: {exc}", file=sys.stderr)
        return 1
    print(f"fat binary {fat.name!r}: ISAs {fat.isas()}, "
          f"{len(fat.sections)} code section(s), "
          f"{len(fat.host_source)} bytes of host source")
    for section in fat.sections.values():
        print(f"\nsection [{section.ident}] {section.isa} {section.name} "
              f"({len(section.blob)} bytes)")
        if not args.no_disassembly:
            program = fat.program(section.ident)
            for line in disassemble(program).splitlines():
                print(f"    {line}")
    return 0
