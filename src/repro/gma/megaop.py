"""Compiled traces: the megaop engine's block and cycle tiers.

The gang loop (:mod:`repro.gma.gang`) batches *lanes* per instruction
but still pays one Python dispatch round — batch-class switch,
guard-mask build, one ``account_instruction`` call per shred — for
every instruction.  This module amortizes that round with one trace
compiler and two trace shapes:

* a **block** — one basic block of
  :func:`repro.isa.blocks.discover_blocks`, compiled once per program
  and retired in one dispatch, *chaining* through its terminating
  branch whenever the branch resolves identically across every active
  lane (the common case for counted loops);
* a **cycle** — a hot loop: its blocks' items concatenated with a back
  edge, promoted after :data:`PROMOTE_THRESHOLD` recorded traversals
  and retired many whole traversals per Python call.

Both compile to the same :class:`Trace`: per-instruction items that
:func:`_emit_steps` turns into specialized step closures (operand
slices, wrapped immediates and the per-dtype writeback precomputed),
plus prefix-summed charges, so any retired prefix costs one
``list.extend`` per shred.  A block compiles from an empty wrap map; a
cycle compiles twice, once for its first traversal and once for the
steady state, where registers the previous traversal wrote are known
wrapped and reads skip the idempotent re-wrap.

Promotion is profile guided: each run's :class:`TraceRun` notes every
uniform block exit (taken ``"t"``, fall ``"f"``, fall-through ``"x"``)
and every batched memory retirement (``"m"``).  When the note stream
revisits an ip, the window between the two visits is a cycle.  Traces
live in the id-keyed :class:`~repro.isa.predecode.PredecodeCache` slot
of their program and are evicted with it.

**Determinism.**  A trace never invents a new result: every specialized
step reproduces ``_apply_alu_batched``'s arithmetic exactly (same
float64 compute on wrapped sources, same float32 narrowing, same modular
integer wrap), memory steps *are* ``_apply_mem_batched`` (sharing the
gang loop's memory plans) with only the accounting deferred, and the
charge concatenates exactly the per-instruction ``(issue, latency)``
entries the scalar engine would append.  A specialized step that cannot prove its result — an ``f``
inf, which may be a pass-through or an overflow, or a zero divisor —
writes nothing, and the executor hands that instruction to
``_apply_alu_batched`` in place.  Only when that fails too, or on a
divergent branch, a memory step that cannot batch, or the runaway cap,
does the trace stop: it charges only the instructions already retired
and returns control at the precise ip to the per-instruction loop,
whose per-shred reference step reproduces the architectural behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionFault, TlbMiss
from ..isa import cfg, predecode
from ..isa.blocks import discover_blocks
from ..isa.opcodes import Opcode
from ..isa.operands import ImmOperand, PredOperand, RegOperand, SymOperand
from ..isa.semantics import _COMPARES
from ..isa.types import DataType, VLEN
from .gang import (_apply_alu_batched, _apply_mem_batched, _read_batched,
                   split_divergence)
from .interpreter import MAX_INSTRUCTIONS, trace_entry

#: Recorded traversals of one cycle before it compiles.
PROMOTE_THRESHOLD = 8
#: Recorder window cap: a cycle longer than this many block/mem events
#: never closes (it would not amortize its compile anyway).
MAX_CYCLE_STEPS = 64
#: Instruction cap per compiled cycle (keeps the per-exit charge tuples
#: and the runaway granularity bounded).
MAX_CYCLE_INSTRS = 512

#: Step codes in the executor's flat step tuples.
_ALU = 0
_MEM = 1
_BR = 2


class Trace:
    """One compiled trace: a basic block, or a promoted cycle.

    ``items`` are ``(kind, pre, ip, expect)`` per instruction, ``kind``
    one of ``"alu"``, ``"mem"``, ``"pad"`` (no datapath: charge only)
    and ``"br"`` (``expect`` is the on-trace direction in a cycle, None
    in a block, where either uniform direction leaves).  A block pass
    that retires every step leaves at ``exit`` by ``tag``: ``"x"`` (the
    fall-through past a boundary), ``"t"`` (an unconditional jump) or
    ``"end"``.  ``loop_steps`` is a cycle's steady-state step list,
    None for a block.  ``issue``/``mem``/``sampler``/``sbytes`` are
    prefix sums over the items.
    """

    __slots__ = ("head", "items", "steps", "loop_steps", "exit", "tag",
                 "ninstr", "entries", "effects", "nones", "issue", "mem",
                 "sampler", "sbytes", "ips")


class ProgramTraces:
    """Every trace of one program: its predecode-cache slot.

    Construction compiles every basic block; cycles compile as they
    promote.  Mutated without a lock: concurrent fabric drains can at
    worst double-count a cycle or compile the same cycle twice, and
    both compiles are identical, so last-store-wins is benign.
    """

    __slots__ = ("pre_prog", "blocks", "cycles", "counts", "dead")

    def __init__(self, program, pre_prog):
        self.pre_prog = pre_prog
        #: leader ip -> compiled block.
        self.blocks: Dict[int, Trace] = {}
        for start, block in discover_blocks(pre_prog,
                                            program.labels).items():
            items, exit_ip, tag = _block_items(block, pre_prog)
            trace = self.blocks[start] = _compile(items, start)
            trace.exit, trace.tag = exit_ip, tag
        #: head ip -> promoted cycle (probed every gang-loop iteration).
        self.cycles: Dict[int, Trace] = {}
        #: (head ip, recorded cycle) -> traversals recorded so far.
        self.counts: Dict[tuple, int] = {}
        #: recorded cycles that failed to compile; never retried.
        self.dead: set = set()

# ---------------------------------------------------------------------------
# trace compiler
# ---------------------------------------------------------------------------


def _block_items(block, pre_prog) -> Tuple[list, Optional[int],
                                           Optional[str]]:
    """A basic block's items, plus the exit ip and tag of a pass that
    retires all of them."""
    instrs = pre_prog.instrs
    items = [("alu" if instrs[ip].batch_class == predecode.BATCH_ALU
              else "pad", instrs[ip], ip, None)
             for ip in range(block.start, block.start + block.body_len)]
    if block.term is None:
        return items, block.end, "x"
    term = instrs[block.term]
    if term.opcode is Opcode.END:
        items.append(("pad", term, block.term, None))
        return items, block.end, "end"
    if term.opcode is Opcode.JMP and term.instr.pred is None:
        # unconditional: a static edge, charged but never evaluated
        items.append(("pad", term, block.term, None))
        return items, term.target, "t"
    items.append(("br", term, block.term, None))
    return items, None, None


def _cycle_items(head: int, cycle: tuple, blocks: Dict[int, Trace],
                 pre_prog) -> Optional[list]:
    """Concatenate a recorded cycle's block and memory items, fixing
    each branch's on-trace direction and validating the control-flow
    continuity the recording implies.  Returns None when the cycle
    cannot compile (the caller marks it dead, so a bogus recording is
    at worst a lost promotion)."""
    items: list = []
    count = len(pre_prog.instrs)
    for ci, (ip, tag) in enumerate(cycle):
        nxt = cycle[ci + 1][0] if ci + 1 < len(cycle) else head
        if tag == "m":
            if not 0 <= ip < count or ip + 1 != nxt:
                return None
            pre = pre_prog.instrs[ip]
            if pre.batch_class != predecode.BATCH_MEM:
                return None
            items.append(("mem", pre, ip, None))
            continue
        block = blocks.get(ip)
        if block is None or block.tag == "end":
            return None
        if block.tag is not None:  # fall-through or unconditional jump
            if block.tag != tag or block.exit != nxt:
                return None
            items.extend(block.items)
            continue
        if tag not in ("t", "f"):
            return None
        _, term, term_ip, _ = block.items[-1]
        expect = tag == "t"
        if (term.target if expect else term_ip + 1) != nxt:
            return None
        items.extend(block.items[:-1])
        items.append(("br", term, term_ip, expect))
    if not items or len(items) > MAX_CYCLE_INSTRS:
        return None
    return items


#: Value opcodes the specializer compiles natively.  Everything else
#: (SEL/ILV, guarded steps, range operands) runs the generic batched
#: datapath, which is still one call per instruction.
_BINOPS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.MIN: np.minimum,
    Opcode.MAX: np.maximum,
}


def _make_reader(operand, ty: DataType, n: int, known: dict):
    """A closure ``read(V, sl, run) -> (k, n) float64``, reproducing
    ``ty.wrap_unguarded(_read_batched(operand, ...))`` exactly.

    ``known`` maps reg -> (dtype, width) for registers whose current
    lane values are already wrapped for that dtype (written by an
    earlier specialized step); reads of those skip the idempotent
    re-wrap.  Returns None for operand kinds the specializer does not
    handle (the whole step then goes generic).
    """
    if isinstance(operand, RegOperand):
        reg = operand.reg
        have = known.get(reg)
        if ty is DataType.DF or (have is not None and have[0] is ty
                                 and have[1] >= n):
            def read(V, sl, run, reg=reg, n=n):
                return V[sl, reg, :n]
            return read
        wu = ty.wrap_unguarded

        def read(V, sl, run, reg=reg, n=n, wu=wu):
            return wu(V[sl, reg, :n])
        return read
    if isinstance(operand, ImmOperand):
        const = ty.wrap(np.full((1, n), operand.value, dtype=np.float64))

        def read(V, sl, run, const=const):
            return const
        return read
    if isinstance(operand, SymOperand):
        # the wrapped read depends on the dtype and width, not only on
        # the symbol: memoize per (name, dtype, width)
        key = (operand.name, ty, n)
        wu = ty.wrap_unguarded

        def read(V, sl, run, operand=operand, key=key, n=n, wu=wu):
            cached = run.syms.get(key)
            if cached is None:
                # resolved through the run's symcache in queue order, so
                # an unbound symbol faults on the shred scalar blames
                cached = wu(_read_batched(operand, run.rows, n, V, None,
                                          run.ctxs, run.active,
                                          run.symcache))
                run.syms[key] = cached
            return cached
        return read
    return None


def _make_writer(dst, ty: DataType, n: int):
    """A closure ``write(V, sl, res) -> bool`` matching the generic
    writeback: float32 narrowing for ``f`` (any inf writes nothing and
    answers False: the generic path tells pass-through from overflow),
    pass-through for ``df``, modular wrap for integers."""
    dreg = dst.reg
    if ty is DataType.F:
        def write(V, sl, res, dreg=dreg, n=n):
            out = res.astype(np.float32)
            if np.isinf(out).any():
                return False
            V[sl, dreg, :n] = out
            return True
        return write
    if ty is DataType.DF:
        def write(V, sl, res, dreg=dreg, n=n):
            V[sl, dreg, :n] = res
            return True
        return write
    wu = ty.wrap_unguarded

    def write(V, sl, res, dreg=dreg, n=n, wu=wu):
        V[sl, dreg, :n] = wu(res)
        return True
    return write


def _compile_alu_step(pre, known: dict):
    """Specialize one BATCH_ALU instruction against the current
    known-wrapped register map.

    Returns ``(step, update)``: ``step(V, P, sl, run) -> bool`` or None
    when the instruction must run through the generic datapath;
    ``update`` is ``(reg, dtype, width)`` for the register the step
    leaves wrapped, or None.
    """
    instr = pre.instr
    if instr.pred is not None:
        return None, None  # guarded: the generic path blends old lanes
    op = pre.opcode
    ty = instr.dtype
    n = instr.width

    if op is Opcode.CMP:
        dst = instr.dsts[0]
        if not isinstance(dst, PredOperand):
            return None, None
        ra = _make_reader(instr.srcs[0], ty, n, known)
        rb = _make_reader(instr.srcs[1], ty, n, known)
        if ra is None or rb is None:
            return None, None
        cmp = _COMPARES[instr.cond]
        idx = dst.index
        w = min(n, VLEN)

        def step(V, P, sl, run, ra=ra, rb=rb, cmp=cmp, idx=idx, w=w):
            res = cmp(ra(V, sl, run), rb(V, sl, run))
            P[sl, idx, :w] = res[:, :w]
            P[sl, idx, w:] = False
            return True
        return step, None

    dst = instr.dsts[0] if instr.dsts else None
    if not isinstance(dst, RegOperand):
        return None, None

    if op in (Opcode.HADD, Opcode.HMAX):
        ra = _make_reader(instr.srcs[0], ty, n, known)
        if ra is None:
            return None, None
        write = _make_writer(dst, ty, 1)

        if op is Opcode.HADD:
            def step(V, P, sl, run, ra=ra, write=write):
                return write(V, sl, ra(V, sl, run).sum(axis=1,
                                                       keepdims=True))
        else:
            def step(V, P, sl, run, ra=ra, write=write):
                return write(V, sl, ra(V, sl, run).max(axis=1,
                                                       keepdims=True))
        return step, (dst.reg, ty, 1)

    update = (dst.reg, ty, n)
    write = _make_writer(dst, ty, n)

    if op is Opcode.IOTA:
        # 0..n-1 is exact under every dtype's wrap (n <= VLEN < 127)
        const = ty.wrap(np.arange(n, dtype=np.float64))[None, :]

        def step(V, P, sl, run, dreg=dst.reg, n=n, const=const):
            V[sl, dreg, :n] = const
            return True
        return step, update

    readers = [_make_reader(s, ty, n, known) for s in instr.srcs]
    if any(r is None for r in readers):
        return None, None

    if op in (Opcode.MOV, Opcode.CVT):
        ra = readers[0]

        def step(V, P, sl, run, ra=ra, write=write):
            return write(V, sl, ra(V, sl, run))
        return step, update

    if op is Opcode.BCAST:
        ra = readers[0]

        def step(V, P, sl, run, ra=ra, write=write):
            return write(V, sl, ra(V, sl, run)[:, :1])
        return step, update

    if op is Opcode.ABS:
        ra = readers[0]

        def step(V, P, sl, run, ra=ra, write=write):
            return write(V, sl, np.abs(ra(V, sl, run)))
        return step, update

    if op is Opcode.NOT:
        ra = readers[0]
        maskval = (1 << (ty.size * 8)) - 1

        def step(V, P, sl, run, ra=ra, write=write, maskval=maskval):
            res = np.bitwise_xor(ra(V, sl, run).astype(np.int64),
                                 maskval).astype(np.float64)
            return write(V, sl, res)
        return step, update

    if op is Opcode.MAD:
        ra, rb, rc = readers

        def step(V, P, sl, run, ra=ra, rb=rb, rc=rc, write=write):
            return write(V, sl, ra(V, sl, run) * rb(V, sl, run)
                         + rc(V, sl, run))
        return step, update

    if len(readers) != 2:
        return None, None
    ra, rb = readers

    binop = _BINOPS.get(op)
    if binop is not None:
        def step(V, P, sl, run, ra=ra, rb=rb, binop=binop, write=write):
            return write(V, sl, binop(ra(V, sl, run), rb(V, sl, run)))
        return step, update

    if op is Opcode.AVG:
        if ty.is_float:
            def step(V, P, sl, run, ra=ra, rb=rb, write=write):
                return write(V, sl,
                             (ra(V, sl, run) + rb(V, sl, run)) / 2.0)
        else:
            def step(V, P, sl, run, ra=ra, rb=rb, write=write):
                return write(V, sl, np.floor(
                    (ra(V, sl, run) + rb(V, sl, run) + 1) / 2.0))
        return step, update

    if op is Opcode.DIV:
        is_float = ty.is_float

        def step(V, P, sl, run, ra=ra, rb=rb, write=write,
                 is_float=is_float):
            b = rb(V, sl, run)
            if (b == 0).any():
                return False  # the generic path raises the batch fault
            res = ra(V, sl, run) / b
            return write(V, sl, res if is_float else np.trunc(res))
        return step, update

    if op is Opcode.SHL:
        def step(V, P, sl, run, ra=ra, rb=rb, write=write):
            res = np.trunc(ra(V, sl, run)) \
                * (2.0 ** np.trunc(rb(V, sl, run)))
            return write(V, sl, res)
        return step, update

    if op is Opcode.SHR:
        def step(V, P, sl, run, ra=ra, rb=rb, write=write):
            res = np.floor(np.trunc(ra(V, sl, run))
                           / (2.0 ** np.trunc(rb(V, sl, run))))
            return write(V, sl, res)
        return step, update

    if op in (Opcode.AND, Opcode.OR, Opcode.XOR):
        bitop = {Opcode.AND: np.bitwise_and, Opcode.OR: np.bitwise_or,
                 Opcode.XOR: np.bitwise_xor}[op]

        def step(V, P, sl, run, ra=ra, rb=rb, bitop=bitop, write=write):
            res = bitop(ra(V, sl, run).astype(np.int64),
                        rb(V, sl, run).astype(np.int64)).astype(
                            np.float64)
            return write(V, sl, res)
        return step, update

    return None, None


def _emit_steps(items, known: dict) -> tuple:
    """One pass over the items: specialize each instruction against the
    evolving known-wrapped map, emitting executor step tuples."""
    steps = []
    for idx, (kind, pre, ip, expect) in enumerate(items):
        if kind == "alu":
            fn, update = _compile_alu_step(pre, known)
            if fn is None:
                # the generic path may write ranges/masked lanes: assume
                # nothing about register wrap state afterwards
                known.clear()
            elif update is not None:
                known[update[0]] = (update[1], update[2])
            steps.append((_ALU, fn, pre, ip, idx))
        elif kind == "mem":
            known.clear()  # loads land via ty.wrap, but widths vary
            steps.append((_MEM, None, pre, ip, idx))
        elif kind == "br":
            guard = pre.instr.pred
            steps.append((_BR, guard.index, guard.negate, expect,
                          pre.target, ip + 1, idx, ip))
        # "pad": charge-only, no executor step
    return tuple(steps)


def _compile(items, head: int, loops: bool = False) -> Trace:
    """Compile items into a trace; ``loops`` marks a cycle, which also
    gets the steady-state steps of every traversal after its first."""
    trace = Trace()
    trace.head = head
    trace.items = tuple(items)
    trace.exit = trace.tag = None
    entries = []
    effects = []
    issue = [0]
    mem = [0]
    sampler = [0]
    sbytes = [0]
    for kind, pre, _ip, _expect in items:
        instr = pre.instr
        entry = trace_entry(instr)
        entries.append(entry)
        effects.append(cfg.effects(instr))
        issue.append(issue[-1] + entry[0])
        mem.append(mem[-1] + (kind == "mem"))
        samples = (instr.width if kind == "mem"
                   and pre.opcode is Opcode.SAMPLE else 0)
        sampler.append(sampler[-1] + samples)
        sbytes.append(sbytes[-1] + samples * instr.dtype.size)
    trace.ninstr = len(entries)
    trace.entries = tuple(entries)
    trace.effects = tuple(effects)
    trace.nones = (None,) * len(entries)
    trace.issue = tuple(issue)
    trace.mem = tuple(mem)
    trace.sampler = tuple(sampler)
    trace.sbytes = tuple(sbytes)
    # every ip the trace retires: a cycle that would blast through a
    # pending reconvergence join is not dispatched, so suspended
    # sub-gangs always merge at the precise ip
    trace.ips = frozenset(ip for _kind, _pre, ip, _expect in items)

    known: dict = {}
    trace.steps = _emit_steps(items, known)
    trace.loop_steps = None
    if loops:
        after_first = dict(known)
        trace.loop_steps = _emit_steps(items, known)
        if known != after_first:
            # the wrap-state map did not reach a fixpoint after one
            # traversal (cannot happen with the current update rules, but
            # a wrong skip would break bit-exactness, so fail safe)
            trace.loop_steps = trace.steps
    return trace


def _charge(trace: Trace, k: int, m: int, active, recs, config,
            outcome) -> None:
    """Charge ``k`` whole passes of ``trace`` plus an ``m``-item prefix
    to every active shred: the exact concatenation of the
    per-instruction entries the scalar engine would append, in one
    extend per shred."""
    total = trace.ninstr * k + m
    if not total:
        return
    entries = trace.entries * k + trace.entries[:m]
    effects = trace.effects if config.scoreboard else trace.nones
    effects = effects * k + effects[:m]
    issue = trace.issue[-1] * k + trace.issue[m]
    sampler = trace.sampler[-1] * k + trace.sampler[m]
    sbytes = trace.sbytes[-1] * k + trace.sbytes[m]
    for i in active:
        rec = recs[i]
        rec.trace.extend(entries)
        rec.trace_effects.extend(effects)
        rec.instructions += total
        rec.issue_cycles += issue
        if sampler:
            rec.sampler_samples += sampler
        if sbytes:
            rec.bytes_read += sbytes
    outcome.gang_lanes_retired += total * len(active)
    outcome.batched_mem_lanes += (trace.mem[-1] * k
                                  + trace.mem[m]) * len(active)

# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


class TraceRun:
    """One gang run's view of its program's traces.

    Holds the profile window the gang loop notes block and memory exits
    into, and — for the duration of one :meth:`run` call — the lanes the
    specialized steps read (``rows``, ``active``) with their symbol
    memo ``syms``.
    """

    __slots__ = ("traces", "device", "ctxs", "recs", "outcome",
                 "symcache", "window", "pos", "rows", "active", "syms")

    def __init__(self, device, program, pre_prog, ctxs, recs, outcome,
                 symcache: dict):
        traces = predecode.CACHE.lookup_traces(program)
        if traces is None:
            traces = ProgramTraces(program, pre_prog)
            predecode.CACHE.store_traces(program, traces)
            outcome.fusion_compiles += len(traces.blocks)
        self.traces = traces
        self.device = device
        self.ctxs = ctxs
        self.recs = recs
        self.outcome = outcome
        self.symcache = symcache
        self.window: List[Tuple[int, str]] = []
        self.pos: Dict[int, int] = {}

    def reset(self) -> None:
        """Anything irregular (divergence, fault, peel, END) breaks the
        recording: the window restarts empty."""
        if self.window:
            self.window.clear()
            self.pos.clear()

    def note(self, ip: int, tag: str) -> None:
        """Record one exit; a revisited ip closes the cycle since its
        previous visit, restarts the window at this occurrence, and
        counts one traversal of that cycle toward promotion."""
        window, pos = self.window, self.pos
        p = pos.get(ip)
        if p is None:
            if len(window) >= MAX_CYCLE_STEPS:
                window.clear()
                pos.clear()
            pos[ip] = len(window)
            window.append((ip, tag))
            return
        cycle = tuple(window[p:])
        window.clear()
        pos.clear()
        pos[ip] = 0
        window.append((ip, tag))
        traces = self.traces
        key = (ip, cycle)
        if ip in traces.cycles or key in traces.dead:
            return
        count = traces.counts.get(key, 0) + 1
        if count < PROMOTE_THRESHOLD:
            traces.counts[key] = count
            return
        traces.counts.pop(key, None)
        items = _cycle_items(ip, cycle, traces.blocks, traces.pre_prog)
        if items is None:
            traces.dead.add(key)
            return
        traces.cycles[ip] = _compile(items, ip, loops=True)
        self.outcome.megaop_compiles += 1

    def _pass(self, steps, V: np.ndarray, P: np.ndarray, sl):
        """Run ``steps`` once.  Returns None when every step retired,
        else why the pass stopped: ``("fail", ip, m)`` — item ``m`` could
        not retire and wrote nothing; ``("exit", ip, m, tag)`` — a
        uniform branch left the trace after ``m`` items; ``("div",
        taken, step)`` — a branch split the gang."""
        na = len(self.active)
        for st in steps:
            code = st[0]
            if code == _ALU:
                fn = st[1]
                try:
                    ok = ((fn is not None and fn(V, P, sl, self))
                          or _apply_alu_batched(st[2], self.rows, V, P,
                                                self.ctxs, self.active,
                                                self.symcache))
                except ExecutionFault:
                    ok = False
                if not ok:
                    return ("fail", st[3], st[4])
            elif code == _MEM:
                try:
                    ok = _apply_mem_batched(self.device, st[3], st[2],
                                            self.rows, V, P, self.ctxs,
                                            self.active, self.recs,
                                            self.device.config,
                                            self.outcome, account=False)
                except (TlbMiss, ExecutionFault):
                    ok = False
                if not ok:
                    return ("fail", st[3], st[4])
            else:  # _BR: (code, pidx, negate, expect, taken_ip, fall_ip,
                #          m, branch_ip)
                any_lane = P[sl, st[1], :].any(axis=1)
                taken = ~any_lane if st[2] else any_lane
                nt = int(taken.sum())
                if nt == na:
                    if st[3] is not True:
                        return ("exit", st[4], st[6] + 1, "t")
                elif nt == 0:
                    if st[3] is not False:
                        return ("exit", st[5], st[6] + 1, "f")
                else:
                    return ("div", taken, st)
        return None

    def run(self, ip: int, active: List[int], V: np.ndarray, P: np.ndarray,
            rows: np.ndarray, finish_one, diverge,
            stop_ip: Optional[int]) -> Optional[Tuple[int, List[int]]]:
        """The chain loop: retire compiled traces starting at ``ip``.

        A cycle headed at ``ip`` runs first, retiring whole traversals
        until a pass stops; after any progress it returns.  Otherwise
        blocks retire and chain through uniform exits until one cannot
        retire, the chain reaches a promoted head (the next call
        dispatches its cycle) or ``stop_ip``, the innermost pending
        reconvergence join (never entered, so the gang suspends there
        precisely; a cycle that retires it is not dispatched).

        Returns ``(next_ip, active)`` after progress — possibly with the
        gang drained, ``active == []`` — or None when nothing retired,
        so the per-instruction loop owns ``ip``.  ``rows`` are the
        active lanes' rows of ``V``/``P`` (pack-relative when those are a
        dense sub-gang pack); ``diverge`` routes a divergent branch's
        losing side (park-or-peel).
        """
        traces, recs, outcome = self.traces, self.recs, self.outcome
        config = self.device.config
        self.rows = rows
        self.active = active
        self.syms = {}
        sl = slice(None) if len(active) == V.shape[0] else rows
        # re-admitted gangs need not hold uniform counts: budget from the
        # most advanced record so no lane retires past the runaway cap
        # (the per-instruction loop checks it before every instruction;
        # a trace of k only runs when all k checks pass)
        budget = MAX_INSTRUCTIONS - max(recs[i].instructions for i in active)
        with np.errstate(over="ignore", invalid="ignore"):
            cycle = traces.cycles.get(ip)
            if cycle is not None and (stop_ip is None
                                      or stop_ip not in cycle.ips):
                k = 0
                steps = cycle.steps
                stop = None
                while cycle.ninstr <= budget:
                    stop = self._pass(steps, V, P, sl)
                    if stop is not None:
                        break
                    k += 1
                    budget -= cycle.ninstr
                    steps = cycle.loop_steps
                outcome.megaops_retired += k
                if stop is None:  # the runaway cap
                    _charge(cycle, k, 0, active, recs, config, outcome)
                    if k:
                        outcome.megaop_deopts += 1
                        self.reset()
                        return (ip, active)
                elif stop[0] == "exit":
                    # a uniform off-trace branch is a normal exit
                    _charge(cycle, k, stop[2], active, recs, config,
                            outcome)
                    self.reset()
                    return (stop[1], active)
                elif stop[0] == "fail":
                    _charge(cycle, k, stop[2], active, recs, config,
                            outcome)
                    outcome.megaop_deopts += 1
                    if k or stop[2]:
                        self.reset()
                        return (stop[1], active)
                else:  # divergence: charged through the branch
                    taken, st = stop[1], stop[2]
                    _charge(cycle, k, st[6] + 1, active, recs, config,
                            outcome)
                    outcome.megaop_deopts += 1
                    self.reset()
                    return split_divergence(taken, active, st[7], st[4],
                                            st[5], diverge)

            progressed = False
            while True:
                block = traces.blocks.get(ip)
                if block is None or block.ninstr > budget:
                    return (ip, active) if progressed else None
                budget -= block.ninstr
                stop = self._pass(block.steps, V, P, sl)
                if stop is not None and stop[0] == "fail":
                    # earlier items committed exactly as the
                    # per-instruction loop would have; the failing one
                    # wrote nothing, so that loop re-runs it (and its
                    # per-shred fallback) at the precise ip
                    _charge(block, 0, stop[2], active, recs, config,
                            outcome)
                    self.reset()
                    if stop[2] == 0 and not progressed:
                        return None
                    return (stop[1], active)
                # every item retired (a branch's trace entry is direction
                # independent, so it is charged before any split)
                _charge(block, 1, 0, active, recs, config, outcome)
                outcome.fused_blocks_retired += 1
                if stop is None:
                    ip, tag = block.exit, block.tag
                    if tag == "end":
                        self.reset()
                        for i in active:
                            finish_one(i)
                        return (ip, [])
                elif stop[0] == "exit":
                    ip, tag = stop[1], stop[3]
                else:
                    self.reset()
                    taken, st = stop[1], stop[2]
                    return split_divergence(taken, active, st[7], st[4],
                                            st[5], diverge)
                if tag != "x":
                    outcome.trace_chains += 1
                progressed = True
                self.note(block.head, tag)
                if ip == stop_ip or ip in traces.cycles:
                    return (ip, active)
