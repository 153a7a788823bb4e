"""Tiered JIT: hot fused-trace cycles promoted to native numpy megaops.

The fused engine (:mod:`repro.gma.fusion`) retires whole superblocks in
one dispatch round and *chains* through uniform branches, but every
chained block still pays one Python trip per block — and every batched
ALU step inside it pays the generic operand decode, guard-mask build and
per-dtype overflow protocol.  This module adds the third tier: when the
chain counters identify a *hot cycle* (the same block-to-block path
traversed over and over, the shape of every counted loop), the whole
cycle compiles into one :class:`MegaOp` — a flat sequence of specialized
step closures with the operand slices, wrapped immediates and timing
charges precomputed — and execution retires *many complete traversals
per Python call*, charging the accounting in one bulk extend at exit.

Promotion is profile guided: a :class:`TraceRecorder` rides along with
the fused engine, noting each block exit (uniform-taken ``"t"``,
uniform-fall ``"f"``, fall-through ``"x"``) and each batched memory
retirement (``"m"``).  When the note stream revisits an ip, the window
between the two visits is a cycle; after ``megaop_threshold`` recorded
traversals of the *same* cycle it compiles.  Compiled megaops live in
the id-keyed :class:`~repro.isa.predecode.PredecodeCache` beside the
fused entry and are evicted with it.

**Determinism.**  A megaop never invents a new result: every specialized
step reproduces ``_apply_alu_batched``'s arithmetic exactly (same
float64 compute on wrapped sources, same float32 narrowing, same modular
integer wrap), memory steps *are* ``_apply_mem_batched`` with only the
accounting deferred, and the bulk charge concatenates exactly the
per-instruction ``(issue, latency)`` entries the scalar engine would
append.  Any guard failure — a divergent branch, a lane that would
overflow or fault, a TLB miss, the runaway cap — charges only the
instructions already retired and returns control at the precise ip, so
the fused/per-instruction/peel tiers reproduce the architectural
behaviour bit-identically.  The only deliberate conservatism: a
specialized float step deopts on *any* inf in the narrowed result (the
generic path then distinguishes pass-through infs from true overflow).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionFault, TlbMiss
from ..isa import predecode
from ..isa.opcodes import Opcode
from ..isa.operands import ImmOperand, PredOperand, RegOperand, SymOperand
from ..isa.semantics import _COMPARES
from ..isa.types import DataType, VLEN
from .gang import _apply_alu_batched, _apply_mem_batched, _read_batched
from .interpreter import MAX_INSTRUCTIONS, _instr_effects, trace_entry

#: Recorded traversals of one cycle before it compiles (the
#: ``--megaop-threshold`` knob overrides per device).
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


class MegaEnv:
    """Per-call context threaded through specialized step closures."""

    __slots__ = ("rows", "active", "ctxs", "symcache", "syms")


class MegaOp:
    """One compiled hot cycle: steps plus pre-summed accounting."""

    __slots__ = ("head", "ninstr", "steps_entry", "steps_loop",
                 "trace_entries", "effects", "nones", "issue_total",
                 "issue_prefix", "mem_total", "mem_prefix",
                 "sampler_total", "sampler_prefix", "sbytes_total",
                 "sbytes_prefix", "ips")


class MegaCache:
    """Per-program promotion state, persistent across runs.

    Lives in the :class:`~repro.isa.predecode.PredecodeCache` beside the
    fused entry.  Mutated without a lock: concurrent fabric drains can at
    worst double-count a cycle or compile the same megaop twice, and
    both compiles are identical, so last-store-wins is benign.
    """

    __slots__ = ("counts", "ops", "dead")

    def __init__(self):
        #: (head ip, cycle) -> traversals recorded so far.
        self.counts: Dict[tuple, int] = {}
        #: head ip -> compiled MegaOp (probed every gang-loop iteration).
        self.ops: Dict[int, MegaOp] = {}
        #: cycles that failed to compile; never retried.
        self.dead: set = set()


class TraceRecorder:
    """Sliding window of block/mem exits; closes cycles on ip revisit."""

    __slots__ = ("session", "steps", "pos")

    def __init__(self, session: "MegaSession"):
        self.session = session
        self.steps: List[Tuple[int, str]] = []
        self.pos: Dict[int, int] = {}

    def reset(self) -> None:
        """Anything irregular (divergence, fault, peel, END) breaks the
        trace: the window restarts empty."""
        if self.steps:
            self.steps.clear()
            self.pos.clear()

    def note(self, ip: int, tag: str) -> None:
        """Record one event; a revisited ip closes the cycle since its
        previous visit and restarts the window at this occurrence."""
        p = self.pos.get(ip)
        steps = self.steps
        if p is None:
            if len(steps) >= MAX_CYCLE_STEPS:
                steps.clear()
                self.pos.clear()
            self.pos[ip] = len(steps)
            steps.append((ip, tag))
            return
        cycle = tuple(steps[p:])
        steps.clear()
        self.pos.clear()
        self.pos[ip] = 0
        steps.append((ip, tag))
        self.session.observe(ip, cycle)

    def promoted(self, ip: int) -> bool:
        """True when ``ip`` heads a compiled megaop — the fused loop
        yields control there so the gang loop can dispatch it."""
        return ip in self.session.ops


class MegaSession:
    """One run's view of the program's persistent promotion state."""

    __slots__ = ("cache", "ops", "threshold", "fused", "pre_prog",
                 "outcome", "recorder")

    def __init__(self, device, program, pre_prog, fused, outcome):
        cache = predecode.CACHE.lookup_megaops(program)
        if cache is None:
            cache = MegaCache()
            predecode.CACHE.store_megaops(program, cache)
        self.cache = cache
        self.ops = cache.ops
        threshold = getattr(device, "megaop_threshold", None)
        self.threshold = max(1, int(threshold if threshold is not None
                                    else PROMOTE_THRESHOLD))
        self.fused = fused
        self.pre_prog = pre_prog
        self.outcome = outcome
        self.recorder = TraceRecorder(self)

    def observe(self, head: int, cycle: tuple) -> None:
        cache = self.cache
        if head in cache.ops:
            return
        key = (head, cycle)
        if key in cache.dead:
            return
        count = cache.counts.get(key, 0) + 1
        if count < self.threshold:
            cache.counts[key] = count
            return
        cache.counts.pop(key, None)
        mop = compile_megaop(head, cycle, self.fused, self.pre_prog)
        if mop is None:
            cache.dead.add(key)
            return
        cache.ops[head] = mop
        self.outcome.megaop_compiles += 1

# ---------------------------------------------------------------------------
# cycle compiler
# ---------------------------------------------------------------------------


def _cycle_items(head: int, cycle: tuple, fused, pre_prog):
    """Flatten a recorded cycle into per-instruction items, validating
    the control-flow continuity the recording implies.

    Items: ``("alu", pre, ip)`` / ``("mem", pre, ip)`` /
    ``("pad", instr, ip)`` (nop/fence/unconditional jmp: charge only) /
    ``("br", pidx, negate, expect, taken_ip, fall_ip, instr, ip)``.
    Returns None when the cycle cannot compile (the caller marks it
    dead, so a bogus recording is at worst a lost promotion).
    """
    items: list = []
    count = len(pre_prog.instrs)
    for ci, (ip, tag) in enumerate(cycle):
        nxt = cycle[ci + 1][0] if ci + 1 < len(cycle) else head
        if tag == "m":
            if not 0 <= ip < count:
                return None
            pre = pre_prog.instrs[ip]
            if pre.batch_class != predecode.BATCH_MEM:
                return None
            if ip + 1 != nxt:
                return None
            items.append(("mem", pre, ip))
            continue
        block = fused.blocks.get(ip)
        if block is None:
            return None
        for j in range(block.body_len):
            bip = block.start + j
            stp = block.steps[j]
            if stp is not None:
                items.append(("alu", stp, bip))
            else:
                items.append(("pad", pre_prog.instrs[bip].instr, bip))
        if tag == "x":
            if block.term is not None or block.end != nxt:
                return None
            continue
        if tag not in ("t", "f"):
            return None
        term = block.term
        if term is None or term.opcode is Opcode.END:
            return None
        pred = term.instr.pred
        if term.opcode is Opcode.JMP and pred is None:
            # unconditional: a static edge, charged but never evaluated
            if tag != "t" or term.target != nxt:
                return None
            items.append(("pad", term.instr, block.term_ip))
            continue
        taken_ip, fall_ip = term.target, block.end
        expect = tag == "t"
        if (taken_ip if expect else fall_ip) != nxt:
            return None
        items.append(("br", pred.index, pred.negate, expect, taken_ip,
                      fall_ip, term.instr, block.term_ip))
    if not items or len(items) > MAX_CYCLE_INSTRS:
        return None
    return items


#: Value opcodes the specializer compiles natively.  Everything else
#: (SEL/ILV, guarded steps, range operands) falls back to the generic
#: batched datapath, which is still one call per instruction.
_BINOPS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.MIN: np.minimum,
    Opcode.MAX: np.maximum,
}


def _make_reader(operand, ty: DataType, n: int, known: dict):
    """A closure ``read(V, sl, env) -> (k, n) float64``, reproducing
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
            def read(V, sl, env, reg=reg, n=n):
                return V[sl, reg, :n]
            return read
        wu = ty.wrap_unguarded

        def read(V, sl, env, reg=reg, n=n, wu=wu):
            return wu(V[sl, reg, :n])
        return read
    if isinstance(operand, ImmOperand):
        const = ty.wrap(np.full((1, n), operand.value, dtype=np.float64))

        def read(V, sl, env, const=const):
            return const
        return read
    if isinstance(operand, SymOperand):
        name = operand.name
        wu = ty.wrap_unguarded

        def read(V, sl, env, operand=operand, name=name, n=n, wu=wu):
            cached = env.syms.get(name)
            if cached is None:
                # resolved through the run's symcache in queue order, so
                # an unbound symbol faults on the shred scalar blames
                cached = wu(_read_batched(operand, env.rows, n, V, None,
                                          env.ctxs, env.active,
                                          env.symcache))
                env.syms[name] = cached
            return cached
        return read
    return None


def _make_writer(dst, ty: DataType, n: int):
    """A closure ``write(V, sl, res) -> bool`` matching the generic
    writeback: float32 narrowing with conservative inf deopt for ``f``,
    pass-through for ``df``, modular wrap for integers."""
    dreg = dst.reg
    if ty is DataType.F:
        def write(V, sl, res, dreg=dreg, n=n):
            out = res.astype(np.float32)
            if np.isinf(out).any():
                return False  # overflow OR pass-through: generic decides
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

    Returns ``(step, update)``: ``step(V, P, sl, env) -> bool`` or None
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

        def step(V, P, sl, env, ra=ra, rb=rb, cmp=cmp, idx=idx, w=w):
            res = cmp(ra(V, sl, env), rb(V, sl, env))
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
            def step(V, P, sl, env, ra=ra, write=write):
                return write(V, sl, ra(V, sl, env).sum(axis=1,
                                                       keepdims=True))
        else:
            def step(V, P, sl, env, ra=ra, write=write):
                return write(V, sl, ra(V, sl, env).max(axis=1,
                                                       keepdims=True))
        return step, (dst.reg, ty, 1)

    update = (dst.reg, ty, n)
    write = _make_writer(dst, ty, n)

    if op is Opcode.IOTA:
        # 0..n-1 is exact under every dtype's wrap (n <= VLEN < 127)
        const = ty.wrap(np.arange(n, dtype=np.float64))[None, :]

        def step(V, P, sl, env, dreg=dst.reg, n=n, const=const):
            V[sl, dreg, :n] = const
            return True
        return step, update

    readers = [_make_reader(s, ty, n, known) for s in instr.srcs]
    if any(r is None for r in readers):
        return None, None

    if op in (Opcode.MOV, Opcode.CVT):
        ra = readers[0]

        def step(V, P, sl, env, ra=ra, write=write):
            return write(V, sl, ra(V, sl, env))
        return step, update

    if op is Opcode.BCAST:
        ra = readers[0]

        def step(V, P, sl, env, ra=ra, write=write):
            return write(V, sl, ra(V, sl, env)[:, :1])
        return step, update

    if op is Opcode.ABS:
        ra = readers[0]

        def step(V, P, sl, env, ra=ra, write=write):
            return write(V, sl, np.abs(ra(V, sl, env)))
        return step, update

    if op is Opcode.NOT:
        ra = readers[0]
        maskval = (1 << (ty.size * 8)) - 1

        def step(V, P, sl, env, ra=ra, write=write, maskval=maskval):
            res = np.bitwise_xor(ra(V, sl, env).astype(np.int64),
                                 maskval).astype(np.float64)
            return write(V, sl, res)
        return step, update

    if op is Opcode.MAD:
        ra, rb, rc = readers

        def step(V, P, sl, env, ra=ra, rb=rb, rc=rc, write=write):
            return write(V, sl, ra(V, sl, env) * rb(V, sl, env)
                         + rc(V, sl, env))
        return step, update

    if len(readers) != 2:
        return None, None
    ra, rb = readers

    binop = _BINOPS.get(op)
    if binop is not None:
        def step(V, P, sl, env, ra=ra, rb=rb, binop=binop, write=write):
            return write(V, sl, binop(ra(V, sl, env), rb(V, sl, env)))
        return step, update

    if op is Opcode.AVG:
        if ty.is_float:
            def step(V, P, sl, env, ra=ra, rb=rb, write=write):
                return write(V, sl,
                             (ra(V, sl, env) + rb(V, sl, env)) / 2.0)
        else:
            def step(V, P, sl, env, ra=ra, rb=rb, write=write):
                return write(V, sl, np.floor(
                    (ra(V, sl, env) + rb(V, sl, env) + 1) / 2.0))
        return step, update

    if op is Opcode.DIV:
        is_float = ty.is_float

        def step(V, P, sl, env, ra=ra, rb=rb, write=write,
                 is_float=is_float):
            b = rb(V, sl, env)
            if (b == 0).any():
                return False  # scalar raises the per-lane fault
            res = ra(V, sl, env) / b
            return write(V, sl, res if is_float else np.trunc(res))
        return step, update

    if op is Opcode.SHL:
        def step(V, P, sl, env, ra=ra, rb=rb, write=write):
            res = np.trunc(ra(V, sl, env)) \
                * (2.0 ** np.trunc(rb(V, sl, env)))
            return write(V, sl, res)
        return step, update

    if op is Opcode.SHR:
        def step(V, P, sl, env, ra=ra, rb=rb, write=write):
            res = np.floor(np.trunc(ra(V, sl, env))
                           / (2.0 ** np.trunc(rb(V, sl, env))))
            return write(V, sl, res)
        return step, update

    if op in (Opcode.AND, Opcode.OR, Opcode.XOR):
        bitop = {Opcode.AND: np.bitwise_and, Opcode.OR: np.bitwise_or,
                 Opcode.XOR: np.bitwise_xor}[op]

        def step(V, P, sl, env, ra=ra, rb=rb, bitop=bitop, write=write):
            res = bitop(ra(V, sl, env).astype(np.int64),
                        rb(V, sl, env).astype(np.int64)).astype(
                            np.float64)
            return write(V, sl, res)
        return step, update

    return None, None


def _generic_alu(pre):
    """Fallback: the gang's batched datapath, accounting deferred."""
    def step(V, P, sl, env, pre=pre):
        return _apply_alu_batched(pre, env.rows, V, P, env.ctxs,
                                  env.active, env.symcache)
    return step


def _emit_steps(items, known: dict):
    """One pass over the cycle: specialize each instruction against the
    evolving known-wrapped map, emitting executor step tuples."""
    steps = []
    for idx, item in enumerate(items):
        kind = item[0]
        if kind == "alu":
            pre, ip = item[1], item[2]
            fn, update = _compile_alu_step(pre, known)
            if fn is None:
                fn = _generic_alu(pre)
                # the generic path may write ranges/masked lanes: assume
                # nothing about register wrap state afterwards
                known.clear()
            elif update is not None:
                known[update[0]] = (update[1], update[2])
            steps.append((_ALU, fn, ip, idx))
        elif kind == "mem":
            known.clear()  # loads land via ty.wrap, but widths vary
            steps.append((_MEM, item[1], item[2], idx))
        elif kind == "br":
            steps.append((_BR, item[1], item[2], item[3], item[4],
                          item[5], idx, item[7]))
        # "pad": charge-only, no executor step
    return steps


def compile_megaop(head: int, cycle: tuple, fused, pre_prog):
    """Compile one recorded cycle, or None when it cannot promote."""
    items = _cycle_items(head, cycle, fused, pre_prog)
    if items is None:
        return None

    entries = []
    effects = []
    issue_prefix = [0]
    mem_prefix = [0]
    sampler_prefix = [0]
    sbytes_prefix = [0]
    for item in items:
        instr = item[6] if item[0] == "br" else (
            item[1].instr if item[0] in ("alu", "mem") else item[1])
        entry = trace_entry(instr)
        entries.append(entry)
        effects.append(_instr_effects(instr))
        issue_prefix.append(issue_prefix[-1] + entry[0])
        is_mem = item[0] == "mem"
        mem_prefix.append(mem_prefix[-1] + (1 if is_mem else 0))
        is_sample = is_mem and item[1].opcode is Opcode.SAMPLE
        sampler_prefix.append(sampler_prefix[-1]
                              + (instr.width if is_sample else 0))
        sbytes_prefix.append(
            sbytes_prefix[-1]
            + (instr.width * instr.dtype.size if is_sample else 0))

    known: dict = {}
    steps_entry = _emit_steps(items, known)
    after_first = dict(known)
    steps_loop = _emit_steps(items, known)
    if dict(known) != after_first:
        # the wrap-state map did not reach a fixpoint after one
        # traversal (cannot happen with the current update rules, but a
        # wrong skip would break bit-exactness, so fail safe)
        steps_loop = steps_entry

    mop = MegaOp()
    mop.head = head
    mop.ninstr = len(entries)
    mop.steps_entry = tuple(steps_entry)
    mop.steps_loop = tuple(steps_loop)
    mop.trace_entries = tuple(entries)
    mop.effects = tuple(effects)
    mop.nones = (None,) * len(entries)
    mop.issue_total = issue_prefix[-1]
    mop.issue_prefix = tuple(issue_prefix)
    mop.mem_total = mem_prefix[-1]
    mop.mem_prefix = tuple(mem_prefix)
    mop.sampler_total = sampler_prefix[-1]
    mop.sampler_prefix = tuple(sampler_prefix)
    mop.sbytes_total = sbytes_prefix[-1]
    mop.sbytes_prefix = tuple(sbytes_prefix)
    # every ip the trace retires: the gang loop refuses to dispatch a
    # megaop whose traversal would blast through a pending reconvergence
    # join, so suspended sub-gangs always merge at the precise ip
    mop.ips = frozenset(item[7] if item[0] == "br" else item[2]
                        for item in items)
    return mop

# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


def _charge_mega(mop: MegaOp, k: int, m: int, active: Sequence[int],
                 recs, config, outcome) -> None:
    """Bulk-charge ``k`` whole traversals plus an ``m``-instruction
    prefix: the exact concatenation of the per-instruction entries the
    scalar engine would append, in one extend per shred."""
    total = mop.ninstr * k + m
    if total == 0:
        return
    entries = mop.trace_entries * k + mop.trace_entries[:m]
    eff_src = mop.effects if config.scoreboard else mop.nones
    effects = eff_src * k + eff_src[:m]
    issue = mop.issue_total * k + mop.issue_prefix[m]
    sampler = mop.sampler_total * k + mop.sampler_prefix[m]
    sbytes = mop.sbytes_total * k + mop.sbytes_prefix[m]
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
    outcome.batched_mem_lanes += (mop.mem_total * k
                                  + mop.mem_prefix[m]) * len(active)


def run_megaop(mop: MegaOp, device, active: List[int], V: np.ndarray,
               P: np.ndarray, ctxs, recs, config, outcome, defer,
               symcache, rows=None,
               diverge=None) -> Optional[Tuple[int, List[int]]]:
    """Retire as many whole traversals of this cycle as possible.

    Returns ``(next_ip, active)`` after making progress, or None when
    zero instructions retired (the caller's fused/per-instruction path
    then owns the ip, guaranteeing forward progress).  Every exit
    charges exactly the retired instructions; a deopt resumes at the
    precise ip of the first uncommitted instruction.

    ``rows`` carries the gang's storage rows when ``V``/``P`` are a
    dense sub-gang pack (pack-relative, not shred indices); ``diverge``
    routes a divergent branch's losing side (park-or-peel) instead of
    deferring it straight to the scalar interpreter.
    """
    na = len(active)
    if rows is None:
        rows = np.asarray(active)
    sl = slice(None) if na == V.shape[0] else rows
    env = MegaEnv()
    env.rows = rows
    env.active = active
    env.ctxs = ctxs
    env.symcache = symcache
    env.syms = {}
    ninstr = mop.ninstr
    # re-admitted gangs need not hold uniform counts: budget from the
    # most advanced record so no lane retires past the runaway cap
    budget = MAX_INSTRUCTIONS - max(recs[i].instructions for i in active)
    steps = mop.steps_entry
    k = 0
    stop = None
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if ninstr > budget:
                stop = ("runaway",)
                break
            for st in steps:
                code = st[0]
                if code == _ALU:
                    ok = False
                    try:
                        ok = st[1](V, P, sl, env)
                    except ExecutionFault:
                        ok = False
                    if not ok:
                        stop = ("deopt", st[2], st[3])
                        break
                elif code == _MEM:
                    ok = False
                    try:
                        ok = _apply_mem_batched(device, st[1], rows, V, P,
                                                ctxs, active, recs, config,
                                                outcome, account=False)
                    except (TlbMiss, ExecutionFault):
                        ok = False
                    if not ok:
                        stop = ("deopt", st[2], st[3])
                        break
                else:  # _BR: (code, pidx, negate, expect, taken, fall,
                    #        m, branch_ip)
                    any_lane = P[sl, st[1], :].any(axis=1)
                    taken = ~any_lane if st[2] else any_lane
                    nt = int(taken.sum())
                    if st[3]:
                        if nt == na:
                            continue  # on-trace: next step
                        stop = ("exit", st[5], st[6] + 1) if nt == 0 \
                            else ("div", taken, st)
                    else:
                        if nt == 0:
                            continue
                        stop = ("exit", st[4], st[6] + 1) if nt == na \
                            else ("div", taken, st)
                    break
            if stop is None:
                k += 1
                budget -= ninstr
                # steady state: registers this cycle wrote are known
                # wrapped, so reads skip the idempotent re-wrap
                steps = mop.steps_loop
                continue
            break

    tag = stop[0]
    if tag == "exit":
        # a uniform off-trace branch is a normal trace exit, not a deopt
        _charge_mega(mop, k, stop[2], active, recs, config, outcome)
        outcome.megaops_retired += k
        return (stop[1], active)
    if tag == "runaway":
        _charge_mega(mop, k, 0, active, recs, config, outcome)
        outcome.megaops_retired += k
        if k == 0:
            return None  # per-instruction loop owns the precise fault
        outcome.megaop_deopts += 1
        return (mop.head, active)
    if tag == "deopt":
        m = stop[2]
        _charge_mega(mop, k, m, active, recs, config, outcome)
        outcome.megaops_retired += k
        outcome.megaop_deopts += 1
        if k == 0 and m == 0:
            return None
        return (stop[1], active)

    # divergence: exactly the fused engine's split — majority stays
    # ganged, ties keep the lowest queue position's outcome, the
    # minority parks toward the reconvergence point or defers at its
    # exit ip.  The branch itself is charged (its trace entry is
    # direction independent).
    taken, st = stop[1], stop[2]
    _charge_mega(mop, k, st[6] + 1, active, recs, config, outcome)
    outcome.megaops_retired += k
    outcome.megaop_deopts += 1
    taken_count = int(taken.sum())
    if taken_count * 2 == na:
        keep_taken = bool(taken[0])
    else:
        keep_taken = taken_count * 2 > na
    stay_ip = st[4] if keep_taken else st[5]
    exit_ip = st[5] if keep_taken else st[4]
    losers = [i for pos, i in enumerate(active)
              if bool(taken[pos]) != keep_taken]
    if diverge is not None:
        diverge(st[7], exit_ip, losers)
    else:
        defer([(i, exit_ip) for i in losers])
    active = [i for pos, i in enumerate(active)
              if bool(taken[pos]) == keep_taken]
    return (stay_ip, active)
