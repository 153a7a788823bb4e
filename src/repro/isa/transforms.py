"""Exo-style schedulable transforms over assembled accelerator programs.

EXOCHI's CHI compiler shipped hand-tuned kernels; the compiled traces
of this reproduction's megaop engine only pay off on shapes the kernel
author happened to write as long straight-line runs.  This module closes that gap with *schedules*:
semantics-preserving rewrites applied to an assembled :class:`Program`,
in the spirit of Exo/SYS_ATL user-schedulable languages —

* :func:`unroll` — peel a counted loop's body ``factor`` times so the
  megaop engine's blocks and recorded cycles are longer
  straight-line traces (and fewer ``cmp``/``br`` retirements);
* :func:`reorder` — block-local list scheduling, delegated to
  :func:`repro.isa.scheduler.schedule_program`;
* :func:`stage_mem` — merge adjacent-row ``ldblk``/``stblk`` pairs into
  taller blocks and hoist scalar ``ld``/``st`` chains into one ranged
  ``BATCH_MEM``-eligible access (fewer memory-op dispatches, which is
  where flat kernels spend their time).

There is no instruction-selection primitive: CHI kernels are written as
inline accelerator assembly (paper section 4.1), so they already use
the dedicated ops (``avg``, ``mad``) such a rewrite would select.

Every primitive returns a **fresh** :class:`Program`: transforms rewrite
at the structured-line level (labels + :class:`Instruction` objects),
re-emit assembly text through each instruction's round-trippable
``__str__``, and re-assemble — so labels, branch targets, validation and
reconvergence annotations are recomputed from scratch and the predecode
cache never aliases a transformed program with its source.

Blocks, dominators, register liveness and instruction footprints come
from :mod:`repro.isa.cfg`, shared with the scheduler and block discovery.

Legality envelope (documented in ``docs/SCHEDULE.md``): address
arithmetic is reasoned about symbolically assuming coordinate values
stay within their integer dtype's range (no wrap-around), which holds
for any program whose block coordinates land in or near surface bounds.
End-to-end bit-exactness versus the untransformed program is enforced by
the four-engine differential suite and by the auto-tuner's verify hook.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace as _dc_replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ReproError
from . import cfg
from .assembler import assemble
from .instructions import Instruction
from .opcodes import Condition, Opcode
from .operands import (
    BlockOperand,
    ImmOperand,
    MemOperand,
    Operand,
    PredOperand,
    RangeOperand,
    RegOperand,
    SymOperand,
)
from .program import Program
from .scheduler import schedule_program
from .types import NUM_VREGS, VLEN, DataType


class ScheduleError(ReproError):
    """A schedule primitive could not be applied legally."""


#: Affine reasoning only trusts arithmetic whose wrap point is far away.
_WIDE_INT_TYPES = (DataType.DW, DataType.UDW)
#: Operands that name registers directly rather than through an address.
_REG_OPERANDS = (RegOperand, RangeOperand)


# ---------------------------------------------------------------------------
# structured-line representation: label strings + Instruction objects
# ---------------------------------------------------------------------------

def _to_items(program: Program) -> List[object]:
    """Flatten a program into a list of label names and instructions."""
    by_index: Dict[int, List[str]] = {}
    for name, idx in program.labels.items():
        by_index.setdefault(idx, []).append(name)
    items: List[object] = []
    for idx, instr in enumerate(program.instructions):
        for name in sorted(by_index.get(idx, [])):
            items.append(name)
        items.append(instr)
    trailing = sorted(by_index.get(len(program.instructions), []))
    if trailing:
        for name in trailing:
            items.append(name)
        items.append(Instruction(opcode=Opcode.NOP))
    return items


def _emit(items: Sequence[object], name: str) -> Program:
    """Re-assemble structured lines into a fresh, validated Program."""
    lines: List[str] = []
    for item in items:
        if isinstance(item, str):
            lines.append(f"{item}:")
        else:
            lines.append(f"    {item}")
    return assemble("\n".join(lines) + "\n", name=name)


def _instr_item_index(items: Sequence[object]) -> Dict[int, int]:
    """Map instruction ip -> index into the items list."""
    out: Dict[int, int] = {}
    ip = 0
    for pos, item in enumerate(items):
        if isinstance(item, Instruction):
            out[ip] = pos
            ip += 1
    return out


# ---------------------------------------------------------------------------
# counted-loop recognition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountedLoop:
    """A recognized ``mov init / ... / add step / cmp bound / br`` loop."""

    label: str
    head: int          # ip of the first body instruction (the label target)
    back: int          # ip of the backedge ``br``
    cmp_ip: int        # ip of the trip-test ``cmp``
    add_ip: int        # ip of the induction-step ``add``
    ind: int           # induction vreg
    pred: int          # predicate register of the backedge test
    init: float
    step: float
    bound: Optional[float]   # resolved bound, None when the symbol is unbound
    cond: Condition
    trip: Optional[int]      # iteration count, None when bound is unknown
    innermost: bool = True

    @property
    def body(self) -> Tuple[int, int]:
        """Half-open ip range of the loop body (excludes add/cmp/br)."""
        return (self.head, self.add_ip)


def _resolve_bound(op: Operand, bindings: Optional[Dict[str, float]]):
    if isinstance(op, ImmOperand):
        return float(op.value)
    if isinstance(op, SymOperand) and bindings and op.name in bindings:
        return float(bindings[op.name])
    return None


def _trip_count(init: float, step: float, bound: Optional[float],
                cond: Condition) -> Optional[int]:
    """How many times does the do-while body run?  (Body runs at least once.)"""
    if bound is None or step <= 0:
        return None
    take = {Condition.LT: lambda v: v < bound,
            Condition.LE: lambda v: v <= bound}.get(cond)
    if take is None:
        return None
    value, trips = init, 0
    while True:
        trips += 1
        value += step
        if not take(value):
            return trips
        if trips > 1_000_000:
            return None


def find_counted_loops(program: Program,
                       bindings: Optional[Dict[str, float]] = None
                       ) -> List[CountedLoop]:
    """Recognize every well-formed counted loop in the program.

    Shape (the idiom every CHI kernel uses)::

        mov.1.<ty>  ind = <init>       # last write to ind before the label
    label:
        <straight-line body>           # no labels, no branches, no ind/pred writes
        add.1.<ty>  ind = ind, <step>  # positive immediate step
        cmp.lt.1.<ty> pK = ind, <bound>
        br pK, label                   # the only branch into the head
    """
    instrs = program.instructions
    entries: Dict[int, List[int]] = {}  # ip -> branches to it, any label
    for ip, instr in enumerate(instrs):
        target = cfg.branch_target(instr, program.labels)
        if target is not None:
            entries.setdefault(target, []).append(ip)

    loops: List[CountedLoop] = []
    for label, head in program.labels.items():
        sites = entries.get(head, [])
        if len(sites) != 1:
            continue
        back = sites[0]
        if back < head + 3:
            continue
        br = instrs[back]
        if (br.opcode is not Opcode.BR or br.pred.negate
                or br.srcs[-1].name != label):
            continue
        cmp_ip, add_ip = back - 1, back - 2
        cmp, add = instrs[cmp_ip], instrs[add_ip]
        if (cmp.opcode is not Opcode.CMP or cmp.width != 1
                or cmp.pred is not None or cmp.cond is None
                or not cmp.dsts or not isinstance(cmp.dsts[0], PredOperand)
                or cmp.dsts[0].index != br.pred.index
                or not isinstance(cmp.srcs[0], RegOperand)):
            continue
        if (add.opcode is not Opcode.ADD or add.width != 1
                or add.pred is not None
                or not isinstance(add.dsts[0], RegOperand)
                or not isinstance(add.srcs[0], RegOperand)
                or not isinstance(add.srcs[1], ImmOperand)):
            continue
        ind = add.dsts[0].reg
        if add.srcs[0].reg != ind or cmp.srcs[0].reg != ind:
            continue
        step = float(add.srcs[1].value)
        if step <= 0:
            continue
        # no label may point inside the loop (head itself excepted)
        if any(head < idx <= back for idx in program.labels.values()):
            continue
        # writes to ind: exactly the step add plus one immediate init before
        ind_writes = [ip for ip, ins in enumerate(instrs)
                      if ind in cfg.effects(ins).reg_defs]
        pre = [ip for ip in ind_writes if ip < head]
        if not pre or any(head <= ip < add_ip or ip > add_ip
                          for ip in ind_writes if ip != add_ip):
            continue
        init_ip = max(pre)
        init_instr = instrs[init_ip]
        if (init_instr.opcode is not Opcode.MOV or init_instr.width != 1
                or init_instr.pred is not None
                or not isinstance(init_instr.srcs[0], ImmOperand)):
            continue
        init = float(init_instr.srcs[0].value)
        # body must be straight-line and must not touch the loop predicate
        body = instrs[head:add_ip]
        if any(ins.opcode in cfg.TERMINATORS for ins in body):
            continue
        if any(br.pred.index in
               (cfg.effects(ins).pred_defs
                | cfg.effects(ins).pred_uses)
               for ins in body):
            continue
        bound = _resolve_bound(cmp.srcs[1], bindings)
        trip = _trip_count(init, step, bound, cmp.cond)
        loops.append(CountedLoop(
            label=label, head=head, back=back, cmp_ip=cmp_ip, add_ip=add_ip,
            ind=ind, pred=br.pred.index, init=init, step=step, bound=bound,
            cond=cmp.cond, trip=trip))

    loops.sort(key=lambda lp: lp.head)

    def encloses(outer: CountedLoop, inner: CountedLoop) -> bool:
        return (inner is not outer and outer.head <= inner.head
                and inner.back <= outer.back)

    return [_dc_replace(lp, innermost=not any(encloses(lp, other)
                                              for other in loops))
            for lp in loops]


def _loop_by_label(program: Program, label: str,
                   bindings: Optional[Dict[str, float]]) -> CountedLoop:
    for lp in find_counted_loops(program, bindings):
        if lp.label == label:
            return lp
    raise ScheduleError(
        f"{program.name}: no counted loop at label {label!r} "
        f"(need the mov/body/add/cmp/br idiom)")


def _pred_read_outside(program: Program, pindex: int,
                       allowed: Set[int]) -> bool:
    """Is predicate ``pK`` consumed anywhere outside the allowed ips?"""
    for ip, instr in enumerate(program.instructions):
        if ip in allowed:
            continue
        eff = cfg.effects(instr)
        if pindex in eff.pred_uses:
            return True
    return False


# ---------------------------------------------------------------------------
# free-register discovery
# ---------------------------------------------------------------------------

def _free_vreg_block(program: Program, count: int) -> int:
    """First register of ``count`` consecutive vregs the program never uses.

    A register the program never touches is dead everywhere, so any gap
    in the used set is fair game — not just the space above the
    high-water mark.  Repeated staging passes on an unrolled body would
    otherwise exhaust the file long before it is actually full.
    """
    _, used = _span_regs(program, 0, len(program.instructions) - 1, set())
    run_start = 0
    run = 0
    for reg in range(NUM_VREGS):
        if reg in used:
            run_start, run = reg + 1, 0
            continue
        run += 1
        if run == count:
            return run_start
    raise ScheduleError(
        f"{program.name}: needs {count} consecutive staging registers "
        f"but the largest free run is smaller")


# ---------------------------------------------------------------------------
# unroll / reorder
# ---------------------------------------------------------------------------

def unroll(program: Program, label: str, factor: int,
           bindings: Optional[Dict[str, float]] = None) -> Program:
    """Peel the counted loop at ``label`` into ``factor`` copies per trip.

    Exact unrolling: the trip count must be known (immediate bound, or a
    symbol resolved through ``bindings``) and divisible by ``factor``, so
    the rewritten loop runs ``trip / factor`` times with the body (and the
    induction step) repeated ``factor`` times.  Intermediate ``cmp``
    results existed only to feed the backedge, so dropping them is
    invisible — which the recognizer guarantees by rejecting loops whose
    predicate is read anywhere else.
    """
    if factor < 2:
        raise ScheduleError(f"unroll factor must be >= 2, got {factor}")
    lp = _loop_by_label(program, label, bindings)
    if lp.trip is None:
        raise ScheduleError(
            f"{program.name}: loop {label!r} bound is not statically known; "
            f"bind the symbol or use an immediate bound")
    if lp.trip % factor:
        raise ScheduleError(
            f"{program.name}: loop {label!r} trip count {lp.trip} is not "
            f"divisible by {factor}")
    if _pred_read_outside(program, lp.pred, {lp.back, lp.cmp_ip}):
        raise ScheduleError(
            f"{program.name}: loop {label!r} predicate p{lp.pred} is read "
            f"outside the backedge; unrolling would change it")

    items = _to_items(program)
    index = _instr_item_index(items)
    start, stop = index[lp.head], index[lp.back]
    body_and_step = [program.instructions[ip]
                     for ip in range(lp.head, lp.cmp_ip)]
    replacement: List[object] = []
    for _ in range(factor):
        replacement.extend(body_and_step)
    replacement.append(program.instructions[lp.cmp_ip])
    replacement.append(program.instructions[lp.back])
    new_items = items[:start] + replacement + items[stop + 1:]
    return _emit(new_items, program.name)


def reorder(program: Program) -> Program:
    """Block-local list scheduling (labels and semantics preserved)."""
    scheduled = schedule_program(program)
    # re-emit so the transformed program carries honest source text
    return _emit(_to_items(scheduled), program.name)


# ---------------------------------------------------------------------------
# symbolic scalar values (for stage_mem address reasoning)
# ---------------------------------------------------------------------------

#: A symbolic scalar value: (base token, constant offset).  Base tokens:
#:   ("const",)        — pure constant, value lives in the offset
#:   ("sym", name)     — a bound launch symbol (constant per shred)
#:   ("entry", reg)    — reg's value at entry to the current block
#:   ("def", ip)       — whatever the (opaque) def at ip last produced
_Value = Tuple[tuple, float]


class _ScalarValues:
    """Symbolic values of scalar registers, one basic block at a time.

    Intra-block affine tracking (``mov``/``add``/``sub`` of wide-int
    width-1 instructions) plus cross-block resolution through chains of
    *single-definition* registers whose defining block dominates the use
    — sound because a single-def chain re-establishes the same affine
    relation on every execution of its (straight-line) defining block.
    """

    def __init__(self, program: Program):
        self.program = program
        self.ranges = cfg.block_ranges(program)
        self.block_of = {ip: bi for bi, (a, b) in enumerate(self.ranges)
                         for ip in range(a, b)}
        #: Dominator bitsets of the block graph, rooted at block 0.
        self.dom = cfg.dominators(
            cfg.reverse_graph(cfg.block_successors(program, self.ranges)),
            (0,))
        self.defs_by_reg: Dict[int, List[int]] = {}
        for ip, instr in enumerate(program.instructions):
            for reg in cfg.effects(instr).reg_defs:
                self.defs_by_reg.setdefault(reg, []).append(ip)
        self.env: Dict[int, _Value] = {}
        self.block = -1

    def start_block(self, block_index: int) -> None:
        self.block = block_index
        self.env = {}

    def step(self, ip: int) -> None:
        """Account for the instruction at ``ip`` (call after resolving)."""
        instr = self.program.instructions[ip]
        affine = self._affine(instr)
        defs = cfg.effects(instr).reg_defs
        if affine is not None:
            reg, value = affine
            for d in defs:
                self.env[d] = (("def", ip), 0.0)
            self.env[reg] = value
            return
        for d in defs:
            self.env[d] = (("def", ip), 0.0)

    def value(self, op: Operand) -> Optional[_Value]:
        if isinstance(op, ImmOperand):
            return (("const",), float(op.value))
        if isinstance(op, SymOperand):
            return (("sym", op.name), 0.0)
        if isinstance(op, RegOperand):
            return self._reg_value(op.reg)
        return None

    def _reg_value(self, reg: int) -> _Value:
        if reg in self.env:
            return self.env[reg]
        return self._entry_value(reg, self.block, depth=0)

    def _affine(self, instr: Instruction) -> Optional[Tuple[int, _Value]]:
        """(reg, value) when the instruction is a trackable scalar def."""
        if (instr.pred is not None or instr.width != 1 or not instr.dsts
                or not isinstance(instr.dsts[0], RegOperand)):
            return None
        reg = instr.dsts[0].reg
        if instr.opcode is Opcode.MOV:
            src = self.value(instr.srcs[0])
            return (reg, src) if src is not None else None
        if instr.dtype not in _WIDE_INT_TYPES:
            return None
        if instr.opcode in (Opcode.ADD, Opcode.SUB) and len(instr.srcs) == 2:
            a, b = instr.srcs
            sign = -1.0 if instr.opcode is Opcode.SUB else 1.0
            va, vb = self.value(a), self.value(b)
            if va is not None and vb is not None:
                if vb[0] == ("const",):
                    return (reg, (va[0], va[1] + sign * vb[1]))
                if instr.opcode is Opcode.ADD and va[0] == ("const",):
                    return (reg, (vb[0], vb[1] + va[1]))
                if instr.opcode is Opcode.ADD:
                    # symbolic sum of two opaque terms, canonically ordered
                    base = ("sum",) + tuple(sorted((va[0], vb[0]), key=repr))
                    return (reg, (base, va[1] + vb[1]))
        return None

    def _entry_value(self, reg: int, use_block: int, depth: int) -> _Value:
        opaque = (("entry", reg), 0.0)
        if depth > 8:
            return opaque
        ips = self.defs_by_reg.get(reg, [])
        if len(ips) != 1:
            return opaque
        d = ips[0]
        instr = self.program.instructions[d]
        def_block = self.block_of[d]
        if def_block == use_block or not self.dom[use_block] >> def_block & 1:
            return opaque
        if (instr.pred is not None or instr.width != 1 or not instr.dsts
                or not isinstance(instr.dsts[0], RegOperand)):
            return (("def", d), 0.0)
        form = self._chain_form(instr)
        if form is None:
            return (("def", d), 0.0)
        src, delta = form
        if isinstance(src, ImmOperand):
            return (("const",), float(src.value) + delta)
        if isinstance(src, SymOperand):
            return (("sym", src.name), delta)
        if isinstance(src, RegOperand):
            r2 = src.reg
            ips2 = self.defs_by_reg.get(r2, [])
            if (len(ips2) == 1 and self.block_of[ips2[0]] == def_block
                    and ips2[0] < d):
                base, off = self._entry_value(r2, use_block, depth + 1)
                if base == ("entry", r2):
                    # the recursion bottomed out without an anchor; pin the
                    # chain to this def instead so relatives still compare
                    return (("def", ips2[0]), delta)
                return (base, off + delta)
            return (("def", d), 0.0)
        return (("def", d), 0.0)

    def _chain_form(self, instr: Instruction):
        """Affine form (src operand, delta) of a single-def instruction."""
        if instr.opcode is Opcode.MOV:
            src = instr.srcs[0]
            if isinstance(src, (ImmOperand, SymOperand, RegOperand)):
                return (src, 0.0)
            return None
        if instr.dtype not in _WIDE_INT_TYPES:
            return None
        if instr.opcode in (Opcode.ADD, Opcode.SUB) and len(instr.srcs) == 2:
            a, b = instr.srcs
            sign = -1.0 if instr.opcode is Opcode.SUB else 1.0
            if isinstance(a, (SymOperand, RegOperand)) and isinstance(b, ImmOperand):
                return (a, sign * float(b.value))
            if (instr.opcode is Opcode.ADD and isinstance(a, ImmOperand)
                    and isinstance(b, (SymOperand, RegOperand))):
                return (b, float(a.value))
        return None


# ---------------------------------------------------------------------------
# stage_mem: block-row merging and scalar chain staging
# ---------------------------------------------------------------------------

@dataclass
class _BlockAccess:
    ip: int
    instr: Instruction
    store: bool
    surface: str
    x_value: _Value
    y_value: _Value
    w: int
    h: int
    dtype: DataType

    @property
    def elems(self) -> int:
        return self.w * self.h


@dataclass
class _ScalarAccess:
    ip: int
    instr: Instruction
    store: bool
    surface: str
    index_value: _Value   # base token + (index offset + operand offset)
    reg: int              # dst (load) / value (store) register
    dtype: DataType


def stage_mem(program: Program) -> Program:
    """Merge adjacent memory accesses into wider ``BATCH_MEM`` ops.

    Two rewrites, applied to fixpoint:

    * adjacent-row ``ldblk``/``stblk`` merging — same surface, same x,
      provably consecutive y rows become one taller block access
      (legal unconditionally for loads because ``read_block`` clamps
      each row independently, and for stores because every merged row
      was in bounds already);
    * scalar ``ld``/``st`` chain staging — runs of width-1 accesses at
      consecutive element indices into consecutive registers become one
      ranged per-register access.

    Values and addresses that must survive the move are captured into
    never-used staging registers with ``mov.N.df`` copies (``mov`` never
    touches the FP datapath, so ``.df`` is an exact float64 lane copy
    and CEH-free on the exo-sequencers).

    Once merging reaches fixpoint the staging round-trips are cleaned
    up: copies are forwarded into their readers and the ones that die
    are deleted (see ``_forward_copies``); cleanup can expose further
    merges, so the two interleave until neither finds work.
    """
    out = program
    for _ in range(64):
        nxt = _stage_mem_once(out)
        if nxt is None:
            nxt = _forward_copies(out)
            if nxt is None:
                return out
        out = nxt
    return out


def _stage_mem_once(program: Program) -> Optional[Program]:
    """Apply the first profitable merge found, or None at fixpoint."""
    values = _ScalarValues(program)
    for bi, (a, b) in enumerate(values.ranges):
        values.start_block(bi)
        blocks: List[_BlockAccess] = []
        scalars: List[_ScalarAccess] = []
        for ip in range(a, b):
            instr = program.instructions[ip]
            acc = _classify_access(instr, ip, values)
            if isinstance(acc, _BlockAccess):
                blocks.append(acc)
            elif isinstance(acc, _ScalarAccess):
                scalars.append(acc)
            values.step(ip)
        rewritten = (_merge_block_run(program, blocks)
                     or _merge_scalar_run(program, scalars))
        if rewritten is not None:
            return rewritten
    return None


def _classify_access(instr: Instruction, ip: int, values: _ScalarValues):
    if instr.pred is not None:
        return None
    if instr.opcode is Opcode.LDBLK:
        target, store = instr.srcs[0], False
    elif instr.opcode is Opcode.STBLK:
        target, store = instr.srcs[0], True
    elif instr.opcode in (Opcode.LD, Opcode.ST) and instr.width == 1:
        mem = instr.srcs[0] if instr.opcode is Opcode.ST else instr.srcs[0]
        if not isinstance(mem, MemOperand):
            return None
        idx = values.value(mem.index)
        if idx is None:
            return None
        reg_op = (instr.srcs[1] if instr.opcode is Opcode.ST
                  else instr.dsts[0])
        if not isinstance(reg_op, RegOperand):
            return None
        return _ScalarAccess(
            ip=ip, instr=instr, store=instr.opcode is Opcode.ST,
            surface=mem.surface,
            index_value=(idx[0], idx[1] + mem.offset),
            reg=reg_op.reg, dtype=instr.dtype)
    else:
        return None
    if not isinstance(target, BlockOperand) or instr.block is None:
        return None
    xv, yv = values.value(target.x), values.value(target.y)
    if xv is None or yv is None:
        return None
    return _BlockAccess(ip=ip, instr=instr, store=store,
                        surface=target.surface, x_value=xv, y_value=yv,
                        w=instr.block[0], h=instr.block[1],
                        dtype=instr.dtype)


def _span_blockers(program: Program, lo: int, hi: int, member_ips: Set[int],
                   surface: str, *, stores_matter: bool) -> bool:
    """Anything between the run members that forbids moving them?"""
    for ip in range(lo, hi + 1):
        if ip in member_ips:
            continue
        eff = cfg.effects(program.instructions[ip])
        if eff.barrier:
            return True
        if surface in eff.mem_writes:
            return True
        if stores_matter and surface in eff.mem_reads:
            return True
    return False


def _span_regs(program: Program, lo: int, hi: int,
               exclude: Set[int]) -> Tuple[Set[int], Set[int]]:
    """(registers defined, registers read or written) by the
    instructions of ``[lo, hi]`` outside ``exclude``."""
    defined: Set[int] = set()
    touched: Set[int] = set()
    for ip in range(lo, hi + 1):
        if ip not in exclude:
            eff = cfg.effects(program.instructions[ip])
            defined |= eff.reg_defs
            touched |= eff.reg_uses | eff.reg_defs
    return defined, touched


def _merge_block_run(program: Program,
                     accesses: List[_BlockAccess]) -> Optional[Program]:
    # x-adjacent single-row blocks first (same y, consecutive x spans):
    # widening a row keeps the packed layout contiguous, and wider rows
    # then become eligible for the taller y-merge below
    x_groups: Dict[tuple, List[_BlockAccess]] = {}
    for acc in accesses:
        if acc.h != 1 or acc.w % VLEN:
            continue
        key = (acc.store, acc.surface, acc.x_value[0], acc.y_value,
               acc.dtype)
        x_groups.setdefault(key, []).append(acc)
    for members in x_groups.values():
        members.sort(key=lambda m: m.x_value[1])
        run: List[_BlockAccess] = []
        for acc in members + [None]:
            if (acc is not None and run
                    and acc.x_value[1] == run[-1].x_value[1] + run[-1].w):
                run.append(acc)
                continue
            if len(run) >= 2:
                rewritten = _try_block_merge(program, run, axis="x")
                if rewritten is not None:
                    return rewritten
            run = [acc] if acc is not None else []

    groups: Dict[tuple, List[_BlockAccess]] = {}
    for acc in accesses:
        if acc.elems % VLEN:
            continue  # rows must stay register-aligned in the packed layout
        key = (acc.store, acc.surface, acc.x_value, acc.y_value[0],
               acc.w, acc.dtype)
        groups.setdefault(key, []).append(acc)
    for key, members in groups.items():
        store = key[0]
        members.sort(key=lambda m: m.y_value[1])
        run: List[_BlockAccess] = []
        run_end = 0.0
        for acc in members + [None]:
            if acc is not None and run:
                start = acc.y_value[1]
                # stores must tile exactly (an overlapping merge would
                # drop a write); loads are idempotent, so any row range
                # touching the covered span may fold into a taller block
                # — provided rows are register-aligned, so each member
                # can copy out at a whole-register row offset
                if start == run_end or (not store and start <= run_end
                                        and acc.w % VLEN == 0):
                    run.append(acc)
                    run_end = max(run_end, start + acc.h)
                    continue
            if len(run) >= 2:
                rewritten = _try_block_merge(program, run, axis="y")
                if rewritten is not None:
                    return rewritten
            run = [acc] if acc is not None else []
            run_end = acc.y_value[1] + acc.h if acc is not None else 0.0
    return None


def _try_block_merge(program: Program, run: List[_BlockAccess],
                     axis: str) -> Optional[Program]:
    """One merge attempt; register pressure skips the run, not the pass."""
    try:
        return _apply_block_merge(program, run, axis)
    except ScheduleError:
        return None


def _apply_block_merge(program: Program, run: List[_BlockAccess],
                       axis: str) -> Optional[Program]:
    store = run[0].store
    surface = run[0].surface
    ips = {m.ip for m in run}
    lo, hi = min(m.ip for m in run), max(m.ip for m in run)
    if _span_blockers(program, lo, hi, ips, surface, stores_matter=store):
        return None
    if run[0].ip != lo:
        # the merged access anchors on the lowest-coordinate member's
        # operands, which are only known live from that member's position
        return None
    first = run[0]
    overlap = False
    if axis == "x":
        shape = (sum(m.w for m in run), 1)
    else:
        base_y = run[0].y_value[1]
        end_y = max(m.y_value[1] + m.h for m in run)
        shape = (run[0].w, int(round(end_y - base_y)))
        overlap = shape[1] != sum(m.h for m in run)
        if overlap and (store or shape[0] % VLEN):
            # overlapping stores would coalesce two writes; overlapping
            # loads need whole-register rows to copy out at an offset
            return None
    width, total_h = shape
    total = width * total_h
    anchor = first.instr.srcs[0]  # BlockOperand carrying x and the base y

    member_regs = []
    for m in run:
        reg_op = m.instr.srcs[1] if store else m.instr.dsts[0]
        if not isinstance(reg_op, _REG_OPERANDS):
            return None
        regs = cfg.operand_regs(reg_op)
        if len(regs) != m.elems // VLEN:
            return None
        member_regs.append((m, reg_op, regs))

    items = _to_items(program)
    index = _instr_item_index(items)
    patches: Dict[int, List[object]] = {}

    flat = [r for _, _, regs in member_regs for r in regs]
    contiguous = all(flat[i + 1] == flat[i] + 1 for i in range(len(flat) - 1))

    if not store:
        direct = (contiguous and not overlap
                  and [m.ip for m in run] == sorted(ips))
        if direct:
            # later members' destinations now fill at the first position:
            # nothing between may read or write them
            later = set(flat[len(member_regs[0][2]):])
            if _span_regs(program, lo, hi, ips)[1] & later:
                direct = False
        if direct:
            merged = Instruction(
                Opcode.LDBLK, width=total, dtype=run[0].dtype,
                dsts=(RangeOperand(flat[0], flat[-1]),),
                srcs=(anchor,), block=(width, total_h))
            patches[index[first.ip]] = [merged]
            for m, _, _ in member_regs:
                if m.ip != first.ip:
                    patches[index[m.ip]] = []
        else:
            stage = _free_vreg_block(program, total // VLEN)
            merged = Instruction(
                Opcode.LDBLK, width=total, dtype=run[0].dtype,
                dsts=(RangeOperand(stage, stage + total // VLEN - 1),),
                srcs=(anchor,), block=(width, total_h))
            cursor = stage
            for m, reg_op, regs in member_regs:
                if axis == "y" and width % VLEN == 0:
                    # rows pack row-major: a member covering rows
                    # [m.y, m.y + m.h) starts at its row offset, which
                    # also lands overlapped members on the shared rows
                    src = stage + int(round(m.y_value[1] - base_y)) \
                        * (width // VLEN)
                else:
                    # rows narrower than a register can't be addressed
                    # at a register-offset; these runs tile exactly (no
                    # overlap), so sequential packing is the layout
                    src = cursor
                    cursor += len(regs)
                copy = Instruction(
                    Opcode.MOV, width=m.elems, dtype=DataType.DF,
                    dsts=(reg_op,),
                    srcs=(RangeOperand(src, src + len(regs) - 1),))
                if m.ip == first.ip:
                    patches[index[m.ip]] = [merged, copy]
                else:
                    patches[index[m.ip]] = [copy]
    else:
        # the merged store retires at the last member's position; capture
        # each member's value (and the anchor coordinates, if clobbered)
        # where they were originally read
        redefined = _span_regs(program, lo, hi, ips)[0]
        stage_coords = [op for op in (anchor.x, anchor.y)
                        if redefined.intersection(cfg.operand_regs(op))]
        stage = _free_vreg_block(program, total // VLEN + len(stage_coords))
        x_op, y_op = anchor.x, anchor.y
        coord_movs: List[Instruction] = []
        cursor_c = stage + total // VLEN
        for op in stage_coords:
            coord_movs.append(
                Instruction(Opcode.MOV, width=1, dtype=DataType.DF,
                            dsts=(RegOperand(cursor_c),), srcs=(op,)))
            if op is anchor.x:
                x_op = RegOperand(cursor_c)
            else:
                y_op = RegOperand(cursor_c)
            cursor_c += 1
        merged = Instruction(
            Opcode.STBLK, width=total, dtype=run[0].dtype,
            srcs=(BlockOperand(surface, x_op, y_op),
                  RangeOperand(stage, stage + total // VLEN - 1)),
            block=(width, total_h))
        cursor = stage
        for m, reg_op, regs in member_regs:
            copy = Instruction(
                Opcode.MOV, width=m.elems, dtype=DataType.DF,
                dsts=(RangeOperand(cursor, cursor + len(regs) - 1),),
                srcs=(reg_op,))
            cursor += len(regs)
            seq: List[object] = [copy]
            if m.ip == first.ip:
                seq = coord_movs + seq
            if m.ip == hi:
                seq = seq + [merged]
            patches[index[m.ip]] = seq

    new_items: List[object] = []
    for pos, item in enumerate(items):
        if pos in patches:
            new_items.extend(patches[pos])
        else:
            new_items.append(item)
    return _emit(new_items, program.name)


def _merge_scalar_run(program: Program,
                      accesses: List[_ScalarAccess]) -> Optional[Program]:
    groups: Dict[tuple, List[_ScalarAccess]] = {}
    for acc in accesses:
        key = (acc.store, acc.surface, acc.index_value[0], acc.dtype)
        groups.setdefault(key, []).append(acc)
    for key, members in groups.items():
        members.sort(key=lambda m: m.index_value[1])
        run: List[_ScalarAccess] = []
        for acc in members + [None]:
            if (acc is not None and run
                    and acc.index_value[1] == run[-1].index_value[1] + 1
                    and acc.reg == run[-1].reg + 1):
                run.append(acc)
                continue
            if len(run) >= 2:
                rewritten = _apply_scalar_merge(program, run)
                if rewritten is not None:
                    return rewritten
            run = [acc] if acc is not None else []
    return None


def _apply_scalar_merge(program: Program,
                        run: List[_ScalarAccess]) -> Optional[Program]:
    store = run[0].store
    surface = run[0].surface
    ips = {m.ip for m in run}
    lo, hi = min(ips), max(ips)
    if _span_blockers(program, lo, hi, ips, surface, stores_matter=store):
        return None
    if [m.ip for m in run] != sorted(ips):
        return None
    first, last = run[0], run[-1]
    regs = [m.reg for m in run]
    redefined, touched = _span_regs(program, lo, hi, ips)
    mem = first.instr.srcs[0]
    index_regs = set(cfg.operand_regs(mem.index))
    if store:
        # values and the index must survive until the merged store at `hi`
        if (set(regs) & redefined) or (index_regs & redefined):
            return None
    else:
        # destinations fill early at `lo`: nothing between may touch them
        # (the index is read at `lo` too, before any redefinition, so
        # index redefs below are harmless)
        if set(regs[1:]) & touched:
            return None
    count = len(run)
    mem_op = MemOperand(surface, mem.index, mem.offset)
    if store:
        merged = Instruction(Opcode.ST, width=count, dtype=first.dtype,
                             srcs=(mem_op, RangeOperand(regs[0], regs[-1])))
    else:
        merged = Instruction(Opcode.LD, width=count, dtype=first.dtype,
                             dsts=(RangeOperand(regs[0], regs[-1]),),
                             srcs=(mem_op,))
    items = _to_items(program)
    index = _instr_item_index(items)
    new_items: List[object] = []
    target_pos = index[hi] if store else index[lo]
    for pos, item in enumerate(items):
        if pos == target_pos:
            new_items.append(merged)
        elif pos in {index[ip] for ip in ips}:
            continue
        else:
            new_items.append(item)
    return _emit(new_items, program.name)


# ---------------------------------------------------------------------------
# copy forwarding: clean up the staging round-trips block merging leaves
# ---------------------------------------------------------------------------


# side-effect-free when well-formed: no memory traffic, no predicate
# definitions, no CEH path (faults in semantics are structural, raised
# regardless of the value flowing through) — so one whose destinations
# are dead below it can be deleted without changing any observable
_PURE_ALU = (Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.SHL, Opcode.SHR,
             Opcode.AND, Opcode.OR, Opcode.XOR)


def _dead_dsts(instr: Instruction, live: Set[int]) -> bool:
    """A pure ALU op whose every destination register is dead."""
    if (instr.opcode not in _PURE_ALU or instr.pred is not None
            or not all(isinstance(op, _REG_OPERANDS) for op in instr.dsts)):
        return False
    regs = cfg.effects(instr).reg_defs
    return bool(regs) and not regs & live


def _staging_copy(instr: Instruction):
    """(dst regs, src regs) of a ``mov.N.df`` register-to-register copy
    in packing order, else None.  ``mov.df`` moves raw lanes, so the
    source registers hold bit-identical values to the destinations."""
    if (instr.opcode is not Opcode.MOV or instr.pred is not None
            or instr.dtype is not DataType.DF
            or len(instr.dsts) != 1 or len(instr.srcs) != 1
            or not isinstance(instr.dsts[0], _REG_OPERANDS)
            or not isinstance(instr.srcs[0], _REG_OPERANDS)):
        return None
    dst = cfg.operand_regs(instr.dsts[0])
    src = cfg.operand_regs(instr.srcs[0])
    if not dst or not src or len(dst) != len(src) or set(dst) & set(src):
        return None
    return dst, src


def _forward_copies(program: Program) -> Optional[Program]:
    """Forward ``mov.N.df`` staging copies into their readers, then drop
    the copies nobody reads any more.

    Block merging funnels every member access through its original
    registers: the merged load lands in staging registers and a copy
    re-materialises each member's lanes where its consumers expect them.
    Most of those round-trips are pure renames.  Within one linear span
    a copy ``mov [d..] = [s..]`` makes ``d`` an alias of ``s`` until
    either side is redefined; a source operand lying wholly inside live
    aliases is rewritten to read the aliased registers directly (staging
    blocks are contiguous, so any aliased subrange stays contiguous).
    Any pure ALU op whose destinations are dead below it — by liveness
    over the block graph — is then deleted outright: forwarding kills
    the copies themselves, and block merging orphans address arithmetic
    whose consumer it absorbed.  Returns None at fixpoint.
    """
    items = _to_items(program)
    index = _instr_item_index(items)
    forwarded = False
    for a, b in cfg.block_ranges(program):
        alias: Dict[int, int] = {}
        for ip in range(a, b):
            instr = program.instructions[ip]
            if alias and instr.srcs:
                srcs = list(instr.srcs)
                hit = False
                for pos, op in enumerate(srcs):
                    if not isinstance(op, _REG_OPERANDS):
                        continue
                    regs = cfg.operand_regs(op)
                    if not regs or not all(r in alias for r in regs):
                        continue
                    mapped = [alias[r] for r in regs]
                    if any(mapped[i] + 1 != mapped[i + 1]
                           for i in range(len(mapped) - 1)):
                        continue
                    srcs[pos] = (RegOperand(mapped[0])
                                 if isinstance(op, RegOperand)
                                 else RangeOperand(mapped[0], mapped[-1]))
                    hit = True
                if hit:
                    instr = _dc_replace(instr, srcs=tuple(srcs))
                    items[index[ip]] = instr
                    forwarded = True
            defs = cfg.effects(instr).reg_defs
            if defs:
                alias = {d: s for d, s in alias.items()
                         if d not in defs and s not in defs}
            copy = _staging_copy(instr)
            if copy is not None:
                for d, s in zip(*copy):
                    # chase chains so a copy of a copy aliases the root
                    alias[d] = alias.get(s, s)
    if forwarded:
        return _emit(items, program.name)
    live_out = cfg.live_registers(program)
    dead = [ip for ip, instr in enumerate(program.instructions)
            if _dead_dsts(instr, live_out[ip])]
    if not dead:
        return None
    for ip in dead:
        items[index[ip]] = None
    return _emit([item for item in items if item is not None], program.name)


# ---------------------------------------------------------------------------
# the Schedule API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """An ordered recipe of transform applications.

    Built fluently (``Schedule().stage_mem().unroll("loop", 4)``) or
    parsed from a spec string (:func:`parse_schedule`); applied with
    :func:`apply_schedule`.  An empty schedule is the baseline and
    applies as the identity (same ``Program`` object, so the predecode
    cache entry is shared).
    """

    steps: Tuple[Tuple[str, tuple], ...] = ()

    def unroll(self, label: Optional[str] = None, factor: int = 4) -> "Schedule":
        return Schedule(self.steps + (("unroll", (label, factor)),))

    def reorder(self) -> "Schedule":
        return Schedule(self.steps + (("reorder", ()),))

    def stage_mem(self) -> "Schedule":
        return Schedule(self.steps + (("stage_mem", ()),))

    def describe(self) -> str:
        if not self.steps:
            return "baseline"
        parts = []
        for kind, args in self.steps:
            if kind == "unroll":
                label, factor = args
                at = f"@{label}" if label else ""
                parts.append(f"{kind}{factor}{at}")
            else:
                parts.append(kind)
        return "+".join(parts)


BASELINE = Schedule()


def _auto_unroll_targets(program: Program, factor: int,
                         bindings: Optional[Dict[str, float]]
                         ) -> List[Tuple[str, int]]:
    """Innermost loops with a legal (divisor-adjusted) unroll factor."""
    targets: List[Tuple[str, int]] = []
    for lp in find_counted_loops(program, bindings):
        if not lp.innermost or lp.trip is None:
            continue
        use = 0
        for f in range(min(factor, lp.trip), 1, -1):
            if lp.trip % f == 0:
                use = f
                break
        if use >= 2:
            targets.append((lp.label, use))
    return targets


def apply_schedule(program: Program, schedule: Schedule,
                   bindings: Optional[Dict[str, float]] = None) -> Program:
    """Apply every step of ``schedule``; returns a fresh Program.

    Steps with an explicit loop label raise :class:`ScheduleError` when
    illegal; label-less ``unroll`` steps auto-target every
    innermost counted loop and silently skip loops they cannot handle
    (adjusting the factor down to the largest divisor of the trip
    count).  An empty schedule returns the input program unchanged.
    """
    out = program
    for kind, args in schedule.steps:
        if kind == "unroll":
            label, factor = args
            if label is not None:
                out = unroll(out, label, factor, bindings)
            else:
                for lb, use in _auto_unroll_targets(out, factor, bindings):
                    try:
                        out = unroll(out, lb, use, bindings)
                    except ScheduleError:
                        continue
        elif kind == "reorder":
            out = reorder(out)
        elif kind == "stage_mem":
            out = stage_mem(out)
        else:  # pragma: no cover - Schedule builders gate the step names
            raise ScheduleError(f"unknown schedule step {kind!r}")
    if out is not program:
        out.name = f"{program.name}~{schedule.describe()}"
    return out


_UNROLL_RE = re.compile(r"^unroll(\d+)?(?:@([A-Za-z_]\w*))?$")


def parse_schedule(spec: str) -> Schedule:
    """Parse a ``chirun --schedule`` spec string into a Schedule.

    Grammar: steps joined by ``+``; each step one of ``unroll[N][@label]``,
    ``stage_mem``, ``reorder``.  ``baseline``/``none`` name the empty
    schedule.
    """
    spec = (spec or "").strip()
    if spec in ("", "baseline", "none"):
        return BASELINE
    sched = BASELINE
    for token in spec.split("+"):
        token = token.strip()
        if token == "stage_mem":
            sched = sched.stage_mem()
        elif token == "reorder":
            sched = sched.reorder()
        else:
            m = _UNROLL_RE.match(token)
            if not m:
                raise ScheduleError(
                    f"unknown schedule step {token!r} (grammar: "
                    f"unroll[N][@label], stage_mem, reorder)")
            factor, label = m.group(1), m.group(2)
            sched = sched.unroll(label, int(factor) if factor else 4)
    return sched
