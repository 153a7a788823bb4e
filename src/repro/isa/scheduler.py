"""Instruction scheduling for accelerator shreds.

The exo-sequencers "fetch and retire instructions in-order" (paper
section 3.4), so a shred that issues a load right before its use stalls
for the full memory latency unless another hardware thread covers it.
When occupancy is low — few shreds, or dependent taskq chains — the
compiler can help by *list scheduling* each basic block: independent
loads hoist above earlier computation, spreading latency across useful
issue slots.

:func:`schedule_program` preserves semantics exactly (dependences are
honoured conservatively: register RAW/WAR/WAW including predicates and
the merge-read of guarded destinations, whole-surface memory ordering,
and full barriers around system instructions) and preserves every label:
blocks never move, only instructions within them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from .instructions import Instruction
from .opcodes import Opcode
from .operands import (
    BlockOperand,
    MemOperand,
    Operand,
    PredOperand,
    RangeOperand,
    RegOperand,
    ShredRegOperand,
)
from .program import Program

#: Instructions that must not move at all (scheduling barriers).
_BARRIERS = {Opcode.SENDREG, Opcode.SPAWN, Opcode.FLUSH, Opcode.FENCE}
#: Block terminators (always the last instruction of their block).
_TERMINATORS = {Opcode.JMP, Opcode.BR, Opcode.END}


@dataclass
class _Effects:
    """Register/predicate/memory footprint of one instruction."""

    reg_uses: Set[int] = field(default_factory=set)
    reg_defs: Set[int] = field(default_factory=set)
    pred_uses: Set[int] = field(default_factory=set)
    pred_defs: Set[int] = field(default_factory=set)
    mem_reads: Set[str] = field(default_factory=set)
    mem_writes: Set[str] = field(default_factory=set)
    barrier: bool = False


def _operand_regs(op: Operand) -> Set[int]:
    if isinstance(op, RegOperand):
        return {op.reg}
    if isinstance(op, RangeOperand):
        return set(range(op.start, op.stop + 1))
    if isinstance(op, MemOperand):
        return _operand_regs(op.index)
    if isinstance(op, BlockOperand):
        return _operand_regs(op.x) | _operand_regs(op.y)
    if isinstance(op, ShredRegOperand):
        return _operand_regs(op.target)
    return set()


def _effects(instr: Instruction) -> _Effects:
    eff = _Effects()
    if instr.opcode in _BARRIERS:
        eff.barrier = True
    for op in instr.srcs:
        eff.reg_uses |= _operand_regs(op)
        if isinstance(op, PredOperand):
            eff.pred_uses.add(op.index)
        if isinstance(op, MemOperand):
            eff.mem_reads.add(op.surface)
        if isinstance(op, BlockOperand):
            eff.mem_reads.add(op.surface)
    for op in instr.dsts:
        if isinstance(op, PredOperand):
            eff.pred_defs.add(op.index)
        else:
            eff.reg_defs |= _operand_regs(op)
    # stores: the "source" memory operand is really the destination
    if instr.opcode in (Opcode.ST, Opcode.STBLK):
        target = instr.srcs[0]
        surface = getattr(target, "surface", None)
        if surface is not None:
            eff.mem_reads.discard(surface)
            eff.mem_writes.add(surface)
    if instr.pred is not None:
        eff.pred_uses.add(instr.pred.index)
        # a guarded write merges with the old destination contents
        eff.reg_uses |= eff.reg_defs
        if instr.opcode in (Opcode.ST, Opcode.STBLK):
            eff.mem_reads |= eff.mem_writes
    return eff


def _depends(later: _Effects, earlier: _Effects) -> bool:
    """Must ``later`` stay after ``earlier``?"""
    if later.barrier or earlier.barrier:
        return True
    return bool(
        later.reg_uses & earlier.reg_defs  # RAW
        or later.reg_defs & earlier.reg_uses  # WAR
        or later.reg_defs & earlier.reg_defs  # WAW
        or later.pred_uses & earlier.pred_defs
        or later.pred_defs & earlier.pred_uses
        or later.pred_defs & earlier.pred_defs
        or later.mem_reads & earlier.mem_writes
        or later.mem_writes & earlier.mem_reads
        or later.mem_writes & earlier.mem_writes
    )


def _block_boundaries(program: Program) -> List[Tuple[int, int]]:
    """Half-open [start, stop) ranges of schedulable block bodies."""
    n = len(program.instructions)
    leaders = {0, n}
    for idx in sorted(program.labels.values()):
        leaders.add(idx)
    for idx, instr in enumerate(program.instructions):
        if instr.opcode in _TERMINATORS:
            leaders.add(idx + 1)
    marks = sorted(m for m in leaders if 0 <= m <= n)
    return [(a, b) for a, b in zip(marks, marks[1:]) if b > a]


def _schedule_block(instructions: Sequence[Instruction]) -> List[Instruction]:
    """Latency-weighted list scheduling of one block body."""
    body = list(instructions)
    terminator = None
    if body and body[-1].opcode in _TERMINATORS:
        terminator = body.pop()
    n = len(body)
    if n <= 1:
        return body + ([terminator] if terminator else [])

    effects = [_effects(instr) for instr in body]
    succs: Dict[int, List[int]] = {i: [] for i in range(n)}
    npreds = [0] * n
    for j in range(n):
        for i in range(j):
            if _depends(effects[j], effects[i]):
                succs[i].append(j)
                npreds[j] += 1

    # priority: latency-weighted height to the end of the block
    height = [0] * n
    for i in range(n - 1, -1, -1):
        instr = body[i]
        own = instr.info.issue + instr.info.latency
        height[i] = own + max((height[j] for j in succs[i]), default=0)

    ready = [i for i in range(n) if npreds[i] == 0]
    order: List[Instruction] = []
    while ready:
        # highest critical path first; original order breaks ties
        ready.sort(key=lambda i: (-height[i], i))
        chosen = ready.pop(0)
        order.append(body[chosen])
        for j in succs[chosen]:
            npreds[j] -= 1
            if npreds[j] == 0:
                ready.append(j)
    assert len(order) == n, "scheduling lost instructions"
    if terminator is not None:
        order.append(terminator)
    return order


def instruction_effects(instr: Instruction) -> _Effects:
    """Public view of one instruction's dependence footprint."""
    return _effects(instr)


def schedule_program(program: Program) -> Program:
    """Return a semantically equivalent program with scheduled blocks."""
    out: List[Instruction] = []
    for start, stop in _block_boundaries(program):
        out.extend(_schedule_block(program.instructions[start:stop]))
    scheduled = Program(name=program.name, instructions=tuple(out),
                        labels=dict(program.labels), source=program.source)
    scheduled.validate()
    return scheduled
