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
blocks never move, only instructions within them.  The blocks and each
instruction's footprint come from :mod:`repro.isa.cfg`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from . import cfg
from .instructions import Instruction
from .program import Program


def _depends(later: cfg.Effects, earlier: cfg.Effects) -> bool:
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


def _schedule_block(instructions: Sequence[Instruction]) -> List[Instruction]:
    """Latency-weighted list scheduling of one block body."""
    body = list(instructions)
    terminator = None
    if body and body[-1].opcode in cfg.TERMINATORS:
        terminator = body.pop()
    n = len(body)
    if n <= 1:
        return body + ([terminator] if terminator else [])

    effects = [cfg.effects(instr) for instr in body]
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


def schedule_program(program: Program) -> Program:
    """Return a semantically equivalent program with scheduled blocks."""
    out: List[Instruction] = []
    for start, stop in cfg.block_ranges(program):
        out.extend(_schedule_block(program.instructions[start:stop]))
    scheduled = Program(name=program.name, instructions=tuple(out),
                        labels=dict(program.labels), source=program.source)
    scheduled.validate()
    return scheduled
