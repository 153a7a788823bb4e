"""Basic-block discovery and reconvergence over a predecoded program.

The megaop engine's compiled traces (:mod:`repro.gma.megaop`) amortize
its per-instruction Python dispatch over whole straight-line regions.
This module finds those regions once per program: a *basic block* is a
maximal run of instructions the gang can retire back-to-back without
consulting the per-instruction loop — batched ALU ops plus the
no-datapath controls (``nop``/``fence``) — optionally ending with one
*terminator* (``jmp``/``br``/``end``) whose outcome decides the
successor.

Leaders (block entry points) are :func:`repro.isa.cfg.leaders` —
instruction 0, every label (so every branch target) and the ip after
every ``jmp``/``br``/``end`` — plus one cut: the fall-through of every
other boundary instruction (memory ops, per-shred steps, peels), where
the per-instruction loop resumes after handling the boundary and a
compiled block must be able to pick the trace back up.

A block never spans a leader — a backward branch into the middle of a
straight-line run splits it — so entering a block at its ``start`` is the
only way in, which is what lets its compiled trace charge the whole
block's accounting in one shot.  Blocks that would be empty (a boundary
instruction is the entry itself) are not recorded; the per-instruction
loop owns those ips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import cfg
from .opcodes import Opcode
from .predecode import (
    BATCH_ALU,
    BATCH_CONTROL,
    BATCH_PEEL,
    PredecodedInstr,
    PredecodedProgram,
)

#: Control ops with no datapath effect: fusable into a block body.
_BODY_CONTROL = (Opcode.NOP, Opcode.FENCE)


def fusable_body(pre: PredecodedInstr) -> bool:
    """Can this instruction sit inside a block body?"""
    if pre.batch_class == BATCH_ALU:
        return True
    return (pre.batch_class == BATCH_CONTROL
            and pre.opcode in _BODY_CONTROL)


def is_terminator(pre: PredecodedInstr) -> bool:
    """Does this instruction end a block with a control decision?

    Only *well-formed* branches qualify (``BATCH_CONTROL``): a malformed
    branch predecodes as ``BATCH_PEEL`` and stays a boundary so the
    per-instruction loop peels it exactly as before.
    """
    return (pre.batch_class == BATCH_CONTROL
            and pre.opcode in cfg.TERMINATORS)


@dataclass(frozen=True)
class BasicBlock:
    """One maximal fusable region ``[start, end)``.

    ``body_len`` counts the fusable body instructions; ``term`` is the
    ip of the terminating ``jmp``/``br``/``end`` when the block ends
    with one (``end`` then equals ``term + 1``), else None when the
    block stops at a boundary or at another block's leader (``end`` is
    then the resume ip for the per-instruction loop or the fall-through
    successor's leader).
    """

    start: int
    end: int
    body_len: int
    term: Optional[int] = None

    @property
    def ninstr(self) -> int:
        """Instructions retired when the whole block executes."""
        return self.body_len + (1 if self.term is not None else 0)


def discover_blocks(pre_prog: PredecodedProgram,
                    labels: Dict[str, int]) -> Dict[int, BasicBlock]:
    """All non-empty basic blocks, keyed by leader ip."""
    instrs = pre_prog.instrs
    count = len(instrs)
    leaders = cfg.leaders([pre.instr for pre in instrs], labels)
    # cuts: after a boundary (memory / per-shred / peel) the
    # per-instruction loop resumes at the fall-through
    leaders.update(ip + 1 for ip, pre in enumerate(instrs)
                   if not fusable_body(pre))

    blocks: Dict[int, BasicBlock] = {}
    for start in sorted(leader for leader in leaders
                        if 0 <= leader < count):
        ip = start
        body_len = 0
        term = None
        while ip < count:
            pre = instrs[ip]
            if is_terminator(pre):
                term = ip
                ip += 1
                break
            if not fusable_body(pre):
                break
            ip += 1
            body_len += 1
            if ip in leaders:
                break
        if body_len or term is not None:
            blocks[start] = BasicBlock(start=start, end=ip,
                                       body_len=body_len, term=term)
    return blocks


# -- reconvergence discovery -------------------------------------------------
#
# A divergent branch splits the gang; its arms rejoin at the branch's
# *immediate post-dominator*: the nearest ip every path from the branch
# must pass through before the shred can retire.  (This subsumes
# loop-header join points: for a loop-exit branch the ipdom is the loop's
# fall-through, so the continuing arm simply laps the loop until it exits
# there.)  The gang tier uses the ipdom as the re-admission point for
# suspended sub-gangs, so the computation must be *sound*, never
# optimistic: a branch whose region it cannot prove pure just keeps the
# deferred-peel behaviour.


def _divergable(pre: PredecodedInstr) -> bool:
    """Can this instruction send different lanes down different edges?

    Only a well-formed branch has a ``target``; a guarded one may split.
    """
    return pre.target is not None and pre.instr.pred is not None


def _region_pure(branch: int, reconv: int, succs: List[Tuple[int, ...]],
                 instrs: Tuple[PredecodedInstr, ...]) -> bool:
    """Is the divergent region between ``branch`` and ``reconv`` free of
    ordered side effects?

    The region is every ip reachable from the branch's arms without
    passing through ``reconv``.  A ``BATCH_PEEL`` instruction in it
    (spawn / sendreg / flush / malformed branch) emits globally-ordered
    side effects, so a suspended sub-gang running the region could not
    preserve scalar queue order — such branches keep the deferred peel.
    ``END`` and faultable instructions are fine: a lane that retires or
    peels mid-region simply never reports to the join.
    """
    return not any(instrs[ip].batch_class == BATCH_PEEL
                   for ip in cfg.reachable(succs, succs[branch], reconv))


def annotate_reconvergence(pre_prog: PredecodedProgram,
                           labels: Dict[str, int]) -> None:
    """Attach ``reconv`` / ``repackable`` to every divergable branch.

    Called once per program from :func:`~.predecode.predecode_program`
    (gangable programs only — the scalar engine never reads these).
    A malformed branch (``BATCH_PEEL``) has no edge in
    :func:`repro.isa.cfg.instruction_successors`: paths through it reach
    the exit directly and never establish reconvergence.
    """
    if not any(_divergable(pre) for pre in pre_prog.instrs):
        return
    succs = cfg.instruction_successors(
        [pre.instr for pre in pre_prog.instrs], labels)
    pdom = cfg.post_dominators(succs)
    for ip, pre in enumerate(pre_prog.instrs):
        if not _divergable(pre):
            continue
        reconv = cfg.immediate_dominator(pdom, ip)
        pre.reconv = reconv
        pre.repackable = (reconv is not None
                          and _region_pure(ip, reconv, succs,
                                           pre_prog.instrs))
