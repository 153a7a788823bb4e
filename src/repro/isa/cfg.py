"""Control-flow, dataflow and effects analyses over assembled programs.

The ISA layer's one definition of what a block, an edge and a register
use are: the list scheduler, the schedule transforms and their tuner,
block discovery, reconvergence discovery and the scoreboard all ask
this module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (FrozenSet, Iterable, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from .instructions import Instruction, Predication
from .opcodes import Opcode
from .operands import (
    BlockOperand,
    LabelOperand,
    MemOperand,
    Operand,
    PredOperand,
    RangeOperand,
    RegOperand,
    ShredRegOperand,
)
from .program import Program
from .types import NUM_PREGS

#: Control ops that end a basic block.
TERMINATORS = frozenset({Opcode.JMP, Opcode.BR, Opcode.END})
#: Instructions nothing may move across (scheduling barriers).
_BARRIERS = frozenset({Opcode.SENDREG, Opcode.SPAWN, Opcode.FLUSH,
                      Opcode.FENCE})
_STORES = (Opcode.ST, Opcode.STBLK)
#: One shared empty set: most footprints leave most fields empty.
_NONE: FrozenSet = frozenset()


@dataclass(frozen=True, slots=True)
class Effects:
    """Register, predicate and surface footprint of one instruction.

    A guarded write merges with the old destination contents, so its
    destinations count as uses too (and a guarded store's surface as
    read).  ``sb_uses``/``sb_defs`` are the operand scoreboard's keys:
    registers as themselves, predicate ``p`` as ``~p``.
    """

    reg_uses: FrozenSet[int]
    reg_defs: FrozenSet[int]
    pred_uses: FrozenSet[int]
    pred_defs: FrozenSet[int]
    mem_reads: FrozenSet[str]
    mem_writes: FrozenSet[str]
    barrier: bool
    sb_uses: FrozenSet[int]
    sb_defs: FrozenSet[int]


def operand_regs(op: Operand) -> Tuple[int, ...]:
    """Vector registers an operand reads or names, ranges in packing
    order; address operands count through their index/coordinates."""
    if isinstance(op, RegOperand):
        return (op.reg,)
    if isinstance(op, RangeOperand):
        return tuple(range(op.start, op.stop + 1))
    if isinstance(op, MemOperand):
        return operand_regs(op.index)
    if isinstance(op, BlockOperand):
        return operand_regs(op.x) + operand_regs(op.y)
    if isinstance(op, ShredRegOperand):
        return operand_regs(op.target)
    return ()


def effects(instr: Instruction) -> Effects:
    """The footprint of ``instr``, cached by instruction *value*.

    The cache keys on what the record depends on (opcode, operands,
    guard), so copies differing only in source line share one entry.
    """
    return _effects(instr.opcode, instr.dsts, instr.srcs, instr.pred)


@functools.lru_cache(maxsize=None)
def _effects(opcode: Opcode, dsts: Tuple[Operand, ...],
             srcs: Tuple[Operand, ...],
             pred: Optional[Predication]) -> Effects:
    reg_uses: Set[int] = set()
    reg_defs: Set[int] = set()
    pred_uses: Set[int] = set()
    pred_defs: Set[int] = set()
    reads: Set[str] = set()
    writes: Set[str] = set()
    for op in srcs:
        reg_uses.update(operand_regs(op))
        if isinstance(op, PredOperand):
            pred_uses.add(op.index)
        elif isinstance(op, (MemOperand, BlockOperand)):
            reads.add(op.surface)
    for op in dsts:
        if isinstance(op, PredOperand):
            pred_defs.add(op.index)
        else:
            reg_defs.update(operand_regs(op))
    if opcode in _STORES:
        # a store's leading "source" is really its destination
        surface = getattr(srcs[0], "surface", None)
        if surface is not None:
            reads.discard(surface)
            writes.add(surface)
    if pred is not None:
        pred_uses.add(pred.index)
        reg_uses |= reg_defs
        if opcode in _STORES:
            reads |= writes
    uses = frozenset(reg_uses) or _NONE
    defs = frozenset(reg_defs) or _NONE
    return Effects(
        reg_uses=uses, reg_defs=defs,
        pred_uses=frozenset(pred_uses) or _NONE,
        pred_defs=frozenset(pred_defs) or _NONE,
        mem_reads=frozenset(reads) or _NONE,
        mem_writes=frozenset(writes) or _NONE,
        barrier=opcode in _BARRIERS,
        sb_uses=uses | {~p for p in pred_uses} if pred_uses else uses,
        sb_defs=defs | {~p for p in pred_defs} if pred_defs else defs)


def leaders(instructions: Sequence[Instruction],
            labels: Mapping[str, int]) -> Set[int]:
    """Block entry ips: 0, every label (so every branch target) and the
    ip after every jmp/br/end; may hold ``len(instructions)``."""
    out = {0, *labels.values()}
    out.update(ip + 1 for ip, instr in enumerate(instructions)
               if instr.opcode in TERMINATORS)
    return out


def block_ranges(program: Program) -> List[Tuple[int, int]]:
    """Half-open ``[start, stop)`` ranges of the basic blocks, in order."""
    count = len(program.instructions)
    marks = sorted(m for m in leaders(program.instructions, program.labels)
                   | {count} if m <= count)
    return list(zip(marks, marks[1:]))


def branch_target(instr: Instruction,
                  labels: Mapping[str, int]) -> Optional[int]:
    """The destination ip of a well-formed ``jmp``/``br``, else None.

    Well-formed: a ``br`` carries its guard, a guard names a real
    predicate, and the last source is a defined label.  A malformed
    branch faults when it executes, so it has no edge.
    """
    op = instr.opcode
    if op is not Opcode.JMP and op is not Opcode.BR:
        return None
    if instr.pred is None:
        if op is Opcode.BR:
            return None
    elif not 0 <= instr.pred.index < NUM_PREGS:
        return None
    target = instr.srcs[-1] if instr.srcs else None
    if not isinstance(target, LabelOperand):
        return None
    return labels.get(target.name)


def instruction_successors(instructions: Sequence[Instruction],
                           labels: Mapping[str, int]
                           ) -> List[Tuple[int, ...]]:
    """Successor ips of every instruction; ``len(instructions)`` is the
    exit, reached by ``end``, by a malformed branch, by running off the
    end and by a branch to a trailing label."""
    count = len(instructions)
    out: List[Tuple[int, ...]] = []
    for ip, instr in enumerate(instructions):
        target = branch_target(instr, labels)
        if target is not None:
            out.append((target,) if instr.pred is None else (target, ip + 1))
        elif instr.opcode in TERMINATORS:  # end, or a malformed branch
            out.append((count,))
        else:
            out.append((ip + 1,))
    return out


def block_successors(program: Program, ranges: Sequence[Tuple[int, int]]
                     ) -> List[Tuple[int, ...]]:
    """Successor block indices per block of ``ranges`` (no exit edges)."""
    succs = instruction_successors(program.instructions, program.labels)
    start = {a: bi for bi, (a, _) in enumerate(ranges)}
    return [tuple(start[s] for s in succs[b - 1] if s in start)
            for _, b in ranges]


def back_edges(program: Program) -> List[Tuple[int, int]]:
    """``(branch ip, target ip)`` of every branch to itself or above."""
    return [(ip, target) for ip, instr in enumerate(program.instructions)
            if (target := branch_target(instr, program.labels)) is not None
            and target <= ip]


def reverse_graph(succs: Sequence[Sequence[int]]) -> List[List[int]]:
    """The graph with every edge turned around."""
    preds: List[List[int]] = [[] for _ in succs]
    for node, out in enumerate(succs):
        for s in out:
            preds[s].append(node)
    return preds


def dominators(preds: Sequence[Sequence[int]], roots: Iterable[int],
               order: Optional[Iterable[int]] = None) -> List[int]:
    """Dominator sets as int bitsets of the graph with predecessor lists
    ``preds``: bit ``d`` of entry ``n`` is set when every path from a
    root to ``n`` passes ``d``.

    Iterative dataflow down from the full set, ``dom(n) = {n} |
    intersection(dom(p) for p in preds(n))``; ``order`` (default: by
    index) only sets how fast it settles.  A node no root reaches keeps
    the full set: every node dominates it vacuously.
    """
    roots = set(roots)
    count = len(preds)
    full = (1 << count) - 1
    dom = [1 << n if n in roots else full for n in range(count)]
    visit = [n for n in (range(count) if order is None else order)
             if n not in roots]
    changed = True
    while changed:
        changed = False
        for n in visit:
            new = full
            for p in preds[n]:
                new &= dom[p]
            new |= 1 << n
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


def immediate_dominator(dom: Sequence[int], node: int) -> Optional[int]:
    """The immediate dominator of ``node`` in :func:`dominators` bitsets
    (post-dominators alike), or None.

    The strict dominators of a node form a chain; the immediate one ``r``
    is the unique member with ``dom(node) == dom(r) | {node}``.  Demanding
    that witness filters out the full sets of nodes no root reaches.
    """
    want = dom[node]
    rest = want & ~(1 << node)
    while rest:
        r = (rest & -rest).bit_length() - 1
        if dom[r] | (1 << node) == want:
            return r
        rest &= rest - 1
    return None


def reachable(succs: Sequence[Sequence[int]], starts: Iterable[int],
              avoid: int) -> Set[int]:
    """Nodes reachable from ``starts`` without passing ``avoid``; the
    exit node ``len(succs)`` is left out."""
    seen: Set[int] = set()
    stack = [s for s in starts if s != avoid]
    while stack:
        node = stack.pop()
        if node in seen or node == len(succs):
            continue
        seen.add(node)
        stack.extend(s for s in succs[node] if s != avoid and s not in seen)
    return seen


def post_dominators(succs: Sequence[Sequence[int]]) -> List[int]:
    """Post-dominator bitsets of an :func:`instruction_successors` graph:
    :func:`dominators` of the reversed graph (whose predecessors are the
    successors) from the exit node, whose own bit is masked off.  Nodes
    that never exit keep the full set."""
    count = len(succs)
    pdom = dominators(list(succs) + [()], (count,),
                      order=range(count - 1, -1, -1))
    return [p & ((1 << count) - 1) for p in pdom[:count]]


def live_registers(program: Program) -> List[FrozenSet[int]]:
    """Live-out register set at every instruction: backward dataflow over
    the block graph.  A guarded definition may not happen, so it does not
    kill: the register stays live above it."""
    ranges = block_ranges(program)
    succs = block_successors(program, ranges)
    effs = [effects(instr) for instr in program.instructions]
    kills = [eff.reg_defs if instr.pred is None else _NONE
             for instr, eff in zip(program.instructions, effs)]

    def live_above(ip: int, live: FrozenSet[int]) -> FrozenSet[int]:
        return effs[ip].reg_uses | (live - kills[ip])

    gen, kill = [], []
    for a, b in ranges:
        g = k = _NONE
        for ip in range(b - 1, a - 1, -1):
            g, k = live_above(ip, g), k | kills[ip]
        gen.append(g)
        kill.append(k)
    live_in = [_NONE] * len(ranges)
    live_out = [_NONE] * len(ranges)
    changed = True
    while changed:
        changed = False
        for bi in range(len(ranges) - 1, -1, -1):
            out = _NONE.union(*(live_in[s] for s in succs[bi]))
            inn = gen[bi] | (out - kill[bi])
            if out != live_out[bi] or inn != live_in[bi]:
                live_out[bi], live_in[bi] = out, inn
                changed = True
    result = [_NONE] * len(program.instructions)
    for (a, b), live in zip(ranges, live_out):
        for ip in range(b - 1, a - 1, -1):
            result[ip] = live
            live = live_above(ip, live)
    return result
