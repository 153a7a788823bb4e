"""Program predecode cache: per-Program static decode, memoized by identity.

Interpreting one instruction costs far more in operand re-decoding than in
the arithmetic itself: every ``semantics.execute`` call re-inspects the
guard, re-resolves the branch label and re-dispatches the opcode through a
long if/elif chain.  All of that is *static* per instruction, so this
module computes it once per :class:`~repro.isa.program.Program` and caches
the result keyed by program identity:

* ``src_readers`` — bound operand read methods, so the ALU path skips the
  per-step attribute lookups;
* ``target`` — the resolved branch destination (instruction index);
* ``guarded`` / ``df_faults`` — the two per-step predicates of
  ``execute`` hoisted to decode time;
* ``handler`` — a slot the scalar interpreter fills with its opcode
  dispatch entry on first execution;
* ``batch_class`` — how the gang tier (:mod:`repro.gma.gang`) may treat
  the instruction: natively vectorized across the shred axis, executed
  per shred while the gang stays resident, or a full peel-off to the
  scalar interpreter.

Entries are evicted when the program is garbage collected (a weak
reference guards against CPython id reuse), and the global cache keeps
hit/miss counters that the runtime surfaces in ``RuntimeStats`` and the
Chrome trace.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .cfg import branch_target
from .opcodes import Opcode
from .operands import (
    BlockOperand,
    ImmOperand,
    MemOperand,
    PredOperand,
    RangeOperand,
    RegOperand,
    SymOperand,
)
from .program import Program
from .types import DataType, NUM_PREGS, NUM_VREGS, VLEN

#: How the gang tier treats one instruction.
BATCH_CONTROL = "control"      # END/NOP/FENCE/JMP/BR: handled natively
BATCH_ALU = "alu"              # one numpy op across the whole shred axis
BATCH_MEM = "batch_mem"        # lockstep batched translate + gather/scatter
BATCH_PER_SHRED = "per_shred"  # scalar semantics per shred, gang resident
BATCH_PEEL = "peel_all"        # peel every shred to the scalar interpreter

#: Opcodes that never touch the FP datapath, so ``.df`` is legal on the
#: exo-sequencers (paper section 3.3); everything else proxies via CEH.
DF_CAPABLE_OPS = {
    Opcode.MOV, Opcode.BCAST, Opcode.LD, Opcode.ST, Opcode.LDBLK,
    Opcode.STBLK, Opcode.JMP, Opcode.BR, Opcode.END, Opcode.NOP,
    Opcode.SENDREG, Opcode.SPAWN, Opcode.FLUSH, Opcode.FENCE, Opcode.SEL,
    Opcode.ILV, Opcode.IOTA,
}

_CONTROL_OPS = {Opcode.END, Opcode.NOP, Opcode.FENCE, Opcode.JMP, Opcode.BR}
_MEMORY_OPS = {Opcode.LD, Opcode.ST, Opcode.LDBLK, Opcode.STBLK,
               Opcode.SAMPLE}
#: Instructions whose *cross-shred ordering* is architecturally visible:
#: the gang abandons lockstep entirely and peels every shred, so the
#: scalar interpreter's queue-order semantics apply.
_PEEL_OPS = {Opcode.SPAWN, Opcode.SENDREG, Opcode.FLUSH}


@dataclass
class PredecodedInstr:
    """Static decode of one instruction (shared by scalar and gang)."""

    instr: object
    opcode: Opcode
    guarded: bool            # pred present and consumed as a lane mask
    df_faults: bool          # .df arithmetic: faults on exo-sequencers
    batch_class: str
    target: Optional[int] = None  # resolved branch destination
    src_readers: Tuple[Callable, ...] = ()
    handler: Optional[Callable] = None  # filled lazily by semantics
    #: For a divergable branch (``br``/guarded ``jmp``): the immediate
    #: post-dominator ip where both arms rejoin, or None when the arms
    #: never provably reconverge (e.g. a branch into a malformed region).
    reconv: Optional[int] = None
    #: True when the whole divergent region between this branch and
    #: ``reconv`` is free of ordered side effects (no ``BATCH_PEEL``
    #: instruction), so the gang tier may park the minority as a
    #: suspended sub-gang and re-admit it at ``reconv`` instead of
    #: peeling it to the scalar interpreter.
    repackable: bool = False


@dataclass
class PredecodedProgram:
    """Every instruction's predecode, plus gang eligibility."""

    instrs: Tuple[PredecodedInstr, ...]
    gangable: bool
    reason: str = ""  # why not gangable (empty when it is)


def _vector_readable(operand, n: int) -> bool:
    """Can the gang read this operand with one batched numpy expression,
    with semantics identical to ``operand.read(ctx, n)``?"""
    if isinstance(operand, RegOperand):
        return 0 <= operand.reg < NUM_VREGS and n <= VLEN
    if isinstance(operand, RangeOperand):
        if not (0 <= operand.start <= operand.stop < NUM_VREGS):
            return False
        return operand.count == n or operand.count == -(-n // VLEN)
    if isinstance(operand, (ImmOperand, SymOperand)):
        return True
    if isinstance(operand, PredOperand):
        return 0 <= operand.index < NUM_PREGS and n <= VLEN
    return False


def _vector_writable(operand, n: int) -> bool:
    if isinstance(operand, RegOperand):
        return 0 <= operand.reg < NUM_VREGS and n <= VLEN
    if isinstance(operand, RangeOperand):
        if not (0 <= operand.start <= operand.stop < NUM_VREGS):
            return False
        return operand.count == n or operand.count == -(-n // VLEN)
    return False


def _alu_batchable(instr) -> bool:
    """True when the gang can apply this ALU-class instruction to every
    active shred in one vectorized step.  Anything structurally odd (bad
    register bounds, unusual operand kinds, widths the scalar path would
    fault on) answers False so the scalar reference raises the identical
    error per shred instead."""
    op = instr.opcode
    n = instr.width
    if instr.pred is not None and not 0 <= instr.pred.index < NUM_PREGS:
        return False
    if op is Opcode.CMP:
        return (len(instr.dsts) == 1
                and isinstance(instr.dsts[0], PredOperand)
                and 0 <= instr.dsts[0].index < NUM_PREGS
                and len(instr.srcs) >= 2
                and all(_vector_readable(s, n) for s in instr.srcs[:2]))
    if op is Opcode.SEL:
        return (len(instr.srcs) == 3
                and isinstance(instr.srcs[0], PredOperand)
                and 0 <= instr.srcs[0].index < NUM_PREGS
                and all(_vector_readable(s, n) for s in instr.srcs[1:])
                and len(instr.dsts) == 1
                and _vector_writable(instr.dsts[0], n))
    if op in (Opcode.HADD, Opcode.HMAX):
        return (len(instr.srcs) == 1 and _vector_readable(instr.srcs[0], n)
                and len(instr.dsts) == 1
                and isinstance(instr.dsts[0], RegOperand)
                and 0 <= instr.dsts[0].reg < NUM_VREGS)
    if op is Opcode.ILV:
        if n % 2:
            return False  # scalar raises "ilv width must be even"
        src_n = n // 2
    else:
        src_n = n
    if not all(_vector_readable(s, src_n) for s in instr.srcs):
        return False
    return len(instr.dsts) == 1 and _vector_writable(instr.dsts[0], n)


def _mem_batchable(instr) -> bool:
    """True when the gang can run this memory instruction as one lockstep
    step: batched address computation on the shred axis, one vectorized
    translation, one gather/scatter.  Anything structurally odd answers
    False so the per-shred reference path raises the identical fault."""
    op = instr.opcode
    n = instr.width
    if instr.pred is not None and not 0 <= instr.pred.index < NUM_PREGS:
        return False
    if instr.dtype is DataType.DF and op not in DF_CAPABLE_OPS:
        # sample.df faults into CEH; the reference path must raise it
        return False
    if op is Opcode.LD:
        return (len(instr.srcs) == 1
                and isinstance(instr.srcs[0], MemOperand)
                and _vector_readable(instr.srcs[0].index, 1)
                and len(instr.dsts) == 1
                and _vector_writable(instr.dsts[0], n))
    if op is Opcode.ST:
        return (len(instr.srcs) == 2
                and isinstance(instr.srcs[0], MemOperand)
                and _vector_readable(instr.srcs[0].index, 1)
                and _vector_readable(instr.srcs[1], n))
    if op in (Opcode.LDBLK, Opcode.STBLK):
        if instr.block is None:
            return False
        w, h = instr.block
        if w * h != n:
            return False
        blk = instr.srcs[0]
        if not (isinstance(blk, BlockOperand)
                and _vector_readable(blk.x, 1)
                and _vector_readable(blk.y, 1)):
            return False
        reg_side = instr.dsts[0] if op is Opcode.LDBLK else instr.srcs[1]
        if not (op is Opcode.LDBLK and len(instr.dsts) == 1
                or op is Opcode.STBLK and len(instr.srcs) == 2):
            return False
        if isinstance(reg_side, RangeOperand):
            # read_packed/write_packed address start..start+ceil(n/16)-1
            # regardless of the declared stop
            nregs = -(-n // VLEN)
            return (0 <= reg_side.start <= reg_side.stop < NUM_VREGS
                    and reg_side.start + nregs - 1 < NUM_VREGS)
        if isinstance(reg_side, RegOperand):
            return n <= VLEN and 0 <= reg_side.reg < NUM_VREGS
        return False
    if op is Opcode.SAMPLE:
        return (len(instr.srcs) >= 1
                and isinstance(instr.srcs[0], BlockOperand)
                and _vector_readable(instr.srcs[0].x, n)
                and _vector_readable(instr.srcs[0].y, n)
                and len(instr.dsts) == 1
                and _vector_writable(instr.dsts[0], n))
    return False


def _classify(instr, target: Optional[int]) -> str:
    op = instr.opcode
    if op in _PEEL_OPS:
        return BATCH_PEEL
    if op in (Opcode.JMP, Opcode.BR):
        # a malformed branch (no target) peels; the scalar path reports it
        return BATCH_PEEL if target is None else BATCH_CONTROL
    if op in _CONTROL_OPS:
        return BATCH_CONTROL
    if op in _MEMORY_OPS:
        # surface traffic stays ganged when the whole step batches:
        # vectorized translate + one gather/scatter, with deferred line
        # charging replayed in queue order; otherwise scalar per shred
        return BATCH_MEM if _mem_batchable(instr) else BATCH_PER_SHRED
    if instr.dtype is DataType.DF and op not in DF_CAPABLE_OPS:
        # raises UnsupportedOperationFault -> CEH; scalar path per shred
        return BATCH_PER_SHRED
    if not _alu_batchable(instr):
        return BATCH_PER_SHRED
    return BATCH_ALU


def predecode_program(program: Program) -> PredecodedProgram:
    """Compute the full static decode for one program (uncached)."""
    instrs = []
    gangable = True
    reason = ""
    for instr in program.instructions:
        op = instr.opcode
        target = branch_target(instr, program.labels)
        instrs.append(PredecodedInstr(
            instr=instr,
            opcode=op,
            guarded=instr.pred is not None and op is not Opcode.BR,
            df_faults=(instr.dtype is DataType.DF
                       and op not in DF_CAPABLE_OPS),
            batch_class=_classify(instr, target),
            target=target,
            src_readers=tuple(s.read for s in instr.srcs),
        ))
        if gangable and op in _PEEL_OPS and op is not Opcode.SPAWN:
            # sendreg couples shreds (producer must complete before the
            # consumer launches); flush counts depend on shred order.
            # spawn merely peels, so it does not poison the whole program.
            gangable = False
            reason = f"{op.value} requires scalar queue-order execution"
    pre_prog = PredecodedProgram(instrs=tuple(instrs), gangable=gangable,
                                 reason=reason)
    if gangable:
        # deferred import: blocks imports this module at top level
        from .blocks import annotate_reconvergence
        annotate_reconvergence(pre_prog, program.labels)
    return pre_prog


class PredecodeCache:
    """Predecode results keyed by program identity.

    A weak reference with an eviction callback guards against CPython
    recycling object ids: a dead program's entry disappears before a new
    program can alias its id, and a same-id survivor is verified against
    the stored reference on every lookup.

    The process-wide instance is shared by every engine, including the
    executor threads a server drains its device slots on, so entry and
    counter updates are guarded by a lock.  It is an ``RLock`` because the eviction
    callback fires from garbage collection, which can trigger on an
    allocation made while this same thread already holds the lock.
    """

    def __init__(self):
        self._entries: Dict[int, tuple] = {}
        #: Compiled traces (:mod:`repro.gma.megaop`), keyed like
        #: ``_entries`` and evicted with them: traces must never outlive
        #: — or alias across id reuse — their predecode entry.
        self._traces: Dict[int, object] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, program: Program) -> PredecodedProgram:
        key = id(program)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                ref, pre = entry
                if ref() is program:
                    self.hits += 1
                    return pre
                self._entries.pop(key, None)  # stale id reuse
                self._traces.pop(key, None)
            self.misses += 1
        # decode outside the lock: it is pure and per program, so a
        # concurrent duplicate decode is cheaper than serializing all of
        # them behind one entry's work
        pre = predecode_program(program)

        def _evict(_ref, cache=self, key=key):
            with cache._lock:
                cache._traces.pop(key, None)
                if cache._entries.pop(key, None) is not None:
                    cache.evictions += 1

        with self._lock:
            self._entries[key] = (weakref.ref(program, _evict), pre)
        return pre

    def lookup_traces(self, program: Program):
        """The compiled traces stored for this program, or None."""
        key = id(program)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0]() is program:
                return self._traces.get(key)
        return None

    def store_traces(self, program: Program, traces) -> None:
        """Attach compiled traces alongside the predecode entry.

        Stored only while the program's predecode entry is live and
        verified — the weakref eviction and stale-id checks then cover
        both, so traces can never leak across id reuse.
        """
        key = id(program)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0]() is program:
                self._traces[key] = traces

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        """A snapshot of the cache's health counters."""
        with self._lock:
            fused_blocks = sum(len(t.blocks) for t in self._traces.values())
            megaops = sum(len(t.cycles) for t in self._traces.values())
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "fused_blocks": fused_blocks,
                "megaops": megaops,
            }


#: The process-wide cache used by both the scalar and megaop engines.
CACHE = PredecodeCache()


def lookup(program: Program) -> PredecodedProgram:
    return CACHE.lookup(program)
