"""Superblock trace fusion: the megaop engine's middle tier.

The gang loop (:mod:`repro.gma.gang`) batches *lanes* per instruction
but still pays one Python dispatch round — batch-class switch,
guard-mask build, one ``account_instruction`` call per shred — for
every instruction.  On ALU-bound kernels that dispatch is the dominant
host cost.  This module amortizes it over whole straight-line regions:

* :func:`repro.isa.blocks.discover_blocks` finds the basic blocks once
  per program;
* :func:`get_fused` compiles each block once into a
  :class:`CompiledBlock` — the body's batched ALU steps back-to-back,
  the exact ``(issue, latency)`` trace entries and scoreboard effects
  precomputed at compile time (via the shared
  :func:`~repro.gma.interpreter.trace_entry` formulas), and the block's
  total issue-cycle charge pre-summed, so a fully retired block costs
  one ``list.extend`` per shred instead of ``ninstr`` accounting calls;
* :func:`run_fused` executes blocks, and *chains* through a terminating
  branch whenever it resolves identically across all active lanes (the
  common case for counted loops), memoizing the hot (block → successor)
  edge so a tight loop never re-probes the block table.

Compiled blocks live in the id-keyed
:class:`~repro.isa.predecode.PredecodeCache` alongside the predecode
entry and are evicted with it, so fused blocks never leak across CPython
id reuse.

**Determinism.**  Fusion never introduces a new fast path: the body
steps *are* the gang's ``_apply_alu_batched`` applied in program order,
and the per-block charge is the concatenation of exactly the per-
instruction charges (ALU and control effects move no bytes and touch no
sampler, so only ``trace`` / ``trace_effects`` / ``instructions`` /
``issue_cycles`` accrue — all order-insensitive appends).  Anything the
block cannot retire bit-identically — a batch-level ALU fault, a
divergent branch, a runaway-count boundary — charges only the
instructions already retired and returns control to the per-instruction
loop at the precise ip, where the existing deferred-peel machinery takes
over unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionFault
from ..isa import cfg, predecode
from ..isa.blocks import BasicBlock, discover_blocks
from ..isa.opcodes import Opcode
from ..isa.program import Program
from .gang import _apply_alu_batched, branch_taken, split_divergence
from .interpreter import (
    MAX_INSTRUCTIONS,
    ShredRun,
    trace_entry,
)

#: Lazy successor-edge memo sentinel (None is a valid resolution).
_UNRESOLVED = object()


class CompiledBlock:
    """One basic block, compiled for back-to-back batched execution."""

    __slots__ = ("start", "end", "body_len", "ninstr", "steps", "term",
                 "term_ip", "target", "trace_entries", "effects", "nones",
                 "issue_total", "chain_taken", "chain_fall")

    def __init__(self, block: BasicBlock, pre_prog):
        self.start = block.start
        self.end = block.end
        self.body_len = block.body_len
        self.ninstr = block.ninstr
        #: Per body instruction: the predecoded ALU step, or None for
        #: the no-datapath controls (nop/fence).
        steps: List[Optional[object]] = []
        entries: List[Tuple[int, int]] = []
        effects: List[cfg.Effects] = []
        for ip in range(block.start, block.start + block.body_len):
            pre = pre_prog.instrs[ip]
            steps.append(pre if pre.batch_class == predecode.BATCH_ALU
                         else None)
            entries.append(trace_entry(pre.instr))
            effects.append(cfg.effects(pre.instr))
        if block.term is not None:
            term = pre_prog.instrs[block.term]
            entries.append(trace_entry(term.instr))
            effects.append(cfg.effects(term.instr))
        else:
            term = None
        self.steps = tuple(steps)
        self.term = term
        self.term_ip = block.term
        self.target = term.target if term is not None else None
        self.trace_entries = tuple(entries)
        self.effects = tuple(effects)
        self.nones = (None,) * len(entries)
        self.issue_total = sum(issue for issue, _latency in entries)
        self.chain_taken = _UNRESOLVED
        self.chain_fall = _UNRESOLVED


class FusedProgram:
    """Every compiled block of one program, keyed by leader ip."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Dict[int, CompiledBlock]):
        self.blocks = blocks


def get_fused(program: Program, pre_prog) -> Tuple[FusedProgram, int]:
    """The compiled blocks for ``program``, building them on first use.

    Returns ``(fused, newly_compiled)`` where ``newly_compiled`` counts
    blocks compiled by *this* call (0 on a cache hit) for the
    ``fusion_compiles`` counter.
    """
    fused = predecode.CACHE.lookup_fused(program)
    if fused is not None:
        return fused, 0
    blocks = discover_blocks(pre_prog, program.labels)
    compiled = {start: CompiledBlock(block, pre_prog)
                for start, block in blocks.items()}
    fused = FusedProgram(compiled)
    predecode.CACHE.store_fused(program, fused)
    return fused, len(compiled)


def _charge(block: CompiledBlock, upto: int, active: Sequence[int],
            recs: Sequence[ShredRun], config, outcome) -> None:
    """Charge ``upto`` retired instructions of this block to every
    active shred, in one extend per record.

    The entries are precomputed with the exact scalar formulas and
    concatenated in program order, so the resulting ``trace`` /
    ``trace_effects`` / ``instructions`` / ``issue_cycles`` are
    bit-identical to ``upto`` sequential ``account_instruction`` calls
    (ALU and control effects carry no bytes, sampler or spawn deltas).
    """
    if upto == 0:
        return
    if upto == block.ninstr:
        entries = block.trace_entries
        issue = block.issue_total
        effects = block.effects if config.scoreboard else block.nones
    else:
        entries = block.trace_entries[:upto]
        issue = sum(e[0] for e in entries)
        effects = (block.effects[:upto] if config.scoreboard
                   else block.nones[:upto])
    for i in active:
        rec = recs[i]
        rec.trace.extend(entries)
        rec.trace_effects.extend(effects)
        rec.instructions += upto
        rec.issue_cycles += issue
    outcome.gang_lanes_retired += upto * len(active)


def run_fused(fused: FusedProgram, ip: int, active: List[int],
              V: np.ndarray, P: np.ndarray, ctxs, recs, config, outcome,
              finish_one, symcache: dict, recorder, rows: np.ndarray,
              diverge, stop_ip: Optional[int]):
    """Retire as many fused blocks as possible starting at ``ip``.

    Returns ``(next_ip, active)`` after making progress — the per-
    instruction loop resumes there (possibly with the gang already
    drained, ``active == []``) — or None when *zero* instructions were
    retired, so the caller's per-instruction path handles ``ip`` and
    forward progress is guaranteed.

    ``recorder`` (a :class:`repro.gma.megaop.TraceRecorder`) observes
    every uniformly resolved block exit — the megaop tier's promotion
    profile — and is reset by anything that breaks the trace.

    ``rows`` are the active lanes' rows of ``V``/``P`` (pack-relative
    when those are a dense sub-gang pack); ``diverge`` routes a
    divergent branch's losing side (park-or-peel); ``stop_ip`` is the
    innermost pending reconvergence join, or None — chaining never
    enters it, so the gang suspends there precisely.
    """
    progressed = False
    block = fused.blocks.get(ip)
    # re-admitted gangs need not hold uniform counts: budget from the
    # most advanced record so no lane retires past the runaway cap
    max_budget = MAX_INSTRUCTIONS - max(recs[i].instructions
                                        for i in active) if active else 0
    while True:
        if block is None:
            return (ip, active) if progressed else None
        # the per-instruction loop checks the runaway cap before every
        # instruction; a block of k only runs when all k checks pass
        if block.ninstr > max_budget:
            return (ip, active) if progressed else None
        max_budget -= block.ninstr

        failed_at = -1
        for j, step in enumerate(block.steps):
            if step is None:
                continue
            ok = False
            try:
                ok = _apply_alu_batched(step, rows, V, P, ctxs,
                                        active, symcache)
            except ExecutionFault:
                ok = False
            if not ok:
                failed_at = j
                break
        if failed_at >= 0:
            # steps 0..failed_at-1 committed exactly as the per-
            # instruction loop would have; the failing step wrote
            # nothing, so the loop re-runs it (and its per-shred
            # fallback) at the precise ip
            _charge(block, failed_at, active, recs, config, outcome)
            recorder.reset()
            resume = block.start + failed_at
            if failed_at == 0 and not progressed:
                return None
            return (resume, active)

        term = block.term
        if term is None:
            # boundary block: charge the body, fall through.  block.end
            # is either another leader (chain on) or a non-fusable ip
            # the per-instruction loop owns (next probe misses).
            _charge(block, block.body_len, active, recs, config, outcome)
            outcome.fused_blocks_retired += 1
            progressed = True
            recorder.note(block.start, "x")
            ip = block.end
            if ip == stop_ip:  # pending reconvergence join: suspend
                return (ip, active)
            if recorder.promoted(ip):
                return (ip, active)
            succ = block.chain_fall
            if succ is _UNRESOLVED:
                succ = fused.blocks.get(ip)
                block.chain_fall = succ
            block = succ
            continue

        op = term.opcode
        if op is Opcode.END:
            _charge(block, block.ninstr, active, recs, config, outcome)
            outcome.fused_blocks_retired += 1
            recorder.reset()
            for i in active:
                finish_one(i)
            return (block.end, [])

        # JMP / BR with a predecoded target
        taken = branch_taken(term.instr, P, rows)
        # the branch's trace entry is direction independent: charge it
        # (with the body) for every active shred before any split
        _charge(block, block.ninstr, active, recs, config, outcome)
        outcome.fused_blocks_retired += 1
        progressed = True
        if taken.all():
            outcome.trace_chains += 1
            recorder.note(block.start, "t")
            ip = term.target
            if ip == stop_ip:  # pending reconvergence join: suspend
                return (ip, active)
            if recorder.promoted(ip):
                return (ip, active)
            succ = block.chain_taken
            if succ is _UNRESOLVED:
                succ = fused.blocks.get(ip)
                block.chain_taken = succ
            block = succ
            continue
        if not taken.any():
            outcome.trace_chains += 1
            recorder.note(block.start, "f")
            ip = block.end
            if ip == stop_ip:  # pending reconvergence join: suspend
                return (ip, active)
            if recorder.promoted(ip):
                return (ip, active)
            succ = block.chain_fall
            if succ is _UNRESOLVED:
                succ = fused.blocks.get(ip)
                block.chain_fall = succ
            block = succ
            continue

        # divergence: exactly the per-instruction loop's split
        recorder.reset()
        return split_divergence(taken, active, block.term_ip, term.target,
                                block.end, diverge)
