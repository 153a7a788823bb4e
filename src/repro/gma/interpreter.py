"""Functional interpreter for one shred, with ATR and CEH integration.

Each executed instruction contributes a ``(issue, latency)`` pair to the
shred's *trace*; the EU timing model (:mod:`repro.gma.eu`) later replays
traces under switch-on-stall multithreading.  Architectural events are
handled the EXO way:

* :class:`~repro.errors.TlbMiss` — suspend, ATR proxy round trip on the
  IA32 sequencer, retry the same instruction;
* :class:`~repro.errors.ExecutionFault` — suspend, CEH round trip, the
  IA32 handler emulates the instruction, resume after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import ExecutionFault, TlbMiss
from ..exo.exoskeleton import Exoskeleton
from ..exo.shred import ShredDescriptor, ShredState
from ..isa import cfg, semantics
from ..isa.opcodes import OpKind
from ..isa.types import VLEN
from .context import ShredContext
from .timing import GmaTimingConfig

#: Runaway-loop backstop shared by the scalar and megaop engines.
MAX_INSTRUCTIONS = 2_000_000


@dataclass
class ShredRun:
    """The record of one shred's complete functional execution."""

    shred: ShredDescriptor
    trace: List[Tuple[int, int]] = field(default_factory=list)
    #: Per-trace-entry :class:`~repro.isa.cfg.Effects` under a
    #: scoreboard, else None (always None for proxy penalties).
    #: Consumed by the scoreboard post-pass.
    trace_effects: List = field(default_factory=list)
    instructions: int = 0
    issue_cycles: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    sampler_samples: int = 0
    atr_events: int = 0
    ceh_events: int = 0
    spawned: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written


def trace_entry(instr) -> Tuple[int, int]:
    """The (issue, latency) trace entry one retired instruction adds.

    Static per instruction, so the trace compiler
    (:mod:`repro.gma.megaop`) precomputes whole traces of entries at
    compile time with the exact formulas the scalar path charges.
    """
    info = instr.info
    lanes_factor = max(1, -(-instr.width // VLEN))
    if info.kind is OpKind.MEMORY:
        # fixed setup plus one cycle per 16-element beat of transfer
        return info.issue + lanes_factor, info.latency
    if info.kind is OpKind.SAMPLER:
        return info.issue + lanes_factor, info.latency
    # the 16-lane datapath retires 16 elements per issue cycle
    return info.issue * lanes_factor, info.latency


def account_instruction(rec: ShredRun, instr, effect,
                        config: GmaTimingConfig) -> None:
    """Append one retired instruction to a run record.

    Shared by the scalar interpreter and the gang tier so the
    (issue, latency) trace and every counter accrue identically no matter
    which engine retired the instruction.
    """
    rec.instructions += 1
    issue, latency = trace_entry(instr)
    rec.trace.append((issue, latency))
    rec.trace_effects.append(cfg.effects(instr) if config.scoreboard
                             else None)
    rec.issue_cycles += issue
    rec.bytes_read += effect.bytes_read
    rec.bytes_written += effect.bytes_written
    if effect.used_sampler:
        rec.sampler_samples += instr.width
    rec.spawned += len(effect.spawned)


def finish_run(rec: ShredRun, config: GmaTimingConfig) -> None:
    """Apply end-of-run trace post-passes (the scoreboard rewrite)."""
    if config.scoreboard:
        rec.trace = _scoreboard_trace(rec.trace, rec.trace_effects)


class ShredInterpreter:
    """Drives one shred from entry to ``end``.

    ``entry_ip``/``run_record`` let the gang tier hand a diverged shred
    back to this reference interpreter mid-flight: execution resumes at
    the peel point and keeps accruing into the gang-started record.
    """

    def __init__(self, shred: ShredDescriptor, ctx: ShredContext,
                 exoskeleton: Exoskeleton, config: GmaTimingConfig,
                 max_instructions: int = MAX_INSTRUCTIONS,
                 entry_ip: Optional[int] = None,
                 run_record: Optional[ShredRun] = None):
        self.shred = shred
        self.ctx = ctx
        self.exoskeleton = exoskeleton
        self.config = config
        self.max_instructions = max_instructions
        self.ip = shred.entry if entry_ip is None else entry_ip
        self.run_record = run_record if run_record is not None \
            else ShredRun(shred=shred)
        self.finished = False

    @property
    def program(self):
        return self.shred.program

    def step(self) -> bool:
        """Execute one instruction (with any proxy round trips it needs).

        Returns True while the shred is still running.
        """
        if self.finished:
            return False
        program = self.program
        if self.ip >= len(program.instructions):
            self._finish()
            return False
        if self.run_record.instructions >= self.max_instructions:
            raise ExecutionFault(
                f"shred {self.shred.shred_id} exceeded "
                f"{self.max_instructions} instructions (runaway loop?)")

        instr = program.instructions[self.ip]
        effect = None
        while effect is None:
            try:
                effect = semantics.execute(program, self.ip, self.ctx)
            except TlbMiss as miss:
                self.shred.state = ShredState.SUSPENDED
                if len(miss.vaddrs) > 1:
                    # a multi-page access: coalesce every missing page
                    # into one batched proxy round trip (one penalty)
                    self.exoskeleton.request_atr_batch(
                        self.ctx.view, miss.vaddrs, write=True,
                        source=self.ctx.name)
                else:
                    self.exoskeleton.request_atr(
                        self.ctx.view, miss.vaddr, write=True,
                        source=self.ctx.name)
                self.run_record.atr_events += 1
                self.run_record.trace.append((self.config.atr_penalty_cycles, 0))
                self.run_record.trace_effects.append(None)
                self.shred.state = ShredState.RUNNING
            except ExecutionFault as fault:
                self.shred.state = ShredState.SUSPENDED
                effect = self.exoskeleton.request_ceh(
                    program, self.ip, self.ctx, fault, source=self.ctx.name)
                self.run_record.ceh_events += 1
                self.run_record.trace.append((self.config.ceh_penalty_cycles, 0))
                self.run_record.trace_effects.append(None)
                self.shred.state = ShredState.RUNNING

        self._account(instr, effect)
        if effect.ended:
            self._finish()
            return False
        self.ip = effect.next_ip if effect.next_ip is not None else self.ip + 1
        if self.ip >= len(program.instructions):
            self._finish()
            return False
        return True

    def run(self) -> ShredRun:
        """Run the shred to completion."""
        self.shred.state = ShredState.RUNNING
        while self.step():
            pass
        return self.run_record

    # -- internal ---------------------------------------------------------------

    def _account(self, instr, effect) -> None:
        account_instruction(self.run_record, instr, effect, self.config)

    def _finish(self) -> None:
        self.finished = True
        self.shred.state = ShredState.DONE
        finish_run(self.run_record, self.config)


# -- scoreboard post-pass ----------------------------------------------------

def _scoreboard_trace(trace, trace_effects):
    """Rewrite per-entry latencies so only true dependences stall.

    Entry i's latency becomes the wait instruction i+1 would incur for its
    operands under an operand scoreboard: max over its uses of the
    producing result's remaining latency at that point.
    """
    ready: dict = {}
    clock = 0
    waits = [0] * (len(trace) + 1)
    for i, ((issue, latency), eff) in enumerate(zip(trace, trace_effects)):
        if eff is not None:
            wait = 0
            for key in eff.sb_uses:
                t = ready.get(key)
                if t is not None and t > clock:
                    wait = max(wait, t - clock)
            waits[i] = wait
            clock += wait + issue
            for key in eff.sb_defs:
                ready[key] = clock + latency
        else:
            clock += issue
    # attach each instruction's *successor* wait as its not-ready window
    out = []
    for i, (issue, _latency) in enumerate(trace):
        out.append((issue, waits[i + 1] if i + 1 < len(trace) else 0))
    # waits[i] stalls *before* instruction i; re-attach the first wait to a
    # synthetic leading bubble when present
    if waits[0]:
        out.insert(0, (waits[0], 0))
    return out
