"""Gang-vectorized SIMT execution of one homogeneous shred batch.

When every queued shred runs the same :class:`~repro.isa.program.Program`
(the common kernel-launch case), the gang engine executes them in
lockstep: one numpy register file with a leading *shred axis* —
``V[shred, vreg, lane]`` / ``P[shred, preg, lane]`` — so each decoded
instruction applies to all active shreds in a single vectorized
operation instead of N scalar trips through ``semantics.execute``.

The scalar interpreter remains the reference semantics.  Anything the
gang cannot prove it can batch exactly is *peeled*: the affected shreds
leave the gang at the divergence point and are handed to
:class:`~repro.gma.interpreter.ShredInterpreter`, resuming on the same
register state (their lane views) and the same
:class:`~repro.gma.interpreter.ShredRun` record.  Peel triggers, per the
predecode ``batch_class``:

* **control** — END/NOP/FENCE and *uniform* branches stay ganged; a
  divergent branch keeps the majority side ganged and routes the rest
  through *divergence repacking* (see below) when the divergent region
  is provably pure, else peels them;
* **batch_mem** — loads, stores and sampler reads stay ganged: lane
  addresses are computed on the batched register file, translated in one
  vectorized call and moved with one numpy gather/scatter; any
  irregularity (a lane whose page misses, a non-uniform surface binding,
  out-of-range indices) abandons the batched attempt *before any state
  changes* and re-runs the instruction through the per-shred reference
  step below;
* **per_shred** — non-batchable memory shapes and sampler traffic
  execute through the scalar ``semantics.execute`` per shred while the
  gang stays resident; a ``TlbMiss`` peels the missing shred *and
  everything behind it in queue order*, and a CEH fault peels just the
  faulting shred;
* **alu** — one batched numpy step; a batch-level fault (divide-by-zero,
  float overflow, unresolvable symbol) re-runs the step per shred, which
  reproduces the architectural per-shred fault;
* **peel_all** — SPAWN peels every resident shred at the spawn point.

Divergence is a transient, not a death sentence.  Every divergable
branch carries its immediate post-dominator from predecode
(``PredecodedInstr.reconv``) plus a static purity bit
(``repackable``): when the region between the branch and the join
contains no ordered side effect (no ``peel_all`` instruction), the
losing side *parks* as a suspended sub-gang instead of peeling.  The
surviving majority compacts into a dense register-file pack (no holes:
batched steps stay full width) and runs to the join, where it suspends;
each parked sub-gang then runs its arm in lockstep the same way; when
the last one reports, all arrivals merge their register state back into
the lane slots and continue as one re-formed gang — *re-admission*
(counted by ``gang_repacks`` / ``lanes_readmitted``).  Ordering stays
scalar-identical because nothing order-dependent ever executes while
ganged (the lemma below): a suspended lane that *would* emit an ordered
side effect — SPAWN, an ATR service, a CEH proxy — still peels exactly
as before, either statically (the region is not ``repackable``) or
dynamically (the sub-gang's own peel rules fire mid-arm).

Peels are **deferred**: a peeled shred does not run at the peel point —
it is queued with its resume ip and executed to completion only after
the gang has fully drained, in shred queue order.  This is what keeps
globally-ordered side effects scalar-identical: nothing order-dependent
ever executes *while ganged* (an ATR miss peels before it is serviced, a
CEH-bound fault peels before the proxy round trip, SPAWN peels before
any child is enqueued), so every ATR service, CEH proxy and child
shred-id assignment happens in the deferred phase, in exactly the order
the scalar engine would produce.  The deferral is also self-correcting
for translation state: the device GTT only grows during a run, so an
access that succeeded in lockstep would also have hit in scalar order,
and a peeled shred that missed in lockstep re-executes its faulting
instruction against exactly the translations its queue predecessors
installed.

Accounting is bit-identical to scalar execution for race-free launches:
retired instructions go through the shared
:func:`~repro.gma.interpreter.account_instruction`, and the device
cache's order-dependent first-touch line charging is likewise deferred —
every committed lockstep memory step logs one gang-wide span record,
per-shred steps log their spans on the shred, and after the gang drains
each line is charged to the lowest-queue shred that touched it, exactly
as the scalar engine's queue-order execution would have charged it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionFault, TlbMiss
from ..exo.shred import ShredDescriptor, ShredState
from ..isa import predecode, semantics
from ..isa.instructions import Effect
from ..isa.opcodes import Opcode
from ..isa.operands import (
    ImmOperand,
    PredOperand,
    RangeOperand,
    RegOperand,
    SymOperand,
)
from ..isa.registers import RegisterFile
from ..isa.types import DataType, NUM_PREGS, NUM_VREGS, VLEN
from ..memory.physical import PAGE_SHIFT
from ..memory.surface import TileMode
from .context import ShredContext
from .counters import EngineCounters
from .interpreter import (
    MAX_INSTRUCTIONS,
    ShredInterpreter,
    ShredRun,
    account_instruction,
    finish_run,
)


class GangLaneRegs(RegisterFile):
    """A RegisterFile whose storage is one shred's slice of the gang state.

    The batched engine reads and writes ``V``/``P`` directly; peeled
    shreds keep operating on the same memory through these views, so no
    state is copied at the divergence point.
    """

    def __init__(self, v_lane: np.ndarray, p_lane: np.ndarray):
        # bypass RegisterFile.__init__: storage is a view, not an alloc
        self.num_vregs = v_lane.shape[0]
        self.vlen = v_lane.shape[1]
        self._v = v_lane
        self._p = p_lane


class GangShredContext(ShredContext):
    """ShredContext that defers device-cache line charging.

    First-touch 64-byte-line charging is order dependent across shreds;
    under lockstep the interleaving differs from the scalar engine's
    queue-order execution.  Device-side spans of per-shred steps
    (reference steps and deferred peels) are therefore logged here and
    charged after the drain by :func:`_replay_charges`, together with
    the gang-wide records of lockstep memory steps.  Proxy (CEH)
    accesses charge raw bytes immediately — they are order
    independent — exactly as the base class does.
    """

    def __init__(self, shred: ShredDescriptor, view, space, device):
        self.charge_log: List[Tuple[int, int, bool]] = []
        super().__init__(shred, view, space, device=device)

    def _charge_span(self, lo: int, nbytes: int, write: bool) -> None:
        if self.device is None or self.proxy_mode:
            super()._charge_span(lo, nbytes, write)
        else:
            self.charge_log.append((lo, nbytes, write))


@dataclass(kw_only=True)
class GangOutcome(EngineCounters):
    """What one gang drain produced, in shred queue order.

    ``scalar_fallbacks`` counts shreds peeled to the scalar interpreter;
    the predecode counters stay 0 (the firmware takes them per run).
    """

    runs: List[ShredRun] = field(default_factory=list)
    #: Device spans of committed lockstep memory steps, one record per
    #: step: (shred indices, span starts [lanes x rows], span sizes
    #: broadcastable to the starts, write).  Charged and cleared by
    #: :func:`_replay_charges` once the gang drains.
    span_log: List[tuple] = field(default_factory=list, repr=False)


#: A surviving gang re-compacts into a dense pack only when it keeps at
#: most this fraction of the launch's lanes: small holes don't pay for
#: the copy (fancy-indexed rows on the root arrays are nearly as fast),
#: large holes do — and the pack shrinks with the survivor set.
REPACK_DENSITY = 0.75


@dataclass
class _JoinFrame:
    """One live reconvergence point, innermost last on the frame stack.

    ``parked`` holds suspended sub-gangs — ``(lanes, entry ip, mixed)``
    — waiting to run their divergent arm; ``arrived`` collects every
    lane that reached ``join``; ``readmitted`` counts arrivals that came
    in through a parked sub-gang (the re-admission the repack counters
    report).  ``mixed`` tracks whether arrivals span gangs with unequal
    per-lane instruction counts, which decides how the runaway cap must
    be checked afterwards.
    """

    join: int
    parked: List[Tuple[List[int], int, bool]] = field(default_factory=list)
    arrived: List[int] = field(default_factory=list)
    readmitted: int = 0
    sources: int = 0
    mixed: bool = False


def gang_eligible(device, shreds: Sequence[ShredDescriptor]) -> bool:
    """Can this batch run as one gang with scalar-identical results?"""
    if len(shreds) < 2:
        return False
    program = shreds[0].program
    if any(s.program is not program for s in shreds):
        return False
    if any(s.depends_on for s in shreds):
        return False
    entry = shreds[0].entry
    if any(s.entry != entry for s in shreds):
        return False
    coherence = getattr(device, "coherence", None)
    if coherence is not None and not coherence.coherent:
        # non-coherent runs track per-access dirty state whose order the
        # lockstep interleaving would change
        return False
    return predecode.lookup(program).gangable


def run_gang(device, shreds: Sequence[ShredDescriptor],
             mailboxes: Dict[int, list],
             live_contexts: Dict[int, ShredContext],
             fusion: bool = False, megaop: bool = False) -> GangOutcome:
    """Execute a homogeneous batch in lockstep; returns runs in order.

    With ``fusion`` enabled (``engine="fused"``), straight-line regions
    retire as whole compiled superblocks with uniform-branch trace
    chaining (:mod:`repro.gma.fusion`); anything the fused path cannot
    retire bit-identically drops back to this per-instruction loop.
    With ``megaop`` additionally enabled (``engine="megaop"``, which
    implies fusion), hot block cycles promote to compiled megaops
    (:mod:`repro.gma.megaop`) that retire whole trace traversals per
    dispatch, deopting to the fused tier at the precise ip on any guard
    failure.
    """
    program = shreds[0].program
    pre_prog = predecode.lookup(program)
    config = device.config
    exo = device.exoskeleton
    count = len(shreds)
    ninstr = len(program.instructions)

    V = np.zeros((count, NUM_VREGS, VLEN), dtype=np.float64)
    P = np.zeros((count, NUM_PREGS, VLEN), dtype=bool)

    ctxs: List[GangShredContext] = []
    recs: List[ShredRun] = []
    for i, shred in enumerate(shreds):
        ctx = GangShredContext(shred, device.view, device.space, device)
        ctx.regs = GangLaneRegs(V[i], P[i])
        ctx.regs.write_scalar(0, float(shred.shred_id))
        for reg, values in mailboxes.pop(shred.shred_id, []):
            ctx.regs.write_lanes(reg, np.asarray(values, dtype=np.float64))
        live_contexts[shred.shred_id] = ctx
        shred.state = ShredState.RUNNING
        ctxs.append(ctx)
        recs.append(ShredRun(shred=shred))

    outcome = GangOutcome(runs=recs)
    base_batched_translations = device.view.batched_translations
    base_vector_hits = device.view.tlb.vector_hits
    active: List[int] = list(range(count))
    #: Deferred peels: (shred index, resume ip), executed in queue order
    #: only after the gang drains.  Running a peeled shred at the peel
    #: point would let it reach order-dependent global state (ATR
    #: service, CEH proxies, SPAWN child ids) ahead of earlier-queue
    #: shreds that are still ganged.
    pending: List[Tuple[int, int]] = []
    #: Live reconvergence points.  A repackable divergence parks its
    #: losing side here as a suspended sub-gang; whichever gang reaches
    #: the innermost join is suspended in turn, until every sub-gang has
    #: reported and all arrivals merge back into one gang at the join.
    frames: List[_JoinFrame] = []
    ip = shreds[0].entry

    # Current gang register storage: the root arrays, or a dense pack
    # built by ``adopt`` (no holes, so batched steps stay full width).
    # ``lane_row`` maps shred index -> row of the current storage; None
    # means the root arrays, where the row *is* the shred index.  The
    # root arrays stay canonical for every lane outside the running gang
    # — peeled shreds execute through their GangLaneRegs views — so a
    # pack syncs out before a lane leaves the gang and syncs in after
    # scalar semantics touch a resident lane.
    gV, gP = V, P
    lane_row: Optional[Dict[int, int]] = None
    grows = np.arange(count, dtype=np.int64)
    #: Lane holding the gang's highest instruction count.  Resident
    #: lanes advance in lockstep, so the argmax only moves when gang
    #: membership changes; the runaway cap check stays O(1) per step.
    lead = 0
    from_parked = False   # is the current gang a re-activated sub-gang?
    gang_mixed = False    # unequal per-lane instruction counts?
    repack_pending = False

    def finish_one(i: int) -> None:
        finish_run(recs[i], config)
        shreds[i].state = ShredState.DONE
        live_contexts.pop(shreds[i].shred_id, None)

    def rebuild_rows() -> None:
        nonlocal grows, lead
        if lane_row is None:
            grows = np.asarray(active, dtype=np.int64)
        else:
            grows = np.asarray([lane_row[i] for i in active],
                               dtype=np.int64)
        lead = max(active, key=lambda i: recs[i].instructions)

    def sync_out(lanes: Sequence[int]) -> None:
        """Copy lanes' registers from the pack back to the root arrays."""
        if lane_row is None or not lanes:
            return
        rows = np.asarray([lane_row[i] for i in lanes])
        idx = np.asarray(lanes)
        V[idx] = gV[rows]
        P[idx] = gP[rows]

    def sync_in(lanes: Sequence[int]) -> None:
        """Refresh pack rows from the root arrays after scalar steps."""
        if lane_row is None or not lanes:
            return
        rows = np.asarray([lane_row[i] for i in lanes])
        idx = np.asarray(lanes)
        gV[rows] = V[idx]
        gP[rows] = P[idx]

    def adopt(lanes: Sequence[int], parked_origin: bool,
              mixed: bool) -> None:
        """Point the gang at ``lanes``, whose register state sits in the
        root arrays; compact into a dense pack when the survivor set is
        sparse enough that full-width batched steps pay for the copy."""
        nonlocal gV, gP, lane_row, from_parked, gang_mixed, repack_pending
        repack_pending = False
        from_parked = parked_origin
        gang_mixed = mixed
        if len(lanes) > REPACK_DENSITY * count:
            gV, gP = V, P
            lane_row = None
        else:
            idx = np.asarray(lanes)
            gV = V[idx]   # advanced indexing: a dense copy
            gP = P[idx]
            lane_row = {i: pos for pos, i in enumerate(lanes)}
        rebuild_rows()

    def defer(pairs: Sequence[Tuple[int, int]]) -> None:
        """Queue (shred index, resume ip) pairs for the deferred phase."""
        sync_out([i for i, _ in pairs])
        for pair in pairs:
            outcome.scalar_fallbacks += 1
            pending.append(pair)

    def diverge(branch_ip: int, exit_ip: int, lanes: List[int]) -> None:
        """Route a divergence's losing side.

        When the branch's divergent region is pure (a static ``reconv``
        join with no ordered side effects), the losers suspend as a
        sub-gang that will run the region in lockstep and be re-admitted
        at the join; the caller's surviving majority is re-compacted by
        the main loop (``repack_pending``).  Otherwise the losers take
        the deferred peel exactly as before — the ordering lemma of the
        module docstring only covers lanes that either stay ganged on
        pure work or retire through the deferred queue.
        """
        nonlocal repack_pending
        if not lanes:
            return
        pre = pre_prog.instrs[branch_ip]
        if pre.repackable and pre.reconv is not None:
            sync_out(active)  # snapshot every lane; survivors re-adopt
            frames.append(_JoinFrame(
                join=pre.reconv,
                parked=[(list(lanes), exit_ip, gang_mixed)]))
            repack_pending = True
        else:
            defer([(i, exit_ip) for i in lanes])

    def step_per_shred(rows: List[int]) -> Tuple[List[int], List[Tuple[int, int]]]:
        """One instruction through scalar semantics for each row.

        Returns (survivors, peel pairs).  A TlbMiss peels the missing
        shred — before the miss is serviced — and everything behind it
        in queue order; a CEH-bound fault peels just the faulting shred,
        before its proxy round trip.
        """
        survivors: List[int] = []
        faulted: List[int] = []
        trailing: List[int] = []
        for k, i in enumerate(rows):
            try:
                eff = semantics.execute(program, ip, ctxs[i])
            except TlbMiss:
                trailing = rows[k:]
                break
            except ExecutionFault:
                faulted.append(i)
                continue
            account_instruction(recs[i], pre_prog.instrs[ip].instr, eff,
                                config)
            outcome.gang_lanes_retired += 1
            survivors.append(i)
        pairs = [(j, ip) for j in sorted(faulted + trailing)]
        return survivors, pairs

    if fusion:
        # deferred import: fusion's compiled steps reuse this module's
        # batched ALU datapath
        from .fusion import get_fused, run_fused
        fused, compiled = get_fused(program, pre_prog)
        outcome.fusion_compiles += compiled
    mega = None
    recorder = None
    if megaop and fusion:
        from .megaop import MegaSession, run_megaop
        mega = MegaSession(device, program, pre_prog, fused, outcome)
        recorder = mega.recorder
    # per-run symbol memo: bindings are frozen at spawn, so each shred's
    # symbol resolves once per run instead of once per read
    symcache: Dict[str, tuple] = {}

    try:
        while True:
            while frames and (not active or ip == frames[-1].join):
                # a gang reaching the innermost join suspends; parked
                # sub-gangs then run the divergent region one at a time;
                # once the last reports (or dies), every arrival merges
                # back into a single gang at the join: re-admission
                frame = frames[-1]
                if active:
                    sync_out(active)
                    frame.arrived.extend(active)
                    frame.sources += 1
                    frame.mixed |= gang_mixed
                    if from_parked:
                        frame.readmitted += len(active)
                    active = []
                if frame.parked:
                    lanes, entry, mixed = frame.parked.pop(0)
                    active = list(lanes)
                    ip = entry
                    adopt(active, parked_origin=True, mixed=mixed)
                    continue
                frames.pop()
                if frame.readmitted:
                    outcome.gang_repacks += 1
                    outcome.lanes_readmitted += frame.readmitted
                active = sorted(frame.arrived)
                ip = frame.join
                if active:
                    adopt(active, parked_origin=False,
                          mixed=frame.mixed or frame.sources > 1)
                    if recorder is not None:
                        # the merged gang is a fresh trace head: let the
                        # recorder profile (and the megaop tier promote)
                        # from the join instead of deopting for the rest
                        # of the launch
                        recorder.reset()
            if not active:
                break
            if repack_pending:
                repack_pending = False
                adopt(active, parked_origin=from_parked, mixed=gang_mixed)
            elif len(active) != len(grows):
                rebuild_rows()
            if ip >= ninstr:  # ran off the end: finish without accounting
                for i in active:
                    finish_one(i)
                active = []
                continue
            if recs[lead].instructions >= MAX_INSTRUCTIONS:
                # stop at the *most advanced* record — after re-admission
                # lane counts need not be uniform — and let the deferred
                # interpreters raise the runaway fault at each lane's
                # precise instruction
                defer([(i, ip) for i in active])
                active = []
                continue
            if mega is not None:
                mop = mega.ops.get(ip)
                if mop is not None and not (frames
                                            and frames[-1].join in mop.ips):
                    # (a megaop whose trace crosses the pending join must
                    # not dispatch: it would blast through the suspension
                    # point — the fused tier below stops there precisely)
                    stepped = run_megaop(mop, device, active, gV, gP, ctxs,
                                         recs, config, outcome, defer,
                                         symcache, rows=grows,
                                         diverge=diverge)
                    if stepped is not None:
                        # the recorder window is stale across a megaop
                        # (its traversals are not noted one by one)
                        recorder.reset()
                        ip, active = stepped
                        continue
            if fusion:
                fused_to = run_fused(fused, ip, active, gV, gP, ctxs, recs,
                                     config, outcome, defer, finish_one,
                                     symcache, recorder, rows=grows,
                                     diverge=diverge,
                                     stop_ip=(frames[-1].join if frames
                                              else None))
                if fused_to is not None:
                    ip, active = fused_to
                    continue
            pre = pre_prog.instrs[ip]
            cls = pre.batch_class
            if recorder is not None and cls != predecode.BATCH_MEM:
                # only batched memory retirements extend a recorded
                # trace; any other per-instruction handling breaks it
                recorder.reset()

            if cls == predecode.BATCH_CONTROL:
                op = pre.opcode
                if op is Opcode.END:
                    eff = Effect()
                    eff.ended = True
                    for i in active:
                        account_instruction(recs[i], pre.instr, eff, config)
                    outcome.gang_lanes_retired += len(active)
                    for i in active:
                        finish_one(i)
                    active = []
                    continue
                if op in (Opcode.NOP, Opcode.FENCE):
                    eff = Effect()
                    for i in active:
                        account_instruction(recs[i], pre.instr, eff, config)
                    outcome.gang_lanes_retired += len(active)
                    ip += 1
                    continue
                # JMP / BR with a predecoded target
                if op is Opcode.JMP and pre.instr.pred is None:
                    taken = np.ones(len(active), dtype=bool)
                else:
                    guard = pre.instr.pred
                    any_lane = gP[grows, guard.index, :].any(axis=1)
                    taken = ~any_lane if guard.negate else any_lane
                eff = Effect()  # trace entry is branch-direction independent
                for i in active:
                    account_instruction(recs[i], pre.instr, eff, config)
                outcome.gang_lanes_retired += len(active)
                if taken.all():
                    ip = pre.target
                    continue
                if not taken.any():
                    ip += 1
                    continue
                # divergence: the majority stays ganged; the losers park
                # toward the reconvergence point when the region is pure,
                # else take the deferred peel
                taken_count = int(taken.sum())
                if taken_count * 2 == len(active):
                    keep_taken = bool(taken[0])
                else:
                    keep_taken = taken_count * 2 > len(active)
                stay_ip = pre.target if keep_taken else ip + 1
                exit_ip = ip + 1 if keep_taken else pre.target
                diverge(ip, exit_ip,
                        [i for pos, i in enumerate(active)
                         if bool(taken[pos]) != keep_taken])
                active = [i for pos, i in enumerate(active)
                          if bool(taken[pos]) == keep_taken]
                ip = stay_ip
                continue

            if cls == predecode.BATCH_PEEL:
                # SPAWN (and defensive cases): every resident shred peels
                # before the spawn executes, so the deferred queue-order
                # replay assigns child shred ids exactly as scalar would
                defer([(i, ip) for i in active])
                active = []
                continue

            if cls == predecode.BATCH_ALU:
                ok = False
                try:
                    ok = _apply_alu_batched(pre, grows, gV, gP, ctxs,
                                            active, symcache)
                except ExecutionFault:
                    ok = False  # re-run per shred for the precise fault
                if ok:
                    eff = Effect()
                    for i in active:
                        account_instruction(recs[i], pre.instr, eff, config)
                    outcome.gang_lanes_retired += len(active)
                    ip += 1
                    continue
                # fall through to the per-shred reference step

            if cls == predecode.BATCH_MEM:
                ok = False
                try:
                    ok = _apply_mem_batched(device, pre, grows, gV, gP,
                                            ctxs, active, recs, config,
                                            outcome)
                except TlbMiss:
                    # some lane's page is unmapped: the per-shred
                    # reference step peels the miss in queue order
                    ok = False
                except ExecutionFault:
                    ok = False
                if ok:
                    if recorder is not None:
                        recorder.note(ip, "m")
                    ip += 1
                    continue
                # fall through to the per-shred reference step

            if recorder is not None:
                recorder.reset()
            # scalar semantics write through the lane views into the
            # root arrays, so a pack syncs out first and refreshes the
            # survivors' rows afterwards
            sync_out(active)
            survivors, pairs = step_per_shred(list(active))
            defer(pairs)
            sync_in(survivors)
            active = survivors
            ip += 1

        # deferred phase: every peeled shred now runs to completion in
        # queue order, so ATR services, CEH proxies and SPAWNs happen in
        # the exact global order the scalar engine produces
        for i, at_ip in sorted(pending):
            interp = ShredInterpreter(shreds[i], ctxs[i], exo, config,
                                      entry_ip=at_ip, run_record=recs[i])
            try:
                interp.run()
            finally:
                live_contexts.pop(shreds[i].shred_id, None)
    finally:
        for shred in shreds:
            live_contexts.pop(shred.shred_id, None)

    _replay_charges(device, ctxs, recs, outcome.span_log)
    outcome.batched_translations = (device.view.batched_translations
                                    - base_batched_translations)
    outcome.tlb_vector_hits = (device.view.tlb.vector_hits
                               - base_vector_hits)
    return outcome


# ---------------------------------------------------------------------------
# batched ALU datapath
# ---------------------------------------------------------------------------


def _read_batched(operand, rows: np.ndarray, n: int, V: np.ndarray,
                  P: np.ndarray, ctxs, active,
                  symcache: Optional[dict] = None) -> np.ndarray:
    """Batched equivalent of ``operand.read(ctx, n)``: (rows, n) float64."""
    if isinstance(operand, RegOperand):
        return V[rows, operand.reg, :n]
    if isinstance(operand, RangeOperand):
        if operand.count == n:  # one element (lane 0) per named register
            return V[rows, operand.start:operand.stop + 1, 0]
        block = V[rows, operand.start:operand.stop + 1, :]
        return block.reshape(len(rows), -1)[:, :n]
    if isinstance(operand, ImmOperand):
        return np.full((len(rows), n), operand.value, dtype=np.float64)
    if isinstance(operand, SymOperand):
        if symcache is not None:
            entry = symcache.get(operand.name)
            if entry is None:
                entry = (np.empty(len(ctxs), dtype=np.float64),
                         np.zeros(len(ctxs), dtype=bool))
                symcache[operand.name] = entry
            vals, filled = entry
            # the cache is indexed by shred; on a dense sub-gang pack
            # the rows are pack-relative, so gather by lane instead
            lanes = rows if V.shape[0] == len(ctxs) else np.asarray(active)
            if not filled[lanes].all():
                # resolve misses in queue order so an unbound symbol
                # faults on exactly the shred the scalar engine blames
                for i in active:
                    if not filled[i]:
                        vals[i] = ctxs[i].resolve_symbol(operand.name)
                        filled[i] = True
            return np.repeat(vals[lanes], n).reshape(len(rows), n)
        out = np.empty((len(rows), n), dtype=np.float64)
        for j, i in enumerate(active):
            out[j, :] = ctxs[i].resolve_symbol(operand.name)
        return out
    if isinstance(operand, PredOperand):
        return P[rows, operand.index, :n].astype(np.float64)
    raise ExecutionFault(f"operand {operand!r} is not gang-readable")


def _write_masked_batched(dst, rows: np.ndarray, values: np.ndarray,
                          mask: Optional[np.ndarray], ty: DataType, n: int,
                          V: np.ndarray, P: np.ndarray, ctxs, active,
                          prewrapped: bool = False) -> None:
    """Batched equivalent of ``semantics._write_masked``.

    ``prewrapped`` marks ``values`` as already narrowed by ``ty.wrap``;
    the unguarded writeback can then skip the (idempotent) re-wrap.  A
    guard mask blends in old register lanes, which the scalar path wraps
    at writeback, so masked writes always wrap.
    """
    if mask is not None:
        old = _read_batched(dst, rows, n, V, P, ctxs, active)
        values = np.where(mask, values, old)
        prewrapped = False
    # wrap-on-write, as Operand.write does
    wrapped = values if prewrapped else ty.wrap(values)
    if isinstance(dst, RegOperand):
        V[rows, dst.reg, :wrapped.shape[1]] = wrapped
        return
    # RangeOperand (predecode guarantees one of the two)
    if dst.count == n:
        V[rows, dst.start:dst.stop + 1, 0] = wrapped
        return
    nregs = dst.count
    padded = np.zeros((len(rows), nregs * VLEN), dtype=np.float64)
    padded[:, :wrapped.shape[1]] = wrapped
    V[rows, dst.start:dst.stop + 1, :] = padded.reshape(len(rows), nregs,
                                                        VLEN)


def _batched_guard_mask(instr, rows: np.ndarray, n: int,
                        P: np.ndarray) -> Optional[np.ndarray]:
    """Batched ``semantics._guard_mask``: (rows, n) bool or None."""
    if instr.pred is None or instr.opcode is Opcode.BR:
        return None
    width = min(n, VLEN)
    mask = P[rows, instr.pred.index, :width]
    if instr.pred.negate:
        mask = ~mask
    if n > width:
        reps = -(-n // width)
        mask = np.tile(mask, (1, reps))[:, :n]
    return mask


def _apply_alu_batched(pre, rows: np.ndarray, V: np.ndarray, P: np.ndarray,
                       ctxs, active,
                       symcache: Optional[dict] = None) -> bool:
    """One vectorized ALU step over every active shred.

    Returns False (writing nothing) when the step must be replayed per
    shred to reproduce a precise architectural fault; raises
    ExecutionFault for batch-level faults the caller treats the same way.
    """
    instr = pre.instr
    op = pre.opcode
    ty = instr.dtype
    n = instr.width
    mask = _batched_guard_mask(instr, rows, n, P)

    if op is Opcode.CMP:
        a = ty.wrap(_read_batched(instr.srcs[0], rows, n, V, P, ctxs,
                                  active, symcache))
        b = ty.wrap(_read_batched(instr.srcs[1], rows, n, V, P, ctxs,
                                  active, symcache))
        res = semantics._COMPARES[instr.cond](a, b)
        out = res[:, :VLEN] if n > VLEN else res
        idx = instr.dsts[0].index
        P[rows, idx, :out.shape[1]] = out
        P[rows, idx, out.shape[1]:] = False
        return True

    if op is Opcode.SEL:
        sel = P[rows, instr.srcs[0].index, :min(n, VLEN)]
        if n > VLEN:
            sel = np.tile(sel, (1, -(-n // VLEN)))[:, :n]
        a = _read_batched(instr.srcs[1], rows, n, V, P, ctxs, active,
                          symcache)
        b = _read_batched(instr.srcs[2], rows, n, V, P, ctxs, active,
                          symcache)
        _write_masked_batched(instr.dsts[0], rows, np.where(sel, a, b), mask,
                              ty, n, V, P, ctxs, active)
        return True

    if op is Opcode.ILV:
        half = n // 2
        a = _read_batched(instr.srcs[0], rows, half, V, P, ctxs, active,
                          symcache)
        b = _read_batched(instr.srcs[1], rows, half, V, P, ctxs, active,
                          symcache)
        out = np.empty((len(rows), n), dtype=np.float64)
        out[:, 0::2] = a
        out[:, 1::2] = b
        _write_masked_batched(instr.dsts[0], rows, out, mask, ty, n, V, P,
                              ctxs, active)
        return True

    srcs = [_read_batched(s, rows, n, V, P, ctxs, active, symcache)
            for s in instr.srcs]
    prewrapped = False
    with np.errstate(over="ignore", invalid="ignore"):
        result = semantics.execute_alu_batched(instr, srcs, ty, len(rows))
        if ty is DataType.F:
            # overflow is detected at single-precision writeback width;
            # any overflowing shred must take the architectural per-lane
            # fault
            narrowed = ty.wrap_unguarded(result)
            inf_rows = np.isinf(narrowed).any(axis=1)
            if bool(inf_rows.any()):
                # only now is the (costly) per-source finiteness check
                # needed: an inf produced from non-finite sources is a
                # pass-through, not an overflow
                finite = np.ones(len(rows), dtype=bool)
                for s in srcs:
                    finite &= np.isfinite(ty.wrap_unguarded(s)).all(axis=1)
                if bool((inf_rows & finite).any()):
                    return False
            # wrap is idempotent: reuse the narrowed result at writeback
            result = narrowed
            prewrapped = True
    if op in (Opcode.HADD, Opcode.HMAX):
        V[rows, instr.dsts[0].reg, :1] = result if prewrapped \
            else ty.wrap(result)  # lane 0, unmasked
        return True
    _write_masked_batched(instr.dsts[0], rows, result, mask, ty, n, V, P,
                          ctxs, active, prewrapped=prewrapped)
    return True


# ---------------------------------------------------------------------------
# batched memory datapath
# ---------------------------------------------------------------------------
#
# The lockstep memory step handles only the fully regular case: every
# active shred binds the same Surface descriptor, every lane index is in
# range, and every page the access touches already translates.  Anything
# else returns False (or lets TlbMiss/ExecutionFault propagate) *before
# mutating any state* — no register writes, no memory writes, no charge
# log entries, no accounting — and the caller falls through to
# step_per_shred, whose scalar semantics reproduce the precise
# architectural behaviour (queue-order ATR peels, per-shred faults,
# MemorySystemError crashes).  That ordering discipline is what keeps the
# fast path bit-identical: it only ever commits accesses that scalar
# execution would have completed without any globally-ordered side effect.


def _gang_surface(name, ctxs, active):
    """The surface every active shred binds under ``name``, as
    ``(reference, deltas)``.

    ``deltas`` is None when every shred binds the *same* Surface object
    (the single-launch case).  When shreds bind *different* descriptors
    — the cross-launch coalescing of the serving layer merges requests
    whose surfaces are distinct allocations — the batched path still
    applies if every binding is *congruent* with the reference (same
    width, height, pitch, tiling and dtype): the layout arithmetic of
    :meth:`~repro.memory.surface.Surface.element_addrs` is then
    identical up to the base, so a per-lane base delta broadcast onto
    the reference's addresses yields every lane's exact addresses.

    Returns ``(None, None)`` when any shred lacks the binding or binds
    a non-congruent surface (the per-shred reference step then reports
    the precise per-shred fault)."""
    ref = ctxs[active[0]].shred.surfaces.get(name)
    if ref is None:
        return None, None
    deltas = None
    for pos, i in enumerate(active[1:], start=1):
        surf = ctxs[i].shred.surfaces.get(name)
        if surf is ref:
            continue
        if (surf is None or surf.width != ref.width
                or surf.height != ref.height
                or surf.pitch != ref.pitch
                or surf.tiling is not ref.tiling
                or surf.dtype is not ref.dtype):
            return None, None
        if deltas is None:
            deltas = np.zeros(len(active), dtype=np.int64)
        deltas[pos] = surf.base - ref.base
    return ref, deltas


def _type_ok(surf, ty: DataType) -> bool:
    """Mirror of ``ShredContext._check_type`` (False -> per-shred fault)."""
    return ty.size == surf.dtype.size and ty.is_float == surf.dtype.is_float


def _scalar_coord_batched(operand, offset: int, rows, V, P, ctxs, active):
    """Batched ``int(operand.read(ctx, 1)[0]) + offset``: one truncated
    integer per shred, or None when any lane is non-finite (``int()`` of
    nan/inf raises in the scalar path, so that path must replay it)."""
    raw = _read_batched(operand, rows, 1, V, P, ctxs, active)[:, 0]
    if not np.isfinite(raw).all():
        return None
    return np.trunc(raw).astype(np.int64) + offset


def _write_block_batched(dst, rows, values, ty: DataType, n: int,
                         V: np.ndarray) -> None:
    """Batched ldblk writeback: ``write_packed`` for ranges (zero-padding
    the trailing lanes of the last register), ``write_lanes`` for a
    single register (trailing lanes untouched)."""
    wrapped = ty.wrap(values)
    if isinstance(dst, RangeOperand):
        nregs = -(-n // VLEN)
        k = len(rows)
        padded = np.zeros((k, nregs * VLEN), dtype=np.float64)
        padded[:, :n] = wrapped
        V[rows, dst.start:dst.start + nregs, :] = padded.reshape(
            k, nregs, VLEN)
    else:  # RegOperand with n <= VLEN (predecode-checked)
        V[rows, dst.reg, :n] = wrapped


def _retire_mem(pre, eff, active, recs, config, outcome) -> bool:
    """Account one batched memory instruction for every active shred."""
    for i in active:
        account_instruction(recs[i], pre.instr, eff, config)
    outcome.gang_lanes_retired += len(active)
    outcome.batched_mem_lanes += len(active)
    return True


def _apply_mem_batched(device, pre, rows: np.ndarray, V: np.ndarray,
                       P: np.ndarray, ctxs, active, recs, config,
                       outcome, account: bool = True) -> bool:
    """One lockstep memory step over every active shred.

    Returns True after committing the batched access and its accounting;
    False (with nothing mutated) to fall back to the per-shred reference
    step.  A ``TlbMiss`` from the vectorized translation propagates to
    the caller for the same fallback — translation happens before any
    writeback, so the abandoned attempt is side-effect free.

    ``account=False`` commits the data-path effects but skips the
    per-shred accounting — the megaop tier charges retired instructions
    in bulk from its precomputed trace entries instead.
    """
    instr = pre.instr
    op = pre.opcode
    ty = instr.dtype
    n = instr.width
    view = device.view
    phys = device.space.physical

    if op in (Opcode.LD, Opcode.ST):
        mem = instr.srcs[0]
        surf, deltas = _gang_surface(mem.surface, ctxs, active)
        if surf is None or not _type_ok(surf, ty):
            return False
        index = _scalar_coord_batched(mem.index, mem.offset, rows, V, P,
                                      ctxs, active)
        if index is None:
            return False
        if int(index.min()) < 0 or int(index.max()) + n > surf.nelems:
            return False  # scalar raises MemorySystemError per shred
        elems = index[:, None] + np.arange(n, dtype=np.int64)
        addrs = surf.element_addrs(elems % surf.width, elems // surf.width)
        if deltas is not None:
            addrs = addrs + deltas[:, None]
        esize = surf.esize
        lanes = np.asarray(active, dtype=np.int64)
        span_lo = (surf.base + index * esize)[:, None]
        if deltas is not None:
            span_lo = span_lo + deltas[:, None]
        mask = _batched_guard_mask(instr, rows, n, P)

        if op is Opcode.LD:
            paddrs = view.translate_batch(addrs)
            values = phys.gather(paddrs, surf.dtype.np_dtype).astype(
                np.float64)
            _write_masked_batched(instr.dsts[0], rows, values, mask, ty, n,
                                  V, P, ctxs, active)
            outcome.span_log.append((lanes, span_lo, n * esize, False))
            return (_retire_mem(pre, Effect(), active, recs, config,
                                outcome) if account else True)

        # ST
        values = ty.wrap(_read_batched(instr.srcs[1], rows, n, V, P, ctxs,
                                       active))
        if mask is not None and len(active) > 1:
            # the scalar masked store is a read-modify-write: a later
            # shred's old-value read sees earlier shreds' merged writes
            # when their ranges overlap, which one batched pre-read
            # cannot reproduce.  Lanes on different surfaces (distinct
            # allocations) never alias; only equal-base lanes can.
            if deltas is None:
                spans = np.sort(index)
                if (np.diff(spans) < n).any():
                    return False
            else:
                order = np.lexsort((index, deltas))
                same = deltas[order][1:] == deltas[order][:-1]
                if (same & (np.diff(index[order]) < n)).any():
                    return False
        paddrs = view.translate_batch(addrs, write=True)
        if mask is not None:
            old = phys.gather(paddrs, surf.dtype.np_dtype).astype(np.float64)
            values = np.where(mask, values, old)
            outcome.span_log.append((lanes, span_lo, n * esize, False))
        phys.scatter(paddrs, np.asarray(values).astype(surf.dtype.np_dtype))
        outcome.span_log.append((lanes, span_lo, n * esize, True))
        return (_retire_mem(pre, Effect(), active, recs, config,
                            outcome) if account else True)

    if op in (Opcode.LDBLK, Opcode.STBLK):
        blk = instr.srcs[0]
        surf, deltas = _gang_surface(blk.surface, ctxs, active)
        if surf is None or not _type_ok(surf, ty):
            return False
        x0 = _scalar_coord_batched(blk.x, 0, rows, V, P, ctxs, active)
        y0 = _scalar_coord_batched(blk.y, 0, rows, V, P, ctxs, active)
        if x0 is None or y0 is None:
            return False
        w, h = instr.block
        k = len(active)
        esize = surf.esize
        col = np.arange(w, dtype=np.int64)[None, None, :]
        row = np.arange(h, dtype=np.int64)[None, :, None]

        if op is Opcode.LDBLK:
            # edge-clamped grid: consecutive clipped columns cover every
            # element of read_block's contiguous clamped row reads, so
            # the translated footprint matches scalar exactly
            xs = np.clip(x0[:, None, None] + col, 0, surf.width - 1)
            ys = np.clip(y0[:, None, None] + row, 0, surf.height - 1)
            addrs = surf.element_addrs(xs, ys)
            if deltas is not None:
                addrs = addrs + deltas[:, None, None]
            paddrs = view.translate_batch(addrs)
            values = phys.gather(paddrs, surf.dtype.np_dtype).astype(
                np.float64).reshape(k, h * w)
            _write_block_batched(instr.dsts[0], rows, values, ty, n, V)
            # per-row charge spans, clamped as surface_read_block charges
            yy = np.clip(y0[:, None] + np.arange(h, dtype=np.int64), 0,
                         surf.height - 1)
            lo = surf.element_addrs(
                np.clip(x0, 0, surf.width - 1)[:, None], yy)
            hi = surf.element_addrs(
                np.clip(x0 + w - 1, 0, surf.width - 1)[:, None], yy) + esize
            if deltas is not None:
                lo = lo + deltas[:, None]
                hi = hi + deltas[:, None]
            outcome.span_log.append((np.asarray(active, dtype=np.int64),
                                     np.minimum(lo, hi - 1),
                                     np.maximum(hi - lo, esize), False))
            return (_retire_mem(pre, Effect(), active, recs, config,
                                outcome) if account else True)

        # STBLK: block stores never clamp — out of bounds is a fault
        if (int(x0.min()) < 0 or int(y0.min()) < 0
                or int(x0.max()) + w > surf.width
                or int(y0.max()) + h > surf.height):
            return False  # scalar raises MemorySystemError per shred
        src = instr.srcs[1]
        if isinstance(src, RangeOperand):
            nregs = -(-n // VLEN)
            values = V[rows, src.start:src.start + nregs, :].reshape(
                k, -1)[:, :n]
        else:
            values = V[rows, src.reg, :n]
        typed = np.asarray(ty.wrap(values), dtype=np.float64).reshape(
            k, h, w).astype(surf.dtype.np_dtype)
        xs = x0[:, None, None] + col
        ys = y0[:, None, None] + row
        addrs = surf.element_addrs(xs, ys)
        if deltas is not None:
            addrs = addrs + deltas[:, None, None]
        paddrs = view.translate_batch(addrs, write=True)
        # flattened scatter order is lane-major = shred queue order, so
        # duplicate addresses resolve last-writer-wins exactly as the
        # scalar engine's sequential per-shred stores do
        phys.scatter(paddrs, typed)
        yy = y0[:, None] + np.arange(h, dtype=np.int64)
        lo = surf.element_addrs(x0[:, None], yy)
        hi = surf.element_addrs((x0 + w - 1)[:, None], yy) + esize
        if deltas is not None:
            lo = lo + deltas[:, None]
            hi = hi + deltas[:, None]
        outcome.span_log.append((np.asarray(active, dtype=np.int64),
                                 np.minimum(lo, hi - 1),
                                 np.maximum(hi - lo, esize), True))
        return (_retire_mem(pre, Effect(), active, recs, config,
                            outcome) if account else True)

    # SAMPLE
    blk = instr.srcs[0]
    surf, deltas = _gang_surface(blk.surface, ctxs, active)
    if surf is None:  # the sampler path performs no type check
        return False
    xs = _read_batched(blk.x, rows, n, V, P, ctxs, active)
    ys = _read_batched(blk.y, rows, n, V, P, ctxs, active)
    sampler = device.sampler
    if sampler.filter_mode == "nearest":
        xi = np.clip(np.floor(xs + 0.5).astype(np.int64), 0, surf.width - 1)
        yi = np.clip(np.floor(ys + 0.5).astype(np.int64), 0, surf.height - 1)
        addrs = surf.element_addrs(xi, yi)
        if deltas is not None:
            addrs = addrs + deltas[:, None]
        values = phys.gather(
            view.translate_batch(addrs),
            surf.dtype.np_dtype).astype(np.float64)
    else:  # bilinear, the exact arithmetic of Surface.sample_bilinear
        x0 = np.clip(np.floor(xs).astype(np.int64), 0, surf.width - 1)
        y0 = np.clip(np.floor(ys).astype(np.int64), 0, surf.height - 1)
        x1 = np.minimum(x0 + 1, surf.width - 1)
        y1 = np.minimum(y0 + 1, surf.height - 1)
        fx = np.clip(xs - x0, 0.0, 1.0)
        fy = np.clip(ys - y0, 0.0, 1.0)
        if surf.tiling is TileMode.LINEAR:
            # the scalar sampler's compact-footprint path reads whole
            # bounding boxes; demand a contiguous superset of every
            # lane's box so a page scalar would have faulted on faults
            # here too (and falls back to the exact per-shred path)
            lo = surf.element_addr(int(x0.min()), int(y0.min()))
            hi = surf.element_addr(int(x1.max()), int(y1.max())) + surf.esize
            if deltas is None:
                pages = np.arange(lo >> PAGE_SHIFT,
                                  ((hi - 1) >> PAGE_SHIFT) + 1,
                                  dtype=np.int64)
            else:
                # one box per distinct surface, translated in one call
                pages = np.unique(np.concatenate([
                    np.arange((lo + d) >> PAGE_SHIFT,
                              ((hi + d - 1) >> PAGE_SHIFT) + 1,
                              dtype=np.int64)
                    for d in np.unique(deltas)]))
            view.translate_batch(pages << PAGE_SHIFT)
        a00 = surf.element_addrs(x0, y0)
        a10 = surf.element_addrs(x1, y0)
        a01 = surf.element_addrs(x0, y1)
        a11 = surf.element_addrs(x1, y1)
        if deltas is not None:
            off = deltas[:, None]
            a00, a10 = a00 + off, a10 + off
            a01, a11 = a01 + off, a11 + off
        taps = view.gather(
            np.stack([a00, a10, a01, a11]),
            surf.dtype.np_dtype).astype(np.float64)
        p00, p10, p01, p11 = taps
        top = p00 + (p10 - p00) * fx
        bot = p01 + (p11 - p01) * fx
        values = top + (bot - top) * fy
    _write_masked_batched(instr.dsts[0], rows, values, None, ty, n, V, P,
                          ctxs, active)
    sampler.samples += len(active) * n
    if not account:
        return True
    eff = Effect()
    eff.used_sampler = True
    eff.bytes_read = n * ty.size
    return _retire_mem(pre, eff, active, recs, config, outcome)


# ---------------------------------------------------------------------------
# deferred first-touch line charging
# ---------------------------------------------------------------------------


def _replay_charges(device, ctxs: Sequence[GangShredContext],
                    recs: Sequence[ShredRun], span_log: List[tuple]) -> None:
    """Charge every deferred device span's first-touch lines.

    The scalar engine runs shreds to completion one after another in
    queue order, so each 64-byte line is charged exactly once: to the
    lowest-queue shred that touches it, unless an access earlier in the
    device run (already in ``touched_*_lines``) touched it first.  A
    shred's charge therefore depends only on its own lines and on the
    lines of the shreds before it in queue order — never on the order
    of its own accesses — so the gang-wide step records and the
    per-shred logs are charged together as one set computation per
    direction, exactly as the scalar engine would have charged them.
    """
    line = ShredContext._LINE
    count = len(recs)
    parts = {False: [], True: []}  # write -> [(owners, starts, sizes)]
    for lanes, lo, size, write in span_log:
        parts[write].append((np.repeat(lanes, lo.shape[1]), lo.ravel(),
                             np.broadcast_to(size, lo.shape).ravel()))
    span_log.clear()
    logged = [(q, lo, nbytes, write) for q, ctx in enumerate(ctxs)
              for lo, nbytes, write in ctx.charge_log]
    if logged:
        table = np.array(logged, dtype=np.int64)
        for write in (False, True):
            parts[write].append(tuple(table[table[:, 3] == write, :3].T))
        for ctx in ctxs:
            ctx.charge_log.clear()
    for write, chunks in parts.items():
        if not chunks:
            continue
        owner, lo, size = (np.concatenate(c) for c in zip(*chunks))
        if not len(owner):
            continue
        first = lo // line
        nlines = (lo + np.maximum(size, 1) - 1) // line - first + 1
        if (nlines > 1).any():
            # expand multi-line spans to one entry per line
            owner = np.repeat(owner, nlines)
            offsets = np.arange(len(owner)) - np.repeat(
                np.cumsum(nlines) - nlines, nlines)
            first = np.repeat(first, nlines) + offsets
        # one sort orders entries by line, then by owner: the head of
        # each line's group is its lowest-queue toucher
        key = np.sort(first * count + owner)
        lines = key // count
        head = np.empty(len(key), dtype=bool)
        head[0] = True
        np.not_equal(lines[1:], lines[:-1], out=head[1:])
        lines = lines[head]
        owner = key[head] - lines * count
        touched = device.touched_write_lines if write \
            else device.touched_read_lines
        if touched:
            fresh = ~np.isin(lines, np.fromiter(touched, dtype=np.int64,
                                                count=len(touched)))
            lines = lines[fresh]
            owner = owner[fresh]
        touched.update(lines.tolist())
        charges = np.bincount(owner, minlength=count) * line
        for rec, charge in zip(recs, charges.tolist()):
            if write:
                rec.bytes_written += charge
            else:
                rec.bytes_read += charge
