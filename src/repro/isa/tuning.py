"""Auto-tuner: search a small schedule space per kernel program.

The schedule-transform layer (:mod:`repro.isa.transforms`) gives every
kernel a space of semantically-equal programs; this module picks one.
The search is deliberately tiny — a fixed menu of schedule specs in the
spirit of Exo's user-schedulable transforms — and is scored by
:func:`estimated_program_cost`: a pending-latency walk over the EU
latency model weighted by loop trip counts, so an instruction inside a
100-trip loop costs 100× its straight-line estimate.

Winners are cached at module level keyed on the program *source* and the
scalar bindings that resolve its loop bounds, so a serving layer or a
multi-frame harness tunes each kernel once.  An optional ``verifier``
callback lets callers demand end-to-end bit-exactness before a candidate
may win (the kernel harness wires a one-frame differential check in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from . import cfg
from .opcodes import Opcode
from .operands import ImmOperand, PredOperand, RegOperand
from .program import Program
from .transforms import (
    BASELINE,
    Schedule,
    ScheduleError,
    _resolve_bound,
    _trip_count,
    apply_schedule,
    parse_schedule,
)

#: Trip weight assumed for a counted loop whose bound is symbolic and
#: unresolved by the caller's bindings.
DEFAULT_TRIP = 16

#: The schedule menu: every entry is the pick of some kernel at bench
#: geometry (``tests/isa/test_transforms.py::TUNED_AT_BENCH`` pins each
#: kernel's pick).  Order matters only for tie-breaks (first wins):
#: Kalman costs the same under the last two entries.  ``baseline`` is
#: the fallback when every transforming candidate fails to apply or
#: verify.
DEFAULT_CANDIDATES: Tuple[str, ...] = (
    "baseline",
    "unroll4+stage_mem",
    "unroll8+stage_mem",
    "unroll8+stage_mem+reorder",
)


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one :func:`tune_program` call."""

    schedule: Schedule
    spec: str
    program: Program
    trials: int  #: candidates actually transformed+scored (0 on cache hit)
    cached: bool
    cost: float
    baseline_cost: float


#: winner cache: (name, source, bindings-key) -> TuningResult
_CACHE: Dict[tuple, TuningResult] = {}


def clear_cache() -> None:
    _CACHE.clear()


def cache_stats() -> Dict[str, int]:
    return {"entries": len(_CACHE)}


def _bindings_key(bindings: Optional[Dict[str, float]]) -> tuple:
    if not bindings:
        return ()
    items = []
    for name, value in bindings.items():
        try:
            items.append((name, float(value)))
        except (TypeError, ValueError):
            continue
    return tuple(sorted(items))


def _backedge_trip(program: Program, head: int, back: int,
                   bindings: Optional[Dict[str, float]]) -> Optional[int]:
    """Trip estimate for the backward branch ``back`` → label at ``head``.

    Looser than :func:`~repro.isa.transforms.find_counted_loops` on
    purpose: an unrolled loop steps its induction variable with *several*
    adds per iteration, so this sums every ``add.1 ind = ind, imm`` in
    the span instead of demanding exactly one.  Cost-model only — the
    transforms themselves still use the strict recognizer.
    """
    instrs = program.instructions
    br = instrs[back]
    if br.pred is None or br.pred.negate:
        return None
    cmp = None
    for ip in range(back - 1, head - 1, -1):
        if br.pred.index in cfg.effects(instrs[ip]).pred_defs:
            cmp = instrs[ip]
            break
    if (cmp is None or cmp.opcode is not Opcode.CMP or cmp.width != 1
            or cmp.cond is None or not cmp.dsts
            or not isinstance(cmp.dsts[0], PredOperand)
            or not isinstance(cmp.srcs[0], RegOperand)):
        return None
    ind = cmp.srcs[0].reg
    step = 0.0
    for ip in range(head, back):
        ins = instrs[ip]
        if (ins.opcode is Opcode.ADD and ins.width == 1 and ins.pred is None
                and isinstance(ins.dsts[0], RegOperand)
                and ins.dsts[0].reg == ind
                and isinstance(ins.srcs[0], RegOperand)
                and ins.srcs[0].reg == ind
                and isinstance(ins.srcs[1], ImmOperand)):
            step += float(ins.srcs[1].value)
        elif ind in cfg.effects(ins).reg_defs:
            return None  # non-affine write to the induction variable
    if step <= 0:
        return None
    init = None
    for ip in range(head - 1, -1, -1):
        ins = instrs[ip]
        if ind in cfg.effects(ins).reg_defs:
            if (ins.opcode is Opcode.MOV and ins.width == 1
                    and ins.pred is None
                    and isinstance(ins.srcs[0], ImmOperand)):
                init = float(ins.srcs[0].value)
            break
    if init is None:
        return None
    bound = _resolve_bound(cmp.srcs[1], bindings)
    return _trip_count(init, step, bound, cmp.cond)


def _loop_weights(program: Program,
                  bindings: Optional[Dict[str, float]]) -> list:
    """Per-instruction execution-count weights from backward branches.

    Every backward branch span multiplies its body's weight by the
    estimated trip count; nested spans compose multiplicatively.
    """
    weight = [1.0] * len(program.instructions)
    for back, head in cfg.back_edges(program):
        trip = _backedge_trip(program, head, back, bindings)
        if trip is None:
            trip = DEFAULT_TRIP
        for ip in range(head, back + 1):
            weight[ip] *= max(trip, 1)
    return weight


def estimated_program_cost(program: Program,
                           bindings: Optional[Dict[str, float]] = None
                           ) -> float:
    """Trip-weighted serial-cycle estimate of one program execution.

    A linear pending-latency walk (the :mod:`repro.isa.scheduler` model)
    yields each instruction's incremental cycles — issue cost plus any
    stall waiting on a producer's latency — and that increment is scaled
    by the product of the trip counts of every loop (backward-branch
    span) containing the instruction.  Unknown trips weigh
    :data:`DEFAULT_TRIP`.
    """
    weight = _loop_weights(program, bindings)

    total = 0.0
    pending: Dict[int, float] = {}  # reg -> cycle its value is ready
    clock = 0.0
    for ip, instr in enumerate(program.instructions):
        effects = cfg.effects(instr)
        stall = 0.0
        for reg in effects.reg_uses:
            if reg in pending:
                stall = max(stall, pending[reg] - clock)
        increment = stall + instr.info.issue
        clock += increment
        for reg in effects.reg_defs:
            pending[reg] = clock + instr.info.latency
        total += increment * weight[ip]
    return total


def tune_program(program: Program,
                 bindings: Optional[Dict[str, float]] = None,
                 verifier: Optional[Callable[[Program], bool]] = None,
                 use_cache: bool = True) -> TuningResult:
    """Pick the cheapest legal schedule for ``program``.

    Every :data:`DEFAULT_CANDIDATES` spec is parsed, applied (specs
    that raise :class:`~repro.isa.transforms.ScheduleError` — e.g.
    register pressure — are skipped), and scored with
    :func:`estimated_program_cost`.  Candidates are then considered
    cheapest-first; the first one accepted by ``verifier`` (always, when
    no verifier is given) wins.  The unscheduled baseline is always a
    candidate and always verifies, so tuning cannot fail.
    """
    key = (program.name, program.source, _bindings_key(bindings))
    if use_cache and key in _CACHE:
        hit = _CACHE[key]
        return TuningResult(schedule=hit.schedule, spec=hit.spec,
                            program=hit.program, trials=0, cached=True,
                            cost=hit.cost, baseline_cost=hit.baseline_cost)

    baseline_cost = estimated_program_cost(program, bindings)
    scored = [(baseline_cost, 0, "baseline", BASELINE, program)]
    trials = 1
    for order, spec in enumerate(DEFAULT_CANDIDATES):
        schedule = parse_schedule(spec)
        if not schedule.steps:
            continue  # baseline already scored
        try:
            candidate = apply_schedule(program, schedule, bindings)
        except ScheduleError:
            trials += 1
            continue
        if candidate is program:
            continue  # spec was a no-op on this kernel; identical to baseline
        trials += 1
        cost = estimated_program_cost(candidate, bindings)
        scored.append((cost, order + 1, spec, schedule, candidate))

    scored.sort(key=lambda row: (row[0], row[1]))
    result = None
    for cost, _order, spec, schedule, candidate in scored:
        if (verifier is not None and candidate is not program
                and not verifier(candidate)):
            continue
        result = TuningResult(schedule=schedule, spec=spec, program=candidate,
                              trials=trials, cached=False, cost=cost,
                              baseline_cost=baseline_cost)
        break
    assert result is not None  # baseline always survives
    if use_cache:
        _CACHE[key] = result
    return result


def resolve_schedule(program: Program, schedule,
                     bindings: Optional[Dict[str, float]] = None,
                     verifier: Optional[Callable[[Program], bool]] = None,
                     ) -> Tuple[Program, str, int]:
    """Shared plumbing for the harness / runtime / CLI ``schedule=`` knob.

    ``schedule`` may be ``None`` (no-op), the string ``"auto"`` (run the
    tuner), a schedule spec string (``"unroll4+stage_mem"``), or a
    :class:`~repro.isa.transforms.Schedule`.  Returns ``(program, spec,
    tuner_trials)`` where ``spec`` names what was applied ("baseline"
    when nothing changed).
    """
    if schedule is None:
        return program, "", 0
    if isinstance(schedule, str) and schedule == "auto":
        tuned = tune_program(program, bindings, verifier=verifier)
        return tuned.program, tuned.spec, tuned.trials
    if isinstance(schedule, str):
        schedule = parse_schedule(schedule)
    if not isinstance(schedule, Schedule):
        raise ScheduleError(
            f"schedule must be None, 'auto', a spec string or a Schedule, "
            f"got {schedule!r}")
    out = apply_schedule(program, schedule, bindings)
    return out, schedule.describe(), 0
