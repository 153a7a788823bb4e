"""Functional semantics: execute one instruction against an ExecContext.

This module is *backend neutral*: the GMA device model drives it with a
timing-aware context, the CEH proxy handler drives it with an IA32 context
(``supports_double = True``) to emulate faulting instructions, and the
debugger drives it to single-step.

Double-precision policy (paper section 3.3): the GMA X3000 has no
double-precision vector hardware, so any ``.df`` arithmetic executed on an
exo-sequencer context (``supports_double = False``) raises
:class:`~repro.errors.UnsupportedOperationFault`, which the exoskeleton
turns into a CEH proxy request.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import (
    DivideByZeroFault,
    ExecutionFault,
    FpOverflowFault,
    UnsupportedOperationFault,
)
from . import predecode
from .instructions import Effect, Instruction
from .opcodes import Condition, Opcode
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
from .types import DataType, VLEN

#: Kept as an alias for older callers; the canonical set lives in
#: :mod:`repro.isa.predecode` so both engines share one definition.
_DF_CAPABLE_OPS = predecode.DF_CAPABLE_OPS


def execute(program: Program, ip: int, ctx) -> Effect:
    """Execute ``program.instructions[ip]`` on ``ctx`` and report effects.

    Raises :class:`~repro.errors.ExecutionFault` subclasses for
    architectural faults (these trigger CEH) and lets memory-translation
    events (:class:`~repro.errors.TlbMiss`) propagate for ATR.

    Dispatch goes through the program predecode cache: guard/df
    classification, branch targets, operand readers and the opcode handler
    are resolved once per program, not once per executed instruction.
    """
    pre = predecode.lookup(program).instrs[ip]
    instr = pre.instr
    effect = Effect()
    n = instr.width
    mask = _guard_mask(instr, ctx, n) if pre.guarded else None

    if pre.df_faults and not getattr(ctx, "supports_double", False):
        raise UnsupportedOperationFault(
            f"double-precision {instr.opcode.value} is not supported by "
            f"this sequencer", instruction=instr)

    handler = pre.handler
    if handler is None:
        handler = _HANDLERS.get(instr.opcode, _h_alu)
        pre.handler = handler
    handler(program, pre, instr, ctx, effect, n, mask)
    return effect


# ---------------------------------------------------------------------------
# opcode handlers (uniform signature, bound into the predecode entry)
# ---------------------------------------------------------------------------


def _h_end(program, pre, instr, ctx, effect, n, mask):
    effect.ended = True


def _h_nop(program, pre, instr, ctx, effect, n, mask):
    pass


def _h_flush(program, pre, instr, ctx, effect, n, mask):
    ctx.flush_device_cache()
    effect.flushed_cache = True


def _branch_target(program, pre, instr) -> int:
    if pre.target is not None:
        return pre.target
    # unresolved at predecode: reproduce the original lookup (and its
    # AssemblyError / IndexError on malformed branches)
    return program.target(instr.srcs[-1].name)


def _h_jmp(program, pre, instr, ctx, effect, n, mask):
    taken = True
    if instr.pred is not None:  # guarded jump: any-lane semantics
        taken = ctx.regs.pred_any(instr.pred.index)
        if instr.pred.negate:
            taken = not taken
    if taken:
        effect.next_ip = _branch_target(program, pre, instr)


def _h_br(program, pre, instr, ctx, effect, n, mask):
    guard = instr.pred
    taken = ctx.regs.pred_any(guard.index)
    if guard.negate:
        taken = not taken
    if taken:
        effect.next_ip = _branch_target(program, pre, instr)


def _h_ld(program, pre, instr, ctx, effect, n, mask):
    _do_load(instr, ctx, effect, mask)


def _h_st(program, pre, instr, ctx, effect, n, mask):
    _do_store(instr, ctx, effect, mask)


def _h_ldblk(program, pre, instr, ctx, effect, n, mask):
    _do_load_block(instr, ctx, effect)


def _h_stblk(program, pre, instr, ctx, effect, n, mask):
    _do_store_block(instr, ctx, effect)


def _h_sample(program, pre, instr, ctx, effect, n, mask):
    _do_sample(instr, ctx, effect)


def _h_cmp(program, pre, instr, ctx, effect, n, mask):
    _do_cmp(instr, ctx, n)


def _h_sel(program, pre, instr, ctx, effect, n, mask):
    _do_sel(instr, ctx, n, mask)


def _h_ilv(program, pre, instr, ctx, effect, n, mask):
    _do_ilv(instr, ctx, n, mask)


def _h_sendreg(program, pre, instr, ctx, effect, n, mask):
    _do_sendreg(instr, ctx, effect, n)


def _h_spawn(program, pre, instr, ctx, effect, n, mask):
    arg = float(instr.srcs[0].read(ctx, 1)[0])
    ctx.spawn_shred(arg)
    effect.spawned.append(arg)


def _h_alu(program, pre, instr, ctx, effect, n, mask):
    _do_alu(instr, ctx, n, mask, pre)


_HANDLERS = {
    Opcode.END: _h_end,
    Opcode.NOP: _h_nop,
    Opcode.FENCE: _h_nop,
    Opcode.FLUSH: _h_flush,
    Opcode.JMP: _h_jmp,
    Opcode.BR: _h_br,
    Opcode.LD: _h_ld,
    Opcode.ST: _h_st,
    Opcode.LDBLK: _h_ldblk,
    Opcode.STBLK: _h_stblk,
    Opcode.SAMPLE: _h_sample,
    Opcode.CMP: _h_cmp,
    Opcode.SEL: _h_sel,
    Opcode.ILV: _h_ilv,
    Opcode.SENDREG: _h_sendreg,
    Opcode.SPAWN: _h_spawn,
}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _guard_mask(instr: Instruction, ctx, n: int) -> Optional[np.ndarray]:
    if instr.pred is None or instr.opcode is Opcode.BR:
        return None
    width = min(n, VLEN)
    mask = ctx.regs.read_pred(instr.pred.index, width)
    if instr.pred.negate:
        mask = ~mask
    if n > width:  # ranges wider than a predicate repeat the pattern
        reps = -(-n // width)
        mask = np.tile(mask, reps)[:n]
    return mask


def _write_masked(dst: Operand, ctx, values: np.ndarray,
                  mask: Optional[np.ndarray], ty: DataType, n: int) -> None:
    if mask is not None:
        old = dst.read(ctx, n)
        values = np.where(mask, values, old)
    dst.write(ctx, values, ty)


def _do_load(instr: Instruction, ctx, effect: Effect,
             mask: Optional[np.ndarray]) -> None:
    mem = instr.srcs[0]
    if not isinstance(mem, MemOperand):
        raise ExecutionFault("ld source must be a memory operand", instr)
    index = mem.element_index(ctx)
    values = ctx.surface_read(mem.surface, index, instr.width, instr.dtype)
    _write_masked(instr.dsts[0], ctx, values, mask, instr.dtype, instr.width)
    effect.bytes_read += _read_charge(ctx, instr.width * instr.dtype.size)


def _do_store(instr: Instruction, ctx, effect: Effect,
              mask: Optional[np.ndarray]) -> None:
    mem, src = instr.srcs
    if not isinstance(mem, MemOperand):
        raise ExecutionFault("st target must be a memory operand", instr)
    index = mem.element_index(ctx)
    values = instr.dtype.wrap(src.read(ctx, instr.width))
    if mask is not None:
        old = ctx.surface_read(mem.surface, index, instr.width, instr.dtype)
        values = np.where(mask, values, old)
        effect.bytes_read += _read_charge(ctx, instr.width * instr.dtype.size)
    ctx.surface_write(mem.surface, index, values, instr.dtype)
    effect.bytes_written += _write_charge(ctx, instr.width * instr.dtype.size)


def _do_load_block(instr: Instruction, ctx, effect: Effect) -> None:
    blk = instr.srcs[0]
    if not isinstance(blk, BlockOperand) or instr.block is None:
        raise ExecutionFault("ldblk needs (surface, x, y) and WxH shape", instr)
    x, y = blk.coords(ctx)
    w, h = instr.block
    values = ctx.surface_read_block(blk.surface, x, y, w, h, instr.dtype)
    dst = instr.dsts[0]
    if isinstance(dst, RangeOperand):
        dst.write_packed(ctx, values, instr.dtype)
    elif isinstance(dst, RegOperand) and instr.width <= VLEN:
        ctx.regs.write_lanes(dst.reg, instr.dtype.wrap(values))
    else:
        raise ExecutionFault("ldblk destination must be a register range", instr)
    effect.bytes_read += _read_charge(ctx, instr.width * instr.dtype.size)


def _do_store_block(instr: Instruction, ctx, effect: Effect) -> None:
    blk, src = instr.srcs
    if not isinstance(blk, BlockOperand) or instr.block is None:
        raise ExecutionFault("stblk needs (surface, x, y) and WxH shape", instr)
    x, y = blk.coords(ctx)
    w, h = instr.block
    if isinstance(src, RangeOperand):
        values = src.read_packed(ctx, instr.width)
    elif isinstance(src, RegOperand) and instr.width <= VLEN:
        values = ctx.regs.read_lanes(src.reg, instr.width)
    else:
        raise ExecutionFault("stblk source must be a register range", instr)
    ctx.surface_write_block(blk.surface, x, y, instr.dtype.wrap(values),
                            w, h, instr.dtype)
    effect.bytes_written += _write_charge(ctx, instr.width * instr.dtype.size)


def _do_sample(instr: Instruction, ctx, effect: Effect) -> None:
    blk = instr.srcs[0]
    if not isinstance(blk, BlockOperand):
        raise ExecutionFault("sample needs a (surface, xs, ys) operand", instr)
    n = instr.width
    xs = blk.x.read(ctx, n)
    ys = blk.y.read(ctx, n)
    values = ctx.sample(blk.surface, xs, ys)
    instr.dsts[0].write(ctx, values, instr.dtype)
    effect.used_sampler = True
    # the sampler's texture cache captures the 4-neighbour overlap between
    # adjacent coordinates; net demand traffic is ~one texel per sample
    effect.bytes_read += n * instr.dtype.size


def _do_cmp(instr: Instruction, ctx, n: int) -> None:
    dst = instr.dsts[0]
    if not isinstance(dst, PredOperand):
        raise ExecutionFault("cmp destination must be a predicate register", instr)
    a = instr.dtype.wrap(instr.srcs[0].read(ctx, n))
    b = instr.dtype.wrap(instr.srcs[1].read(ctx, n))
    mask = _COMPARES[instr.cond](a, b)
    dst.write_mask(ctx, mask[:VLEN] if n > VLEN else mask)


def _do_sel(instr: Instruction, ctx, n: int, mask) -> None:
    pred, a_op, b_op = instr.srcs
    if not isinstance(pred, PredOperand):
        raise ExecutionFault("sel first source must be a predicate register", instr)
    sel_mask = pred.read_mask(ctx, min(n, VLEN))
    if n > VLEN:
        sel_mask = np.tile(sel_mask, -(-n // VLEN))[:n]
    a = a_op.read(ctx, n)
    b = b_op.read(ctx, n)
    _write_masked(instr.dsts[0], ctx, np.where(sel_mask, a, b), mask,
                  instr.dtype, n)


def _do_ilv(instr: Instruction, ctx, n: int, mask) -> None:
    if n % 2:
        raise ExecutionFault("ilv width must be even", instr)
    half = n // 2
    a = instr.srcs[0].read(ctx, half)
    b = instr.srcs[1].read(ctx, half)
    out = np.empty(n, dtype=np.float64)
    out[0::2] = a
    out[1::2] = b
    _write_masked(instr.dsts[0], ctx, out, mask, instr.dtype, n)


def _do_sendreg(instr: Instruction, ctx, effect: Effect, n: int) -> None:
    target, src = instr.srcs
    if not isinstance(target, ShredRegOperand):
        raise ExecutionFault("sendreg target must be (shred, vrN)", instr)
    shred_id = int(target.target.read(ctx, 1)[0])
    values = instr.dtype.wrap(src.read(ctx, n))
    ctx.send_register(shred_id, target.reg, values)
    effect.sent_registers.append((shred_id, target.reg))


def _do_alu(instr: Instruction, ctx, n: int, mask, pre=None) -> None:
    ty = instr.dtype
    readers = pre.src_readers if pre is not None \
        else tuple(src.read for src in instr.srcs)
    srcs = [read(ctx, n) for read in readers]
    with np.errstate(over="ignore", invalid="ignore"):
        result = _alu_compute(instr, srcs, ty)
    if ty is DataType.F:
        # overflow is detected at single-precision writeback width
        with np.errstate(over="ignore", invalid="ignore"):
            narrowed = ty.wrap_unguarded(result)
            srcs_finite = all(
                np.isfinite(ty.wrap_unguarded(s)).all() for s in srcs)
        if np.isinf(narrowed).any() and srcs_finite:
            if not getattr(ctx, "supports_double", False):
                raise FpOverflowFault(
                    f"float overflow in {instr.opcode.value}",
                    instruction=instr,
                    lane=int(np.flatnonzero(np.isinf(narrowed))[0]))
    if instr.opcode in (Opcode.HADD, Opcode.HMAX):
        instr.dsts[0].write(ctx, result, ty)  # scalar reductions ignore mask
    else:
        _write_masked(instr.dsts[0], ctx, result, mask, ty, n)


def _alu_compute(instr: Instruction, srcs, ty: DataType) -> np.ndarray:
    op = instr.opcode
    wrapped = [ty.wrap_unguarded(s) for s in srcs]
    if op in (Opcode.MOV, Opcode.CVT):
        return wrapped[0]
    if op is Opcode.IOTA:
        return np.arange(instr.width, dtype=np.float64)
    if op is Opcode.BCAST:
        return np.full(instr.width, wrapped[0].flat[0], dtype=np.float64)
    if op is Opcode.ADD:
        return wrapped[0] + wrapped[1]
    if op is Opcode.SUB:
        return wrapped[0] - wrapped[1]
    if op is Opcode.MUL:
        return wrapped[0] * wrapped[1]
    if op is Opcode.MAD:
        return wrapped[0] * wrapped[1] + wrapped[2]
    if op is Opcode.DIV:
        divisor = wrapped[1]
        if np.any(divisor == 0):
            raise DivideByZeroFault(
                "divide by zero", instruction=instr,
                lane=int(np.flatnonzero(divisor == 0)[0]))
        result = wrapped[0] / divisor
        return result if ty.is_float else np.trunc(result)
    if op is Opcode.MIN:
        return np.minimum(wrapped[0], wrapped[1])
    if op is Opcode.MAX:
        return np.maximum(wrapped[0], wrapped[1])
    if op is Opcode.AVG:
        if ty.is_float:
            return (wrapped[0] + wrapped[1]) / 2.0
        return np.floor((wrapped[0] + wrapped[1] + 1) / 2.0)
    if op is Opcode.ABS:
        return np.abs(wrapped[0])
    if op is Opcode.SHL:
        return _as_int(wrapped[0]) * (2.0 ** _as_int(wrapped[1]))
    if op is Opcode.SHR:
        return np.floor(_as_int(wrapped[0]) / (2.0 ** _as_int(wrapped[1])))
    if op is Opcode.AND:
        return _bitwise(np.bitwise_and, wrapped[0], wrapped[1])
    if op is Opcode.OR:
        return _bitwise(np.bitwise_or, wrapped[0], wrapped[1])
    if op is Opcode.XOR:
        return _bitwise(np.bitwise_xor, wrapped[0], wrapped[1])
    if op is Opcode.NOT:
        return _bitwise(np.bitwise_xor, wrapped[0],
                        np.full_like(wrapped[0], (1 << (ty.size * 8)) - 1))
    if op is Opcode.HADD:
        return np.array([wrapped[0].sum()], dtype=np.float64)
    if op is Opcode.HMAX:
        return np.array([wrapped[0].max()], dtype=np.float64)
    raise ExecutionFault(f"unimplemented opcode {op.value}", instruction=instr)


def execute_alu_batched(instr: Instruction, srcs, ty: DataType,
                        rows: int) -> np.ndarray:
    """Compute one ALU instruction over a ``(rows, width)`` batch.

    Sources are 2-D with the shred axis first; the result has the same
    layout.  Most opcodes are elementwise, so :func:`_alu_compute` already
    handles them; only the shape-sensitive ones (``iota``/``bcast`` and the
    horizontal reductions) need a batched formulation.  Faults raised here
    (divide-by-zero and the like) are *batch-level*: the gang tier treats
    them as "re-run this step per shred" so the scalar reference produces
    the architectural per-shred fault.
    """
    op = instr.opcode
    if op is Opcode.IOTA:
        return np.tile(np.arange(instr.width, dtype=np.float64), (rows, 1))
    if op is Opcode.BCAST:
        wrapped = ty.wrap_unguarded(srcs[0])
        return np.repeat(wrapped[:, :1], instr.width, axis=1)
    if op is Opcode.HADD:
        return ty.wrap_unguarded(srcs[0]).sum(axis=1, keepdims=True)
    if op is Opcode.HMAX:
        return ty.wrap_unguarded(srcs[0]).max(axis=1, keepdims=True)
    return _alu_compute(instr, srcs, ty)


def _as_int(values: np.ndarray) -> np.ndarray:
    return np.trunc(values)


def _bitwise(fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return fn(a.astype(np.int64), b.astype(np.int64)).astype(np.float64)


def _read_charge(ctx, fallback: int) -> int:
    """Demand read traffic: the context's cache-aware charge if it keeps
    one (the GMA device model does), else the raw access size."""
    pop = getattr(ctx, "pop_read_charge", None)
    return pop() if pop is not None else fallback


def _write_charge(ctx, fallback: int) -> int:
    pop = getattr(ctx, "pop_write_charge", None)
    return pop() if pop is not None else fallback


_COMPARES = {
    Condition.EQ: lambda a, b: a == b,
    Condition.NE: lambda a, b: a != b,
    Condition.LT: lambda a, b: a < b,
    Condition.LE: lambda a, b: a <= b,
    Condition.GT: lambda a, b: a > b,
    Condition.GE: lambda a, b: a >= b,
}
