"""The engine counter record: one definition for every layer.

Each execution tier (gang, fused, megaop) and the predecode cache count
what they did into an :class:`EngineCounters`.  The gang outcome, the
device run result, the kernel harness total, the fabric aggregate and
the runtime's lifetime stats all *are* this record (they inherit it), so
a counter is declared once here, merged by :meth:`EngineCounters.add`
and iterated by name (:data:`ENGINE_COUNTERS`) by the trace and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(kw_only=True)
class EngineCounters:
    """What the execution engines did over some span of work.

    :attr:`gang_residency_pct` is a share of the holder's
    ``instructions`` total, which every holder but the per-drain
    ``GangOutcome`` carries.
    """

    gang_lanes_retired: int = 0    # instructions retired while ganged
    scalar_fallbacks: int = 0      # shreds executed by the scalar engine
    predecode_hits: int = 0        # decode-cache hits
    predecode_misses: int = 0      # decode-cache misses
    batched_mem_lanes: int = 0     # memory lanes retired in lockstep
    batched_translations: int = 0  # pages resolved by vectorized translate
    tlb_vector_hits: int = 0       # pages served by the TLB vector snapshot
    fused_blocks_retired: int = 0  # superblocks retired by the fused path
    trace_chains: int = 0          # uniform branches chained block-to-block
    fusion_compiles: int = 0       # blocks compiled (first-run cost)
    megaops_retired: int = 0       # whole-trace traversals retired by megaops
    megaop_compiles: int = 0       # hot cycles promoted to megaops
    megaop_deopts: int = 0         # megaop guard failures (divergence/fault)
    gang_repacks: int = 0          # reconvergence merges re-admitting sub-gangs
    lanes_readmitted: int = 0      # parked lanes merged back at a join

    def add(self, other: "EngineCounters") -> None:
        """Accumulate ``other``'s counters into this record."""
        for name in ENGINE_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def gang_residency_pct(self) -> float:
        """Share of retired instructions that retired while ganged,
        derived from totals (percentages don't sum)."""
        if not self.instructions:
            return 0.0
        return 100.0 * self.gang_lanes_retired / self.instructions


#: The counter names, in declaration order (the Chrome counter track and
#: ``chirun --stats`` list them in this order).
ENGINE_COUNTERS = tuple(f.name for f in fields(EngineCounters))
