"""Instruction scheduler: semantics preserved, latency hidden."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.isa.opcodes import Opcode
from repro.isa.scheduler import schedule_program
from repro.isa.tuning import estimated_program_cost
from tests.helpers import FakeContext
from repro.isa import semantics


def run_to_end(program, ctx, max_steps=10000):
    ip = 0
    steps = 0
    while ip < len(program.instructions):
        effect = semantics.execute(program, ip, ctx)
        if effect.ended:
            break
        ip = effect.next_ip if effect.next_ip is not None else ip + 1
        steps += 1
        assert steps < max_steps
    return ctx


def equivalent(source, bindings=None, surfaces=None):
    """Run original and scheduled; assert identical final state."""
    program = assemble(source)
    scheduled = schedule_program(program)
    a = FakeContext(bindings, surfaces)
    b = FakeContext(bindings, surfaces)
    run_to_end(program, a)
    run_to_end(scheduled, b)
    assert np.array_equal(a.regs.snapshot()["v"], b.regs.snapshot()["v"])
    assert np.array_equal(a.regs.snapshot()["p"], b.regs.snapshot()["p"])
    for name in a.surfaces:
        assert np.array_equal(a.surfaces[name], b.surfaces[name]), name
    return program, scheduled


INDEPENDENT_LOADS = """
    ld.4.dw [vr1..vr4] = (S, 0, 0)
    add.4.dw [vr5..vr8] = [vr1..vr4], 1
    ld.4.dw [vr9..vr12] = (S, 4, 0)
    add.4.dw [vr13..vr16] = [vr9..vr12], 2
    ld.4.dw [vr17..vr20] = (S, 8, 0)
    add.4.dw [vr21..vr24] = [vr17..vr20], 3
    end
"""


class TestSemanticPreservation:
    def test_independent_loads(self):
        equivalent(INDEPENDENT_LOADS, surfaces={"S": np.arange(16.0)})

    def test_raw_chain_not_broken(self):
        equivalent("""
            mov.1.dw vr1 = 1
            add.1.dw vr1 = vr1, 1
            add.1.dw vr1 = vr1, 1
            mul.1.dw vr2 = vr1, 10
            end
        """)

    def test_war_and_waw_respected(self):
        equivalent("""
            mov.1.dw vr1 = 5
            mov.1.dw vr2 = vr1
            mov.1.dw vr1 = 9
            mov.1.dw vr3 = vr1
            end
        """)

    def test_predicates_ordered(self):
        equivalent("""
            mov.4.dw vr1 = 3
            cmp.lt.4.dw p1 = vr1, 5
            (p1) add.4.dw vr2 = vr2, 7
            cmp.gt.4.dw p1 = vr1, 0
            (p1) add.4.dw vr3 = vr3, 9
            end
        """)

    def test_guarded_destination_merge_is_a_use(self):
        equivalent("""
            mov.4.dw vr2 = 100
            cmp.lt.4.dw p1 = vr2, 0
            (p1) mov.4.dw vr2 = 1
            add.4.dw vr3 = vr2, 0
            end
        """)

    def test_store_load_ordering_same_surface(self):
        equivalent("""
            ld.1.dw vr1 = (S, 0, 0)
            add.1.dw vr1 = vr1, 1
            st.1.dw (S, 0, 0) = vr1
            ld.1.dw vr2 = (S, 0, 0)
            add.1.dw vr3 = vr2, 1
            st.1.dw (S, 1, 0) = vr3
            end
        """, surfaces={"S": np.zeros(4)})

    def test_loops_and_labels_stable(self):
        program, scheduled = equivalent("""
            mov.1.dw vr1 = 0
            mov.1.dw vr2 = 0
        loop:
            ld.1.dw vr3 = (S, vr1, 0)
            add.1.dw vr2 = vr2, vr3
            add.1.dw vr1 = vr1, 1
            cmp.lt.1.dw p1 = vr1, 4
            br p1, loop
            st.1.dw (S, 0, 0) = vr2
            end
        """, surfaces={"S": np.arange(4.0) + 1})
        assert scheduled.labels == program.labels
        # the backward branch stays the last instruction of its block
        assert scheduled.instructions[6].opcode is Opcode.BR

    def test_barriers_pin_system_ops(self):
        program = assemble("""
            mov.1.dw vr1 = 3
            sendreg.1.dw (vr1, vr9) = vr1
            mov.1.dw vr2 = 4
            fence
            mov.1.dw vr3 = 5
            end
        """)
        scheduled = schedule_program(program)
        ops = [i.opcode for i in scheduled.instructions]
        assert ops.index(Opcode.SENDREG) == 1
        assert ops.index(Opcode.FENCE) == 3

    def test_instruction_multiset_preserved(self):
        program = assemble(INDEPENDENT_LOADS)
        scheduled = schedule_program(program)
        assert sorted(map(str, program.instructions)) == \
            sorted(map(str, scheduled.instructions))


class TestLatencyHiding:
    def test_loads_hoist_above_uses(self):
        program = assemble(INDEPENDENT_LOADS)
        scheduled = schedule_program(program)
        ops = [i.opcode for i in scheduled.instructions]
        # all three loads issue before the first dependent add
        first_add = ops.index(Opcode.ADD)
        assert ops[:first_add].count(Opcode.LD) == 3

    def test_estimated_cycles_improve(self):
        program = assemble(INDEPENDENT_LOADS)
        scheduled = schedule_program(program)
        assert estimated_program_cost(scheduled) < \
            estimated_program_cost(program)

    def test_single_context_eu_time_improves(self):
        """Ground truth: execute both versions on the device model with
        operand scoreboarding and a single thread context per EU (nothing
        to hide the stalls), then compare replayed timings."""
        from dataclasses import replace

        from repro.exo.shred import ShredDescriptor
        from repro.gma.device import GmaDevice
        from repro.gma.eu import simulate_device
        from repro.gma.timing import GmaTimingConfig
        from repro.isa.types import DataType
        from repro.memory.address_space import AddressSpace
        from repro.memory.surface import Surface

        config = replace(GmaTimingConfig(), threads_per_eu=1,
                         scoreboard=True)

        def cycles_for(program):
            space = AddressSpace()
            device = GmaDevice(space, config=config)
            surf = Surface.alloc(space, "S", 16, 1, DataType.DW)
            surf.upload(space, np.arange(16.0).reshape(1, 16))
            shred = ShredDescriptor(program=program, surfaces={"S": surf})
            result = device.run([shred])
            return simulate_device(result.runs, config).compute_cycles

        base = cycles_for(assemble(INDEPENDENT_LOADS))
        sched = cycles_for(schedule_program(assemble(INDEPENDENT_LOADS)))
        assert sched < base


_SAFE_LINES = st.lists(st.sampled_from([
    "mov.1.dw vr1 = 3",
    "add.1.dw vr2 = vr1, 1",
    "mul.1.dw vr3 = vr2, vr1",
    "ld.1.dw vr4 = (S, 0, 0)",
    "add.1.dw vr5 = vr4, vr3",
    "st.1.dw (S, 1, 0) = vr5",
    "cmp.lt.1.dw p1 = vr2, vr3",
    "(p1) add.1.dw vr6 = vr6, 1",
    "sub.1.dw vr1 = vr6, vr5",
    "ld.2.dw [vr7..vr8] = (S, 2, 0)",
    "st.2.dw (S, 2, 0) = [vr7..vr8]",
]), min_size=1, max_size=14)


@given(_SAFE_LINES)
def test_random_blocks_stay_equivalent(lines):
    source = "\n".join(lines) + "\nend"
    equivalent(source, surfaces={"S": np.arange(8.0)})
