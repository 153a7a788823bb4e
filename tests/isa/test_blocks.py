"""Basic-block discovery: leaders, terminators, boundaries, edge shapes."""

from __future__ import annotations

from repro.isa import predecode
from repro.isa.assembler import assemble
from repro.isa.blocks import discover_blocks
from repro.isa.program import Program


def blocks_for(asm: str, name: str = "blocks-test"):
    program = assemble(asm, name=name)
    pre = predecode.lookup(program)
    return program, discover_blocks(pre, program.labels)


class TestStraightLine:
    def test_single_block_ending_in_end(self):
        _, blocks = blocks_for("""
        iota.16.f vr1
        add.16.f vr2 = vr1, vr1
        end
        """)
        assert set(blocks) == {0}
        block = blocks[0]
        assert (block.start, block.end) == (0, 3)
        assert block.body_len == 2
        assert block.term == 2
        assert block.ninstr == 3

    def test_memory_op_is_a_boundary(self):
        """A memory op is a body item; a per-shred op (a ``df`` add,
        which proxies through CEH) is the boundary that splits the
        region, and its fall-through is a new leader."""
        _, blocks = blocks_for("""
        iota.16.f vr1
        st.16.f (OUT, 0, 0) = vr1
        ld.16.f vr3 = (IN, 0, 0)
        add.16.df vr2 = vr1, vr1
        add.16.f vr2 = vr3, vr3
        end
        """)
        assert set(blocks) == {0, 4}
        assert blocks[0] == type(blocks[0])(start=0, end=3, body_len=3)
        assert blocks[0].term is None  # stopped at the per-shred add
        assert blocks[4].term == 5

    def test_nop_and_fence_fuse_into_the_body(self):
        _, blocks = blocks_for("""
        iota.16.f vr1
        nop
        fence
        add.16.f vr2 = vr1, vr1
        end
        """)
        assert set(blocks) == {0}
        assert blocks[0].body_len == 4
        assert blocks[0].ninstr == 5


class TestBranches:
    def test_backward_branch_targets_are_leaders(self):
        program, blocks = blocks_for("""
        mov.1.dw vr2 = 0
        loop:
        add.1.dw vr2 = vr2, 1
        cmp.lt.1.dw p1 = vr2, iters
        br p1, loop
        end
        """)
        loop_ip = program.labels["loop"]
        assert loop_ip in blocks
        loop_block = blocks[loop_ip]
        assert loop_block.term == 3  # the br
        assert loop_block.body_len == 2
        # the entry block stops at the loop leader, without a terminator
        assert blocks[0].end == loop_ip
        assert blocks[0].term is None
        # the branch fall-through (the end) is its own block
        assert blocks[4].term == 4
        assert blocks[4].body_len == 0

    def test_self_loop_block(self):
        """A label on its own branch: a block that is just a terminator."""
        program, blocks = blocks_for("""
        mov.1.dw vr2 = 0
        loop:
        br p1, loop
        end
        """)
        loop_ip = program.labels["loop"]
        block = blocks[loop_ip]
        assert block.body_len == 0
        assert block.term == loop_ip
        assert block.ninstr == 1

    def test_unreachable_code_after_jmp_still_gets_a_block(self):
        """Block discovery is static: code after an unconditional jmp is
        a block too (its leader is the jmp's fall-through)."""
        _, blocks = blocks_for("""
        jmp out
        add.16.f vr2 = vr1, vr1
        out:
        end
        """)
        assert 1 in blocks  # the unreachable add
        assert blocks[1].body_len == 1
        assert blocks[2].term == 2

    def test_label_at_end(self):
        """A label pointing at the final end instruction."""
        program, blocks = blocks_for("""
        cmp.gt.1.dw p1 = a, 0
        br p1, done
        add.16.f vr2 = vr1, vr1
        done:
        end
        """)
        done_ip = program.labels["done"]
        assert blocks[done_ip].term == done_ip
        assert blocks[done_ip].body_len == 0


class TestEdgeShapes:
    def test_empty_program(self):
        program = Program(name="empty", instructions=(), labels={})
        pre = predecode.lookup(program)
        assert discover_blocks(pre, program.labels) == {}

    def test_boundary_at_leader_records_no_block(self):
        """A block that would be empty (boundary at its own leader) is
        not recorded; the gang's reference step owns that ip.  A store
        at the leader is a body item, a peel is not."""
        _, blocks = blocks_for("""
        st.16.f (OUT, 0, 0) = vr1
        end
        """)
        assert blocks[0].body_len == 1
        assert blocks[0].term == 1
        _, blocks = blocks_for("""
        spawn 0
        end
        """)
        assert 0 not in blocks
        assert blocks[1].term == 1

    def test_every_block_is_disjoint_and_covers_fusable_ips(self):
        program, blocks = blocks_for("""
        iota.16.f vr1
        mov.1.dw vr2 = 0
        loop:
        mad.16.f vr3 = vr1, vr1, vr1
        st.16.f (OUT, 0, 0) = vr3
        add.1.dw vr2 = vr2, 1
        cmp.lt.1.dw p1 = vr2, iters
        br p1, loop
        end
        """)
        covered = []
        for block in blocks.values():
            covered.extend(range(block.start, block.end))
        # no ip belongs to two blocks
        assert len(covered) == len(set(covered))
        # blocks never span a leader: each starts at its own key
        for start, block in blocks.items():
            assert block.start == start
            assert block.end > block.start


class TestReconvergence:
    """Immediate post-dominator discovery + region-purity annotation
    (predecode attaches ``reconv`` / ``repackable`` to every divergable
    branch of a gangable program)."""

    def pre_for(self, asm: str):
        program = assemble(asm, name="reconv-test")
        return predecode.lookup(program)

    def test_loop_exit_branch_reconverges_at_fall_through(self):
        pre = self.pre_for("""
        mov.1.dw vr2 = 0
        loop:
        add.16.f vr3 = vr2, vr2
        add.1.dw vr2 = vr2, 1
        cmp.lt.1.dw p1 = vr2, iters
        br p1, loop
        end
        """)
        branch = pre.instrs[4]
        assert branch.reconv == 5          # the `end` after the loop
        assert branch.repackable is True   # body is pure ALU

    def test_diamond_reconverges_at_join(self):
        pre = self.pre_for("""
        cmp.gt.1.dw p1 = vr1, 2
        br p1, other
        add.16.f vr3 = vr1, 1.0
        jmp join
        other:
        add.16.f vr3 = vr1, 2.0
        join:
        mul.16.f vr4 = vr3, vr3
        end
        """)
        branch = pre.instrs[1]
        assert branch.reconv == 5          # the join label's mul
        assert branch.repackable is True

    def test_nested_diamonds_get_their_own_joins(self):
        pre = self.pre_for("""
        cmp.gt.1.dw p1 = vr1, 5
        br p1, big
        cmp.gt.1.dw p2 = vr1, 2
        br p2, mid
        add.16.f vr3 = vr1, 1.0
        jmp ijoin
        mid:
        add.16.f vr3 = vr1, 2.0
        ijoin:
        mul.16.f vr3 = vr3, 2.0
        jmp ojoin
        big:
        add.16.f vr3 = vr1, 3.0
        ojoin:
        add.16.f vr4 = vr3, vr1
        end
        """)
        outer, inner = pre.instrs[1], pre.instrs[3]
        assert inner.reconv == 7           # ijoin's mul
        assert outer.reconv == 10          # ojoin's add
        assert inner.repackable and outer.repackable

    def test_spawn_in_region_defeats_repacking(self):
        pre = self.pre_for("""
        mov.1.dw vr2 = __spawn_arg
        cmp.gt.1.dw p1 = vr2, 0
        br p1, noisy
        add.16.f vr3 = vr2, vr2
        jmp done
        noisy:
        spawn 0
        done:
        end
        """)
        branch = pre.instrs[2]
        assert branch.reconv == 6          # arms still join at `done`
        assert branch.repackable is False  # SPAWN is globally ordered

    def test_arm_that_ends_without_joining_has_no_reconv(self):
        pre = self.pre_for("""
        cmp.gt.1.dw p1 = vr1, 0
        br p1, tail
        end
        tail:
        add.16.f vr3 = vr1, vr1
        end
        """)
        branch = pre.instrs[1]
        assert branch.reconv is None       # no common post-dominator
        assert branch.repackable is False

    def test_memory_in_region_stays_repackable(self):
        """BATCH_MEM effects are lane-local (batched path is already
        order-insensitive); only BATCH_PEEL poisons the region."""
        pre = self.pre_for("""
        iota.16.f vr1
        cmp.gt.1.dw p1 = vr1, 0
        br p1, fast
        st.16.f (OUT, 0, 0) = vr1
        fast:
        end
        """)
        branch = pre.instrs[2]
        assert branch.reconv == 4
        assert branch.repackable is True
