"""Differential suite: the gang tier must be bit-identical to scalar.

Every scenario runs the same program twice — once on a
``GmaDevice(engine="scalar")``, once on ``engine="megaop"``, whose
lockstep gang loop these scenarios aim at — over fresh address spaces,
then compares outputs, per-shred ``ShredRun`` records
(including the ``(issue, latency)`` traces the timing model replays) and
every aggregate counter, through the shared harness in
``tests/helpers.py``.
"""

from __future__ import annotations

import numpy as np

from tests.helpers import assert_identical, run_engines

# -- targeted divergence scenarios -----------------------------------------------------


def test_homogeneous_launch_fully_ganged():
    asm = """
    iota.16.f vr1
    mov.1.dw vr2 = 0
    loop:
    add.16.f vr3 = vr1, vr1
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    end
    """
    scalar, gang = run_engines(asm, [{"iters": 6.0}] * 8)
    assert_identical(scalar, gang)
    assert gang[0].scalar_fallbacks == 0
    assert gang[0].gang_lanes_retired == gang[0].instructions


def test_divergent_branch_repacks_minority():
    """Different trip counts split the gang; the loop-exit region is
    pure, so the short-trip minority parks at the reconvergence point
    and is re-admitted instead of peeling to the scalar interpreter."""
    asm = """
    mov.1.dw vr2 = 0
    loop:
    add.16.f vr3 = vr2, vr2
    add.1.dw vr2 = vr2, 1
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    end
    """
    bindings = [{"iters": 8.0}] * 5 + [{"iters": 4.0}] * 3
    scalar, gang = run_engines(asm, bindings)
    assert_identical(scalar, gang)
    assert gang[0].scalar_fallbacks == 0  # nobody retires on scalar
    assert gang[0].gang_repacks == 1
    assert gang[0].lanes_readmitted == 3  # the short-trip minority
    assert gang[0].gang_lanes_retired > 0


def test_nested_divergence_repacks_both_levels():
    """A diamond inside a diamond: the inner split parks and merges at
    the inner join while the outer arm is still parked, then everything
    reconverges at the outer join — two repack merges, zero peels."""
    asm = """
    bcast.16.f vr1 = x
    mov.16.f vr3 = 0.0
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
    """
    bindings = [{"x": float(i)} for i in range(8)]
    scalar, gang = run_engines(asm, bindings)
    assert_identical(scalar, gang)
    assert gang[0].scalar_fallbacks == 0
    assert gang[0].gang_repacks == 2          # inner join, then outer
    assert gang[0].lanes_readmitted == 5      # {3,4,5} inner + {6,7} outer
    assert gang[0].gang_lanes_retired == gang[0].instructions


def test_ordered_side_effect_arm_still_peels():
    """A SPAWN inside the divergent region defeats repacking: the region
    is not pure, so both sides of the split take the deferred peel and
    children enter the global queue in scalar-identical order."""
    asm = """
    mov.1.dw vr2 = __spawn_arg
    cmp.gt.1.dw p1 = vr2, 0
    br p1, noisy
    add.16.f vr3 = vr2, vr2
    jmp done
    noisy:
    add.16.f vr3 = vr2, 1.0
    spawn 0
    done:
    end
    """
    bindings = [{"__spawn_arg": 1.0}] * 2 + [{"__spawn_arg": 0.0}] * 2
    scalar, gang = run_engines(asm, bindings)
    assert_identical(scalar, gang)
    assert scalar[0].spawned_shreds == 2
    assert gang[0].gang_repacks == 0          # impure region: no parking
    assert gang[0].lanes_readmitted == 0
    # the quiet minority defers at the split; the noisy majority peels
    # at the spawn itself; the two children gang the pure path
    assert gang[0].scalar_fallbacks == 4


def test_randomized_divergence_fuzz_all_engines():
    """Seeded fuzz over data-dependent diamonds nested in a variable
    trip-count loop: every engine tier must stay bit-identical to scalar
    for every divergence pattern the draw produces."""
    asm = """
    mov.1.dw vr2 = 0
    bcast.16.f vr1 = x
    mov.16.f vr4 = 0.0
    loop:
    cmp.gt.1.dw p2 = vr1, 8
    br p2, high
    add.16.f vr4 = vr4, vr1
    jmp next
    high:
    mad.16.f vr4 = vr4, vr1, vr1
    next:
    add.1.dw vr2 = vr2, 1
    add.16.f vr1 = vr1, step
    cmp.lt.1.dw p1 = vr2, iters
    br p1, loop
    end
    """
    rng = np.random.default_rng(0xD1CE)
    for _trial in range(4):
        bindings = [{"x": float(rng.integers(0, 7)),
                     "step": float(rng.integers(1, 4)),
                     "iters": float(rng.integers(1, 9))}
                    for _ in range(8)]
        scalar, megaop = run_engines(asm, bindings)
        assert_identical(scalar, megaop)


def test_ceh_fault_peels_faulting_shreds():
    """Division by zero rides the CEH proxy path on both engines."""
    asm = """
    bcast.16.f vr1 = d
    mov.16.f vr2 = vr1
    div.16.f vr3 = vr2, vr1
    end
    """
    bindings = [{"d": 0.0 if i in (1, 4) else 2.0} for i in range(6)]
    scalar, gang = run_engines(asm, bindings)
    assert_identical(scalar, gang)
    assert scalar[0].ceh_events == 2
    assert gang[0].scalar_fallbacks == 2  # only the faulting shreds peel


def test_atr_miss_peels_in_queue_order():
    """An unprepared surface faults the gang's first store; the peel must
    preserve ATR service order, so every shred behind the miss peels."""
    asm = """
    mov.1.dw vr2 = base
    iota.16.f vr1
    st.16.f (OUT, vr2, 0) = vr1
    end
    """
    bindings = [{"base": float(16 * i)} for i in range(4)]
    scalar, gang = run_engines(asm, bindings,
                               surfaces_spec={"OUT": (64, 1)},
                               prepare_surfaces=False)
    assert_identical(scalar, gang)
    assert scalar[0].atr_events == 1  # first store faults, rest hit
    assert gang[0].scalar_fallbacks == 4


def test_spawn_peels_and_matches_child_order():
    """SPAWN peels the whole gang so children join the global queue in
    scalar-identical order."""
    asm = """
    mov.1.dw vr2 = __spawn_arg
    cmp.gt.1.dw p1 = vr2, 0
    (!p1) jmp done
    spawn 0
    done:
    end
    """
    bindings = [{"__spawn_arg": 1.0}] * 2 + [{"__spawn_arg": 0.0}] * 2
    scalar, gang = run_engines(asm, bindings)
    assert_identical(scalar, gang)
    assert scalar[0].spawned_shreds == 2
    assert scalar[0].shreds_executed == 6  # 4 parents + 2 children
    assert gang[0].scalar_fallbacks >= 4


def test_divergent_spawn_assigns_children_in_queue_order():
    """A divergent branch must not let the peeled side spawn ahead of
    earlier-queue shreds still ganged: children have to enter the global
    queue in scalar-identical order (peels are deferred and replayed in
    queue order after the gang drains)."""
    asm = """
    mov.1.dw vr2 = rank
    cmp.lt.1.dw p1 = vr2, 2
    br p1, extra
    jmp fork
    extra:
    add.16.f vr3 = vr2, vr2
    fork:
    mov.1.dw vr4 = __spawn_arg
    cmp.ge.1.dw p2 = vr4, 0
    br p2, out
    spawn rank
    out:
    end
    """
    bindings = [{"rank": float(i), "__spawn_arg": -1.0} for i in range(4)]
    scalar, gang = run_engines(asm, bindings)
    assert_identical(scalar, gang)
    assert scalar[0].spawned_shreds == 4
    assert scalar[0].shreds_executed == 8  # 4 parents + 4 children
    # children (queue positions 4..7) were spawned in parent queue order
    for result, _ in (scalar, gang):
        child_args = [run.shred.bindings["__spawn_arg"]
                      for run in result.runs[4:]]
        assert child_args == [0.0, 1.0, 2.0, 3.0]


def test_deferred_peel_keeps_atr_first_touch_order():
    """The peeled side of a divergence reaches a shared unmapped page
    early in program order; the ganged side reaches it late.  Scalar
    order says the *earliest-queue* shred services the miss, so the
    peeled shreds must wait for the gang to drain before running."""
    asm = """
    mov.1.dw vr2 = early
    iota.16.f vr1
    cmp.gt.1.dw p1 = vr2, 0
    br p1, fast
    add.16.f vr3 = vr1, vr1
    add.16.f vr3 = vr3, vr1
    st.16.f (OUT, idx, 0) = vr1
    jmp done
    fast:
    st.16.f (OUT, idx, 0) = vr1
    done:
    end
    """
    # shreds 0,1 store late; shreds 2,3 branch off and store early —
    # every store lands on the same unmapped page of OUT
    bindings = [{"early": 0.0 if i < 2 else 1.0, "idx": float(16 * i)}
                for i in range(4)]
    scalar, gang = run_engines(asm, bindings,
                               surfaces_spec={"OUT": (64, 1)},
                               prepare_surfaces=False)
    assert_identical(scalar, gang)
    # queue-first shred 0 takes the one ATR miss on both engines
    assert [run.atr_events for run in scalar[0].runs] == [1, 0, 0, 0]
    assert [run.atr_events for run in gang[0].runs] == [1, 0, 0, 0]


def test_single_shred_runs_scalar():
    """A one-shred launch is not gangable; it counts as a fallback."""
    asm = "iota.16.f vr1\nend\n"
    scalar, gang = run_engines(asm, [{}])
    assert_identical(scalar, gang)
    assert gang[0].gang_lanes_retired == 0
    assert gang[0].scalar_fallbacks == 1
