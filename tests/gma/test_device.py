"""GMA device: execution, sendreg routing, spawning, ATR/CEH integration."""

import numpy as np
import pytest

from repro.errors import ExecutionFault
from repro.exo.shred import ShredDescriptor, ShredState
from repro.isa.assembler import assemble
from repro.isa.types import DataType
from repro.memory.surface import Surface


def alloc_dw(space, name, n):
    return Surface.alloc(space, name, n, 1, DataType.DW)


def upload(space, surf, values):
    surf.upload(space, np.asarray(values, dtype=np.float64).reshape(1, -1))


class TestBasicExecution:
    def test_single_shred(self, device, space):
        out = alloc_dw(space, "OUT", 4)
        program = assemble("""
            mov.4.dw vr1 = 7
            st.4.dw (OUT, 0, 0) = vr1
            end
        """)
        result = device.run_single(
            ShredDescriptor(program=program, surfaces={"OUT": out}))
        assert result.shreds_executed == 1
        assert out.download(space).reshape(-1).tolist() == [7.0] * 4

    def test_many_shreds_fill_sequencers(self, device, space):
        out = alloc_dw(space, "OUT", 64)
        program = assemble("""
            st.1.dw (OUT, i, 0) = i
            end
        """)
        shreds = [ShredDescriptor(program=program, bindings={"i": i},
                                  surfaces={"OUT": out}) for i in range(64)]
        result = device.run(shreds)
        assert result.shreds_executed == 64
        got = out.download(space).reshape(-1)
        assert np.array_equal(got, np.arange(64.0))
        retired = sum(s.shreds_retired for s in device.sequencers)
        assert retired == 64

    def test_shreds_marked_done(self, device, space):
        out = alloc_dw(space, "OUT", 1)
        program = assemble("st.1.dw (OUT, 0, 0) = 1\nend")
        shred = ShredDescriptor(program=program, surfaces={"OUT": out})
        device.run_single(shred)
        assert shred.state is ShredState.DONE

    def test_32_sequencers(self, device):
        assert len(device.sequencers) == 32
        assert device.sequencers[0].name == "exo-0.0"
        assert device.sequencers[-1].name == "exo-7.3"


class TestAtrIntegration:
    def test_prepared_surfaces_avoid_runtime_faults(self, device, space):
        out = alloc_dw(space, "OUT", 1024)
        program = assemble("st.1.dw (OUT, i, 0) = i\nend")
        shreds = [ShredDescriptor(program=program, bindings={"i": i},
                                  surfaces={"OUT": out}) for i in range(4)]
        result = device.run(shreds)
        assert result.pages_prepared > 0
        assert result.atr_events == 0

    def test_unprepared_run_faults_and_recovers(self, device, space):
        out = alloc_dw(space, "OUT", 4)
        program = assemble("st.4.dw (OUT, 0, 0) = 5\nend")
        shred = ShredDescriptor(program=program, surfaces={"OUT": out})
        result = device.run([shred], prepare_surfaces=False)
        assert result.atr_events >= 1
        assert out.download(space).reshape(-1).tolist() == [5.0] * 4

    def test_gtt_persists_across_runs(self, device, space):
        out = alloc_dw(space, "OUT", 4)
        program = assemble("st.4.dw (OUT, 0, 0) = 5\nend")
        device.run([ShredDescriptor(program=program, surfaces={"OUT": out})],
                   prepare_surfaces=False)
        result = device.run(
            [ShredDescriptor(program=program, surfaces={"OUT": out})],
            prepare_surfaces=False)
        assert result.atr_events == 0  # second run hits the GTT


class TestCehIntegration:
    def test_double_precision_shred_completes(self, device, space):
        x = Surface.alloc(space, "X", 4, 1, DataType.DF)
        y = Surface.alloc(space, "Y", 4, 1, DataType.DF)
        x.upload(space, np.array([[1.5, 2.5, 1e200, -3.0]]))
        program = assemble("""
            ld.4.df [vr1..vr4] = (X, 0, 0)
            mul.4.df [vr5..vr8] = [vr1..vr4], [vr1..vr4]
            st.4.df (Y, 0, 0) = [vr5..vr8]
            end
        """)
        result = device.run_single(
            ShredDescriptor(program=program, surfaces={"X": x, "Y": y}))
        assert result.ceh_events == 1
        got = y.download(space).reshape(-1)
        assert got[2] == 1e400 or got[2] == pytest.approx(1e400)


class TestSendreg:
    def test_producer_to_later_consumer(self, device, space):
        out = alloc_dw(space, "OUT", 1)
        producer_prog = assemble("""
            mov.1.dw vr1 = 123
            sendreg.1.dw (peer, vr5) = vr1
            end
        """)
        consumer_prog = assemble("""
            st.1.dw (OUT, 0, 0) = vr5
            end
        """)
        consumer = ShredDescriptor(program=consumer_prog,
                                   surfaces={"OUT": out})
        producer = ShredDescriptor(
            program=producer_prog,
            bindings={"peer": float(consumer.shred_id)},
            surfaces={"OUT": out})
        consumer.depends_on = (producer.shred_id,)
        device.run([producer, consumer])
        assert out.download(space)[0, 0] == 123.0

    def test_sendreg_to_retired_shred_faults(self, device, space):
        out = alloc_dw(space, "OUT", 1)
        first = ShredDescriptor(program=assemble("end"), surfaces={})
        late_prog = assemble("""
            sendreg.1.dw (peer, vr5) = vr0
            end
        """)
        late = ShredDescriptor(program=late_prog,
                               bindings={"peer": float(first.shred_id)},
                               surfaces={"OUT": out})
        late.depends_on = (first.shred_id,)
        with pytest.raises(ExecutionFault, match="retired"):
            device.run([first, late])

    def test_undelivered_mailbox_detected(self, device, space):
        prog = assemble("sendreg.1.dw (peer, vr5) = vr0\nend")
        shred = ShredDescriptor(program=prog, bindings={"peer": 999999.0})
        with pytest.raises(ExecutionFault, match="never"):
            device.run([shred])


class TestSpawn:
    def test_spawned_child_executes(self, device, space):
        out = alloc_dw(space, "OUT", 2)
        # parent writes OUT[0] and spawns; child observes __spawn_arg
        program = assemble("""
            mov.1.dw vr1 = __spawn_arg
            cmp.eq.1.dw p1 = vr1, 0
            (!p1) jmp child
            st.1.dw (OUT, 0, 0) = 1
            spawn 7
            end
        child:
            st.1.dw (OUT, 1, 0) = vr1
            end
        """)
        shred = ShredDescriptor(program=program,
                                bindings={"__spawn_arg": 0.0},
                                surfaces={"OUT": out})
        result = device.run([shred])
        assert result.shreds_executed == 2
        assert result.spawned_shreds == 1
        assert out.download(space).reshape(-1).tolist() == [1.0, 7.0]


class TestMaintenance:
    def test_flush_cache_delegates_to_coherence(self, space):
        from repro.gma.device import GmaDevice
        from repro.memory.cache import CoherencePoint

        point = CoherencePoint(coherent=False)
        device = GmaDevice(space, coherence=point)
        point.note_write("gma", 0, 100)
        assert device.flush_cache() > 0

    def test_invalidate_tlb(self, device, space):
        out = alloc_dw(space, "OUT", 1)
        program = assemble("st.1.dw (OUT, 0, 0) = 1\nend")
        device.run([ShredDescriptor(program=program, surfaces={"OUT": out})])
        device.invalidate_tlb()
        assert len(device.view.tlb) == 0

    def test_reset_counters(self, device, space):
        out = alloc_dw(space, "OUT", 1)
        program = assemble("st.1.dw (OUT, 0, 0) = 1\nend")
        device.run([ShredDescriptor(program=program, surfaces={"OUT": out})])
        # the translation now sits in the GTT but not in the TLB: the
        # next launch's store misses the TLB and walks the GTT
        device.invalidate_tlb()
        device.run([ShredDescriptor(program=program, surfaces={"OUT": out})])
        view = device.view
        assert view.gtt_walks > 0 and view.tlb.misses > 0
        device.sampler.samples = 10
        device.reset_counters()
        assert device.sampler.samples == 0
        assert (view.tlb.hits, view.tlb.misses, view.tlb.mru_hits,
                view.tlb.vector_hits, view.gtt_walks,
                view.batched_translations) == (0, 0, 0, 0, 0, 0)
