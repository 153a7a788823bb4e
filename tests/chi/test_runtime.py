"""The CHI runtime: parallel regions, taskq, timeline, memory models."""

import numpy as np
import pytest

from repro.chi.descriptors import AccessMode
from repro.chi.platform import ExoPlatform
from repro.chi.runtime import ChiRuntime
from repro.errors import ChiError, PragmaError
from repro.isa.types import DataType
from repro.memory.surface import Surface

VECADD = """
    shl.1.w vr1 = i, 3
    ld.8.dw [vr2..vr9] = (A, vr1, 0)
    ld.8.dw [vr10..vr17] = (B, vr1, 0)
    add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]
    st.8.dw (C, vr1, 0) = [vr18..vr25]
    end
"""


def setup_vecadd(runtime, n=32):
    space = runtime.platform.space
    a = Surface.alloc(space, "A", n, 1, DataType.DW)
    b = Surface.alloc(space, "B", n, 1, DataType.DW)
    c = Surface.alloc(space, "C", n, 1, DataType.DW)
    a.upload(runtime.platform.host, np.arange(n).reshape(1, n))
    b.upload(runtime.platform.host, (np.arange(n) * 10).reshape(1, n))
    return a, b, c


class TestParallel:
    def test_fork_join_vecadd(self, runtime):
        a, b, c = setup_vecadd(runtime)
        section = runtime.compile_asm(VECADD, name="vecadd")
        region = runtime.parallel(
            section, shared={"A": a, "B": b, "C": c},
            private=[{"i": i} for i in range(4)])
        assert region.waited  # implied barrier without master_nowait
        got = c.download(runtime.platform.host).reshape(-1)
        assert np.array_equal(got, np.arange(32) * 11)
        assert runtime.stats.regions == 1
        assert runtime.stats.shreds == 4

    def test_inline_asm_string_accepted(self, runtime):
        a, b, c = setup_vecadd(runtime)
        runtime.parallel(VECADD, shared={"A": a, "B": b, "C": c},
                         private=[{"i": 0}])
        assert c.download(runtime.platform.host)[0, 0] == 0

    def test_descriptor_clause(self, runtime):
        a, b, c = setup_vecadd(runtime)
        descs = {name: runtime.chi_alloc_desc("X3000", surf, mode)
                 for name, surf, mode in (
                     ("A", a, AccessMode.CHI_INPUT),
                     ("B", b, AccessMode.CHI_INPUT),
                     ("C", c, AccessMode.CHI_OUTPUT))}
        runtime.parallel(VECADD, shared=descs, private=[{"i": 1}])
        got = c.download(runtime.platform.host).reshape(-1)
        assert got[8] == 88.0

    def test_num_threads_spawns_tid_bindings(self, runtime):
        space = runtime.platform.space
        out = Surface.alloc(space, "OUT", 8, 1, DataType.DW)
        region = runtime.parallel(
            "st.1.dw (OUT, tid, 0) = tid\nend",
            shared={"OUT": out}, num_threads=8)
        assert region.result.shreds_executed == 8
        got = out.download(runtime.platform.host).reshape(-1)
        assert np.array_equal(got, np.arange(8.0))

    def test_missing_surface_rejected_before_dispatch(self, runtime):
        with pytest.raises(PragmaError, match="surfaces"):
            runtime.parallel(VECADD, shared={}, private=[{"i": 0}])

    def test_missing_symbol_rejected(self, runtime):
        a, b, c = setup_vecadd(runtime)
        with pytest.raises(PragmaError, match="not bound"):
            runtime.parallel(VECADD, shared={"A": a, "B": b, "C": c},
                             private=[{}])

    def test_every_binding_dict_validated(self, runtime):
        """A hole in any shred's bindings fails up front, not only in the
        first shred's (every shred launches with its own private copy)."""
        a, b, c = setup_vecadd(runtime)
        with pytest.raises(PragmaError, match=r"shred 2"):
            runtime.parallel(VECADD, shared={"A": a, "B": b, "C": c},
                             private=[{"i": 0}, {"i": 1}, {}])

    def test_firstprivate_fills_binding_holes(self, runtime):
        a, b, c = setup_vecadd(runtime)
        region = runtime.parallel(VECADD, shared={"A": a, "B": b, "C": c},
                                  firstprivate={"i": 0}, private=[{}, {}])
        assert region.result.shreds_executed == 2

    def test_needs_private_or_num_threads(self, runtime):
        with pytest.raises(PragmaError, match="num_threads"):
            runtime.parallel("end")

    def test_num_threads_conflict(self, runtime):
        with pytest.raises(PragmaError, match="num_threads"):
            runtime.parallel("end", private=[{}, {}], num_threads=3)

    def test_bad_shared_type(self, runtime):
        with pytest.raises(ChiError, match="must be a Surface"):
            runtime.parallel("end", shared={"X": 42}, num_threads=1)

    def test_wrong_isa_section(self, runtime):
        section = runtime.compile_asm("end")
        with pytest.raises(Exception, match="no accelerator"):
            runtime.parallel(section, target="SPE", num_threads=1)


class TestMasterNowait:
    def test_async_region_overlaps_host_work(self, runtime):
        from repro.cpu.ia32 import CpuWork

        a, b, c = setup_vecadd(runtime)
        region = runtime.parallel(VECADD, shared={"A": a, "B": b, "C": c},
                                  private=[{"i": i} for i in range(4)],
                                  master_nowait=True)
        assert not region.waited
        t_before = runtime.timeline.now
        # host work fully overlaps the region
        host_seconds = runtime.run_host(CpuWork(10_000, 10.0, 0))
        region.wait()
        # overlapped: total < host + gma
        assert runtime.timeline.now < t_before + host_seconds + \
            region.gma_seconds
        assert runtime.timeline.now >= t_before + max(
            host_seconds, region.gma_seconds) - 1e-15

    def test_blocking_region_advances_timeline(self, runtime):
        a, b, c = setup_vecadd(runtime)
        region = runtime.parallel(VECADD, shared={"A": a, "B": b, "C": c},
                                  private=[{"i": 0}])
        assert runtime.timeline.now >= region.gma_seconds


class TestTaskq:
    def test_dependent_tasks_ordered(self, runtime):
        space = runtime.platform.space
        d = Surface.alloc(space, "D", 4, 1, DataType.DW)
        d.upload(runtime.platform.host, np.zeros((1, 4)))
        section = runtime.compile_asm("""
            ld.1.dw vr1 = (D, 0, 0)
            mul.1.dw vr1 = vr1, 3
            add.1.dw vr1 = vr1, inc
            st.1.dw (D, 0, 0) = vr1
            end
        """, name="fma")
        with runtime.taskq() as queue:
            t1 = queue.task(section, captureprivate={"inc": 1},
                            shared={"D": d})
            t2 = queue.task(section, captureprivate={"inc": 2},
                            shared={"D": d}, depends=[t1])
            queue.task(section, captureprivate={"inc": 3},
                       shared={"D": d}, depends=[t2])
        queue.region.wait()
        # ((0*3+1)*3+2)*3+3 = 18: only the dependency order yields this
        assert d.download(runtime.platform.host)[0, 0] == 18.0

    def test_captureprivate_copies_at_enqueue(self, runtime):
        space = runtime.platform.space
        out = Surface.alloc(space, "OUT", 4, 1, DataType.DW)
        section = runtime.compile_asm("st.1.dw (OUT, slot, 0) = v\nend")
        live = {"slot": 0.0, "v": 10.0}
        with runtime.taskq() as queue:
            for i in range(4):
                live["slot"] = float(i)
                live["v"] = float(10 + i)
                queue.task(section, captureprivate=live,
                           shared={"OUT": out})
        queue.region.wait()
        got = out.download(runtime.platform.host).reshape(-1)
        assert got.tolist() == [10.0, 11.0, 12.0, 13.0]

    def test_exception_in_body_skips_launch(self, runtime):
        with pytest.raises(RuntimeError):
            with runtime.taskq() as queue:
                raise RuntimeError("boom")
        assert queue.region is None


class TestMemoryConfigurations:
    def test_data_copy_charges_time_and_bytes(self):
        platform = ExoPlatform(shared_virtual_memory=False)
        runtime = ChiRuntime(platform)
        a, b, c = setup_vecadd(runtime)
        for name, surf, mode in (("A", a, AccessMode.CHI_INPUT),
                                 ("B", b, AccessMode.CHI_INPUT),
                                 ("C", c, AccessMode.CHI_OUTPUT)):
            runtime.chi_alloc_desc("X3000", surf, mode)
        runtime.parallel(VECADD, shared={"A": a, "B": b, "C": c},
                         private=[{"i": 0}])
        assert runtime.stats.bytes_copied == a.nbytes + b.nbytes + c.nbytes
        assert runtime.stats.copy_seconds > 0

    def test_noncc_flushes_host_cache(self):
        platform = ExoPlatform(coherent=False, strict_coherence=True)
        runtime = ChiRuntime(platform)
        a, b, c = setup_vecadd(runtime)  # uploads dirty the host cache
        runtime.parallel(VECADD, shared={"A": a, "B": b, "C": c},
                         private=[{"i": 0}])
        # the pre-dispatch flush emptied the host cache: strict mode
        # would have raised otherwise, and flush time was charged
        assert runtime.stats.flush_seconds > 0

    def test_cc_shared_charges_nothing(self, runtime):
        a, b, c = setup_vecadd(runtime)
        runtime.parallel(VECADD, shared={"A": a, "B": b, "C": c},
                         private=[{"i": 0}])
        assert runtime.stats.copy_seconds == 0
        assert runtime.stats.flush_seconds == 0

    def test_config_names(self):
        assert ExoPlatform().config_name == "CC Shared"
        assert ExoPlatform(coherent=False).config_name == "Non-CC Shared"
        assert ExoPlatform(
            shared_virtual_memory=False).config_name == "Data Copy"


class TestFeatureSemantics:
    def test_sampler_filter_feature_changes_results(self, runtime):
        import numpy as np

        space = runtime.platform.space
        tex = Surface.alloc(space, "T", 4, 4, DataType.UB)
        out = Surface.alloc(space, "O", 4, 1, DataType.F)
        tex.upload(runtime.platform.host,
                   np.array([[0, 100], [200, 60]] * 2,
                            dtype=float).repeat(2, axis=1))
        asm = """
            mov.4.f vr1 = 0.5
            mov.4.f vr2 = 0.5
            sample.4.f vr3 = (T, vr1, vr2)
            st.4.f (O, 0, 0) = vr3
            end
        """
        runtime.parallel(asm, shared={"T": tex, "O": out}, num_threads=1)
        bilinear = out.download(runtime.platform.host)[0, 0]

        runtime.chi_set_feature("X3000", "sampler_filter", "nearest")
        runtime.parallel(asm, shared={"T": tex, "O": out}, num_threads=1)
        nearest = out.download(runtime.platform.host)[0, 0]
        assert bilinear != nearest  # point sampling picks one texel

    def test_invalid_feature_value_rejected(self, runtime):
        with pytest.raises(ChiError, match="accepts"):
            runtime.chi_set_feature("X3000", "sampler_filter", "trilinear")

    def test_unknown_features_stored_verbatim(self, runtime):
        runtime.chi_set_feature("X3000", "my_app_knob", 42)
        assert runtime.feature("X3000", "my_app_knob") == 42

    @staticmethod
    def _priority_launch(runtime):
        """Four shreds, shred 3 raised to top priority and shred 0
        lowered to last; each stores its tid at the slot a shared
        counter names, then bumps the counter."""
        from repro.exo.shred import ShredDescriptor

        space = runtime.platform.space
        log = Surface.alloc(space, "L", 8, 1, DataType.DW)
        counter = Surface.alloc(space, "K", 1, 1, DataType.DW)
        counter.upload(runtime.platform.host, np.zeros((1, 1)))
        asm = """
            ld.1.dw vr1 = (K, 0, 0)
            st.1.dw (L, vr1, 0) = tid
            add.1.dw vr1 = vr1, 1
            st.1.dw (K, 0, 0) = vr1
            end
        """
        program = runtime.fatbinary.program(runtime.compile_asm(asm))
        shreds = [ShredDescriptor(program=program,
                                  bindings={"tid": float(i)},
                                  surfaces={"L": log, "K": counter})
                  for i in range(4)]
        runtime.chi_set_feature_pershred("X3000", shreds[3].shred_id,
                                         "priority", 10)
        runtime.chi_set_feature_pershred("X3000", shreds[0].shred_id,
                                         "priority", -5)
        region = runtime._launch(shreds, master_nowait=False)
        return region, log

    def test_pershred_priority_orders_queue(self, runtime):
        # the shreds race on the counter, which only the scalar oracle
        # serializes (see the next test); the queue order is engine
        # independent, so read it from the run records
        region, _ = self._priority_launch(runtime)
        ran = [run.shred.bindings["tid"] for run in region.result.runs]
        assert ran == [3.0, 1.0, 2.0, 0.0]

    def test_pershred_priority_orders_scalar_queue(self):
        """On the scalar oracle each shred runs to completion in queue
        order, so the counter log records that order."""
        runtime = ChiRuntime(ExoPlatform(gma_engine="scalar"))
        region, log = self._priority_launch(runtime)
        order = log.download(runtime.platform.host).reshape(-1)[:4]
        assert order.tolist() == [3.0, 1.0, 2.0, 0.0]
