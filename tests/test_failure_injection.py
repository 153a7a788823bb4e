"""Failure injection: the system detects and contains misuse.

Three families: coherence-protocol violations under the strict Non-CC
model, shreds that fault unrecoverably, and corrupted binaries.
"""

import numpy as np
import pytest

from repro.chi.platform import ExoPlatform
from repro.chi.runtime import ChiRuntime
from repro.errors import (
    CoherenceViolation,
    EncodingError,
    ExecutionFault,
    FatBinaryError,
)
from repro.exo.shred import ShredDescriptor
from repro.isa.assembler import assemble
from repro.isa.types import DataType
from repro.memory.surface import Surface


class TestCoherenceProtocolViolations:
    def test_skipping_the_flush_is_detected(self):
        """Launching shreds below the runtime (no pre-dispatch flush)
        after host writes must trip the strict checker — on real hardware
        the shreds would read stale data."""
        platform = ExoPlatform(coherent=False, strict_coherence=True)
        src = Surface.alloc(platform.space, "S", 16, 1, DataType.DW)
        src.upload(platform.host, np.arange(16).reshape(1, 16))  # dirties
        program = assemble("ld.8.dw [vr1..vr8] = (S, 0, 0)\nend")
        shred = ShredDescriptor(program=program, surfaces={"S": src})
        with pytest.raises(CoherenceViolation, match="cpu holds dirty"):
            platform.device.run([shred])

    def test_runtime_flush_prevents_the_violation(self):
        platform = ExoPlatform(coherent=False, strict_coherence=True)
        runtime = ChiRuntime(platform)
        src = Surface.alloc(platform.space, "S", 16, 1, DataType.DW)
        src.upload(platform.host, np.arange(16).reshape(1, 16))
        runtime.parallel("ld.8.dw [vr1..vr8] = (S, 0, 0)\nend",
                         shared={"S": src}, num_threads=1)  # flushes first

    def test_host_readback_before_device_flush_detected(self):
        platform = ExoPlatform(coherent=False, strict_coherence=True)
        out = Surface.alloc(platform.space, "O", 16, 1, DataType.DW)
        program = assemble("st.8.dw (O, 0, 0) = [vr1..vr8]\nend")
        platform.device.run([ShredDescriptor(program=program,
                                             surfaces={"O": out})])
        # the device finished but never flushed: the host must not read
        with pytest.raises(CoherenceViolation, match="gma holds dirty"):
            out.download(platform.host)
        platform.coherence.flush("gma")
        out.download(platform.host)

    def test_shred_level_flush_instruction_releases_lines(self):
        platform = ExoPlatform(coherent=False, strict_coherence=True)
        out = Surface.alloc(platform.space, "O", 16, 1, DataType.DW)
        program = assemble("""
            st.8.dw (O, 0, 0) = [vr1..vr8]
            flush
            end
        """)
        platform.device.run([ShredDescriptor(program=program,
                                             surfaces={"O": out})])
        out.download(platform.host)  # no violation: the shred flushed


class TestFaultingShreds:
    def test_unbound_symbol_aborts_cleanly(self, device, space):
        program = assemble("mov.1.dw vr1 = ghost\nend")
        with pytest.raises(ExecutionFault, match="unbound symbol"):
            device.run([ShredDescriptor(program=program)])
        # the device is reusable afterwards
        device.run([ShredDescriptor(program=assemble("end"))])

    def test_missing_surface_aborts_cleanly(self, device, space):
        program = assemble("ld.1.dw vr1 = (GONE, 0, 0)\nend")
        with pytest.raises(ExecutionFault, match="no surface"):
            device.run([ShredDescriptor(program=program)])

    def test_out_of_bounds_store_is_contained(self, device, space):
        out = Surface.alloc(space, "O", 8, 1, DataType.DW)
        program = assemble("st.4.dw (O, 6, 0) = vr1\nend")
        from repro.errors import MemorySystemError

        with pytest.raises(MemorySystemError, match="outside surface"):
            device.run([ShredDescriptor(program=program,
                                        surfaces={"O": out})])

    def test_ceh_handler_that_raises_fails_the_shred(self, device):
        from repro.errors import DivideByZeroFault

        def angry_handler(program, ip, ctx, fault):
            raise RuntimeError("handler exploded")

        device.exoskeleton.ceh.register_handler(DivideByZeroFault,
                                                angry_handler)
        program = assemble("""
            mov.1.dw vr1 = 1
            mov.1.dw vr2 = 0
            div.1.dw vr3 = vr1, vr2
            end
        """)
        with pytest.raises(RuntimeError, match="handler exploded"):
            device.run([ShredDescriptor(program=program)])

    def test_runaway_shred_killed_by_instruction_budget(self, device,
                                                        monkeypatch):
        import repro.gma.firmware as firmware
        from repro.gma.interpreter import ShredInterpreter

        original = ShredInterpreter.__init__

        def tight_budget(self, *args, **kwargs):
            kwargs["max_instructions"] = 50
            original(self, *args, **kwargs)

        monkeypatch.setattr(ShredInterpreter, "__init__", tight_budget)
        program = assemble("loop:\njmp loop")
        with pytest.raises(ExecutionFault, match="runaway"):
            device.run([ShredDescriptor(program=program)])


#: Runaway loops for the ganged cap: a bare jump, an ALU loop that
#: promotes to a cycle, and a block mixing a nop, an ``f`` ALU op and a
#: store.
RUNAWAY_LOOPS = {
    "jump": "loop:\njmp loop",
    "alu": """
        mov.1.dw vr2 = 0
        loop:
        add.1.dw vr2 = vr2, 1
        mul.16.f vr3 = vr3, 1.0
        jmp loop
    """,
    "mixed": """
        iota.16.f vr1
        loop:
        nop
        add.16.f vr1 = vr1, 1.0
        st.16.f (OUT, base, 0) = vr1
        jmp loop
    """,
}


@pytest.mark.parametrize("loop", sorted(RUNAWAY_LOOPS))
@pytest.mark.parametrize("engine", ("scalar", "megaop"))
def test_runaway_cap_on_a_ganged_launch(engine, loop, monkeypatch):
    """Four shreds gang on megaop; the cap stops the gang and the
    deferred interpreter raises the runaway fault on the first shred of
    the queue, as the scalar engine does."""
    import repro.gma.gang as gang
    import repro.gma.megaop as megaop
    from repro.gma.device import GmaDevice
    from repro.gma.interpreter import ShredInterpreter
    from repro.memory.address_space import AddressSpace

    cap = 300
    monkeypatch.setattr(gang, "MAX_INSTRUCTIONS", cap)
    monkeypatch.setattr(megaop, "MAX_INSTRUCTIONS", cap)
    original = ShredInterpreter.__init__

    def tight_budget(self, *args, **kwargs):
        kwargs["max_instructions"] = cap
        original(self, *args, **kwargs)

    monkeypatch.setattr(ShredInterpreter, "__init__", tight_budget)
    space = AddressSpace()
    device = GmaDevice(space, engine=engine)
    surfaces = {"OUT": Surface.alloc(space, "OUT", 64, 1, DataType.F)}
    program = assemble(RUNAWAY_LOOPS[loop])
    shreds = [ShredDescriptor(program=program, bindings={"base": 16.0 * i},
                              surfaces=surfaces)
              for i in range(4)]
    with pytest.raises(ExecutionFault,
                       match=f"shred {shreds[0].shred_id} exceeded {cap} "
                             r"instructions \(runaway"):
        device.run(shreds)


class TestCorruptedBinaries:
    def test_truncated_section_rejected(self):
        blob = bytearray(__import__("repro.isa.encoding",
                                    fromlist=["encode_program"])
                         .encode_program(assemble("nop\nend")))
        from repro.isa.encoding import decode_program

        with pytest.raises((EncodingError, IndexError, Exception)):
            decode_program(bytes(blob[: len(blob) // 2]))

    def test_fatbinary_flipped_bytes(self):
        from repro.chi.fatbinary import FatBinary

        fat = FatBinary(name="x")
        fat.add_section("X3000", assemble("nop\nend"))
        blob = bytearray(fat.serialize())
        blob[0] ^= 0xFF
        with pytest.raises(FatBinaryError):
            FatBinary.deserialize(bytes(blob))
