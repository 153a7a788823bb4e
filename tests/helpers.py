"""Shared test helpers."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import ExecutionFault
from repro.isa.registers import RegisterFile
from repro.isa.types import DataType


class FakeContext:
    """A minimal ExecContext over plain dictionaries.

    Surfaces are 1-D numpy float64 arrays for linear access and 2-D arrays
    for block access; no translation, no device, no timing.  Used to test
    the functional semantics in isolation.
    """

    supports_double = False
    proxy_mode = False

    def __init__(self, bindings: Dict[str, float] = None,
                 surfaces: Dict[str, np.ndarray] = None):
        self.regs = RegisterFile()
        self.bindings = dict(bindings or {})
        self.surfaces = {k: np.array(v, dtype=np.float64, copy=True)
                         for k, v in (surfaces or {}).items()}
        self.sent = []
        self.spawned = []
        self.flushes = 0

    def resolve_symbol(self, name: str) -> float:
        try:
            return float(self.bindings[name])
        except KeyError:
            raise ExecutionFault(f"unbound symbol {name!r}") from None

    def _flat(self, name: str) -> np.ndarray:
        try:
            return self.surfaces[name].reshape(-1)
        except KeyError:
            raise ExecutionFault(f"no surface {name!r}") from None

    def surface_read(self, name, index, count, ty: DataType):
        flat = self._flat(name)
        if index < 0 or index + count > flat.size:
            raise ExecutionFault(f"linear OOB on {name}")
        return flat[index : index + count].copy()

    def surface_write(self, name, index, values, ty: DataType):
        flat = self._flat(name)
        if index < 0 or index + values.size > flat.size:
            raise ExecutionFault(f"linear OOB on {name}")
        flat[index : index + values.size] = values

    def surface_read_block(self, name, x, y, w, h, ty: DataType):
        img = self.surfaces[name]
        if img.ndim != 2:
            raise ExecutionFault(f"surface {name} is not 2-D")
        ih, iw = img.shape
        out = np.empty((h, w), dtype=np.float64)
        for r in range(h):
            yy = min(max(y + r, 0), ih - 1)
            for c in range(w):
                xx = min(max(x + c, 0), iw - 1)
                out[r, c] = img[yy, xx]
        return out.reshape(-1)

    def surface_write_block(self, name, x, y, values, w, h, ty: DataType):
        img = self.surfaces[name]
        img[y : y + h, x : x + w] = np.asarray(values).reshape(h, w)

    def sample(self, name, xs, ys):
        img = self.surfaces[name]
        ih, iw = img.shape
        out = np.empty(xs.size)
        for i in range(xs.size):
            x0 = int(np.clip(np.floor(xs[i]), 0, iw - 1))
            y0 = int(np.clip(np.floor(ys[i]), 0, ih - 1))
            x1, y1 = min(x0 + 1, iw - 1), min(y0 + 1, ih - 1)
            fx = min(max(xs[i] - x0, 0.0), 1.0)
            fy = min(max(ys[i] - y0, 0.0), 1.0)
            top = img[y0, x0] + (img[y0, x1] - img[y0, x0]) * fx
            bot = img[y1, x0] + (img[y1, x1] - img[y1, x0]) * fx
            out[i] = top + (bot - top) * fy
        return out

    def send_register(self, shred_id, reg, values):
        self.sent.append((shred_id, reg, np.asarray(values).copy()))

    def spawn_shred(self, arg):
        self.spawned.append(arg)

    def flush_device_cache(self):
        self.flushes += 1


def run_program(asm_text: str, bindings=None, surfaces=None,
                ctx: FakeContext = None, max_steps: int = 100000):
    """Assemble and functionally execute a program on a FakeContext."""
    from repro.isa.assembler import assemble
    from repro.isa import semantics

    program = assemble(asm_text, "test")
    ctx = ctx or FakeContext(bindings, surfaces)
    ip = 0
    steps = 0
    while ip < len(program.instructions):
        effect = semantics.execute(program, ip, ctx)
        if effect.ended:
            break
        ip = effect.next_ip if effect.next_ip is not None else ip + 1
        steps += 1
        if steps > max_steps:
            raise AssertionError("program did not terminate")
    return ctx


# -- scalar-vs-megaop differential harness -----------------------------------

#: ``ShredRun`` fields every differential test compares per shred.
RUN_FIELDS = ("instructions", "issue_cycles", "bytes_read", "bytes_written",
              "sampler_samples", "atr_events", "ceh_events", "spawned")
#: Device-run aggregates every differential test compares.
AGG_FIELDS = ("shreds_executed", "instructions", "bytes_read",
              "bytes_written", "atr_events", "ceh_events", "spawned_shreds")


def run_engines(asm: str, bindings_list, surfaces_spec=None, inputs=None,
                prepare_surfaces: bool = True):
    """The same launch on scalar and megaop, each on a fresh device and
    address space; returns ``[(result, downloads)]`` in that order.

    Shred ids differ numerically between the two runs (the global
    descriptor counter keeps counting), so :func:`assert_identical`
    compares records per queue position, never by id.
    """
    from repro.exo.shred import ShredDescriptor
    from repro.gma.device import GmaDevice
    from repro.isa.assembler import assemble
    from repro.memory.address_space import AddressSpace
    from repro.memory.surface import Surface

    program = assemble(asm, name="differential")
    out = []
    for engine in GmaDevice.ENGINES:
        space = AddressSpace()
        device = GmaDevice(space, engine=engine)
        surfaces = {
            name: Surface.alloc(space, name, width, height, DataType.F)
            for name, (width, height) in (surfaces_spec or {}).items()
        }
        for name, image in (inputs or {}).items():
            surfaces[name].upload(space, np.asarray(image))
        shreds = [ShredDescriptor(program=program, bindings=dict(bindings),
                                  surfaces=surfaces)
                  for bindings in bindings_list]
        result = device.run(shreds, prepare_surfaces=prepare_surfaces)
        downloads = {name: surf.download(space)
                     for name, surf in surfaces.items()}
        out.append((result, downloads))
    return out


def assert_identical(scalar, other):
    """Outputs, aggregates, cycles and every shred's record and
    ``(issue, latency)`` trace must match the scalar run exactly."""
    result_s, surfaces_s = scalar
    result_o, surfaces_o = other
    for fieldname in AGG_FIELDS:
        assert getattr(result_s, fieldname) == getattr(result_o, fieldname), \
            fieldname
    assert result_s.cycles == result_o.cycles
    assert len(result_s.runs) == len(result_o.runs)
    for position, (run_s, run_o) in enumerate(
            zip(result_s.runs, result_o.runs)):
        for fieldname in RUN_FIELDS:
            assert getattr(run_s, fieldname) == getattr(run_o, fieldname), \
                f"shred {position}: {fieldname}"
        assert run_s.trace == run_o.trace, f"shred {position}: trace"
    assert set(surfaces_s) == set(surfaces_o)
    for name in surfaces_s:
        assert np.array_equal(surfaces_s[name], surfaces_o[name]), name
