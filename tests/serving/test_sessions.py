"""Session isolation and quotas: tenants share frames, never mappings."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import QuotaExceeded, ServingError, SessionClosed
from repro.isa.types import DataType
from repro.serving import ExoServer, SessionQuotas


def _server(**kw):
    kw.setdefault("num_devices", 1)
    return ExoServer(**kw)


def test_sessions_have_isolated_address_spaces():
    server = _server()
    a = server.open_session("a")
    b = server.open_session("b")
    assert a.space is not b.space
    assert a.space.physical is b.space.physical  # one shared DRAM
    assert a.exoskeleton is not b.exoskeleton
    sa = a.alloc_surface("X", 16, 4, DataType.DW)
    sb = b.alloc_surface("X", 16, 4, DataType.DW)
    img = np.arange(64, dtype=np.int64).reshape(4, 16)
    sa.upload(a.space, img)
    sb.upload(b.space, img * 7)
    np.testing.assert_array_equal(sa.download(a.space), img)
    np.testing.assert_array_equal(sb.download(b.space), img * 7)


def test_shootdowns_never_cross_sessions():
    """One tenant's free/protect must not invalidate another tenant's
    device translations (the isolation the ISSUE names explicitly)."""
    server = _server()
    a = server.open_session("a")
    b = server.open_session("b")
    slot = server.slots[0]
    view_a = a.view_for(slot)
    view_b = b.view_for(slot)
    sa = a.alloc_surface("S", 64, 8, DataType.UB)
    sb = b.alloc_surface("S", 64, 8, DataType.UB)
    sa.upload(a.space, np.zeros((8, 64), dtype=np.int64))
    sb.upload(b.space, np.zeros((8, 64), dtype=np.int64))
    # warm both device views (ATR installs the GTT/TLB entries, exactly
    # as a launch's surface-preparation pass would)
    a.exoskeleton.request_atr_batch(view_a, [sa.base], write=True,
                                    source="test")
    b.exoskeleton.request_atr_batch(view_b, [sb.base], write=True,
                                    source="test")
    assert view_a.gtt and view_b.gtt
    before_a = dict(view_a.gtt)
    before_b = dict(view_b.gtt)
    shootdowns_b = view_b.shootdowns_received

    a.free_surface("S")  # broadcasts a shootdown in session a's space

    assert view_a.gtt != before_a  # a's own view was invalidated
    assert view_b.gtt == before_b  # b's translations survived untouched
    assert view_b.shootdowns_received == shootdowns_b

    b.space.protect(sb.base, writable=False)
    assert view_b.shootdowns_received > shootdowns_b  # b's own do arrive
    assert view_a.gtt != before_a and "S" not in a.surfaces


def test_surface_count_quota():
    server = _server()
    s = server.open_session("t", SessionQuotas(max_surfaces=2))
    s.alloc_surface("A", 8, 1, DataType.DW)
    s.alloc_surface("B", 8, 1, DataType.DW)
    with pytest.raises(QuotaExceeded):
        s.alloc_surface("C", 8, 1, DataType.DW)
    s.free_surface("A")
    s.alloc_surface("C", 8, 1, DataType.DW)  # freeing returns headroom


def test_surface_bytes_quota():
    server = _server()
    s = server.open_session(
        "t", SessionQuotas(max_surface_bytes=4096))
    s.alloc_surface("A", 1024, 1, DataType.UB)
    with pytest.raises(QuotaExceeded):
        s.alloc_surface("B", 4096, 1, DataType.UB)


def test_duplicate_surface_name_rejected():
    server = _server()
    s = server.open_session("t")
    s.alloc_surface("A", 8, 1, DataType.DW)
    with pytest.raises(QuotaExceeded):
        s.alloc_surface("A", 8, 1, DataType.DW)


def test_descriptor_quota_exhaustion():
    async def scenario():
        async with _server() as server:
            session = server.open_session(
                "t", SessionQuotas(max_descriptors=4, max_inflight=64))
            session.charge_descriptors(4)
            from repro.isa.assembler import assemble
            program = assemble("end", name="nop")
            with pytest.raises(QuotaExceeded):
                await server.submit(session, program,
                                    bindings=[{}])
    asyncio.run(scenario())


def test_closed_session_refuses_work():
    async def scenario():
        async with _server() as server:
            session = server.open_session("t")
            server.close_session(session)
            from repro.isa.assembler import assemble
            program = assemble("end", name="nop")
            with pytest.raises(SessionClosed):
                await server.submit(session, program, bindings=[{}])
            with pytest.raises(SessionClosed):
                session.alloc_surface("A", 8, 1, DataType.DW)
    asyncio.run(scenario())


def test_empty_launch_rejected():
    """A launch with no shreds has nothing to drain; it fails at submit
    and leaves no descriptors charged."""
    async def scenario():
        async with _server() as server:
            session = server.open_session("t")
            from repro.isa.assembler import assemble
            program = assemble("end", name="nop")
            with pytest.raises(ServingError, match="at least one shred"):
                await server.submit(session, program, shreds=[])
            assert session.descriptors_inflight == 0
    asyncio.run(scenario())


def test_duplicate_session_name_rejected():
    server = _server()
    server.open_session("t")
    with pytest.raises(ServingError):
        server.open_session("t")
