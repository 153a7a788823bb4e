"""EXOCHI as a service: two tenants share one accelerator pool.

Starts an :class:`~repro.serving.ExoServer` over two simulated GMA
X3000 devices, opens two tenant sessions — each with its own isolated
address space over the shared physical memory, its own quotas, and a
different fair-share weight — and replays a short mixed-kernel trace
from both concurrently.  Same-kernel launches queued together coalesce
into gangs (watch ``gangs_coalesced``), every output verifies
bit-identical to the kernel reference, and per-tenant stats print at
the end.

Run:  PYTHONPATH=src python examples/serving_demo.py
"""

import tempfile
from pathlib import Path

from repro.perf.trace import export_serving_trace
from repro.serving.demo import run_serving_demo


def main() -> None:
    server = run_serving_demo(requests=8, devices=2, engine="megaop")
    stats = server.runtime_stats()
    print(f"engine: gang_lanes={stats.gang_lanes_retired} "
          f"scalar_fallbacks={stats.scalar_fallbacks} "
          f"batched_mem_lanes={stats.batched_mem_lanes}")
    assert stats.gangs_coalesced > 0, "no cross-launch gangs formed"
    assert stats.scalar_fallbacks == 0, "coalescing failed to gang"
    out = Path(tempfile.gettempdir()) / "serving_trace.json"
    count = export_serving_trace(server, out)
    print(f"wrote {count} trace events to {out}")
    print("serving demo OK")


if __name__ == "__main__":
    main()
