"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-suite --seed 1 \\
        --seconds 30 --trace 0

Prints one provenance line (host, commit, configuration, per-epoch
set-up times, probe samples), then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` prints
per-layer metrics instead of end-to-end ones and writes the spans as a
Chrome trace under ``perfbench/out/``.  Exits non-zero, printing no
result, when the program's sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("paper-suite", "chi-fabric", "serve-streams")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parents[1] != src:
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from perfbench import harness

    try:
        payload = harness.run(args.workload, args.seed, args.seconds,
                              bool(args.trace),
                              trace_dir=ROOT / "perfbench" / "out")
    finally:
        stop_children()
    print(json.dumps({"provenance": payload["info"]}))
    print(json.dumps(payload["result"]))
    return 0


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    Closing a platform already joins its fabric workers; this also
    reaps any worker an aborted epoch left behind, then stops the
    resource tracker that ``multiprocessing.shared_memory`` starts,
    which would otherwise outlive this process for a moment.  Workers
    go first: they inherit the tracker's pipe, and it ends only when
    every copy of that pipe is closed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
