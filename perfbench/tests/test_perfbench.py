"""The benchmark's own tests, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.kernels.bob import BOB  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_RUNS = {}


def tiny_run(workload: str, trace: bool, seed: int = 3) -> dict:
    key = (workload, trace, seed)
    if key not in _RUNS:
        _RUNS[key] = harness.run(workload, seed, 1.0, trace,
                                 harness.Settings.tiny())
    return _RUNS[key]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_named_metric(workload, trace):
    payload = tiny_run(workload, trace)
    result = payload["result"]
    assert result["correct"], payload["info"]["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for spec in declared:
        got = metrics[spec["name"]]
        assert NAME.match(spec["name"]) and UNIT.match(got["unit"])
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if not trace:
        for spec in declared:
            assert metrics[spec["name"]]["value"] > 0, spec["name"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_self_times_sum_to_traced_wall_time(workload):
    metrics = tiny_run(workload, True)["result"]["metrics"]
    parts = sum(m["value"] for name, m in metrics.items()
                if name.startswith("self."))
    assert parts == pytest.approx(metrics["trace.wall_s"]["value"],
                                  rel=1e-9)


def test_wrong_reference_counts_as_failed_operation(monkeypatch):
    original = BOB.reference_frame

    def wrong(self, geom, inputs, state):
        expected, state = original(self, geom, inputs, state)
        return {k: np.asarray(v) + 1.0 for k, v in expected.items()}, state

    monkeypatch.setattr(BOB, "reference_frame", wrong)
    payload = harness.run("paper-suite", 3, 0.5, False,
                          harness.Settings.tiny())
    result = payload["result"]
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert any("BOB" in e for e in payload["info"]["errors"])


def test_device_exceptions_count_as_failed_operations(monkeypatch):
    from repro.errors import ExecutionFault
    from repro.gma.device import GmaDevice

    def broken(self, shreds, **kwargs):
        raise ExecutionFault("injected")

    monkeypatch.setattr(GmaDevice, "run", broken)
    result = harness.run("paper-suite", 3, 0.2, False,
                         harness.Settings.tiny())["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("workload", ["paper-suite", "chi-fabric"])
def test_every_epoch_setup_shows_fresh_predecode_misses(workload):
    misses = tiny_run(workload, False)["info"]["setup_predecode_misses"]
    assert len(misses) == harness.Settings.tiny().epochs
    assert all(m > 0 for m in misses)


def test_peak_memory_adds_worker_private_memory_only_with_workers():
    fabric = tiny_run("chi-fabric", False)["info"]["worker_private_mb"]
    suite = tiny_run("paper-suite", False)["info"]["worker_private_mb"]
    assert all(mb > 0 for mb in fabric) and not any(suite)


def test_runner_stops_every_process_it_started():
    import multiprocessing
    import os
    from multiprocessing import resource_tracker

    from perfbench import run as runner

    tiny_run("chi-fabric", False)
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None  # shared memory started it
    # a stray worker holds the tracker's pipe, as one an aborted epoch
    # left behind would
    stray = multiprocessing.Process(target=time.sleep, args=(60,),
                                    daemon=True)
    stray.start()
    runner.stop_children()
    assert not stray.is_alive()
    assert multiprocessing.active_children() == []
    with pytest.raises(ProcessLookupError):
        os.kill(tracker, 0)


def test_paper_suite_simulated_counts_repeat_exactly():
    first = tiny_run("paper-suite", True, seed=3)
    second = tiny_run("paper-suite", True, seed=4)
    for name in ("gma.sim_cycles", "gma.sim_instructions"):
        a = first["result"]["metrics"][name]["value"]
        b = second["result"]["metrics"][name]["value"]
        assert a > 0 and a == b
    assert first["info"]["sim_per_kernel"] == second["info"]["sim_per_kernel"]


def test_partition_splits_concurrent_leaves_and_keeps_other():
    span = tracing.Span
    spans = [
        span("outer", 0.0, 10.0, None, 1, None),
        span("inner", 2.0, 4.0, 0, 1, None),
        span("worker", 3.0, 5.0, 0, 2, None),   # overlaps inner
    ]
    shares = tracing.partition(spans, [(-1.0, 12.0)])
    assert shares["inner"] == pytest.approx(1.5)
    assert shares["worker"] == pytest.approx(1.5)
    assert shares["outer"] == pytest.approx(7.0)
    assert shares["other"] == pytest.approx(3.0)
    assert sum(shares.values()) == pytest.approx(13.0)


def test_tracer_restores_every_wrapped_call():
    from repro.gma.device import GmaDevice
    from repro.isa import assembler

    before = (GmaDevice.run, assembler.assemble)
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    assert GmaDevice.run is not before[0]
    tracer.uninstall()
    assert (GmaDevice.run, assembler.assemble) == before


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
