"""EU timing model: switch-on-stall multithreading over shred traces."""

import pytest

from repro.exo.shred import ShredDescriptor
from repro.gma.eu import simulate_device
from repro.gma.interpreter import ShredRun
from repro.gma.timing import GmaTimingConfig
from repro.isa.assembler import assemble

CONFIG = GmaTimingConfig()

_program = assemble("end")


def make_run(trace, bytes_total=0, samples=0):
    shred = ShredDescriptor(program=_program)
    run = ShredRun(shred=shred, trace=list(trace))
    run.issue_cycles = sum(i for i, _ in trace)
    run.bytes_read = bytes_total
    run.sampler_samples = samples
    return run


class TestSingleShred:
    def test_pure_issue_time(self):
        run = make_run([(1, 0)] * 10)
        timing = simulate_device([run], CONFIG)
        assert timing.compute_cycles == 10

    def test_exposed_latency_when_alone(self):
        # a lone shred cannot hide its latencies
        run = make_run([(1, 9)] * 5)
        timing = simulate_device([run], CONFIG)
        assert timing.compute_cycles == 5 * 10

    def test_finish_time_recorded(self):
        run = make_run([(2, 3)])
        timing = simulate_device([run], CONFIG)
        assert timing.finish_times[run.shred.shred_id] == 5


class TestMultithreading:
    def test_four_threads_hide_stalls(self):
        """The paper's switch-on-stall claim: with enough co-resident
        shreds per EU, stall cycles vanish behind other threads' issue."""
        # 4 shreds land on the same EU (one per context, EU-major RR
        # needs 32+ shreds for the next row; use exactly 32 then compare)
        lone = simulate_device([make_run([(1, 3)] * 50)], CONFIG)
        crowd = simulate_device(
            [make_run([(1, 3)] * 50) for _ in range(32)], CONFIG)
        # 32 shreds = 4 per EU; each EU issues 200 cycles of work, and the
        # 3-cycle latencies hide behind the other three contexts
        assert lone.compute_cycles == pytest.approx(200, rel=0.02)
        assert crowd.compute_cycles <= 215
        per_eu = crowd.eu_reports[0]
        assert per_eu.exposed_stall_cycles < 0.05 * per_eu.busy_cycles

    def test_utilization_metric(self):
        timing = simulate_device([make_run([(1, 0)] * 10)], CONFIG)
        busy_eu = timing.eu_reports[0]
        assert busy_eu.utilization == pytest.approx(1.0)
        assert timing.eu_reports[1].utilization == 0.0

    def test_eu_major_balance(self):
        # 9 identical shreds: EU-major round robin puts at most 2 per EU
        runs = [make_run([(1, 0)] * 100) for _ in range(9)]
        timing = simulate_device(runs, CONFIG)
        assert timing.compute_cycles == 200  # 2 shreds on EU0, serialized
        assert timing.eu_reports[1].cycles == 100


class TestResourceBounds:
    def test_bandwidth_bound(self):
        run = make_run([(1, 0)], bytes_total=0)
        run.bytes_read = 10_000_000
        timing = simulate_device([run], CONFIG)
        assert timing.bandwidth_cycles == pytest.approx(
            10_000_000 / CONFIG.mem_bytes_per_cycle)
        assert timing.bound == "bandwidth"
        assert timing.cycles == timing.bandwidth_cycles

    def test_sampler_bound(self):
        run = make_run([(1, 0)], samples=1_000_000)
        timing = simulate_device([run], CONFIG)
        assert timing.sampler_cycles == pytest.approx(
            1_000_000 / CONFIG.sampler_throughput)
        assert timing.bound == "sampler"

    def test_extra_bytes_share_bandwidth(self):
        run = make_run([(1, 0)])
        base = simulate_device([run], CONFIG)
        loaded = simulate_device([run], CONFIG, extra_bytes=1_000_000)
        assert loaded.bandwidth_cycles > base.bandwidth_cycles


class TestDependencies:
    def test_not_before_gates_start(self):
        a = make_run([(10, 0)])
        b = make_run([(10, 0)])
        gates = {b.shred.shred_id: 100.0}
        timing = simulate_device([a, b], CONFIG, not_before=gates)
        assert timing.finish_times[b.shred.shred_id] >= 110
        assert timing.finish_times[a.shred.shred_id] == 10

    def test_chain_serializes(self):
        runs = [make_run([(10, 0)]) for _ in range(3)]
        gates = {}
        # emulate the firmware's fixed point: b after a, c after b
        timing = simulate_device(runs, CONFIG)
        gates[runs[1].shred.shred_id] = timing.finish_times[
            runs[0].shred.shred_id]
        gates[runs[2].shred.shred_id] = 999.0
        timing = simulate_device(runs, CONFIG, not_before=gates)
        assert timing.compute_cycles >= 999 + 10


class TestEmpty:
    def test_no_shreds(self):
        timing = simulate_device([], CONFIG)
        assert timing.cycles == 0
        assert timing.bound in ("compute", "bandwidth", "sampler")

    def test_config_sequencer_count(self):
        assert CONFIG.num_sequencers == 32
        assert CONFIG.seconds(667e6) == pytest.approx(1.0)


from hypothesis import given
from hypothesis import strategies as st


@given(st.lists(st.lists(st.tuples(st.integers(1, 8), st.integers(0, 40)),
                         min_size=1, max_size=20),
                min_size=1, max_size=40))
def test_eu_simulation_invariants(traces):
    """Property: makespan is bounded below by per-EU issue work and by the
    longest single shred's serial chain, and above by full serialization."""
    runs = [make_run(trace) for trace in traces]
    timing = simulate_device(runs, CONFIG)
    total_issue = sum(r.issue_cycles for r in runs)
    longest_chain = max(sum(i + l for i, l in r.trace) for r in runs)
    assert timing.compute_cycles >= total_issue / CONFIG.num_eus - 1e-9
    assert timing.compute_cycles >= max(
        (r.issue_cycles for r in runs), default=0)
    serial_bound = sum(sum(i + l for i, l in r.trace) for r in runs)
    assert timing.compute_cycles <= serial_bound + 1e-9
    assert timing.compute_cycles >= longest_chain - max(
        l for r in runs for _, l in r.trace + [(0, 0)]) - 1e-9
    for run in runs:
        assert run.shred.shred_id in timing.finish_times


class TestLockstepClosedForm:
    """The identical-trace fast path must be cycle-exact with the event
    loop it replaces — reports, finish times and spans included."""

    def _both(self, trace, n):
        from repro.gma.eu import _Context, _simulate_eu, _simulate_eu_ungated
        outs = []
        for force_slow in (True, False):
            ctxs = [_Context([make_run(trace)], slot=k) for k in range(n)]
            finish, spans = {}, {}
            if force_slow:
                report = _simulate_eu_ungated(ctxs, finish, spans, 0)
            else:
                report = _simulate_eu(ctxs, {}, finish, spans, 0)
            outs.append((report.cycles, report.busy_cycles,
                         report.exposed_stall_cycles,
                         sorted(finish.values()),
                         sorted(v[:2] for v in spans.values())))
        return outs

    def test_fast_path_fires_for_covered_latencies(self):
        from repro.gma import eu
        trace = [(1, 3), (1, 1), (1, 0)] * 5
        report = eu._try_lockstep_closed_form(
            [eu._Context([make_run(trace)], slot=k) for k in range(4)],
            {}, {}, 0)
        assert report is not None
        assert report.exposed_stall_cycles == 0.0
        assert report.busy_cycles == 4 * 15

    def test_declines_when_latency_outlives_cover(self):
        from repro.gma import eu
        trace = [(1, 9)] * 4  # 9 > (n-1)*1: stalls are exposed
        assert eu._try_lockstep_closed_form(
            [eu._Context([make_run(trace)], slot=k) for k in range(4)],
            {}, {}, 0) is None

    def test_declines_on_divergent_traces(self):
        from repro.gma import eu
        ctxs = [eu._Context([make_run([(1, 0)] * 3)], slot=0),
                eu._Context([make_run([(1, 1)] * 3)], slot=1)]
        assert eu._try_lockstep_closed_form(ctxs, {}, {}, 0) is None

    @given(st.integers(2, 4),
           st.lists(st.tuples(st.integers(1, 3), st.integers(0, 12)),
                    min_size=1, max_size=30))
    def test_exact_against_event_loop(self, n, trace):
        fast, slow = None, None
        slow, fast = self._both(trace, n)
        assert fast == slow


def _per_eu_reference(runs, not_before):
    """``simulate_device``'s EU pass without schedule reuse: every EU
    runs ``_simulate_eu`` on its own queues."""
    from repro.gma.eu import _Context, _simulate_eu
    per_eu = CONFIG.threads_per_eu
    queues = [[] for _ in range(CONFIG.num_sequencers)]
    for i, run in enumerate(runs):
        eu = i % CONFIG.num_eus
        queues[eu * per_eu + (i // CONFIG.num_eus) % per_eu].append(run)
    finish, spans, reports = {}, {}, []
    for eu in range(CONFIG.num_eus):
        ctxs = [_Context(queues[eu * per_eu + slot], slot)
                for slot in range(per_eu)]
        reports.append(_simulate_eu(ctxs, not_before, finish, spans, eu))
    return reports, finish, spans


@st.composite
def _eu_launches(draw):
    """Shred traces from a small pool, so whole EUs repeat, plus gates."""
    step = st.tuples(st.integers(1, 3), st.integers(0, 80))
    pool = draw(st.lists(st.lists(step, min_size=1, max_size=12),
                         min_size=1, max_size=3))
    count = draw(st.integers(1, 75).filter(lambda n: n % 32))
    # a trace per round of the EU-major dispatch makes every EU equal;
    # overrides then make some EUs (or single slots) distinct
    rounds = draw(st.lists(st.integers(0, len(pool) - 1),
                           min_size=-(-count // CONFIG.num_eus),
                           max_size=-(-count // CONFIG.num_eus)))
    picks = [rounds[i // CONFIG.num_eus] for i in range(count)]
    for i in draw(st.lists(st.integers(0, count - 1), max_size=4)):
        picks[i] = draw(st.integers(0, len(pool) - 1))
    runs = [make_run(pool[k]) for k in picks]
    gated = draw(st.lists(st.integers(0, count - 1), max_size=3))
    not_before = {runs[i].shred.shred_id: float(draw(st.integers(0, 300)))
                  for i in gated}
    return runs, not_before


@given(_eu_launches())
def test_eu_reuse_matches_per_eu_reference(launch):
    """Reusing an identical ungated EU's schedule is exact: reports,
    finish times and spans (in recording order) match simulating every
    EU on its own."""
    runs, not_before = launch
    timing = simulate_device(runs, CONFIG, not_before=dict(not_before))
    reports, finish, spans = _per_eu_reference(runs, dict(not_before))
    assert timing.eu_reports == reports
    assert list(timing.finish_times.items()) == list(finish.items())
    assert list(timing.spans.items()) == list(spans.items())
