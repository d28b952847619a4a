"""Exhaustive settling analysis (the TCR_k validity oracle)."""

import copy
import gc
import sys
import threading
import weakref

import pytest

from repro.circuit.faults import fault_universe
from repro.core.three_phase import ThreePhaseGenerator
from repro.errors import StateGraphError
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.sgraph import explore
from repro.sgraph.cssg import build_cssg
from repro.sgraph.explore import settle_report
from repro.sim.engine import compiled


def test_stable_state_reports_itself(celem):
    reset = celem.require_reset()
    report = settle_report(celem, reset)
    assert report.confluent
    assert report.stable_states == frozenset([reset])
    assert report.longest_path == 0
    assert report.valid(k=0)


def test_confluent_rise(celem):
    started = celem.apply_input_pattern(celem.require_reset(), 0b11)
    report = settle_report(celem, started)
    assert report.confluent and not report.oscillating
    settled = report.unique_stable
    assert celem.value(settled, "c") == 1
    # a, b, c must all switch: longest interleaving is exactly 3.
    assert report.longest_path == 3
    assert report.valid(3) and not report.valid(2)


def test_nonconfluence_detected(race):
    # Figure 1(a): both settle states are stable, differing in y.
    started = race.apply_input_pattern(race.require_reset(), 0b01)
    report = settle_report(race, started)
    assert report.nonconfluent
    assert len(report.stable_states) == 2
    ys = {race.value(s, "y") for s in report.stable_states}
    assert ys == {0, 1}
    assert not report.valid(k=100)


def test_oscillation_detected(oscillator):
    started = oscillator.apply_input_pattern(oscillator.require_reset(), 1)
    report = settle_report(oscillator, started)
    assert report.oscillating
    assert not report.valid(k=10_000)
    assert report.longest_path is None


def test_unique_stable_raises_when_ambiguous(race):
    started = race.apply_input_pattern(race.require_reset(), 0b01)
    report = settle_report(race, started)
    with pytest.raises(StateGraphError):
        _ = report.unique_stable


def test_truncation_cap(celem):
    started = celem.apply_input_pattern(celem.require_reset(), 0b11)
    report = settle_report(celem, started, cap=2)
    assert report.truncated
    assert not report.valid(k=100)


def test_opposing_edges_race_on_celem(celem):
    """From c=1 with one input already low, raising it while dropping the
    other creates the classic C-element hazard."""
    up = celem.state_of({"A": 1, "B": 1, "a": 1, "b": 1, "c": 1})
    assert celem.is_stable(up)
    half = celem.state_of({"A": 1, "B": 0, "a": 1, "b": 0, "c": 1})
    assert celem.is_stable(half)
    started = celem.apply_input_pattern(half, 0b10)  # A-, B+ together
    report = settle_report(celem, started)
    assert report.nonconfluent


# -- the per-circuit report memo ------------------------------------------


def test_repeated_settle_returns_the_memoized_report(celem):
    started = celem.apply_input_pattern(celem.require_reset(), 0b11)
    first = settle_report(celem, started)
    assert settle_report(celem, started) is first
    memo = compiled(celem).settle_memo
    assert (memo.calls, memo.hits) == (2, 1)


def test_truncated_report_never_answers_a_larger_cap(celem):
    started = celem.apply_input_pattern(celem.require_reset(), 0b11)
    small = settle_report(celem, started, cap=3)
    assert small.truncated and small.n_states == 3
    full = settle_report(celem, started, cap=200_000)
    assert not full.truncated and full.confluent
    assert settle_report(celem, started, cap=3) is small


def test_memo_is_lru_bounded(celem, monkeypatch):
    monkeypatch.setattr(explore, "_SETTLE_MEMO_SIZE", 2)
    reset = celem.require_reset()
    starts = [celem.apply_input_pattern(reset, p) for p in range(4)]
    first = settle_report(celem, starts[0])
    for start in starts[1:]:
        settle_report(celem, start)
    memo = compiled(celem).settle_memo
    assert len(memo.reports) == 2 and memo.evictions == 2
    assert settle_report(celem, starts[-1]) is memo.reports[(starts[-1], 200_000)]
    again = settle_report(celem, starts[0])  # evicted: explored afresh
    assert again is not first and again == first
    assert (memo.calls, memo.hits, memo.evictions) == (6, 1, 3)


def test_memo_dies_with_its_circuit(celem):
    """No reference cycle holds the compiled circuit (and its memo):
    dropping the circuit frees it by reference counting alone."""
    circuit = copy.deepcopy(celem)  # the fixture keeps its own reference
    settle_report(circuit, circuit.apply_input_pattern(circuit.require_reset(), 3))
    ref = weakref.ref(compiled(circuit))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del circuit
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_memo_survives_concurrent_settles(race, monkeypatch):
    """Flows on several threads (the serve daemon's inline workers) can
    share one circuit, and so its memo.  With a two-entry memo every
    lookup races an eviction; each report must still come out right."""
    monkeypatch.setattr(explore, "_SETTLE_MEMO_SIZE", 2)
    starts = range(3)  # one more than fits: every miss evicts
    want = {s: explore._explore(compiled(race).excited_signals, s, 200_000)
            for s in starts}
    errors = []

    def worker():
        try:
            for _ in range(2000):
                for s in starts:
                    if settle_report(race, s) != want[s]:
                        errors.append(s)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


# -- truncated reports are classed as oscillating, never non-confluent -----


def test_truncated_partial_race_is_not_counted_nonconfluent(race):
    """A cap can stop the DFS after it has met both racing outcomes.
    That report's stable set is partial, so the CSSG must file the
    vector with the oscillating ones and, under ``hybrid``, ask
    ternary simulation, exactly as for any other truncated report."""
    reset = race.require_reset()
    started = race.apply_input_pattern(reset, 0b01)
    full = settle_report(race, started)
    assert full.nonconfluent and not full.truncated
    cap = next(
        cap
        for cap in range(1, full.n_states)
        if settle_report(race, started, cap).nonconfluent
    )
    assert settle_report(race, started, cap).truncated

    exact = build_cssg(race, method="exact", cap_settle=cap)
    assert exact.stats.n_nonconfluent == 0
    assert exact.stats.n_oscillating >= 1
    assert started not in {
        race.apply_input_pattern(reset, p) for p in exact.valid_patterns(reset)
    }
    hybrid = build_cssg(race, method="hybrid", cap_settle=cap)
    assert hybrid.stats.n_nonconfluent == 0
    assert hybrid.stats.n_phi >= 1  # ternary was consulted, and said Φ


# -- settle counters --------------------------------------------------------


@pytest.fixture
def armed_registry():
    previous = obs_metrics.set_registry(MetricsRegistry())
    registry = obs_metrics.enable()
    try:
        yield registry
    finally:
        obs_metrics.disable()
        obs_metrics.set_registry(previous)


SETTLE_SERIES = (
    "repro_settle_calls_total",
    "repro_settle_memo_hits_total",
    "repro_settle_memo_evictions_total",
)


def test_settle_counters_flush_at_cssg_and_generation_boundaries(
    celem, armed_registry
):
    cssg = build_cssg(celem)
    memo = compiled(celem).settle_memo
    assert armed_registry.value("repro_settle_calls_total") == memo.calls > 0
    generator = ThreePhaseGenerator(cssg)
    fault = fault_universe(celem, "output")[0]
    before = armed_registry.value("repro_settle_calls_total")
    generator.generate(fault)
    # the faulty netlist's memo was flushed before it died with the fault
    assert armed_registry.value("repro_settle_calls_total") > before
    assert armed_registry.value("repro_settle_memo_hits_total") > 0


def test_settle_counters_stay_out_of_the_registry_when_off(celem):
    registry = MetricsRegistry()
    previous = obs_metrics.set_registry(registry)
    try:
        build_cssg(celem)
        # calls made while off are dropped at the boundary, not carried
        # into a later armed flush
        obs_metrics.enable()
        explore.publish_settle_metrics(celem)
    finally:
        obs_metrics.disable()
        obs_metrics.set_registry(previous)
    assert all(registry.get(name) is None for name in SETTLE_SERIES)
