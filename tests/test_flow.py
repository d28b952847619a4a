"""The staged flow API: budgets, events, composition."""

import io
import json

import pytest

from repro.benchmarks_data import load_benchmark
from repro.circuit.faults import fault_universe
from repro.core.atpg import AtpgOptions
from repro.flow import (
    Budget,
    BudgetExhausted,
    EventBus,
    FaultClassified,
    Flow,
    Heartbeat,
    ProgressLine,
    ProgressTick,
    RandomTpgStage,
    StageFinished,
    StageStarted,
    TestAdded,
    ThreePhaseStage,
    TraceWriter,
    REASON_BUDGET,
    REASON_UNPROCESSED,
)


def strip_cpu(payload):
    clean = dict(payload)
    clean.pop("cpu_seconds")
    return clean


# -- budgets -----------------------------------------------------------------


def step_clock(start_after=lambda: True):
    """A fake clock for :class:`Budget`: each reading advances one
    second, but only once ``start_after()`` holds (frozen at 0 before)."""
    now = [0.0]

    def clock():
        if start_after():
            now[0] += 1.0
        return now[0]

    return clock


#: Budget readings vbe6a/two-level gets before it expires: the flow's
#: start plus two random walks, so the deadline cuts random TPG short.
VBE6A_DEADLINE = 3.0


def test_deadline_yields_valid_partial_result():
    """Acceptance: a deadline that expires partway through random TPG
    on the largest benchmark returns a valid partial result, untried
    remainder aborted with reason 'budget'."""
    circuit = load_benchmark("vbe6a", "two-level")
    options = AtpgOptions(seed=0)
    budget = Budget(deadline_seconds=VBE6A_DEADLINE, clock=step_clock())
    result = Flow.default().run(circuit, options, budget=budget)
    # Complete ledger and consistent accounting despite the cut-off.
    assert set(result.statuses) == set(result.faults)
    assert (
        result.n_covered + result.n_undetectable + result.n_aborted
        == result.n_total
    )
    assert result.n_covered > 0, "the deadline must leave two walks to run"
    budget_aborts = [
        s for s in result.statuses.values() if s.reason == REASON_BUDGET
    ]
    assert budget_aborts, "the deadline must cut vbe6a/two-level short"
    assert all(s.status == "aborted" for s in budget_aborts)
    # The partial result serializes like any other.
    back = type(result).from_json_dict(result.to_json_dict(), circuit)
    assert strip_cpu(back.to_json_dict()) == strip_cpu(result.to_json_dict())


def test_deadline_during_proof_leaves_unproven_faults_aborted(monkeypatch):
    """A deadline that expires while random TPG proves faults
    undetectable: only faults the classifier really proved come back
    UNDETECTABLE, and every other undetected fault ends
    aborted/'budget' — none is mislabelled."""
    import repro.flow.stages as stages
    from repro.ext.undetectable import (
        POSSIBLY_DETECTABLE,
        classify_undetectable,
    )

    circuit = load_benchmark("vbe6a", "two-level")
    options = AtpgOptions(seed=0)
    full = Flow.default().run(circuit, options)
    assert full.n_undetectable > 1

    proving = [False]

    def classify_and_flag(*args, **kwargs):
        proving[0] = True
        return classify_undetectable(*args, **kwargs)

    monkeypatch.setattr(stages, "classify_undetectable", classify_and_flag)
    # Frozen until the proof starts, then expires at its second fault
    # (the proof reads the clock before each fault and before each
    # fault's product walk).
    clock = step_clock(start_after=lambda: proving[0])
    budget = Budget(deadline_seconds=3.0, clock=clock)
    recorder = Recorder()
    result = Flow.default().run(
        circuit, options, budget=budget, listeners=[recorder]
    )
    undetectable = [
        f for f, s in result.statuses.items() if s.status == "undetectable"
    ]
    assert 0 < len(undetectable) < full.n_undetectable
    proofs = classify_undetectable(result.cssg, undetectable)
    assert all(c.verdict != POSSIBLY_DETECTABLE for c in proofs.values())
    rest = [
        s
        for s in result.statuses.values()
        if s.status not in ("detected", "undetectable")
    ]
    assert rest
    assert all(s.status == "aborted" and s.reason == REASON_BUDGET for s in rest)
    # Every detection comes before the first fruitless walk.
    assert result.n_covered == full.n_covered
    exhausted = [e for e in recorder.events if isinstance(e, BudgetExhausted)]
    assert len(exhausted) == 1 and exhausted[0].n_remaining > 0


def test_proof_respects_per_fault_product_state_cap(monkeypatch):
    """Random TPG's undetectability proof works under the run's
    per-fault cap: with a small ``max_product_states`` no proof
    explores more product states than the cap, so a fault that needs
    a longer walk is not proven."""
    import repro.flow.stages as stages
    from repro.ext.undetectable import (
        POSSIBLY_DETECTABLE,
        classify_undetectable,
    )

    calls = []

    def classify_and_record(*args, **kwargs):
        classes = classify_undetectable(*args, **kwargs)
        calls.append((kwargs["budget_per_fault"], classes))
        return classes

    monkeypatch.setattr(stages, "classify_undetectable", classify_and_record)
    circuit = load_benchmark("converta", "complex")
    n_proven = {}
    for cap in (200_000, 2):
        calls.clear()
        options = AtpgOptions(fault_model="input", seed=0, max_product_states=cap)
        Flow.default().run(circuit, options)
        (budget_per_fault, classes), = calls
        assert budget_per_fault <= cap
        proofs = [c for c in classes.values() if c.verdict != POSSIBLY_DETECTABLE]
        assert all(c.product_states <= cap for c in proofs)
        n_proven[cap] = len(proofs)
    assert 0 < n_proven[2] < n_proven[200_000]


def test_expired_budget_aborts_everything_deterministically(celem):
    """A pre-expired (fake clock) budget classifies the whole universe
    aborted/'budget' without running any generation."""
    clock = iter(float(i) for i in range(10_000))
    budget = Budget(deadline_seconds=0.0, clock=lambda: next(clock))
    result = Flow.default().run(celem, AtpgOptions(seed=1), budget=budget)
    assert result.n_aborted == result.n_total > 0
    assert result.abort_reasons() == {REASON_BUDGET: result.n_total}
    assert len(result.tests.tests) == 0


def test_budget_remaining_and_expiry():
    times = iter([0.0, 1.0, 2.0, 5.0])
    budget = Budget(deadline_seconds=4.0, clock=lambda: next(times)).start()
    assert budget.remaining() == 3.0  # at t=1
    assert not budget.expired()  # at t=2
    assert budget.expired()  # at t=5
    unbounded = Budget().start()
    assert unbounded.remaining() is None and not unbounded.expired()


def test_product_state_cap_reports_reason():
    circuit = load_benchmark("vbe6a", "two-level")
    options = AtpgOptions(seed=0, max_product_states=1, use_random_tpg=False)
    result = Flow.default().run(circuit, options)
    assert result.n_aborted > 0
    assert set(result.abort_reasons()) == {"product-states"}


# -- event stream ------------------------------------------------------------


class Recorder:
    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append(event)


def run_with_recorder(circuit, options):
    recorder = Recorder()
    result = Flow.default().run(circuit, options, listeners=[recorder])
    return result, recorder.events


def sanitize(events):
    """Event stream minus the wall-clock field."""
    docs = []
    for event in events:
        doc = event.to_json_dict()
        doc.pop("seconds", None)
        docs.append(doc)
    return docs


def test_event_stream_is_deterministic_given_seed():
    circuit = load_benchmark("ebergen", "complex")
    options = AtpgOptions(seed=7)
    _, first = run_with_recorder(circuit, options)
    _, second = run_with_recorder(circuit, options)
    assert sanitize(first) == sanitize(second)
    assert len(first) > 10


def test_event_stream_shape(celem):
    result, events = run_with_recorder(celem, AtpgOptions(seed=1))
    # Stages bracket correctly: one StageFinished per StageStarted,
    # in order, starting with the cssg pseudo-stage.
    starts = [e.stage for e in events if isinstance(e, StageStarted)]
    ends = [e.stage for e in events if isinstance(e, StageFinished)]
    assert starts == ends
    assert starts[0] == "cssg"
    assert "three-phase" in starts
    # Every fault classified exactly once; every test announced.
    classified = [e for e in events if isinstance(e, FaultClassified)]
    assert len(classified) == result.n_total
    assert {e.fault for e in classified} == set(result.faults)
    added = [e for e in events if isinstance(e, TestAdded)]
    assert len(added) == len(result.tests.tests)
    assert [e.index for e in added] == list(range(len(added)))
    # n_faults is final at emit time (fault-sim credit counted in).
    assert [e.n_faults for e in added] == [
        len(t.faults) for t in result.tests.tests
    ]
    assert any(isinstance(e, ProgressTick) for e in events)


def test_budget_exhausted_event_emitted():
    circuit = load_benchmark("vbe6a", "two-level")
    recorder = Recorder()
    budget = Budget(deadline_seconds=VBE6A_DEADLINE, clock=step_clock())
    Flow.default().run(
        circuit, AtpgOptions(seed=0), listeners=[recorder], budget=budget
    )
    exhausted = [e for e in recorder.events if isinstance(e, BudgetExhausted)]
    assert len(exhausted) == 1
    assert exhausted[0].reason == "deadline"
    assert exhausted[0].n_remaining > 0


def test_event_bus_subscribe_unsubscribe():
    bus = EventBus()
    seen = []
    listener = bus.subscribe(seen.append)
    bus.emit(StageStarted("x", 1))
    bus.unsubscribe(listener)
    bus.emit(StageStarted("y", 1))
    assert [e.stage for e in seen] == ["x"]
    assert bus.n_emitted == 2


def test_event_bus_unsubscribe_is_idempotent():
    bus = EventBus()
    listener = bus.subscribe(lambda e: None)
    assert bus.unsubscribe(listener) is True
    assert bus.unsubscribe(listener) is False  # no ValueError, no-op


def test_event_bus_subscribe_from_listener_takes_effect_next_emit():
    bus = EventBus()
    late = []

    def attach_once(event):
        bus.unsubscribe(attach_once)
        bus.subscribe(late.append)

    bus.subscribe(attach_once)
    bus.emit(StageStarted("first", 1))
    assert late == []  # attached mid-emit: not called for this event
    bus.emit(StageStarted("second", 1))
    assert [e.stage for e in late] == ["second"]


def test_event_bus_detach_other_listener_mid_emit():
    bus = EventBus()
    seen_a, seen_b = [], []

    def detach_b(event):
        bus.unsubscribe(listener_b)

    bus.subscribe(detach_b)
    bus.subscribe(seen_a.append)
    listener_b = bus.subscribe(seen_b.append)
    bus.emit(StageStarted("x", 1))
    # The detached listener is skipped even though it was in the
    # snapshot; the untouched listener still gets the event.
    assert [e.stage for e in seen_a] == ["x"]
    assert seen_b == []


def test_event_bus_cross_thread_detach_does_not_disturb_others():
    import threading

    bus = EventBus()
    survivor = []
    victims = [bus.subscribe(lambda e: None) for _ in range(8)]
    bus.subscribe(survivor.append)
    stop = threading.Event()

    def emitter():
        while not stop.is_set():
            bus.emit(StageStarted("spin", 1))

    thread = threading.Thread(target=emitter)
    thread.start()
    try:
        # A serving front end detaching disconnected clients while the
        # flow thread keeps emitting.
        for victim in victims:
            bus.unsubscribe(victim)
    finally:
        stop.set()
        thread.join()
    n_before = len(survivor)
    bus.emit(StageStarted("after", 1))
    assert len(survivor) == n_before + 1  # survivor never detached


def test_event_bus_raising_listener_dropped_without_disturbing_run(celem):
    import warnings

    # A listener that dies mid-run (the serving analog: a client whose
    # connection broke) is unsubscribed after one warning; the run
    # completes and the steady listener sees the full stream.
    steady = []
    flaky_seen = []

    def flaky(event):
        flaky_seen.append(event)
        if len(flaky_seen) == 3:
            raise ConnectionResetError("client went away")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = Flow.default().run(
            celem, AtpgOptions(seed=1), listeners=[steady.append, flaky]
        )
    assert result.coverage == 1.0
    assert len(flaky_seen) == 3  # dropped right after it raised
    assert len(steady) > 3  # everyone else got the whole stream
    assert any(
        issubclass(w.category, RuntimeWarning) for w in caught
    )


# -- consumers ---------------------------------------------------------------


def test_trace_writer_emits_replayable_jsonl(celem, tmp_path):
    path = tmp_path / "trace.jsonl"
    with TraceWriter(str(path)) as trace:
        Flow.default().run(celem, AtpgOptions(seed=1), listeners=[trace])
    lines = path.read_text().strip().splitlines()
    docs = [json.loads(line) for line in lines]
    assert [d["seq"] for d in docs] == list(range(len(docs)))
    assert docs[0]["event"] == "StageStarted" and docs[0]["stage"] == "cssg"
    assert {"FaultClassified", "TestAdded", "StageFinished"} <= {
        d["event"] for d in docs
    }
    assert all("t" in d for d in docs)


def test_progress_line_renders_and_closes(celem):
    stream = io.StringIO()
    with ProgressLine(stream) as progress:
        Flow.default().run(celem, AtpgOptions(seed=1), listeners=[progress])
    text = stream.getvalue()
    assert "covered=" in text and "tests=" in text
    assert text.endswith("\n")


def test_heartbeat_throttles():
    beats = []
    heart = Heartbeat(lambda: beats.append(1), min_interval=3600.0)
    for _ in range(50):
        heart(StageStarted("x", 1))
    assert len(beats) == 1  # first fires, the rest are throttled


# -- composition -------------------------------------------------------------


def test_custom_stage_list_three_phase_only(celem):
    result = Flow([ThreePhaseStage()]).run(celem, AtpgOptions(seed=1))
    assert result.n_random == 0
    assert result.coverage == 1.0


def test_empty_flow_marks_universe_unprocessed(celem):
    result = Flow([]).run(celem, AtpgOptions(seed=1))
    assert result.n_aborted == result.n_total
    assert result.abort_reasons() == {REASON_UNPROCESSED: result.n_total}


def test_user_defined_stage_participates(celem):
    class StampStage:
        name = "stamp"

        def enabled(self, ctx):
            return True

        def run(self, ctx):
            ctx.stage_stats[self.name] = {"saw_faults": len(ctx.work_list)}

    stamp = StampStage()
    recorder = Recorder()
    flow = Flow([stamp, RandomTpgStage(), ThreePhaseStage()])
    assert flow.stage_names == ["stamp", "random-tpg", "three-phase"]
    result = flow.run(celem, AtpgOptions(seed=1), listeners=[recorder])
    assert result.coverage == 1.0
    assert any(
        isinstance(e, StageStarted) and e.stage == "stamp"
        for e in recorder.events
    )


def test_default_stage_names_match_pipeline():
    from repro.flow import DEFAULT_STAGE_NAMES

    assert tuple(Flow.default().stage_names) == DEFAULT_STAGE_NAMES


# -- compaction stage --------------------------------------------------------


@pytest.mark.parametrize("collapse", [False, True])
def test_compaction_keeps_coverage_and_valid_references(collapse):
    circuit = load_benchmark("master-read", "complex")
    options = AtpgOptions(seed=2, random_walks=12, walk_len=24)
    plain = Flow.default().run(circuit, options)
    compacted = Flow.default().run(
        circuit,
        AtpgOptions(
            seed=2, random_walks=12, walk_len=24, compact=True, collapse=collapse
        ),
    )
    assert compacted.n_covered == plain.n_covered
    assert len(compacted.tests.tests) <= len(plain.tests.tests)
    for fault, status in compacted.statuses.items():
        if status.status == "detected":
            assert status.test_index is not None
            assert fault in compacted.tests.tests[status.test_index].faults


def test_compaction_skipped_when_budget_expired(celem):
    clock = iter([0.0] + [10.0] * 10_000)
    budget = Budget(deadline_seconds=5.0, clock=lambda: next(clock))
    result = Flow.default().run(
        celem, AtpgOptions(seed=1, compact=True), budget=budget
    )
    assert result.n_aborted == result.n_total  # nothing ran, nothing compacted


# -- context invariants ------------------------------------------------------


def test_fault_subset_and_shared_cssg(celem):
    from repro.sgraph.cssg import build_cssg

    cssg = build_cssg(celem)
    faults = fault_universe(celem, "input")[:4]
    result = Flow.default().run(
        celem, AtpgOptions(seed=1), faults=faults, cssg=cssg
    )
    assert result.n_total == 4
    assert result.cssg is cssg
