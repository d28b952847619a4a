"""Experiments E3–E6 — the paper's figures as measurable artifacts.

* Figure 1(a): non-confluence detection on the race circuit;
* Figure 1(b): oscillation detection on the two-gate chaser;
* Figure 2: TCSG -> CSSG pruning (valid vs rejected vectors);
* Figures 3/4: justification corruption and differentiation semantics,
  measured through a 3-phase generation run.
"""


from repro.benchmarks_data import load_benchmark, load_figure_circuit
from repro.circuit.faults import input_fault_universe
from repro.core.three_phase import ThreePhaseGenerator
from repro.sgraph.cssg import build_cssg
from repro.sgraph.explore import settle_report
from repro.sim import ternary
from repro.sim.engine import compiled


def timed_settle(benchmark, circuit, started):
    """Time one exploration: the circuit's report memo is emptied
    before every round, so no round is a memo hit."""

    def forget():
        compiled(circuit).settle_memo = None

    return benchmark.pedantic(
        lambda: settle_report(circuit, started), setup=forget, rounds=200
    )


def test_fig1a_nonconfluence(benchmark):
    circuit = load_figure_circuit("fig1a")
    started = circuit.apply_input_pattern(circuit.require_reset(), 0b01)

    report = timed_settle(benchmark, circuit, started)
    assert report.nonconfluent
    assert len(report.stable_states) == 2


def test_fig1a_ternary_flags_the_race(benchmark):
    circuit = load_figure_circuit("fig1a")
    reset = ternary.from_binary(circuit.require_reset(), circuit.n_signals)

    result = benchmark(lambda: ternary.apply_pattern(circuit, reset, 0b01))
    assert not ternary.is_definite(result)


def test_fig1b_oscillation(benchmark):
    circuit = load_figure_circuit("fig1b")
    started = circuit.apply_input_pattern(circuit.require_reset(), 1)

    report = timed_settle(benchmark, circuit, started)
    assert report.oscillating


def test_fig2_cssg_prunes_the_tcsg(benchmark):
    """Figure 2's message in numbers: of all input vectors applicable to
    the stable states, only the confluent-and-stable ones survive."""
    circuit = load_benchmark("chu150", "complex")

    cssg = benchmark.pedantic(
        lambda: build_cssg(circuit, method="exact"), rounds=1, iterations=1
    )
    stats = cssg.stats
    assert stats.n_valid == cssg.n_edges
    rejected = stats.n_nonconfluent + stats.n_oscillating + stats.n_too_slow
    assert rejected > 0
    assert stats.n_vectors_tried >= stats.n_valid + rejected


def test_fig3_fig4_three_phase_anatomy(benchmark):
    """A fault whose test needs real justification + differentiation."""
    circuit = load_benchmark("sbuf-send-ctl", "complex")
    cssg = build_cssg(circuit)
    generator = ThreePhaseGenerator(cssg)
    # Find a fault requiring a non-empty sequence.
    target = None
    for fault in input_fault_universe(circuit):
        outcome = generator.generate(fault)
        if outcome.detected and outcome.patterns:
            target = fault
            break
    assert target is not None

    outcome = benchmark(lambda: generator.generate(target))
    assert outcome.detected
    assert outcome.justification_len + outcome.differentiation_len >= 1 \
        or outcome.detected_during_justification
