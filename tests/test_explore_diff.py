"""The one-pass settling explorer against the three-pass reference.

Every :class:`SettleReport` field must agree with
``settle_reference.settle_report``: ``stable_states`` whenever the
report is complete (a truncated report's stable set is partial and
order-dependent), and ``has_cycle``, ``longest_path``, ``n_states`` and
``truncated`` always.  Checked on the reset state and every input
pattern applied to it, for every Table 1/2 circuit and a few of each
one's materialized faulty circuits, on every state of the fixture
circuits, and at small caps that force truncation.
"""

import pytest
import settle_reference

from repro.benchmarks_data import TABLE1_NAMES, TABLE2_NAMES, load_benchmark
from repro.circuit.faults import fault_universe, materialize_fault
from repro.sgraph.explore import settle_report

CAPS = (1, 3, 10, 40, 200_000)

#: Materialized faulty circuits checked per benchmark, per fault model.
FAULTS_PER_MODEL = 2


def assert_same_report(circuit, start, cap):
    got = settle_report(circuit, start, cap)
    want = settle_reference.settle_report(circuit, start, cap)
    assert got.start == want.start
    assert got.truncated == want.truncated
    assert got.n_states == want.n_states
    assert got.has_cycle == want.has_cycle
    assert got.longest_path == want.longest_path
    if not want.truncated:
        assert got.stable_states == want.stable_states


def starts(circuit, reset):
    """The reset state and every input pattern applied to it."""
    yield reset
    for pattern in range(1 << circuit.n_inputs):
        yield circuit.apply_input_pattern(reset, pattern)


def check_circuit(circuit, reset):
    for start in starts(circuit, reset):
        for cap in CAPS:
            assert_same_report(circuit, start, cap)


BENCHMARKS = [(name, "complex") for name in TABLE1_NAMES] + [
    (name, "two-level") for name in TABLE2_NAMES
]


@pytest.mark.parametrize("name,style", BENCHMARKS)
def test_matches_reference_on_benchmark(name, style):
    circuit = load_benchmark(name, style)
    check_circuit(circuit, circuit.require_reset())


@pytest.mark.parametrize("name,style", BENCHMARKS)
def test_matches_reference_on_faulty_circuits(name, style):
    circuit = load_benchmark(name, style)
    reset = circuit.require_reset()
    for model in ("input", "output"):
        for fault in fault_universe(circuit, model)[:FAULTS_PER_MODEL]:
            faulty = materialize_fault(circuit, fault)
            start = faulty.reset_state if faulty.reset_state is not None else reset
            check_circuit(faulty, start)


@pytest.mark.parametrize("fixture", ["celem", "race", "oscillator"])
def test_matches_reference_on_every_fixture_state(fixture, request):
    circuit = request.getfixturevalue(fixture)
    for start in range(1 << circuit.n_signals):
        for cap in CAPS:
            assert_same_report(circuit, start, cap)


def test_fixture_grid_reaches_every_outcome(celem, race, oscillator):
    """The fixture grid above must reach the interesting cases:
    truncated, oscillating and non-confluent reports, and settles
    longer than one transition."""
    seen = set()
    for circuit in (celem, race, oscillator):
        for start in range(1 << circuit.n_signals):
            for cap in CAPS:
                report = settle_report(circuit, start, cap)
                if report.truncated:
                    seen.add("truncated")
                elif report.oscillating:
                    seen.add("oscillating")
                elif report.nonconfluent:
                    seen.add("nonconfluent")
                elif report.longest_path > 1:
                    seen.add("long")
    assert seen == {"truncated", "oscillating", "nonconfluent", "long"}
