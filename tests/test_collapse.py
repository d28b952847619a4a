"""Structural fault collapsing: classic rules and losslessness."""

import pytest

from repro.benchmarks_data import load_benchmark
from repro.circuit.faults import Fault, input_fault_universe, output_fault_universe
from repro.circuit.parser import parse_netlist
from repro.core.atpg import AtpgOptions
from repro.core.collapse import collapse_faults, collapse_ratio
from repro.flow import Flow


def gate_net(expr):
    return parse_netlist(
        f".model t\n.inputs A B\n.gate a BUF A\n.gate b BUF B\n"
        f".expr y = {expr}\n.outputs y\n.reset A=0 B=0 a=0 b=0 y=0\n"
    )


def test_and_inputs_sa0_collapse_with_output_sa0():
    c = gate_net("a & b")
    y, a, b = c.index("y"), c.index("a"), c.index("b")
    faults = [
        Fault("input", y, a, 0),
        Fault("input", y, b, 0),
        Fault("output", y, y, 0),
        Fault("input", y, a, 1),  # NOT equivalent to anything here
    ]
    reps, rep_of = collapse_faults(c, faults)
    assert rep_of[faults[0]] == rep_of[faults[1]] == rep_of[faults[2]]
    assert rep_of[faults[3]] == faults[3]
    assert len(reps) == 2


def test_buffer_chain_collapses():
    c = parse_netlist(
        ".model chain\n.inputs A\n.gate a BUF A\n.gate y BUF a\n"
        ".outputs y\n.reset A=0 a=0 y=0\n"
    )
    y, a = c.index("y"), c.index("a")
    faults = [Fault("input", y, a, 1), Fault("output", y, y, 1)]
    reps, rep_of = collapse_faults(c, faults)
    assert len(reps) == 1
    assert rep_of[faults[0]] == rep_of[faults[1]]


def test_inverter_polarity():
    c = parse_netlist(
        ".model inv\n.inputs A\n.gate a BUF A\n.gate y INV a\n"
        ".outputs y\n.reset A=0 a=0 y=1\n"
    )
    y, a = c.index("y"), c.index("a")
    # input SA0 == output SA1; input SA1 == output SA0.
    faults = [
        Fault("input", y, a, 0),
        Fault("output", y, y, 1),
        Fault("input", y, a, 1),
        Fault("output", y, y, 0),
    ]
    reps, rep_of = collapse_faults(c, faults)
    assert rep_of[faults[0]] == rep_of[faults[1]]
    assert rep_of[faults[2]] == rep_of[faults[3]]
    assert rep_of[faults[0]] != rep_of[faults[2]]
    assert len(reps) == 2


def test_different_gates_never_merge(celem):
    faults = output_fault_universe(celem)
    _, rep_of = collapse_faults(celem, faults)
    for fault, rep in rep_of.items():
        assert rep.gate == fault.gate


@pytest.mark.parametrize("name", ["ebergen", "mmu", "sbuf-send-ctl"])
def test_collapse_is_lossless_in_the_engine(name):
    circuit = load_benchmark(name, "complex")
    plain = Flow.default().run(circuit, AtpgOptions(seed=3))
    collapsed = Flow.default().run(circuit, AtpgOptions(seed=3, collapse=True))
    assert collapsed.n_total == plain.n_total
    assert collapsed.n_covered == plain.n_covered
    # Every fault gets a status after class expansion.
    assert set(collapsed.statuses) == set(collapsed.faults)
    for fault in collapsed.faults:
        assert (collapsed.statuses[fault].status == "detected") == (
            plain.statuses[fault].status == "detected"
        )


def test_collapse_ratio():
    assert collapse_ratio(10, 5) == 0.5
    assert collapse_ratio(0, 0) == 0.0


def test_mixed_universe_collapse(celem):
    faults = input_fault_universe(celem) + output_fault_universe(celem)
    reps, rep_of = collapse_faults(celem, faults)
    assert len(reps) < len(faults)  # buffers guarantee merges
    # Representatives map to themselves.
    for rep in reps:
        assert rep_of[rep] == rep
