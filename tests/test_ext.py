"""Extensions: partial scan, undetectable classification, path listing."""

import pytest

from repro.benchmarks_data import load_benchmark
from repro.circuit.faults import input_fault_universe
from repro.core.atpg import AtpgOptions
from repro.errors import NetlistError
from repro.ext.paths import enumerate_paths, structural_paths
from repro.ext.scan import insert_scan_inputs, rank_scan_candidates
from repro.ext.undetectable import (
    NEVER_EXCITED,
    POSSIBLY_DETECTABLE,
    STABLE_EQUIVALENT,
    classify_undetectable,
)
from repro.flow import Flow
from repro.sgraph.cssg import build_cssg


# -- scan ---------------------------------------------------------------

def test_scan_insertion_structure(celem):
    scanned = insert_scan_inputs(celem, ["c"])
    assert "c" in scanned.input_names
    assert "c$obs" in scanned.output_names
    assert scanned.is_stable(scanned.require_reset())


def test_scan_rejects_bad_names(celem):
    with pytest.raises(NetlistError):
        insert_scan_inputs(celem, ["A"])  # primary input, not a gate
    with pytest.raises(NetlistError):
        insert_scan_inputs(celem, ["zz"])


def test_scan_improves_coverage_on_redundant_circuit():
    circuit = load_benchmark("converta", "complex")
    options = AtpgOptions(fault_model="input", seed=1)
    base = Flow.default().run(circuit, options)
    assert base.coverage < 1.0
    ranking = rank_scan_candidates(circuit, base.undetected_faults())
    assert ranking
    scanned = insert_scan_inputs(circuit, [ranking[0][0]])
    improved = Flow.default().run(scanned, options)
    assert improved.coverage > base.coverage


def test_rank_candidates_excludes_outputs_and_inputs(celem):
    faults = input_fault_universe(celem)
    ranking = rank_scan_candidates(celem, faults)
    names = [name for name, _ in ranking]
    assert "A" not in names and "B" not in names
    assert "c" not in names  # already an observable output


# -- undetectable classification ------------------------------------------

def test_classifier_on_known_redundancy():
    from repro.circuit.parser import parse_netlist
    from repro.circuit.faults import Fault

    net = """
    .model red
    .inputs A
    .gate a BUF A
    .expr y = a | (a & y)
    .outputs y
    .reset A=0 a=0 y=0
    """
    circuit = parse_netlist(net)
    cssg = build_cssg(circuit)
    y = circuit.index("y")
    fault = Fault("input", y, y, 0)
    result = classify_undetectable(cssg, [fault])
    assert result[fault].verdict in (NEVER_EXCITED, STABLE_EQUIVALENT)


def test_classifier_never_flags_detectable_faults(celem):
    """Soundness: every fault the engine detects must be classified as
    possibly detectable."""
    result = Flow.default().run(celem, AtpgOptions(seed=1))
    cssg = result.cssg
    detected = [
        f for f in result.faults if result.statuses[f].status == "detected"
    ]
    classes = classify_undetectable(cssg, detected)
    for fault, cls in classes.items():
        assert cls.verdict == POSSIBLY_DETECTABLE, fault.describe(celem)


def test_never_excited_symbolic_at_most_explicit():
    """The symbolic check runs over the TCSG stable set — a superset of
    the CSSG states — so it may only be *stricter* than the explicit
    walk: anything it calls never-excited, the explicit walk must too."""
    from repro.ext.undetectable import _never_excited, _never_excited_symbolic
    from repro.sgraph.symbolic import SymbolicTcsg

    for name in ("ebergen", "converta", "dff"):
        circuit = load_benchmark(name, "complex")
        cssg = build_cssg(circuit)
        sym = SymbolicTcsg(circuit)
        reach = sym.mgr.add_root(sym.reachable(sym.state_bdd(cssg.reset)))
        stable_reach = sym.mgr.add_root(
            sym.mgr.apply_and(reach, sym.stable)
        )
        for fault in input_fault_universe(circuit):
            if _never_excited_symbolic(sym, reach, stable_reach, fault):
                assert _never_excited(cssg, fault), (name, fault)


def test_classifier_symbolic_and_explicit_agree_on_verdict_partition():
    """Both never-excited backends feed the same downstream logic; the
    final undetectable-vs-possible partition must not differ on the
    bundled redundant circuit."""
    circuit = load_benchmark("converta", "complex")
    cssg = build_cssg(circuit)
    faults = input_fault_universe(circuit)
    with_symbolic = classify_undetectable(cssg, faults)
    explicit = classify_undetectable(cssg, faults, use_symbolic=False)
    for fault in faults:
        a = with_symbolic[fault].verdict == POSSIBLY_DETECTABLE
        b = explicit[fault].verdict == POSSIBLY_DETECTABLE
        assert a == b, fault.describe(circuit)


# -- path enumeration ---------------------------------------------------------

def test_paths_on_celem(celem):
    paths = list(enumerate_paths(celem))
    # A -> a -> c and B -> b -> c.
    assert len(paths) == 2
    for path in paths:
        assert celem.signals[path[0]].is_input
        assert path[-1] == celem.index("c")


def test_paths_are_simple(celem):
    for path in enumerate_paths(celem):
        assert len(set(path)) == len(path)


def test_structural_path_counts():
    circuit = load_benchmark("ebergen", "complex")
    counts = structural_paths(circuit)
    assert set(counts) == set(circuit.output_names)
    assert all(v >= 1 for v in counts.values())


def test_max_paths_cap(celem):
    assert len(list(enumerate_paths(celem, max_paths=1))) == 1
