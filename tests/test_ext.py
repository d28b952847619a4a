"""Extensions: partial scan, undetectable classification, path listing."""

import random

import pytest

from repro.benchmarks_data import TABLE1_NAMES, TABLE2_NAMES, load_benchmark
from repro.circuit.faults import fault_universe, input_fault_universe
from repro.core.atpg import AtpgOptions, cssg_for
from repro.core.collapse import collapse_faults
from repro.core.random_tpg import random_tpg
from repro.core.three_phase import ABORTED, UNDETECTABLE, ThreePhaseGenerator
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
from repro.fuzz.oracles import audit_undetectable
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


PULSE_NET = """
.model pulse
.inputs a
.gate a$buf BUF a
.expr s1 = a$buf & ~s3
.expr s2 = s1 | (a$buf & s2)
.expr s3 = s2
.outputs s1 s3
.reset a=0 a$buf=0 s1=0 s2=0 s3=0
"""


def test_classifier_sees_transient_pulses():
    """s1 is 0 in both stable states, but raising `a` pulses it: s1+
    fires s2+, s3 follows, and s1 falls again.  Stuck-at-0 on s1 removes
    the pulse, so s2 never rises and s3 differs — a detectable fault
    that a stable-states-only never-excited check would prove
    undetectable."""
    from repro.circuit.faults import Fault
    from repro.circuit.parser import parse_netlist
    from repro.core.three_phase import DETECTED

    circuit = parse_netlist(PULSE_NET)
    cssg = build_cssg(circuit)
    s1, s2 = circuit.index("s1"), circuit.index("s2")
    assert all(not (state >> s1) & 1 for state in cssg.states)
    always, ever = cssg.transient_span()
    assert (ever >> s1) & 1 and not (always >> circuit.index("a$buf")) & 1
    faults = [Fault("output", s1, s1, 0), Fault("input", s2, s1, 0)]
    for use_symbolic in (True, False):
        classes = classify_undetectable(cssg, faults, use_symbolic=use_symbolic)
        assert {c.verdict for c in classes.values()} == {POSSIBLY_DETECTABLE}
    generator = ThreePhaseGenerator(cssg)
    assert [generator.generate(f).status for f in faults] == [DETECTED] * 2


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
    """The symbolic check runs over the TCSG reachable set — a superset
    of the states CSSG walks visit — so it may only be *stricter* than
    the explicit scan: anything it calls never-excited, the explicit
    scan must too."""
    from repro.ext.undetectable import _never_excited, _never_excited_symbolic
    from repro.sgraph.symbolic import SymbolicTcsg

    for name in ("ebergen", "converta", "dff"):
        circuit = load_benchmark(name, "complex")
        cssg = build_cssg(circuit)
        sym = SymbolicTcsg(circuit)
        reach = sym.mgr.add_root(sym.reachable(sym.state_bdd(cssg.reset)))
        for fault in input_fault_universe(circuit):
            if _never_excited_symbolic(sym, reach, fault):
                assert _never_excited(cssg, fault), (name, fault)


def test_classifier_symbolic_and_explicit_agree_on_verdict_partition():
    """Both never-excited backends feed the same downstream logic; the
    final undetectable-vs-possible partition must not differ on the
    bundled redundant circuit."""
    circuit = load_benchmark("converta", "complex")
    cssg = build_cssg(circuit)
    faults = input_fault_universe(circuit)
    with_symbolic = classify_undetectable(cssg, faults, use_symbolic=True)
    explicit = classify_undetectable(cssg, faults)
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


# -- classifier vs 3-phase audit on the paper grid ----------------------------

PAPER_GRID = [
    (name, "complex", model)
    for name in TABLE1_NAMES
    for model in ("output", "input", "bridging", "transition")
] + [(name, "two-level", model) for name in TABLE2_NAMES for model in ("input", "output")]


@pytest.fixture(scope="module")
def paper_grid_residues():
    """Per grid cell: the CSSG, the collapsed faults random TPG leaves
    undetected at seed 0 — exactly what the flow hands to the proof —
    and the first two faults it detects."""
    cells = []
    for name, style, model in PAPER_GRID:
        circuit = load_benchmark(name, style)
        options = AtpgOptions(fault_model=model, seed=0)
        cssg = cssg_for(circuit, options)
        work, _ = collapse_faults(circuit, fault_universe(circuit, model))
        detected, _ = random_tpg(cssg, work, rng=random.Random(options.seed))
        residue = [f for f in work if f not in detected]
        caught = [f for f in work if f in detected][:2]
        cells.append((f"{name}/{style}/{model}", cssg, residue, caught))
    return cells


def test_undetectable_pair_agrees_on_paper_grid(paper_grid_residues, capsys):
    """The `undetectable` oracle pair over Table 1 x 4 models and Table 2
    x 2 models: every classifier proof is confirmed by 3-phase under
    exact semantics, and 3-phase proves at most one fault more."""
    proven, gap, unconfirmed, refuted = [], [], [], []
    for label, cssg, residue, _ in paper_grid_residues:
        audit = audit_undetectable(ThreePhaseGenerator(cssg), residue)
        proven += audit.proven
        gap += [(label, f.describe(cssg.circuit)) for f in audit.gap]
        unconfirmed += [(label, f) for f in audit.unconfirmed]
        refuted += [(label, f.describe(cssg.circuit)) for f in audit.disagreements]
    with capsys.disabled():
        print(f"\nundetectable pair: {len(proven)} proven, gap {len(gap)}: {gap}")
    assert refuted == []
    assert unconfirmed == []
    assert len(proven) >= 99 and len(gap) <= 1


def test_undetectable_pair_agrees_under_ternary_fallback(paper_grid_residues):
    """With tiny exact-settle caps 3-phase falls back to ternary and
    ends faults `ternary-exhausted`: none of those may come out
    UNDETECTABLE, and no classifier proof may meet a 3-phase test —
    checked on the residue plus two random-detected faults per cell."""
    exhausted = []
    for label, cssg, residue, caught in paper_grid_residues:
        generator = ThreePhaseGenerator(cssg, settle_cap=2, max_faulty_set=1)
        audit = audit_undetectable(generator, residue + caught)
        assert audit.disagreements == [], label
        for fault, outcome in audit.outcomes.items():
            if outcome.reason == "ternary-exhausted":
                exhausted.append(fault)
                assert outcome.status == ABORTED, (label, fault)
            if outcome.semantics == "ternary":
                assert outcome.status != UNDETECTABLE, (label, fault)
    assert exhausted
