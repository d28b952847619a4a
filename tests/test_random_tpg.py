"""Random TPG: coverage, determinism, and no false detections."""

import pytest

from repro.benchmarks_data import load_benchmark
from repro.circuit.faults import fault_universe, input_fault_universe
from repro.core.random_tpg import random_tpg
from repro.ext.undetectable import POSSIBLY_DETECTABLE, classify_undetectable
from repro.sgraph.cssg import build_cssg
from repro.sim import ternary


def test_detects_faults_on_celem(celem):
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    detected, tests = random_tpg(cssg, faults, n_walks=8, walk_len=16, seed=0)
    assert detected  # the C-element is highly random-testable
    assert all(t.source == "random" for t in tests)
    covered = {f for t in tests for f in t.faults}
    assert covered == set(detected)


def test_deterministic_given_seed(celem):
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    a = random_tpg(cssg, faults, n_walks=4, walk_len=8, seed=7)
    b = random_tpg(cssg, faults, n_walks=4, walk_len=8, seed=7)
    assert a[0] == b[0]
    assert [t.patterns for t in a[1]] == [t.patterns for t in b[1]]


def test_every_reported_detection_is_replayable(celem):
    """No over-reporting: replaying each recorded sequence with scalar
    ternary simulation must definitely expose every credited fault."""
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    detected, _tests = random_tpg(cssg, faults, n_walks=8, walk_len=16, seed=3)
    for fault, patterns in detected.items():
        good = cssg.reset
        faulty = ternary.settle_from_reset(celem, cssg.reset, fault)
        hit = ternary.detects(celem, good, faulty)
        for pattern in patterns:
            good = cssg.edges[good][pattern]
            faulty = ternary.apply_pattern(celem, faulty, pattern, fault)
            hit = hit or ternary.detects(celem, good, faulty)
        assert hit, fault.describe(celem)


def test_sequences_are_valid_cssg_walks(celem):
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    _, tests = random_tpg(cssg, faults, n_walks=8, walk_len=16, seed=5)
    for t in tests:
        cssg.run(t.patterns)  # must not raise


def test_zero_walks_detects_nothing(celem):
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    detected, tests = random_tpg(cssg, faults, n_walks=0, walk_len=8, seed=0)
    assert detected == {} and tests == []


def test_walks_stop_when_all_faults_fall(celem):
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    detected, tests = random_tpg(cssg, faults, n_walks=500, walk_len=64, seed=1)
    # Far fewer walks recorded than requested: coverage saturates.
    assert len(tests) < 500


# -- the undetectability proof hook -------------------------------------------


def _classifier_hook(cssg, calls):
    """A ``prove`` hook backed by the a-priori classifier; records each
    call's ``(residue, proven)``."""

    def prove(residue):
        classes = classify_undetectable(cssg, residue)
        proven = [
            f for f in residue if classes[f].verdict != POSSIBLY_DETECTABLE
        ]
        calls.append((list(residue), proven))
        return proven

    return prove


def _walks(cssg, faults, **kwargs):
    """``random_tpg`` at seed 0, plus the number of walks it ran."""
    seen = []
    detected, tests = random_tpg(
        cssg, faults, seed=0, on_walk=lambda i, n: seen.append(i), **kwargs
    )
    return detected, [(t.patterns, t.faults) for t in tests], len(seen)


@pytest.mark.parametrize(
    "name, style, model",
    [
        ("converta", "complex", "input"),
        ("ebergen", "complex", "input"),
        ("vbe6a", "two-level", "input"),
        ("vbe6a", "two-level", "output"),
    ],
)
def test_proof_hook_keeps_detections_and_stops_walks(name, style, model):
    circuit = load_benchmark(name, style)
    cssg = build_cssg(circuit)
    faults = fault_universe(circuit, model)
    calls = []
    plain_detected, plain_tests, plain_walks = _walks(cssg, faults)
    detected, tests, walks = _walks(
        cssg, faults, prove=_classifier_hook(cssg, calls)
    )
    # Same seed, same detections and tests: a proven fault is never
    # detectable, so clearing it from the mask changes no walk's record.
    assert detected == plain_detected
    assert tests == plain_tests
    # Called once, on exactly the undetected residue, which it clears.
    assert len(calls) == 1
    residue, proven = calls[0]
    assert set(residue) == set(faults) - set(detected)
    assert proven == residue
    assert not set(proven) & {f for _, covered in tests for f in covered}
    # With nothing left to chase, the walks stop early.
    assert walks < plain_walks == 16


def test_proof_hook_called_at_most_once():
    """A hook that proves nothing is called once, at the first fruitless
    walk, and the walks then run their full count."""
    circuit = load_benchmark("converta", "complex")
    cssg = build_cssg(circuit)
    faults = input_fault_universe(circuit)
    calls = []

    def prove_nothing(residue):
        calls.append(list(residue))
        return []

    detected, tests, walks = _walks(cssg, faults, prove=prove_nothing)
    assert len(calls) == 1 and calls[0]
    assert walks == 16
    assert (detected, tests) == _walks(cssg, faults)[:2]


def test_proof_hook_not_called_while_every_walk_detects(celem):
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    calls = []
    detected, _, walks = _walks(cssg, faults, prove=_classifier_hook(cssg, calls))
    assert set(detected) == set(faults) and walks < 16
    assert calls == []
