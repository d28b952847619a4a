"""The independent test-set auditor."""

from repro.benchmarks_data import load_benchmark
from repro.circuit.faults import input_fault_universe
from repro.core.atpg import AtpgOptions
from repro.core.sequences import Test
from repro.core.verify import audit_result, verify_test_set
from repro.flow import Flow
from repro.sgraph.cssg import build_cssg


def test_audit_confirms_engine_claims(celem):
    result = Flow.default().run(celem, AtpgOptions(seed=5))
    report = audit_result(result)
    engine_detected = {
        f for f in result.faults if result.statuses[f].status == "detected"
    }
    # The auditor uses ternary replay, which can only under-approve the
    # engine's exact-semantics detections — never invent new ones beyond
    # what the engine's own tests established.
    assert report.detected <= engine_detected
    # Random-TPG and fault-sim detections were themselves established by
    # ternary replay, so the auditor must confirm at least those.
    assert report.n_detected >= result.n_random + result.n_fault_sim
    assert report.all_tests_valid
    assert "verified" in report.summary()


def test_audit_flags_invalid_vectors(celem):
    cssg = build_cssg(celem)
    faults = input_fault_universe(celem)
    # Pattern 0b01 from reset is valid; re-applying the same pattern is
    # not an edge (inputs unchanged) -> invalid test.
    bogus = Test((0b01, 0b01), [], source="handmade")
    report = verify_test_set(cssg, [bogus], faults)
    assert report.invalid_tests == [0]
    assert not report.all_tests_valid


def test_per_test_attribution(celem):
    result = Flow.default().run(celem, AtpgOptions(seed=5))
    report = audit_result(result)
    assert len(report.per_test) == len(result.tests.tests)
    assert set().union(*report.per_test) == report.detected if report.per_test else True


def test_verify_against_other_universe():
    circuit = load_benchmark("ebergen", "complex")
    result = Flow.default().run(circuit, AtpgOptions(fault_model="input", seed=5))
    output_faults = __import__(
        "repro.circuit.faults", fromlist=["output_fault_universe"]
    ).output_fault_universe(circuit)
    report = audit_result(result, output_faults)
    # Input-model tests exercise the circuit thoroughly enough to catch
    # every output stuck-at as well (the input model subsumes it).
    assert report.coverage == 1.0


def test_empty_test_set(celem):
    cssg = build_cssg(celem)
    report = verify_test_set(cssg, [], input_fault_universe(celem))
    assert report.n_detected == 0
    assert report.coverage == 0.0
