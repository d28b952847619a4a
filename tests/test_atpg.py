"""End-to-end ATPG engine behaviour and accounting invariants."""

import pytest

from repro.benchmarks_data import load_benchmark
from repro.circuit.faults import fault_universe
from repro.core.atpg import AtpgOptions
from repro.flow import Flow
from repro.sgraph.cssg import build_cssg
from repro.sim import ternary


def test_full_coverage_on_celem(celem):
    for model in ("output", "input"):
        result = Flow.default().run(celem, AtpgOptions(fault_model=model, seed=3))
        assert result.coverage == 1.0
        assert result.n_covered == result.n_total == len(
            fault_universe(celem, model)
        )


def test_accounting_adds_up(celem):
    result = Flow.default().run(celem, AtpgOptions(seed=1))
    assert (
        result.n_random + result.n_three_phase + result.n_fault_sim
        + result.n_undetectable + result.n_aborted
        == result.n_total
    )
    detected = [s for s in result.statuses.values() if s.status == "detected"]
    assert len(detected) == result.n_covered
    phases = {s.phase for s in detected}
    assert phases <= {"rnd", "3-ph", "sim"}


def test_statuses_reference_tests(celem):
    result = Flow.default().run(celem, AtpgOptions(seed=1))
    for fault, status in result.statuses.items():
        if status.status == "detected":
            assert status.test_index is not None
            test = result.tests.tests[status.test_index]
            assert fault in test.faults


def test_every_test_detects_its_faults(celem):
    """Global soundness: replay every test on every credited fault."""
    result = Flow.default().run(celem, AtpgOptions(seed=2))
    cssg = result.cssg
    for test in result.tests:
        for fault in test.faults:
            good = cssg.reset
            faulty = ternary.settle_from_reset(celem, good, fault)
            hit = ternary.detects(celem, good, faulty)
            for pattern in test.patterns:
                good = cssg.edges[good][pattern]
                faulty = ternary.apply_pattern(celem, faulty, pattern, fault)
                hit = hit or ternary.detects(celem, good, faulty)
            assert hit, f"{test.source} test fails on {fault.describe(celem)}"


def test_without_random_tpg_three_phase_carries_all(celem):
    options = AtpgOptions(seed=1, use_random_tpg=False)
    result = Flow.default().run(celem, options)
    assert result.n_random == 0
    assert result.coverage == 1.0
    assert result.n_three_phase + result.n_fault_sim == result.n_total


def test_fault_sim_credits_extra_faults(celem):
    options = AtpgOptions(seed=1, use_random_tpg=False)
    result = Flow.default().run(celem, options)
    # With fault simulation on, several faults ride along for free.
    assert result.n_fault_sim > 0
    off = AtpgOptions(seed=1, use_random_tpg=False, use_fault_sim=False)
    result_off = Flow.default().run(celem, off)
    assert result_off.n_fault_sim == 0
    assert result_off.coverage == result.coverage  # same faults, own tests


def test_reusing_cssg_and_fault_subset(celem):
    cssg = build_cssg(celem)
    faults = fault_universe(celem, "input")[:4]
    result = Flow.default().run(celem, AtpgOptions(seed=1), faults=faults, cssg=cssg)
    assert result.n_total == 4
    assert result.cssg is cssg


def test_deterministic_given_seed(celem):
    r1 = Flow.default().run(celem, AtpgOptions(seed=9))
    r2 = Flow.default().run(celem, AtpgOptions(seed=9))
    assert [t.patterns for t in r1.tests] == [t.patterns for t in r2.tests]
    assert r1.n_random == r2.n_random


def test_summary_mentions_key_numbers(celem):
    result = Flow.default().run(celem, AtpgOptions(seed=1))
    text = result.summary()
    assert "celem" in text and "100.00%" in text


@pytest.mark.parametrize("name", ["hazard", "rcv-setup", "seq4", "vbe5b"])
def test_si_benchmarks_fully_output_testable(name):
    """The paper's theoretical touchstone: SI circuits are 100%
    output-stuck-at testable, and our flow achieves it."""
    circuit = load_benchmark(name, "complex")
    result = Flow.default().run(circuit, AtpgOptions(fault_model="output", seed=4))
    assert result.coverage == 1.0


def test_auto_method_picks_ternary_for_big_circuits():
    circuit = load_benchmark("vbe10b", "two-level")
    options = AtpgOptions(seed=1, auto_exact_limit=4)  # force ternary
    result = Flow.default().run(circuit, options)
    assert result.cssg.stats.n_phi >= 0  # ternary bookkeeping present
    assert result.n_total > 0


def test_undetectable_faults_reported(celem):
    # Two-level redundant circuit has provably untestable faults.
    circuit = load_benchmark("vbe6a", "two-level")
    result = Flow.default().run(circuit, AtpgOptions(seed=1))
    assert result.n_undetectable > 0
    assert result.coverage < 1.0
    assert len(result.undetected_faults()) == result.n_undetectable + result.n_aborted
