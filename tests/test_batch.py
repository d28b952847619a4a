"""Parallel fault simulation: a packed engine of W machines must equal
W scalar runs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.faults import fault_universe, input_fault_universe
from repro.sgraph.cssg import build_cssg
from repro.sim import ternary
from repro.sim.engine import engine_for


def walk_patterns(cssg, seed, length):
    rng = random.Random(seed)
    return cssg.random_walk(rng, length)


def packed(circuit, faults):
    """The packed-walk engine: one machine per fault."""
    return engine_for(circuit, faults, len(faults))


def machine_state(circuit, words, j):
    """Machine ``j`` of packed ``(low, high)`` words as a scalar ternary
    ``(L, H)`` pair."""
    low, high = words
    sl = sh = 0
    for i in range(circuit.n_signals):
        sl |= ((low[i] >> j) & 1) << i
        sh |= ((high[i] >> j) & 1) << i
    return (sl, sh)


@pytest.mark.parametrize("model", ["input", "output"])
def test_batch_equals_scalar_on_celem(celem, model):
    faults = fault_universe(celem, model)
    cssg = build_cssg(celem)
    patterns = walk_patterns(cssg, seed=4, length=6)
    engine = packed(celem, faults)
    bstate = engine.settle(*engine.reset_words(cssg.reset))
    scalar = [
        ternary.settle_from_reset(celem, cssg.reset, f) for f in faults
    ]
    for j in range(len(faults)):
        assert machine_state(celem, bstate, j) == scalar[j]
    for pattern in patterns:
        bstate = engine.apply_pattern(*bstate, pattern)
        scalar = [
            ternary.apply_pattern(celem, s, pattern, f)
            for s, f in zip(scalar, faults)
        ]
        for j in range(len(faults)):
            assert machine_state(celem, bstate, j) == scalar[j]


def test_observe_matches_scalar_detects(celem):
    faults = input_fault_universe(celem)
    cssg = build_cssg(celem)
    walk = packed(celem, faults).walk(cssg.reset)
    good = cssg.reset
    for pattern in walk_patterns(cssg, seed=9, length=8):
        good = cssg.edges[good][pattern]
        mask = walk.step(pattern, good)
        bstate = walk.state()
        for j, fault in enumerate(faults):
            expected = ternary.detects(
                celem, good, machine_state(celem, bstate, j)
            )
            assert bool((mask >> j) & 1) == expected


def test_empty_batch(celem):
    engine = packed(celem, [])
    assert engine.width == 0
    walk = engine.walk(celem.require_reset())
    assert walk.observe(celem.require_reset()) == 0


def test_broadcast_is_definite(celem):
    faults = input_fault_universe(celem)[:3]
    engine = packed(celem, faults)
    low, high = engine.broadcast(celem.require_reset())
    for i in range(celem.n_signals):
        assert (low[i] & high[i]) == 0
        assert (low[i] | high[i]) == engine.ones


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 10))
def test_batch_equals_scalar_random_walks(seed, length):
    """Property: for random walks over the benchmark 'dff', every machine
    in the packed engine equals its scalar ternary twin after every
    cycle."""
    from repro.benchmarks_data import load_benchmark

    circuit = load_benchmark("dff", "complex")
    faults = input_fault_universe(circuit)
    cssg = build_cssg(circuit)
    patterns = walk_patterns(cssg, seed, length)
    walk = packed(circuit, faults).walk(cssg.reset)
    scalar = [ternary.settle_from_reset(circuit, cssg.reset, f) for f in faults]
    for pattern in patterns:
        walk.step(pattern, 0)
        scalar = [
            ternary.apply_pattern(circuit, s, pattern, f)
            for s, f in zip(scalar, faults)
        ]
    bstate = walk.state()
    for j in range(len(faults)):
        assert machine_state(circuit, bstate, j) == scalar[j]
