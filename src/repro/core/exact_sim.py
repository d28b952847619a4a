"""Exact faulty-machine simulation for deterministic test generation.

Ternary simulation is conservative with respect to the unbounded *gate*
delay model: its Φ also covers wire-delay races the model excludes, and
on interlocked complex gates that conservatism can hide perfectly good
tests (the faulty machine dissolves into Φ and no output difference is
ever definite).  The paper accepts the loss during bulk fault simulation
(§5.4) — so do we — but per-fault generation deserves better.

Here the faulty circuit is *materialized* as a real netlist
(:func:`repro.circuit.faults.materialize_fault`) and simulated with the
same exhaustive settling explorer used for the good circuit.  Because a
faulty circuit driven by good-circuit-valid vectors may itself race, the
machine state is a **set** of possible stable states:

* applying a vector maps each member through its settling analysis and
  unions the outcomes;
* a fault is *detected* at a cycle when **every** member disagrees with
  the good circuit on some primary output — the paper's "corruption must
  show in all terminal stable states" (§5.2);
* if any member oscillates, exceeds the exploration cap, or the set
  grows beyond ``max_set``, the simulation reports ``None`` and the
  caller falls back to ternary semantics (sound, never optimistic).

This module owns no settling machinery of its own: all exploration
routes through :func:`repro.sgraph.explore.settle_report`, whose
excited-gate enumeration is the compiled function of
:mod:`repro.sim.engine` — the same engine every other simulation
workload shares.  Its reports are memoized on the materialized
netlist's compiled form, so the differentiation search re-settling a
(state, pattern) pair it has met before costs a lookup, and the memo
is freed with the netlist when the fault is done.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.circuit.netlist import Circuit
from repro.sgraph.explore import settle_report

FaultyStates = FrozenSet[int]


def faulty_reset_states(
    faulty: Circuit,
    reset_state: int,
    cap: int = 50_000,
    max_set: int = 64,
) -> Optional[FaultyStates]:
    """Possible stable states of the faulty machine after reset forcing.

    ``reset_state`` already carries the output-fault pre-set (see
    ``materialize_fault``).  Returns None when the machine may oscillate
    or the analysis blows the caps.
    """
    report = settle_report(faulty, reset_state, cap)
    if report.oscillating or report.truncated:
        return None
    if len(report.stable_states) > max_set:
        return None
    return report.stable_states


def faulty_apply(
    faulty: Circuit,
    states: FaultyStates,
    pattern: int,
    cap: int = 50_000,
    max_set: int = 64,
) -> Optional[FaultyStates]:
    """Drive the inputs to ``pattern`` on every possible faulty state."""
    out = set()
    for state in states:
        started = faulty.apply_input_pattern(state, pattern)
        report = settle_report(faulty, started, cap)
        if report.oscillating or report.truncated:
            return None
        out |= report.stable_states
        if len(out) > max_set:
            return None
    return frozenset(out)


def faulty_detects(circuit: Circuit, good_state: int, states: FaultyStates) -> bool:
    """True when every possible faulty stable state mismatches the good
    outputs — detection guaranteed for any delay assignment."""
    if not states:
        return False
    for state in states:
        if all(
            ((state >> out) & 1) == ((good_state >> out) & 1)
            for out in circuit.outputs
        ):
            return False
    return True
