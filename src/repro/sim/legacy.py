"""Reference (pre-engine) simulators, kept for parity testing.

These are the seed tree's sweep-based Algorithm A/B implementations:
full-circuit passes with per-gate stack interpretation through
:func:`repro.circuit.expr.eval_ternary`.  The compiled event-driven
engine in :mod:`repro.sim.engine` must be **bit-identical** to them on
every state — ``tests/test_sim_cross.py`` and
``benchmarks/bench_ternary_cost.py`` import this module as the ground
truth and the speed baseline.  Production code must not: the engine is
strictly faster and the only supported settle path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.circuit.expr import eval_ternary
from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit, Gate
from repro.errors import SimulationError
from repro.sim.ternary import TernaryState


def _check_kind(fault: Optional[Fault]) -> None:
    """The oracle predates the fault-model registry and implements the
    two stuck-at kinds only; silently mis-simulating a bridging or
    transition fault would poison every differential test, so reject
    anything else loudly."""
    if fault is not None and fault.kind not in ("input", "output"):
        raise SimulationError(
            f"legacy oracle only simulates stuck-at kinds, not {fault.kind!r}"
        )


def _gate_eval(
    circuit: Circuit, gate: Gate, low: int, high: int, fault: Optional[Fault]
) -> Tuple[int, int]:
    """Ternary evaluation of one gate with optional fault injection."""
    if fault is not None and fault.kind == "output" and gate.index == fault.gate:
        return (0, 1) if fault.value else (1, 0)
    if fault is not None and fault.kind == "input" and gate.index == fault.gate:
        site, stuck = fault.site, fault.value

        def getv(sig: int) -> Tuple[int, int]:
            if sig == site:
                return (0, 1) if stuck else (1, 0)
            return ((low >> sig) & 1, (high >> sig) & 1)

    else:

        def getv(sig: int) -> Tuple[int, int]:
            return ((low >> sig) & 1, (high >> sig) & 1)

    return eval_ternary(gate.program, getv, 1)


def settle(
    circuit: Circuit, tstate: TernaryState, fault: Optional[Fault] = None
) -> TernaryState:
    """The seed's sweep-based scalar Algorithm A + B."""
    _check_kind(fault)
    low, high = tstate
    gates = circuit.gates
    sweep_guard = 2 * circuit.n_signals + 4
    for _ in range(sweep_guard):
        changed = False
        for gate in gates:
            el, eh = _gate_eval(circuit, gate, low, high, fault)
            gi = gate.index
            nl = ((low >> gi) & 1) | el
            nh = ((high >> gi) & 1) | eh
            if nl != ((low >> gi) & 1) or nh != ((high >> gi) & 1):
                low = (low & ~(1 << gi)) | (nl << gi)
                high = (high & ~(1 << gi)) | (nh << gi)
                changed = True
        if not changed:
            break
    else:
        raise SimulationError("Algorithm A failed to converge (internal bug)")
    for _ in range(sweep_guard):
        changed = False
        for gate in gates:
            el, eh = _gate_eval(circuit, gate, low, high, fault)
            gi = gate.index
            if el != ((low >> gi) & 1) or eh != ((high >> gi) & 1):
                low = (low & ~(1 << gi)) | (el << gi)
                high = (high & ~(1 << gi)) | (eh << gi)
                changed = True
        if not changed:
            break
    else:
        raise SimulationError("Algorithm B failed to converge (internal bug)")
    return (low, high)


def excited_gates(circuit: Circuit, state: int) -> List[int]:
    """The seed's full-sweep excited-gate enumeration (binary domain)."""
    from repro._bits import bit
    from repro.circuit.expr import eval_binary

    return [
        g.index
        for g in circuit.gates
        if eval_binary(g.program, state) != bit(state, g.index)
    ]
