"""A-priori classification of undetectable faults (paper §6).

The paper observes that its 3-phase search "wastes time with no positive
results" on undetectable faults and lists their early classification as
future work.  The staged flow now does it: random TPG hands the faults
its walks have not detected to :func:`classify_undetectable` (explicit
checks, the default) after its first fruitless walk, and every fault
proven here is classified UNDETECTABLE without reaching the 3-phase
generator.  Two cheap sufficient conditions are implemented; both
are sound (a classified fault is genuinely undetectable under the CSSG +
stable-state-observation semantics), neither is complete:

* **never excited** — the fault's model proves the faulty functions
  agree with the good ones everywhere the good machine can go, so no
  divergence can ever start.  Every model proves it over the
  *transient-inclusive* reachable states, since excitation can be
  purely transient: a stuck-at site that pulses to the other value
  while settling can be what lets a downstream gate fire.  For the
  stuck-at kinds the check is that the site holds the stuck value in
  every such state.  The symbolic check runs over one TCSG reachability
  computation — a superset of the states walks through the CSSG can
  visit (those only take *valid* vectors), so the verdict holds even
  for excursions the CSSG pruned; each per-fault check is a handful of
  BDD conjunctions, no enumeration.  The explicit path (the default,
  which the flow runs) checks the stuck-at kinds over the CSSG's stable
  states plus every mid-settling state of its edges (other models
  conservatively skip it).
* **stable-equivalent** — exhaustive product walk of (good CSSG state,
  faulty ternary state) shows the faulty machine always reaches output-
  identical *definite* stable states.  This is the same search the
  3-phase generator would do, run with a bounded budget up front so the
  per-fault ATPG can be skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.bdd.manager import FALSE
from repro.circuit.faults import Fault
from repro.errors import StateGraphError
from repro.sgraph.cssg import Cssg
from repro.sgraph.symbolic import SymbolicTcsg
from repro.sim import ternary

NEVER_EXCITED = "never-excited"
STABLE_EQUIVALENT = "stable-equivalent"
POSSIBLY_DETECTABLE = "possibly-detectable"

#: Default product states one stable-equivalent walk may explore.
BUDGET_PER_FAULT = 20_000

#: Proof counter (metric series, help text), labelled by the proof.
_PROOF_SERIES = (
    "repro_undetectable_proofs_total",
    "Faults proven undetectable by the a-priori classifier, by proof.",
)


@dataclass
class Classification:
    fault: Fault
    verdict: str  # one of the three module constants
    product_states: int = 0


def _never_excited_symbolic(sym: SymbolicTcsg, reachable: int, fault: Fault) -> bool:
    """The never-excited check, dispatched to the fault's model: each
    model proves its own sound sufficient condition over the symbolic
    TCSG reachable set, stable and transient states alike."""
    from repro.faultmodels import model_for_kind

    return model_for_kind(fault.kind).never_excited_symbolic(sym, reachable, fault)


def _never_excited(cssg: Cssg, fault: Fault) -> bool:
    """Explicit check, dispatched to the fault's model: the stuck-at
    kinds scan the states walks through the CSSG can visit (a subset
    of the TCSG reachable set, hence weaker — the default path and the
    differential oracle); bridging and transition models
    conservatively return False here, leaving the verdict to the
    stable-equivalent product walk."""
    from repro.faultmodels import model_for_kind

    return model_for_kind(fault.kind).never_excited_explicit(cssg, fault)


def _stable_equivalent(
    cssg: Cssg, fault: Fault, budget: int
) -> Tuple[Optional[bool], int]:
    """Exhaustive product walk; returns (undetectable?, states explored).

    ``None`` means the budget ran out or an uncertain (Φ-bearing) faulty
    state was met — either way the fault cannot be *proven* undetectable
    cheaply, so it goes to the full 3-phase generator.
    """
    circuit = cssg.circuit
    faulty0 = ternary.settle_from_reset(circuit, cssg.reset, fault)
    if ternary.detects(circuit, cssg.reset, faulty0):
        return False, 0
    seen: Set[Tuple[int, ternary.TernaryState]] = {(cssg.reset, faulty0)}
    stack = [(cssg.reset, faulty0)]
    explored = 0
    while stack:
        good, faulty = stack.pop()
        for pattern in cssg.valid_patterns(good):
            explored += 1
            if explored > budget:
                return None, explored
            ngood = cssg.edges[good][pattern]
            nfaulty = ternary.apply_pattern(circuit, faulty, pattern, fault)
            if ternary.detects(circuit, ngood, nfaulty):
                return False, explored
            if not ternary.is_definite(nfaulty):
                # A Φ output could still match; proving undetectability
                # through uncertain states is out of scope for the cheap
                # classifier.
                for out in circuit.outputs:
                    low, high = nfaulty
                    if (low >> out) & 1 and (high >> out) & 1:
                        return None, explored
            key = (ngood, nfaulty)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return True, explored


def classify_undetectable(
    cssg: Cssg,
    faults: List[Fault],
    budget_per_fault: int = BUDGET_PER_FAULT,
    use_symbolic: bool = False,
    symbolic: Optional[SymbolicTcsg] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Dict[Fault, Classification]:
    """Classify each fault before running expensive per-fault ATPG.

    The returned verdicts partition ``faults`` into provably undetectable
    (two reasons) and possibly detectable.  By default the never-excited
    check scans the states walks through the CSSG visit (the path the
    flow runs); with ``use_symbolic`` it runs against the symbolic TCSG
    reachable set instead — one BDD reachability computation shared by
    every fault.
    A caller that already holds a :class:`SymbolicTcsg` for this circuit
    (e.g. because the CSSG itself was built symbolically) can pass it
    as ``symbolic`` to reuse its encoding instead of rebuilding one.

    ``should_stop`` is polled before each fault and again before each
    stable-equivalent walk; once it returns True the faults not yet
    classified are left out of the result, so a run budget can cut the
    classification short.  The overrun past the deadline is at most one
    never-excited check (the first explicit one includes the CSSG's
    transient-span search) or one fault's walk of ``budget_per_fault``
    product states.
    """
    sym: Optional[SymbolicTcsg] = None
    reachable = FALSE
    if use_symbolic and faults:
        try:
            sym = symbolic if symbolic is not None else SymbolicTcsg(cssg.circuit)
            # One transient-inclusive reachability computation shared
            # by every fault.
            reachable = sym.mgr.add_root(
                sym.reachable(sym.state_bdd(cssg.reset))
            )
        except StateGraphError:
            sym = None  # fall back to the explicit CSSG walk
    result: Dict[Fault, Classification] = {}
    try:
        for fault in faults:
            if should_stop is not None and should_stop():
                break
            if sym is not None:
                never = _never_excited_symbolic(sym, reachable, fault)
                # Per-fault faulty-function garbage has no further use;
                # let the manager's auto-GC reclaim it at this safe
                # point (the reachable set and encoding are rooted).
                sym.mgr.checkpoint()
            else:
                never = _never_excited(cssg, fault)
            if never:
                result[fault] = Classification(fault, NEVER_EXCITED)
                continue
            if should_stop is not None and should_stop():
                break
            verdict, explored = _stable_equivalent(cssg, fault, budget_per_fault)
            if verdict is True:
                result[fault] = Classification(fault, STABLE_EQUIVALENT, explored)
            else:
                result[fault] = Classification(
                    fault, POSSIBLY_DETECTABLE, explored
                )
    finally:
        if sym is not None:
            # Unpin the reachable set — the manager may outlive this
            # call when the caller passed its own SymbolicTcsg.
            sym.mgr.remove_root(reachable)
    _publish_proofs(result)
    return result


def _publish_proofs(result: Dict[Fault, Classification]) -> None:
    """Count the proofs of one classification in the metrics registry
    (a no-op with collection off)."""
    from repro.obs import metrics as obs

    if not obs.enabled():
        return
    name, help_text = _PROOF_SERIES
    counter = obs.get_registry().counter(name, help_text, ("proof",))
    for proof in (NEVER_EXCITED, STABLE_EQUIVALENT):
        n = sum(1 for cls in result.values() if cls.verdict == proof)
        if n:
            counter.labels(proof).inc(n)
