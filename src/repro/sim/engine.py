"""The compiled ternary simulation engine.

Every ternary workload in this package runs Eichelberger's Algorithm A/B
fixpoint over one circuit: scalar settling, the race detector of paper
§5.4, word-parallel fault simulation, the ternary three-phase machines
and the test-set auditor.  :class:`SimEngine` pairs a circuit with a
fault-injection overlay at one word width and serves all of them from
one kernel, the walk generator of :mod:`repro.sim.arena`: one kernel
per circuit and overlay shape, the engine's masks bound into it as
data on first use.  Both fixpoints are unique under any fair evaluation
order (the ternary operators are monotone on a finite lattice), so the kernel
is bit-identical to the seed's sweeps and to the per-gate worklist loop
it replaced; ``tests/test_sim_cross.py`` and ``tests/test_arena.py``
check it against both references in :mod:`repro.sim.legacy`.

The per-circuit :class:`CompiledCircuit` holds what the kernel code
generator reads (gate programs, outputs, the levelized schedule) plus
the binary excited-gate function of the exact settling explorer, its
settle-report memo and its compiled walk kernels.  It keeps no
reference to the :class:`Circuit`.

**Fault overlays.**  One machine per bit of a Python int (paper §5.4);
an empty overlay is plain good-machine simulation, a width-1 overlay
is the scalar semantics of one fault.  Four mask families cover the
registered fault models (:mod:`repro.faultmodels`); each is the
identity outside its machine mask, so one word freely mixes models:

* **pin forces** (input stuck-at) — the faulted gate's operand reads
  are clamped, ``(l|f0)&~f1`` / ``(h|f1)&~f0``;
* **output forces** (output stuck-at) — the gate's result words are
  clamped the same way, and the node is pre-set to its stuck value at
  reset (:meth:`SimEngine.reset_words`);
* **self blends** (transition faults) — the result is AND-ed
  (slow-to-rise) or OR-ed (slow-to-fall) with the gate's *own current
  value*, the self-sticky encoding of a gross delay fault;
* **bridge blends** (bridging faults) — the result is AND/OR-blended
  with the *partner gate's function*, evaluated inline over the
  partner's true operands; both bridged gates carry the blend.

Every fault kind, the stuck-at pair included, installs its masks
through its model's :meth:`repro.faultmodels.FaultModel.engine_overlay`;
a new model's kind runs on every downstream workload unchanged.  The
tables flatten into :attr:`SimEngine.masks`, one mask pair per overlay
slot, whose keys are the engine's overlay shape.

Engines are cached per ``(circuit, faults, width)``, so repeated
construction (per-fault machines, per-test auditing) reuses the bound
engine.  Kernels are cached per circuit and compiled only for a shape
no cached kernel covers: once random TPG's universe engine is bound,
every one-fault engine of that model binds into its kernel with zero
masks in the slots it does not use (:func:`repro.sim.arena.kernel_for`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._bits import mask
from repro.circuit.expr import OP_AND, OP_NOT, OP_OR, OP_VAR, OP_XOR
from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.errors import ReproError, SimulationError
from repro.obs import metrics as _obs
from repro.sim.arena import (
    BRIDGE,
    OUT,
    PIN,
    SELF,
    ArenaWalk,
    Slot,
    WalkKernel,
    _exec,
    _WalkMeter,
    kernel_for,
)

#: ``(low words, high words)``: one word per signal, one bit per machine.
WordState = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _codegen_excited(circuit: Circuit) -> str:
    """Source of ``excited(state) -> [gate signal indices]``.

    One straight-line block per gate, binary domain, no per-gate call
    overhead — the hot inner loop of the exact settling explorer."""
    lines = ["def excited(state):", "    ex = []", "    ap = ex.append"]
    for gate in circuit.gates:
        stack: List[str] = []
        tmp = 0
        body: List[str] = []
        for op, arg in gate.program:
            if op == OP_VAR:
                stack.append(f"((state>>{arg})&1)")
            elif op == OP_NOT:
                a = f"b{gate.index}_{tmp}"
                tmp += 1
                body.append(f"    {a} = {stack.pop()}^1")
                stack.append(a)
            elif op in (OP_AND, OP_OR, OP_XOR):
                sym = {OP_AND: "&", OP_OR: "|", OP_XOR: "^"}[op]
                x = stack.pop()
                y = stack.pop()
                a = f"b{gate.index}_{tmp}"
                tmp += 1
                body.append(f"    {a} = {y}{sym}{x}")
                stack.append(a)
            else:  # OP_CONST
                stack.append(str(arg))
        body.append(
            f"    if {stack.pop()} != ((state>>{gate.index})&1): ap({gate.index})"
        )
        lines.extend(body)
    lines.append("    return ex")
    return "\n".join(lines)


class CompiledCircuit:
    """Everything the engine precomputes once per circuit."""

    def __init__(self, circuit: Circuit):
        self.name = circuit.name
        self.n_inputs = circuit.n_inputs
        self.n_signals = circuit.n_signals
        self.gates = circuit.gates
        self.outputs = circuit.outputs
        self.gate_index: Tuple[int, ...] = tuple(g.index for g in circuit.gates)
        self.order: Tuple[int, ...] = circuit.levels()
        exc_ns = _exec(_codegen_excited(circuit), f"<excited:{circuit.name}>")
        #: ``excited(state) -> [gate indices]`` in the binary domain.
        self.excited_signals: Callable[[int], List[int]] = exc_ns["excited"]
        #: the circuit's settle-report memo, a
        #: :class:`repro.sgraph.explore.SettleMemo` made on first use.
        self.settle_memo = None
        #: the circuit's compiled walk kernels, least recently used
        #: first (:func:`repro.sim.arena.kernel_for`).
        self.kernels: List[WalkKernel] = []


def compiled(circuit: Circuit) -> CompiledCircuit:
    """The (cached) compiled form of ``circuit``."""
    cc = getattr(circuit, "_compiled", None)
    if cc is None:
        cc = CompiledCircuit(circuit)
        circuit._compiled = cc
    return cc


#: Engine-cache capacity per circuit.  Reuse-heavy callers (per-fault
#: ternary machines iterating a universe, the auditor rebuilding the
#: same-universe batch per test) fit comfortably; one-shot overlays with
#: ever-changing fault subsets (the ATPG loop's shrinking fault-sim
#: batches) just cycle through and evict, bounding memory.
_ENGINE_CACHE_SIZE = 128


def engine_for(
    circuit: Circuit,
    faults: Sequence[Fault] = (),
    width: Optional[int] = None,
) -> "SimEngine":
    """The (cached) engine for ``circuit`` with a fault overlay.

    ``width`` defaults to ``max(1, len(faults))``: a scalar good-machine
    engine for no faults, one machine per fault otherwise.  Packed walks
    pass ``width=len(faults)``, 0 for an empty universe.  The cache lives
    on the circuit (engines reference only its compiled form, so no
    reference cycle forms) and is LRU-bounded to ``_ENGINE_CACHE_SIZE``
    overlays.  An engine binds into a walk kernel of the circuit's
    compiled form on first use, compiling only when no cached kernel's
    shape covers its overlay (see :mod:`repro.sim.arena`).
    """
    faults = tuple(faults)
    if width is None:
        width = max(1, len(faults))
    key = (faults, width)
    engines = getattr(circuit, "_engines", None)
    if engines is None:
        engines = circuit._engines = OrderedDict()
    engine = engines.get(key)
    if engine is None:
        engine = SimEngine(circuit, faults, width)
        engines[key] = engine
        if len(engines) > _ENGINE_CACHE_SIZE:
            engines.popitem(last=False)
    else:
        engines.move_to_end(key)
    return engine


class SimEngine:
    """One circuit + one fault overlay, at one word width.

    State is a pair of per-signal word sequences ``(L, H)``: bit *j* of
    ``L[i]`` means "signal *i* of machine *j* can be 0", likewise ``H``
    for "can be 1" — the exact encoding of the seed simulators.  Every
    method runs the circuit's walk kernel with this engine's argument
    tuple (:meth:`repro.sim.arena.WalkKernel.bind`); :meth:`settle` and
    :meth:`apply_pattern` return fresh ``(L, H)`` tuples and leave their
    arguments untouched.
    """

    def __init__(self, circuit: Circuit, faults: Sequence[Fault] = (), width: int = 1):
        self.cc = compiled(circuit)
        self.faults = tuple(faults)
        self.width = width
        self.ones = mask(width)
        # Overlay mask tables, filled per fault (one machine bit each)
        # by the fault's registered model through its ``engine_overlay``.
        #: pin_force[gate signal index][site] = (force-0 mask, force-1 mask)
        self.pin_force: Dict[int, Dict[int, Tuple[int, int]]] = {}
        #: out_force[gate signal index] = (force-0 mask, force-1 mask)
        self.out_force: Dict[int, Tuple[int, int]] = {}
        #: self_and/self_or[gate signal index] = machine mask whose result
        #: is blended with the gate's own current value (transition faults).
        self.self_and: Dict[int, int] = {}
        self.self_or: Dict[int, int] = {}
        #: bridges[gate signal index][partner signal index] =
        #: (wired-AND mask, wired-OR mask) — the gate's result is blended
        #: with the partner gate's (clean) function for those machines.
        self.bridges: Dict[int, Dict[int, Tuple[int, int]]] = {}
        from repro.faultmodels import model_for_kind

        for j, fault in enumerate(self.faults):
            try:
                model = model_for_kind(fault.kind)
            except ReproError as exc:
                raise SimulationError(str(exc)) from None
            model.engine_overlay(self, fault, j)
        #: The overlay as the kernel binds it: slot -> mask pair (see
        #: :data:`repro.sim.arena.PIN`); its keys are the overlay shape.
        self.masks: Dict[Slot, Tuple[int, int]] = {}
        for gi, per_gate in self.pin_force.items():
            for site, pair in per_gate.items():
                self.masks[(PIN, gi, site)] = pair
        for gi, pair in self.out_force.items():
            self.masks[(OUT, gi)] = pair
        for gi in self.self_and.keys() | self.self_or.keys():
            self.masks[(SELF, gi)] = (
                self.self_and.get(gi, 0),
                self.self_or.get(gi, 0),
            )
        for gi, per_gate in self.bridges.items():
            for partner, pair in per_gate.items():
                self.masks[(BRIDGE, gi, partner)] = pair
        self._walk_fn = None
        self._args = None

    def _start(self, low: Sequence[int], high: Sequence[int]):
        """A primed kernel generator over the given words.  The first
        call binds the overlay into a covering kernel of the circuit."""
        walk_fn = self._walk_fn
        if walk_fn is None:
            kernel = kernel_for(self.cc, frozenset(self.masks))
            self._args = kernel.bind(self.masks, self.width)
            walk_fn = self._walk_fn = kernel.fn
        gen = walk_fn(low, high, self._args)
        next(gen)
        return gen

    def settle(self, L: Sequence[int], H: Sequence[int]) -> WordState:
        """Algorithm A then Algorithm B with the inputs held.  Accepts
        arbitrary states: every gate is examined."""
        gen = self._start(L, H)
        gen.send((-2, 0))
        return gen.send((-3, 0))

    def apply_pattern(
        self, L: Sequence[int], H: Sequence[int], pattern: int
    ) -> WordState:
        """One synchronous test cycle on a **settled** state: drive every
        input to its definite pattern bit and settle the fanout of the
        inputs that actually changed.  An unsettled state returns
        garbage; drive the inputs and :meth:`settle` to accept any."""
        gen = self._start(L, H)
        gen.send((pattern, 0))
        return gen.send((-3, 0))

    def reset_words(self, reset_state: int) -> Tuple[List[int], List[int]]:
        """The reset state a tester forces, on every machine.

        Machines carrying an output stuck-at fault get the stuck node
        pre-set to its stuck value: physically it never held the
        fault-free reset value, and lifting it from the wrong polarity
        would let Algorithm A's lub transient poison feedback loops
        with spurious Φ.  The rest of the circuit is forced to the reset
        values (paper §4: "forcing s1 as reset state")."""
        low, high = self.broadcast(reset_state)
        for gate_index, (f0, f1) in self.out_force.items():
            low[gate_index] = (low[gate_index] | f0) & ~f1
            high[gate_index] = (high[gate_index] | f1) & ~f0
        return low, high

    def walk(self, reset_state: int) -> ArenaWalk:
        """Start a walk from the forced, fully settled reset state; the
        handle steps one test cycle per call, the state staying inside
        the kernel."""
        gen = self._start(*self.reset_words(reset_state))
        gen.send((-2, 0))
        return ArenaWalk(gen, _WalkMeter(self) if _obs.enabled() else None)

    def broadcast(self, state: int) -> Tuple[List[int], List[int]]:
        """Per-signal word lists replicating a binary state across all
        machines of this engine's width."""
        ones = self.ones
        L = [(0 if (state >> i) & 1 else ones) for i in range(self.cc.n_signals)]
        H = [(ones if (state >> i) & 1 else 0) for i in range(self.cc.n_signals)]
        return L, H
