"""Reference simulators, kept for parity testing.

Two generations of Algorithm A/B implementations that the compiled walk
kernel (:mod:`repro.sim.arena`, driven by :mod:`repro.sim.engine`) must
match **bit for bit** on every state:

* the seed tree's sweeps — full-circuit passes with per-gate stack
  interpretation through :func:`repro.circuit.expr.eval_ternary`
  (:func:`settle`, :func:`excited_gates`);
* :class:`WorklistEngine` — per-gate compiled evaluators dispatched
  through a fanout worklist, the production settle loop until the walk
  kernel served every settle.

``tests/test_sim_cross.py``, ``tests/test_arena.py``, the fuzz oracles
and ``benchmarks/bench_ternary_cost.py`` import this module as the
ground truth and the speed baseline.  Production code must not
(``tests/test_legacy_guard.py`` enforces it): the kernel is strictly
faster and the only supported settle path.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuit.expr import eval_ternary
from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit, Gate
from repro.errors import SimulationError
from repro.sim.arena import BRIDGE, SELF, Slot, _emit_eval, _exec, _gate_slots
from repro.sim.engine import engine_for
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


# ---------------------------------------------------------------------------
# The per-gate worklist engine
# ---------------------------------------------------------------------------

GateFn = Callable[[List[int], List[int]], Tuple[int, int]]


def _codegen_ternary(
    name: str,
    gate: Gate,
    ones: int,
    masks: Dict[Slot, Tuple[int, int]],
    slots: Sequence[Slot],
    gate_at: Dict[int, Gate],
) -> str:
    """Source of one compiled gate evaluator ``name(L, H) -> (l, h)``
    reading per-signal word lists, with the overlay ``slots`` on this
    gate rendered as int literals from ``masks``; see :func:`_emit_eval`
    for the overlay-mask vocabulary."""

    def literals(slot: Slot) -> Tuple[str, str, str, str]:
        a, b = masks[slot]
        return str(a), str(b), str(ones & ~a), str(ones & ~b)

    lines = [f"def {name}(L, H):"]
    l, h = _emit_eval(
        lines,
        "    ",
        "",
        gate.program,
        str(ones),
        ref=lambda arg: (f"L[{arg}]", f"H[{arg}]"),
        self_ref=(f"L[{gate.index}]", f"H[{gate.index}]"),
        slots=slots,
        operand=literals,
        gate_at=gate_at,
    )
    lines.append(f"    return {l}, {h}")
    return "\n".join(lines)


class WorklistEngine:
    """Algorithm A/B over per-gate compiled evaluators, event-driven
    through a fanout worklist, on per-signal word lists mutated in place.

    It reads the overlay masks and the reset pre-set of the
    :class:`~repro.sim.engine.SimEngine` for the same ``(circuit,
    faults, width)`` and emits through the same operator emitter, so it
    differs from the walk kernel only in the fixpoint loop and in
    rendering the masks as int literals where the kernel binds them as
    data: a fault in the kernel's argument binding cannot hide in the
    reference.  ``width`` defaults to ``len(faults)``, the packed-walk
    rule.
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: Sequence[Fault] = (),
        width: Optional[int] = None,
    ):
        faults = tuple(faults)
        engine = engine_for(
            circuit, faults, len(faults) if width is None else width
        )
        self.engine = engine
        self.width = engine.width
        self.ones = engine.ones
        self.outputs = circuit.outputs
        self.n_inputs = circuit.n_inputs
        self.gate_index: Tuple[int, ...] = tuple(g.index for g in circuit.gates)
        self.order: Tuple[int, ...] = circuit.levels()
        gate_at = {g.index: g for g in circuit.gates}
        by_gate = _gate_slots(engine.masks)
        src = "\n".join(
            _codegen_ternary(
                f"g{pos}",
                gate,
                self.ones,
                engine.masks,
                by_gate.get(gate.index, ()),
                gate_at,
            )
            for pos, gate in enumerate(circuit.gates)
        )
        ns = _exec(src, f"<worklist:{circuit.name}:{len(faults)}f>")
        self.fns: Tuple[GateFn, ...] = tuple(
            ns[f"g{pos}"] for pos in range(len(circuit.gates))
        )
        # Overlay-induced extra dependencies: a self-sticky gate reads
        # its own output, a bridged gate reads its partner's support.
        # The worklist must re-examine those gates when the new sources
        # change, so such engines carry a widened fanout.
        pos_of = {gi: pos for pos, gi in enumerate(self.gate_index)}
        extra: Dict[int, set] = {}
        for slot in engine.masks:
            gi = slot[1]
            if slot[0] == SELF:
                extra.setdefault(gi, set()).add(pos_of[gi])
            elif slot[0] == BRIDGE:
                for src_sig in gate_at[slot[2]].support:
                    extra.setdefault(src_sig, set()).add(pos_of[gi])
        fanout = list(circuit.fanouts())
        for sig, positions in extra.items():
            fanout[sig] = tuple(sorted(set(fanout[sig]) | positions))
        self.fanout: Tuple[Tuple[int, ...], ...] = tuple(fanout)
        # Scratch per-position eval caches, reused across settle calls.
        n_gates = len(circuit.gates)
        self._evl = [0] * n_gates
        self._evh = [0] * n_gates

    def settle(
        self,
        L: List[int],
        H: List[int],
        dirty: Optional[Sequence[int]] = None,
    ) -> None:
        """Algorithm A then Algorithm B, event-driven, in place.

        ``dirty`` lists the signal indices whose words were rewritten
        since the state last settled **under this same engine** — then
        only their transitive fanout is re-examined.  Pass None (the
        default) for arbitrary states: every gate is seeded.
        """
        fns = self.fns
        fanout = self.fanout
        gate_index = self.gate_index
        n_gates = len(gate_index)
        evl = self._evl
        evh = self._evh
        if dirty is None:
            seeds = self.order
            for pos in range(n_gates):
                gi = gate_index[pos]
                evl[pos] = L[gi]
                evh[pos] = H[gi]
        else:
            seen = set()
            seeds = []
            for s in dirty:
                for pos in fanout[s]:
                    if pos not in seen:
                        seen.add(pos)
                        seeds.append(pos)
            seeds.sort()
            for pos in seeds:
                gi = gate_index[pos]
                evl[pos] = L[gi]
                evh[pos] = H[gi]
        if not seeds and dirty is not None:
            return
        changes_cap = 2 * n_gates * max(1, self.width) + 4

        # Algorithm A: value <- lub(value, eval), to the least fixpoint.
        pending = deque(seeds)
        inq = bytearray(n_gates)
        ever = bytearray(n_gates)
        touched = list(seeds)
        for pos in seeds:
            inq[pos] = 1
            ever[pos] = 1
        changes = 0
        while pending:
            pos = pending.popleft()
            inq[pos] = 0
            el, eh = fns[pos](L, H)
            evl[pos] = el
            evh[pos] = eh
            gi = gate_index[pos]
            nl = L[gi] | el
            nh = H[gi] | eh
            if nl != L[gi] or nh != H[gi]:
                changes += 1
                if changes > changes_cap:
                    raise SimulationError(
                        "Algorithm A failed to converge (internal bug)"
                    )
                L[gi] = nl
                H[gi] = nh
                for q in fanout[gi]:
                    if not inq[q]:
                        inq[q] = 1
                        pending.append(q)
                        if not ever[q]:
                            ever[q] = 1
                            touched.append(q)

        # Algorithm B: value <- eval, monotone decreasing to the greatest
        # fixpoint below the Algorithm A result.  Seeded from the cached
        # evaluations of every gate phase A visited: a gate whose eval
        # already equals its value — in particular any gate untouched by
        # phase A when the caller started from a settled state — cannot
        # move until a fan-in does.
        touched.sort()
        pending = deque(
            pos
            for pos in touched
            if evl[pos] != L[gate_index[pos]] or evh[pos] != H[gate_index[pos]]
        )
        for pos in pending:
            inq[pos] = 1
        changes = 0
        while pending:
            pos = pending.popleft()
            inq[pos] = 0
            el, eh = fns[pos](L, H)
            gi = gate_index[pos]
            if el != L[gi] or eh != H[gi]:
                changes += 1
                if changes > changes_cap:
                    raise SimulationError(
                        "Algorithm B failed to converge (internal bug)"
                    )
                L[gi] = el
                H[gi] = eh
                for q in fanout[gi]:
                    if not inq[q]:
                        inq[q] = 1
                        pending.append(q)

    def apply_pattern(self, L: List[int], H: List[int], pattern: int) -> None:
        """One synchronous test cycle on a settled state: drive every
        input to its definite pattern bit and settle the fanout of the
        inputs that actually changed."""
        ones = self.ones
        dirty = []
        for i in range(self.n_inputs):
            if (pattern >> i) & 1:
                nl, nh = 0, ones
            else:
                nl, nh = ones, 0
            if L[i] != nl or H[i] != nh:
                L[i] = nl
                H[i] = nh
                dirty.append(i)
        self.settle(L, H, dirty)

    def reset(self, reset_state: int) -> Tuple[List[int], List[int]]:
        """The forced reset state (the engine's pre-set), settled."""
        L, H = self.engine.reset_words(reset_state)
        self.settle(L, H)
        return L, H

    def observe(self, L: Sequence[int], H: Sequence[int], good_state: int) -> int:
        """Mask of the machines with a definite output difference."""
        detected = 0
        for out in self.outputs:
            if (good_state >> out) & 1:
                detected |= L[out] & ~H[out]
            else:
                detected |= H[out] & ~L[out]
        return detected
