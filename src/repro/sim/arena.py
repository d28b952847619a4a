"""The ternary settle kernel: one generated generator per circuit and
overlay shape, fault masks bound as data.

Every ternary settle in the package runs here: the scalar race detector
of paper §5.4 (:mod:`repro.sim.ternary`), the packed fault simulation of
random TPG, fault grading and the test-set auditor, and the ternary
machines of the three-phase generator.  :class:`~repro.sim.engine.SimEngine`
binds its ``(fault overlay, width)`` into a kernel of its circuit and
drives it.

The kernel is one generated *generator* whose locals hold every
signal's ``(l, h)`` words; each test cycle is a single ``send``
carrying ``(pattern, good_state)`` and returning the detection mask.
Settling is Eichelberger's Algorithm A/B chaotic iteration, driven by an
int bitmask of changed signals: a pass re-evaluates only gates whose
baked-in support mask meets the changes (the event-driven worklist idea,
without a deque or any per-event allocation).  Both fixpoints are unique
under any fair order, so the kernel is bit-identical to the worklist
loop and the seed sweeps kept as references in :mod:`repro.sim.legacy`.
State never leaves the generator frame between cycles: no tuple
packing, no list copies, no per-gate function calls.  CPython bignum
bitwise ops are already C-speed word-parallel, so one int word holds
the whole fault universe.  ``tests/test_arena.py`` checks the kernel
against the worklist reference on every Table 1 circuit and fault model.

**Overlay shapes.**  A kernel is generated from the circuit's compiled
form and an *overlay shape*: the set of mask slots it reads, each slot
one mask pair on one gate (:data:`PIN`, :data:`OUT`, :data:`SELF`,
:data:`BRIDGE`).  The mask values, their complements, the all-machines
word ``ones`` and the Algorithm A/B round cap are generator locals,
unpacked on entry from one argument tuple (:meth:`WalkKernel.bind`).
So one compiled kernel serves every engine whose shape it covers, at
any width: a slot the engine does not use gets zero masks, the identity
of every blend.  Kernels are cached on the circuit's compiled form
(:func:`kernel_for`): random TPG's universe engine compiles once per
circuit and fault model, and the scalar engines of the undetectability
proofs and three-phase, fault grading and the auditor bind into it.
"""

from __future__ import annotations

from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro._bits import mask
from repro.circuit.expr import OP_AND, OP_NOT, OP_OR, OP_VAR, OP_XOR, Program
from repro.circuit.netlist import Gate
from repro.errors import SimulationError
from repro.obs import metrics as _obs

if TYPE_CHECKING:
    from repro.sim.engine import CompiledCircuit, SimEngine

__all__ = ["ArenaWalk", "WalkKernel", "kernel_for"]

_WORD = 64

#: Overlay slot families.  A slot is a tuple ``(family, gate, ...)``
#: naming one mask pair ``(a, b)`` on one gate signal:
#:
#: * ``(PIN, gate, site)`` — force-0 / force-1 masks on the operand
#:   reads of pin ``site`` (input stuck-at);
#: * ``(OUT, gate)`` — force-0 / force-1 masks on the result (output
#:   stuck-at);
#: * ``(SELF, gate)`` — AND-with-self / OR-with-self masks blending the
#:   gate's own current value (slow-to-rise / slow-to-fall transitions);
#: * ``(BRIDGE, gate, partner)`` — wired-AND / wired-OR masks blending
#:   the partner gate's clean function (bridging).
PIN, OUT, SELF, BRIDGE = "pin", "out", "self", "bridge"

Slot = Tuple
#: The slots a kernel reads; one engine's overlay has the shape of its
#: mask table's keys.
Shape = FrozenSet[Slot]

#: Kernel-cache capacity per circuit.  A flow compiles one kernel per
#: fault model; the bound only matters for streams of uncovered shapes
#: (fuzzing, direct three-phase calls with no random TPG first).
_KERNEL_CACHE_SIZE = 16

#: Compile counter (metric series, help text).
_COMPILE_SERIES = (
    "repro_sim_kernel_compiles_total",
    "Walk kernels compiled (one per circuit and uncovered overlay shape).",
)


def _gate_slots(shape) -> Dict[int, List[Slot]]:
    """The slots of ``shape`` grouped by the gate signal carrying them,
    each group sorted (bridges by partner)."""
    by_gate: Dict[int, List[Slot]] = {}
    for slot in sorted(shape):
        by_gate.setdefault(slot[1], []).append(slot)
    return by_gate


def _exam_mask(gate: Gate, slots: Sequence[Slot], gate_at: Mapping[int, Gate]) -> int:
    """Signal bitmask that must intersect the changed-set for ``gate``
    to need re-evaluation: its support, any bridge partner's support,
    and its own output (covers self blends and seeding)."""
    sigs = set(gate.support)
    sigs.add(gate.index)
    for slot in slots:
        if slot[0] == BRIDGE:
            sigs.update(gate_at[slot[2]].support)
    m = 0
    for s in sigs:
        m |= 1 << s
    return m


def _emit_eval(
    lines: List[str],
    indent: str,
    tag: str,
    program: Program,
    ones: str,
    ref: Callable[[int], Tuple[str, str]],
    self_ref: Tuple[str, str],
    slots: Sequence[Slot],
    operand: Callable[[Slot], Tuple[str, str, str, str]],
    gate_at: Mapping[int, Gate],
) -> Tuple[str, str]:
    """Append the straight-line evaluation of one gate to ``lines``;
    returns the final ``(l, h)`` result expressions.

    This is the single source of truth for the ternary operator and
    overlay-mask formulas: the walk kernel below and the per-gate
    worklist reference in :mod:`repro.sim.legacy` both emit through it,
    so the kernel and its reference cannot drift apart.  Every operand
    is an expression in the target's vocabulary: ``ref(sig)`` names a
    signal's ``(l, h)`` pair (list reads or locals), ``self_ref`` the
    gate's own, ``ones`` the all-machines word, and ``operand(slot)``
    the ``(a, b, ones & ~a, ones & ~b)`` words of one overlay slot — the
    kernel passes local names, the reference rendered int literals.
    The gate's ``slots`` (see :data:`PIN`) apply, each a per-machine
    mask pair over the word's bits:

    * a ``PIN`` pair ``(f0, f1)`` clamps the pin's operand reads,
      ``(l|f0)&~f1`` / ``(h|f1)&~f0``;
    * each ``BRIDGE`` pair ``(and, or)`` evaluates the partner's (clean)
      function inline and blends the result in — the ternary AND for
      machines in ``and`` (wired-AND bridging), the OR for ``or``;
    * a ``SELF`` pair ``(and, or)`` blends the gate's **own current
      value** into the result — the self-sticky encoding of
      slow-to-rise / slow-to-fall transition faults;
    * an ``OUT`` pair ``(f0, f1)`` clamps the result words.

    Every blend is the identity outside its mask (zero masks leave the
    gate clean), and each machine bit carries at most one fault, so the
    application order is immaterial.  Temporaries are introduced per
    operator, so the generated code is linear in the program length
    (shared subterms are never re-expanded).
    """
    counter = [0]

    def fresh() -> Tuple[str, str]:
        a, b = f"{tag}t{counter[0]}", f"{tag}u{counter[0]}"
        counter[0] += 1
        return a, b

    def emit(prog: Program, forces) -> Tuple[str, str]:
        """Append the evaluation of ``prog`` to ``lines``; returns the
        (l, h) result expressions."""
        stack: List[Tuple[str, str]] = []
        for op, arg in prog:
            if op == OP_VAR:
                force = forces.get(arg)
                rl, rh = ref(arg)
                if force is None:
                    stack.append((rl, rh))
                else:
                    f0, f1, n0, n1 = force
                    stack.append((f"(({rl}|{f0})&{n1})", f"(({rh}|{f1})&{n0})"))
            elif op == OP_NOT:
                l, h = stack.pop()
                stack.append((h, l))
            elif op == OP_AND:
                l2, h2 = stack.pop()
                l1, h1 = stack[-1]
                a, b = fresh()
                lines.append(f"{indent}{a} = {l1}|{l2}; {b} = {h1}&{h2}")
                stack[-1] = (a, b)
            elif op == OP_OR:
                l2, h2 = stack.pop()
                l1, h1 = stack[-1]
                a, b = fresh()
                lines.append(f"{indent}{a} = {l1}&{l2}; {b} = {h1}|{h2}")
                stack[-1] = (a, b)
            elif op == OP_XOR:
                l2, h2 = stack.pop()
                l1, h1 = stack[-1]
                a, b = fresh()
                lines.append(
                    f"{indent}{a} = ({l1}&{l2})|({h1}&{h2}); "
                    f"{b} = ({l1}&{h2})|({h1}&{l2})"
                )
                stack[-1] = (a, b)
            else:  # OP_CONST
                stack.append(("0", ones) if arg else (ones, "0"))
        return stack.pop()

    pins = {slot[2]: operand(slot) for slot in slots if slot[0] == PIN}
    l, h = emit(program, pins)
    for slot in slots:
        family = slot[0]
        if family == PIN:
            continue
        x0, x1, n0, n1 = operand(slot)
        a, b = fresh()
        if family == BRIDGE:
            # Masked blend of the partner's driven value: per machine,
            # ternary AND for `and` bits, ternary OR for `or` bits,
            # identity elsewhere (the masks never share a bit).
            lb, hb = emit(gate_at[slot[2]].program, {})
            lines.append(
                f"{indent}{a} = (({l})|({lb}&{x0}))&(({lb})|{n1}); "
                f"{b} = (({h})&(({hb})|{n0}))|(({hb})&{x1})"
            )
        elif family == SELF:
            sl, sh = self_ref
            lines.append(
                f"{indent}{a} = (({l})|({sl}&{x0}))&({sl}|{n1}); "
                f"{b} = (({h})&({sh}|{n0}))|({sh}&{x1})"
            )
        else:  # OUT
            lines.append(
                f"{indent}{a} = ({l}|{x0})&{n1}; {b} = ({h}|{x1})&{n0}"
            )
        l, h = a, b
    return l, h


def _exec(src: str, filename: str) -> Dict[str, object]:
    ns: Dict[str, object] = {}
    exec(compile(src, filename, "exec"), ns)  # noqa: S102 - trusted codegen
    return ns


def _emit_observe(ap, indent: str, cc: CompiledCircuit, good: str, dest: str):
    """Detection mask accumulation: the machines whose primary outputs
    definitely differ from the good state in ``good``."""
    ap(f"{indent}{dest} = 0")
    for out in cc.outputs:
        ap(f"{indent}if ({good} >> {out}) & 1:")
        ap(f"{indent}    {dest} |= l{out} & ~h{out}")
        ap(f"{indent}else:")
        ap(f"{indent}    {dest} |= h{out} & ~l{out}")


def _codegen_walk(cc: CompiledCircuit, slots: Sequence[Slot]) -> str:
    """Source of the walk generator reading the overlay ``slots``.

    ``walk(low, high, args)`` starts from the given words; ``args`` is
    :meth:`WalkKernel.bind`'s tuple.  Protocol (after priming with
    ``next``): ``send((pattern, good))`` with ``pattern >= 0`` runs one
    test cycle — drive inputs, Algorithm A then B over the
    changed-signal bitmask, observe — and yields the detection word.
    Control ops use negative first elements: ``(-1, good)`` observes
    without stepping, ``(-2, 0)`` fully settles the current state (every
    gate is examined), ``(-3, 0)`` yields a snapshot ``((l...), (h...))``
    of every signal word.
    """
    n_signals = cc.n_signals
    gate_at = {g.index: g for g in cc.gates}
    by_gate = _gate_slots(slots)
    index = {slot: k for k, slot in enumerate(slots)}

    def operand(slot: Slot) -> Tuple[str, str, str, str]:
        k = index[slot]
        return f"m{k}a", f"m{k}b", f"m{k}na", f"m{k}nb"

    lines: List[str] = ["def walk(low, high, args):"]
    ap = lines.append
    ap("    " + ", ".join(["ones", "cap"] + [
        name for slot in slots for name in operand(slot)
    ]) + " = args")
    for i in range(n_signals):
        ap(f"    l{i} = low[{i}]; h{i} = high[{i}]")
    snapshot = (
        "(("
        + ", ".join(f"l{i}" for i in range(n_signals))
        + ",), ("
        + ", ".join(f"h{i}" for i in range(n_signals))
        + ",))"
    )
    ap("    r = None")
    ap("    while True:")
    ap("        a, b = yield r")
    ap("        if a >= 0:")
    ap("            ac = 0")
    for i in range(cc.n_inputs):
        ap(f"            if (a >> {i}) & 1:")
        ap(f"                if l{i} or h{i} != ones:")
        ap(f"                    l{i} = 0; h{i} = ones; ac |= {1 << i}")
        ap("            else:")
        ap(f"                if l{i} != ones or h{i}:")
        ap(f"                    l{i} = ones; h{i} = 0; ac |= {1 << i}")
    ap("        elif a == -1:")
    _emit_observe(ap, "            ", cc, "b", "det")
    ap("            r = det")
    ap("            continue")
    ap("        elif a == -2:")
    ap(f"            ac = {(1 << n_signals) - 1}")
    ap("        else:")
    ap(f"            r = {snapshot}")
    ap("            continue")

    def emit_gate(pos: int, tag: str) -> Tuple[str, str]:
        gate = cc.gates[pos]
        gi = gate.index
        gate_slots = by_gate.get(gi, ())
        ap(f"            if ({tag}c | nc) & {_exam_mask(gate, gate_slots, gate_at)}:")
        return _emit_eval(
            lines,
            "                ",
            f"{tag}{pos}_",
            gate.program,
            "ones",
            ref=lambda arg: (f"l{arg}", f"h{arg}"),
            self_ref=(f"l{gi}", f"h{gi}"),
            slots=gate_slots,
            operand=operand,
            gate_at=gate_at,
        )

    # Algorithm A: value <- lub(value, eval), to the least fixpoint.
    # Each pass re-evaluates exactly the gates whose exam mask meets the
    # signals changed in the previous pass; aev remembers every gate
    # evaluated so Algorithm B can seed from it (a gate A never touched
    # started settled and cannot move until a fan-in does).
    ap("        aev = 0")
    ap("        rounds = 0")
    ap("        while ac:")
    ap("            nc = 0")
    ap("            rounds += 1")
    ap("            if rounds > cap:")
    ap(
        "                raise SimulationError("
        "'Algorithm A failed to converge (internal bug)')"
    )
    for pos in cc.order:
        gi = cc.gate_index[pos]
        l, h = emit_gate(pos, "a")
        ap(f"                aev |= {1 << gi}")
        ap(f"                nl = ({l}) | l{gi}; nh = ({h}) | h{gi}")
        ap(f"                if nl != l{gi} or nh != h{gi}:")
        ap(f"                    l{gi} = nl; h{gi} = nh; nc |= {1 << gi}")
    ap("            ac = nc")
    # Algorithm B: value <- eval, monotone decreasing to the greatest
    # fixpoint below the Algorithm A result.
    ap("        bc = aev")
    ap("        rounds = 0")
    ap("        while bc:")
    ap("            nc = 0")
    ap("            rounds += 1")
    ap("            if rounds > cap:")
    ap(
        "                raise SimulationError("
        "'Algorithm B failed to converge (internal bug)')"
    )
    for pos in cc.order:
        gi = cc.gate_index[pos]
        l, h = emit_gate(pos, "b")
        ap(f"                if ({l}) != l{gi} or ({h}) != h{gi}:")
        ap(f"                    l{gi} = ({l}); h{gi} = ({h}); nc |= {1 << gi}")
    ap("            bc = nc")
    _emit_observe(ap, "        ", cc, "b", "det")
    ap("        r = det")
    return "\n".join(lines)


class WalkKernel:
    """One compiled walk generator function and the overlay shape it
    reads.  Serves any overlay whose shape is a subset of ``shape``."""

    __slots__ = ("shape", "slots", "fn", "n_signals")

    def __init__(self, cc: CompiledCircuit, shape: Shape):
        self.shape = frozenset(shape)
        self.slots: Tuple[Slot, ...] = tuple(sorted(self.shape))
        self.n_signals = cc.n_signals
        ns = _exec(
            _codegen_walk(cc, self.slots),
            f"<walk:{cc.name}:{len(self.slots)} slots>",
        )
        ns["SimulationError"] = SimulationError
        #: ``fn(low words, high words, args)``, a walk generator.
        self.fn: Callable = ns["walk"]
        if _obs.enabled():
            _obs.get_registry().counter(*_COMPILE_SERIES).inc()

    def bind(self, masks: Mapping[Slot, Tuple[int, int]], width: int) -> tuple:
        """The argument tuple running the overlay ``masks`` (slot ->
        mask pair, every slot one of this kernel's) on ``width``
        machines: ``ones``, the Algorithm A/B round cap, then per kernel
        slot its pair and their complements — zeros where ``masks`` has
        no entry."""
        ones = mask(width)
        args = [ones, 2 * self.n_signals * max(1, width) + 4]
        for slot in self.slots:
            a, b = masks.get(slot, (0, 0))
            args += (a, b, ones & ~a, ones & ~b)
        return tuple(args)


def kernel_for(cc: CompiledCircuit, shape: Shape) -> WalkKernel:
    """The most recently used kernel of ``cc`` whose shape covers
    ``shape``; one is compiled when none does.  ``cc.kernels`` is kept
    in use order and LRU-bounded to :data:`_KERNEL_CACHE_SIZE`."""
    kernels = cc.kernels
    for i in range(len(kernels) - 1, -1, -1):
        kernel = kernels[i]
        if shape <= kernel.shape:
            kernels.append(kernels.pop(i))
            return kernel
    kernel = WalkKernel(cc, shape)
    kernels.append(kernel)
    if len(kernels) > _KERNEL_CACHE_SIZE:
        del kernels[0]
    return kernel


class _WalkMeter:
    """Throughput accounting for one walk, when metrics are enabled.

    ``units`` is lane-words × gates — the amount of word-parallel work
    one test cycle performs — so the published rate is the packed-sim
    ``words·gates/sec`` figure of merit.  Registry updates are batched
    (one flush per :data:`_BATCH` steps): the per-step cost is two
    ``perf_counter`` calls and two float adds."""

    __slots__ = ("units", "_steps", "_seconds", "_ctr_steps",
                 "_ctr_seconds", "_rate")

    _BATCH = 64

    def __init__(self, engine: SimEngine):
        reg = _obs.get_registry()
        words = (max(1, engine.width) + _WORD - 1) // _WORD
        self.units = words * max(1, len(engine.cc.gates))
        self._steps = 0
        self._seconds = 0.0
        self._ctr_steps = reg.counter(
            "repro_sim_walk_steps_total", "Arena walk test cycles executed."
        )
        self._ctr_seconds = reg.counter(
            "repro_sim_walk_seconds_total",
            "Wall-clock seconds inside arena walk steps.",
        )
        self._rate = reg.gauge(
            "repro_sim_words_gates_per_sec",
            "Arena walk throughput: lane words x gates per second "
            "(last flushed batch).",
        )

    def record(self, seconds: float) -> None:
        self._steps += 1
        self._seconds += seconds
        if self._steps >= self._BATCH:
            self.flush()

    def flush(self) -> None:
        if not self._steps:
            return
        self._ctr_steps.inc(self._steps)
        self._ctr_seconds.inc(self._seconds)
        if self._seconds > 0.0:
            self._rate.set(self._steps * self.units / self._seconds)
        self._steps = 0
        self._seconds = 0.0


class ArenaWalk:
    """One in-flight walk over a packed fault batch.

    Thin handle over the kernel's generator: :meth:`step` is one test
    cycle returning the detection mask, :meth:`observe` re-observes the
    current state (observation 0 after reset), :meth:`state` snapshots
    the per-signal words.
    With metrics disabled (the default) stepping pays a single ``is
    None`` check on top of the generator send.
    """

    __slots__ = ("_gen", "_meter")

    def __init__(self, gen, meter: Optional[_WalkMeter] = None):
        self._gen = gen
        self._meter = meter

    def step(self, pattern: int, good_state: int) -> int:
        """Drive ``pattern``, settle, observe against ``good_state``."""
        meter = self._meter
        if meter is None:
            return self._gen.send((pattern, good_state))
        t0 = perf_counter()
        det = self._gen.send((pattern, good_state))
        meter.record(perf_counter() - t0)
        return det

    def observe(self, good_state: int) -> int:
        """Detection mask of the current (already settled) state."""
        return self._gen.send((-1, good_state))

    def state(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Snapshot ``(low words, high words)`` of every signal."""
        return self._gen.send((-3, 0))
