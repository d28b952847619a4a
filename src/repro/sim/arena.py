"""The ternary settle kernel: one generated generator per fault overlay.

Every ternary settle in the package runs here: the scalar race detector
of paper §5.4 (:mod:`repro.sim.ternary`), the packed fault simulation of
random TPG, fault grading and the test-set auditor, and the ternary
machines of the three-phase generator.  :class:`~repro.sim.engine.SimEngine`
compiles the kernel lazily for its ``(circuit, fault overlay, width)``
and drives it.

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
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.circuit.expr import OP_AND, OP_NOT, OP_OR, OP_VAR, OP_XOR, Program
from repro.errors import SimulationError
from repro.obs import metrics as _obs

if TYPE_CHECKING:
    from repro.sim.engine import CompiledCircuit, SimEngine

__all__ = ["ArenaWalk", "compile_walk"]

_WORD = 64


def _emit_eval(
    lines: List[str],
    indent: str,
    tag: str,
    program: Program,
    ones: int,
    ref: Callable[[int], Tuple[str, str]],
    pin_force: Optional[Dict[int, Tuple[int, int]]] = None,
    out_force: Optional[Tuple[int, int]] = None,
    self_ref: Optional[Tuple[str, str]] = None,
    self_and: int = 0,
    self_or: int = 0,
    bridges: Optional[List[Tuple[Program, int, int]]] = None,
) -> Tuple[str, str]:
    """Append the straight-line evaluation of one gate to ``lines``;
    returns the final ``(l, h)`` result expressions.

    This is the single source of truth for the ternary operator and
    overlay-mask formulas: the walk kernel below and the per-gate
    worklist reference in :mod:`repro.sim.legacy` both emit through it,
    so the kernel and its reference cannot drift apart.
    ``ref(sig)`` names a signal's (l, h) operand pair in the target
    kernel's vocabulary (list reads or locals); per-machine mask
    constants are rendered as int literals.  Overlay hooks, each a
    per-machine mask over the word's bits:

    * ``pin_force[site] = (f0, f1)`` bakes per-pin stuck-at masks into
      the operand reads;
    * ``bridges`` is a list of ``(partner_program, and_mask, or_mask)``
      blocks: the partner's (clean) function is evaluated inline and the
      result blended in — the ternary AND for machines in ``and_mask``
      (wired-AND bridging), the OR for ``or_mask`` machines;
    * ``self_and`` / ``self_or`` blend the gate's **own current value**
      (``self_ref``) into the result — the self-sticky encoding of
      slow-to-rise / slow-to-fall transition faults;
    * ``out_force`` forces the result words (output stuck-at).

    Every blend is the identity outside its mask, and each machine bit
    carries at most one fault, so the application order is immaterial.
    Temporaries are introduced per operator, so the generated code is
    linear in the program length (shared subterms are never
    re-expanded).
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
                force = forces.get(arg) if forces else None
                rl, rh = ref(arg)
                if force is None:
                    stack.append((rl, rh))
                else:
                    f0, f1 = force
                    stack.append(
                        (
                            f"(({rl}|{f0})&{ones & ~f1})",
                            f"(({rh}|{f1})&{ones & ~f0})",
                        )
                    )
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
                stack.append(
                    (str(0 if arg else ones), str(ones if arg else 0))
                )
        return stack.pop()

    l, h = emit(program, pin_force)
    for partner_program, and_mask, or_mask in bridges or ():
        # Masked blend of the partner's driven value: per machine,
        # ternary AND for and_mask bits, ternary OR for or_mask bits,
        # identity elsewhere (the masks never share a bit).
        lb, hb = emit(partner_program, None)
        a, b = fresh()
        lines.append(
            f"{indent}{a} = (({l})|({lb}&{and_mask}))"
            f"&(({lb})|{ones & ~or_mask}); "
            f"{b} = (({h})&(({hb})|{ones & ~and_mask}))"
            f"|(({hb})&{or_mask})"
        )
        l, h = a, b
    if self_and or self_or:
        sl, sh = self_ref
        a, b = fresh()
        lines.append(
            f"{indent}{a} = (({l})|({sl}&{self_and}))"
            f"&({sl}|{ones & ~self_or}); "
            f"{b} = (({h})&({sh}|{ones & ~self_and}))"
            f"|({sh}&{self_or})"
        )
        l, h = a, b
    if out_force is not None:
        f0, f1 = out_force
        a, b = fresh()
        lines.append(
            f"{indent}{a} = ({l}|{f0})&{ones & ~f1}; "
            f"{b} = ({h}|{f1})&{ones & ~f0}"
        )
        l, h = a, b
    return l, h


def _exec(src: str, filename: str) -> Dict[str, object]:
    ns: Dict[str, object] = {}
    exec(compile(src, filename, "exec"), ns)  # noqa: S102 - trusted codegen
    return ns


def _overlay_kwargs(engine: SimEngine, pos: int, gate_at) -> dict:
    """The :func:`_emit_eval` overlay arguments for gate ``pos``."""
    gi = engine.cc.gate_index[pos]
    return dict(
        pin_force=engine.pin_force.get(gi),
        out_force=engine.out_force.get(gi),
        self_and=engine.self_and.get(gi, 0),
        self_or=engine.self_or.get(gi, 0),
        bridges=[
            (gate_at[partner].program, ma, mo)
            for partner, (ma, mo) in sorted(engine.bridges.get(gi, {}).items())
        ],
    )


def _exam_mask(engine: SimEngine, pos: int, gate_at) -> int:
    """Signal bitmask that must intersect the changed-set for gate
    ``pos`` to need re-evaluation: its support, any bridge partner's
    support, and its own output (covers self blends and seeding)."""
    gi = engine.cc.gate_index[pos]
    sigs = set(engine.cc.gates[pos].support)
    sigs.add(gi)
    for partner in engine.bridges.get(gi, {}):
        sigs.update(gate_at[partner].support)
    m = 0
    for s in sigs:
        m |= 1 << s
    return m


def _emit_observe(ap, indent: str, cc: CompiledCircuit, good: str, dest: str):
    """Detection mask accumulation: the machines whose primary outputs
    definitely differ from the good state in ``good``."""
    ap(f"{indent}{dest} = 0")
    for out in cc.outputs:
        ap(f"{indent}if ({good} >> {out}) & 1:")
        ap(f"{indent}    {dest} |= l{out} & ~h{out}")
        ap(f"{indent}else:")
        ap(f"{indent}    {dest} |= h{out} & ~l{out}")


def _codegen_walk(engine: SimEngine) -> str:
    """Source of the walk generator for one engine overlay.

    Protocol (after priming with ``next``): ``send((pattern, good))``
    with ``pattern >= 0`` runs one test cycle — drive inputs, Algorithm
    A then B over the changed-signal bitmask, observe — and yields the
    detection word.  Control ops use negative first elements:
    ``(-1, good)`` observes without stepping, ``(-2, 0)`` fully settles
    the current state (every gate is examined), ``(-3, 0)`` yields a
    snapshot ``((l...), (h...))`` of every signal word.
    """
    cc = engine.cc
    ones = engine.ones
    n_signals = cc.n_signals
    gate_at = {g.index: g for g in cc.gates}
    cap = 2 * n_signals * max(1, engine.width) + 4
    lines: List[str] = ["def walk(low, high):"]
    ap = lines.append
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
        ap(f"                if l{i} or h{i} != {ones}:")
        ap(f"                    l{i} = 0; h{i} = {ones}; ac |= {1 << i}")
        ap("            else:")
        ap(f"                if l{i} != {ones} or h{i}:")
        ap(f"                    l{i} = {ones}; h{i} = 0; ac |= {1 << i}")
    ap("        elif a == -1:")
    _emit_observe(ap, "            ", cc, "b", "det")
    ap("            r = det")
    ap("            continue")
    ap("        elif a == -2:")
    ap(f"            ac = {(1 << n_signals) - 1}")
    ap("        else:")
    ap(f"            r = {snapshot}")
    ap("            continue")
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
    ap(f"            if rounds > {cap}:")
    ap(
        "                raise SimulationError("
        "'Algorithm A failed to converge (internal bug)')"
    )
    for pos in cc.order:
        gi = cc.gate_index[pos]
        exam = _exam_mask(engine, pos, gate_at)
        ap(f"            if (ac | nc) & {exam}:")
        l, h = _emit_eval(
            lines,
            "                ",
            f"g{pos}_",
            cc.gates[pos].program,
            ones,
            ref=lambda arg: (f"l{arg}", f"h{arg}"),
            self_ref=(f"l{gi}", f"h{gi}"),
            **_overlay_kwargs(engine, pos, gate_at),
        )
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
    ap(f"            if rounds > {cap}:")
    ap(
        "                raise SimulationError("
        "'Algorithm B failed to converge (internal bug)')"
    )
    for pos in cc.order:
        gi = cc.gate_index[pos]
        exam = _exam_mask(engine, pos, gate_at)
        ap(f"            if (bc | nc) & {exam}:")
        l, h = _emit_eval(
            lines,
            "                ",
            f"b{pos}_",
            cc.gates[pos].program,
            ones,
            ref=lambda arg: (f"l{arg}", f"h{arg}"),
            self_ref=(f"l{gi}", f"h{gi}"),
            **_overlay_kwargs(engine, pos, gate_at),
        )
        ap(f"                if ({l}) != l{gi} or ({h}) != h{gi}:")
        ap(f"                    l{gi} = ({l}); h{gi} = ({h}); nc |= {1 << gi}")
    ap("            bc = nc")
    _emit_observe(ap, "        ", cc, "b", "det")
    ap("        r = det")
    return "\n".join(lines)


def compile_walk(engine: SimEngine) -> Callable:
    """The compiled walk generator function for ``engine``'s overlay;
    call it with the start ``(low words, high words)``."""
    ns = _exec(
        _codegen_walk(engine), f"<walk:{engine.cc.name}:{len(engine.faults)}f>"
    )
    ns["SimulationError"] = SimulationError
    return ns["walk"]


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
