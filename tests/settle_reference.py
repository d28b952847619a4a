"""The three-pass settling explorer, kept as the differential reference.

This is the explorer :mod:`repro.sgraph.explore` shipped before its
exploration, cycle check and longest-path computation were fused into
one DFS: an explicit successor map built by a worklist walk, then a
three-colour DFS for cycles and a reverse-postorder relaxation for the
longest path.  ``tests/test_explore_diff.py`` checks the production
explorer against it field by field.
"""

from typing import Dict, List, Tuple

from repro.circuit.netlist import Circuit
from repro.sgraph.explore import SettleReport


def settle_report(circuit: Circuit, start: int, cap: int = 200_000) -> SettleReport:
    """Explore every gate-transition interleaving from ``start``.

    ``cap`` bounds the number of distinct states explored; blowing past it
    marks the report ``truncated`` (treated as invalid by the CSSG, which
    is conservative in the same direction as the paper's ternary check).

    Excited-gate enumeration — the hot inner loop — runs through the
    compiled whole-circuit function of :mod:`repro.sim.engine` rather
    than per-gate program interpretation.
    """
    from repro.sim.engine import compiled

    excited_signals = compiled(circuit).excited_signals
    succs: Dict[int, Tuple[int, ...]] = {}
    stable: List[int] = []
    stack = [start]
    truncated = False
    while stack:
        state = stack.pop()
        if state in succs:
            continue
        if len(succs) >= cap:
            truncated = True
            break
        excited = excited_signals(state)
        if not excited:
            succs[state] = ()
            stable.append(state)
            continue
        nxt = tuple(state ^ (1 << gi) for gi in excited)
        succs[state] = nxt
        for t in nxt:
            if t not in succs:
                stack.append(t)

    has_cycle = _has_cycle(succs, start) if not truncated else True
    longest = None
    if not truncated and not has_cycle:
        longest = _longest_path(succs, start)
    return SettleReport(
        start=start,
        stable_states=frozenset(stable),
        has_cycle=has_cycle,
        longest_path=longest,
        n_states=len(succs),
        truncated=truncated,
    )


def _has_cycle(succs: Dict[int, Tuple[int, ...]], start: int) -> bool:
    """Iterative three-color DFS over the explored settling graph."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    stack: List[Tuple[int, int]] = [(start, 0)]
    color[start] = GRAY
    while stack:
        node, i = stack[-1]
        children = succs.get(node, ())
        if i < len(children):
            stack[-1] = (node, i + 1)
            child = children[i]
            c = color.get(child, WHITE)
            if c == GRAY:
                return True
            if c == WHITE:
                color[child] = GRAY
                stack.append((child, 0))
        else:
            color[node] = BLACK
            stack.pop()
    return False


def _longest_path(succs: Dict[int, Tuple[int, ...]], start: int) -> int:
    """Longest transition path from ``start`` in the (acyclic) settling
    graph.  This is the |sigma| of paper §4.1: the worst-case number of
    gate transitions before the circuit is guaranteed stable."""
    order: List[int] = []
    seen = set([start])
    stack: List[Tuple[int, int]] = [(start, 0)]
    while stack:
        node, i = stack[-1]
        children = succs.get(node, ())
        if i < len(children):
            stack[-1] = (node, i + 1)
            child = children[i]
            if child not in seen:
                seen.add(child)
                stack.append((child, 0))
        else:
            order.append(node)
            stack.pop()
    # Reverse postorder is a topological order; relax in that order.
    dist = {start: 0}
    for node in reversed(order):
        d = dist.get(node)
        if d is None:
            continue
        for child in succs.get(node, ()):
            if dist.get(child, -1) < d + 1:
                dist[child] = d + 1
    return max(dist.values())
