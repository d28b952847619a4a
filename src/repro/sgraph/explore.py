"""Exhaustive settling analysis under the unbounded gate-delay model.

Given a (usually unstable) start state — a stable state whose inputs were
just rewritten by an R_I step — this module explores every interleaving of
single-gate transitions and classifies the outcome (paper §2):

* **confluent**: every maximal path ends in the same stable state;
* **non-confluent**: two or more distinct stable states are reachable
  (a critical race; potential metastability);
* **oscillating**: the transition graph contains a cycle, so with
  unbounded delays the circuit may postpone stabilization indefinitely;
* **too slow**: the longest transition path exceeds the test-cycle bound
  ``k`` (paper §4.1: a k-step test cycle only waits for k transitions).

A vector is *valid* for the CSSG exactly when the outcome is confluent,
acyclic and within ``k`` (see :mod:`repro.sgraph.cssg`).

**One pass.**  All three facts come out of a single iterative
depth-first search over the settling graph: stable states are collected
on first visit, a cycle is a back edge to a state still on the DFS path
(the gray set), and the longest path to stability is computed in
post-order as ``depth(s) = 1 + max depth(successor)`` with stable states
at depth 0 (Tarjan, SIAM J. Comput. 1972).  Excited-gate enumeration —
the hot inner loop — runs through the compiled whole-circuit function of
:mod:`repro.sim.engine`.

**Per-circuit memo.**  Reports are memoized per ``(start, cap)`` on the
circuit's :class:`repro.sim.engine.CompiledCircuit`, LRU-bounded to
``_SETTLE_MEMO_SIZE`` entries.  Exact faulty-machine simulation re-settles
the same (state, pattern) pairs many times over; each costs one
exploration.  The memo dies with the circuit, so a materialized faulty
netlist's reports go when its fault is done.  Plain-int counters on the
memo (calls, hits, evictions) are flushed to the metrics registry at
workload boundaries by :func:`publish_settle_metrics`, never per call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.circuit.netlist import Circuit
from repro.errors import StateGraphError
from repro.sim.engine import compiled

#: Settle-report memo capacity per circuit.  The bundled workloads keep
#: at most 64 reports on any one circuit, so the bound only caps the
#: memory of a circuit with far more distinct starts; past it the least
#: recently used report goes.
_SETTLE_MEMO_SIZE = 1024


@dataclass(frozen=True)
class SettleReport:
    """Outcome of exploring all settling interleavings from one state.

    When ``truncated`` (more than ``cap`` states are reachable) the
    exploration stopped early: ``stable_states`` is then only the part
    found before the stop, and depends on the order of traversal;
    ``has_cycle`` is True and ``longest_path`` is None."""

    start: int
    stable_states: FrozenSet[int]
    has_cycle: bool
    longest_path: Optional[int]  # None when the graph has a cycle
    n_states: int
    truncated: bool

    @property
    def confluent(self) -> bool:
        """Exactly one stable outcome (regardless of path lengths)."""
        return len(self.stable_states) == 1 and not self.has_cycle

    @property
    def oscillating(self) -> bool:
        return self.has_cycle

    @property
    def nonconfluent(self) -> bool:
        return len(self.stable_states) > 1

    def valid(self, k: int) -> bool:
        """True when the vector that produced ``start`` is CSSG_k-valid:
        a unique stable outcome reached by every path within k steps."""
        if self.truncated or self.has_cycle or len(self.stable_states) != 1:
            return False
        assert self.longest_path is not None
        return self.longest_path <= k

    @property
    def unique_stable(self) -> int:
        if len(self.stable_states) != 1:
            raise StateGraphError("settling is not confluent")
        return next(iter(self.stable_states))


class SettleMemo:
    """One circuit's LRU map ``(start, cap) -> SettleReport``, with the
    call / hit / eviction counts as plain ints."""

    __slots__ = ("reports", "calls", "hits", "evictions", "published")

    def __init__(self) -> None:
        self.reports: "OrderedDict[Tuple[int, int], SettleReport]" = OrderedDict()
        self.calls = 0
        self.hits = 0
        self.evictions = 0
        #: counts already pushed to the metrics registry, by attribute.
        self.published: Dict[str, int] = {}


#: ``SettleMemo`` counter -> (metric series, help text).
_SETTLE_SERIES = (
    ("calls", "repro_settle_calls_total", "settle_report calls."),
    ("hits", "repro_settle_memo_hits_total",
     "settle_report calls answered by the per-circuit memo."),
    ("evictions", "repro_settle_memo_evictions_total",
     "Settle reports evicted from a full per-circuit memo."),
)


def settle_report(circuit: Circuit, start: int, cap: int = 200_000) -> SettleReport:
    """Explore every gate-transition interleaving from ``start``.

    ``cap`` bounds the number of distinct states explored; blowing past it
    marks the report ``truncated`` (treated as invalid by the CSSG, which
    is conservative in the same direction as the paper's ternary check).
    Repeated calls with the same ``(start, cap)`` on the same circuit
    return the memoized report.
    """
    cc = compiled(circuit)
    memo = cc.settle_memo
    if memo is None:
        memo = cc.settle_memo = SettleMemo()
    memo.calls += 1
    key = (start, cap)
    reports = memo.reports
    # Pop and re-insert rather than move_to_end: flows on other threads
    # may share the circuit, and a concurrent eviction must not raise.
    report = reports.pop(key, None)
    if report is not None:
        memo.hits += 1
        reports[key] = report
        return report
    report = _explore(cc.excited_signals, start, cap)
    reports[key] = report
    if len(reports) > _SETTLE_MEMO_SIZE:
        reports.popitem(last=False)
        memo.evictions += 1
    return report


def publish_settle_metrics(circuit: Circuit) -> None:
    """Flush ``circuit``'s settle counters at a workload boundary (the
    end of a CSSG build or of one fault's generation), as deltas since
    the last flush.  With collection off the deltas are dropped, so a
    later armed flush reports only its own window."""
    from repro.obs import metrics as obs

    memo = compiled(circuit).settle_memo
    if memo is None:
        return
    armed = obs.enabled()
    for attr, name, help_text in _SETTLE_SERIES:
        value = getattr(memo, attr)
        delta = value - memo.published.get(attr, 0)
        if delta:
            if armed:
                obs.get_registry().counter(name, help_text).inc(delta)
            memo.published[attr] = value


def _explore(
    excited_signals: Callable[[int], List[int]], start: int, cap: int
) -> SettleReport:
    """The one-pass DFS behind :func:`settle_report`."""
    if cap < 1:
        return SettleReport(start, frozenset(), True, None, 0, True)
    excited = excited_signals(start)
    if not excited:
        return SettleReport(start, frozenset((start,)), False, 0, 1, False)
    # depth[s]: longest path from s to stability once s is finished,
    # ON_PATH while s is on the DFS path (the gray set).
    ON_PATH = -1
    depth: Dict[int, int] = {start: ON_PATH}
    stable: List[int] = []
    has_cycle = False
    n_states = 1
    # The current frame lives in locals; suspended ancestors on `path`.
    state, gates, best = start, iter(excited), 0
    path: List[Tuple[int, Iterator[int], int]] = []
    while True:
        for gi in gates:
            succ = state ^ (1 << gi)
            d = depth.get(succ)
            if d is None:
                if n_states == cap:
                    return SettleReport(
                        start, frozenset(stable), True, None, cap, True
                    )
                n_states += 1
                excited = excited_signals(succ)
                if excited:
                    depth[succ] = ON_PATH
                    path.append((state, gates, best))
                    state, gates, best = succ, iter(excited), 0
                    break
                depth[succ] = 0
                stable.append(succ)
                if not best:
                    best = 1
            elif d == ON_PATH:
                has_cycle = True
            elif d >= best:
                best = d + 1
        else:
            depth[state] = best
            if not path:
                break
            d = best
            state, gates, best = path.pop()
            if d >= best:
                best = d + 1
    return SettleReport(
        start=start,
        stable_states=frozenset(stable),
        has_cycle=has_cycle,
        longest_path=None if has_cycle else best,
        n_states=n_states,
        truncated=False,
    )
