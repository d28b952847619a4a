"""Random test pattern generation on the CSSG (paper §5.4).

Random TPG walks the CSSG from the reset state choosing a uniformly random
valid input vector at each step, while one packed
:class:`~repro.sim.engine.SimEngine` simulates all still-undetected faulty
machines in parallel.  The paper reports 40–80% (average ~45%) of faults
falling to this step at negligible CPU cost; the remainder go to the
3-phase deterministic generator.

The paper lists early classification of undetectable faults as future
work (§6); here it is part of the walk loop.  Walks cannot stop while
an undetectable fault is still in the mask, so after the first walk
that detects nothing new, an optional ``prove`` hook gets the
undetected residue once.  The staged flow passes the a-priori
classifier of :mod:`repro.ext.undetectable` there: every fault it
proves leaves the mask, and the walks stop as soon as each remaining
fault is detected or proven.

Detection is conservative exactly as in the paper: a fault counts as
covered only when some primary output *definitely* differs (ternary
simulation may under-report, never over-report).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.circuit.faults import Fault
from repro.core.sequences import Test
from repro.sgraph.cssg import Cssg
from repro.sim.engine import engine_for


def random_tpg(
    cssg: Cssg,
    faults: Sequence[Fault],
    n_walks: int = 16,
    walk_len: int = 64,
    seed: int = 0,
    rng: Optional[random.Random] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    on_walk: Optional[Callable[[int, int], None]] = None,
    prove: Optional[Callable[[List[Fault]], Iterable[Fault]]] = None,
) -> Tuple[Dict[Fault, Tuple[int, ...]], List[Test]]:
    """Run random TPG; returns (detected fault -> sequence, kept tests).

    Each walk starts from reset (as a tester would).  A walk is recorded
    as a :class:`Test` — trimmed to its last useful cycle — whenever it
    detects at least one previously undetected fault.

    One packed engine holds the whole fault universe, one machine per
    fault, and each walk runs through its compiled kernel — state lives
    inside the kernel and each cycle returns its detection mask
    directly (:meth:`~repro.sim.engine.SimEngine.walk`).

    Cooperative hooks for the staged flow: ``rng`` supplies the random
    stream (must be freshly seeded for reproducibility; overrides
    ``seed``), ``should_stop`` is polled before each walk so a run
    budget can cut the stage short at a walk boundary (everything
    already detected stays detected), and ``on_walk(walk_index,
    n_detected_so_far)`` reports per-walk progress.

    ``prove(residue)`` is called at most once, after the first walk
    that detects nothing new, with the still-undetected faults in
    ``faults`` order; it returns the ones it proves undetectable.
    Those leave the walk mask, so they are never credited to a test
    and no longer keep the walks going.  A proof is sound, so the
    detections and tests of a seeded run are the same with or without
    the hook; only the number of walks can drop.
    """
    circuit = cssg.circuit
    if rng is None:
        rng = random.Random(seed)
    engine = engine_for(circuit, faults, len(faults))
    undetected = engine.ones
    detected_by: Dict[Fault, Tuple[int, ...]] = {}
    tests: List[Test] = []

    for walk_index in range(n_walks):
        if not undetected:
            break
        if should_stop is not None and should_stop():
            break
        walk = engine.walk(cssg.reset)
        good = cssg.reset
        patterns: List[int] = []
        walk_new: List[Tuple[int, int]] = []  # (cycle index, new-detections mask)
        # Observation 0: the forced reset state itself may expose faults.
        new = walk.observe(good) & undetected
        if new:
            walk_new.append((0, new))
            undetected &= ~new
        for step in range(walk_len):
            if not undetected:
                break
            choices = sorted(cssg.valid_patterns(good))
            if not choices:
                break
            pattern = rng.choice(choices)
            patterns.append(pattern)
            good = cssg.edges[good][pattern]
            new = walk.step(pattern, good) & undetected
            if new:
                walk_new.append((len(patterns), new))
                undetected &= ~new
        if walk_new:
            last_useful = walk_new[-1][0]
            covered: List[Fault] = []
            for _, mask in walk_new:
                for j in _bits(mask):
                    fault = faults[j]
                    covered.append(fault)
                    detected_by[fault] = tuple(patterns[:last_useful])
            tests.append(
                Test(tuple(patterns[:last_useful]), covered, source="random")
            )
        elif prove is not None:
            bit_of = {faults[j]: j for j in _bits(undetected)}
            for fault in prove(list(bit_of)):
                undetected &= ~(1 << bit_of[fault])
            prove = None
        if on_walk is not None:
            on_walk(walk_index, len(detected_by))
    return detected_by, tests


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1
