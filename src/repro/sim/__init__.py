"""Simulation engines.

* :mod:`repro.sim.engine` — :class:`SimEngine`, one circuit + one fault
  overlay (none / scalar / packed) at one word width, and the
  per-circuit compiled form it shares with the exact settle explorer.
* :mod:`repro.sim.arena` — the one ternary settle kernel: a generated
  generator per circuit and overlay shape (state held in generator
  locals, one ``send`` per test cycle, fault masks bound as data from
  an argument tuple) running Eichelberger's Algorithms A and B.  One
  kernel serves every engine whose shape it covers, scalar settling and
  word-parallel fault simulation alike; ``engine_for`` caches engines
  per overlay and width, the compiled form caches kernels per shape.
* :mod:`repro.sim.ternary` — scalar ternary simulation with optional
  single-fault injection; the conservative race/oscillation detector of
  paper §5.4.  Thin adapter over width-1 engines.
* :mod:`repro.sim.legacy` — the seed's sweep-based implementations and
  the per-gate worklist loop the kernel replaced, kept exclusively as
  the parity/benchmark references.
"""

from repro.sim.ternary import (
    TernaryState,
    from_binary,
    is_definite,
    to_binary,
    settle,
    apply_pattern,
    settle_from_reset,
    detects,
    phi_signals,
)
from repro.sim.arena import ArenaWalk
from repro.sim.engine import SimEngine, compiled, engine_for

__all__ = [
    "TernaryState",
    "from_binary",
    "is_definite",
    "to_binary",
    "settle",
    "apply_pattern",
    "settle_from_reset",
    "detects",
    "phi_signals",
    "ArenaWalk",
    "SimEngine",
    "compiled",
    "engine_for",
]
