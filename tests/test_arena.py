"""Walk-kernel parity: the one settle kernel vs the worklist reference.

The walk kernel (compiled generator, state in generator locals) must be
*bit-identical* to the per-gate worklist loop it replaced, kept as
:class:`repro.sim.legacy.WorklistEngine` — same settled states after
every cycle, same detection words at every observation — because
Eichelberger's Algorithms A and B compute unique lattice fixpoints
regardless of evaluation order.

Checked here on every Table-1 benchmark under every registered fault
model's full universe, riding a deterministic random walk through the
CSSG.  This is the sim half of the PR's differential battery; the BDD
half lives in ``test_symbolic_diff.py``.
"""

import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import repro
from repro.benchmarks_data import TABLE1_NAMES, TABLE2_NAMES, load_benchmark
from repro.core.random_tpg import random_tpg
from repro.core.sequences import Test
from repro.core.verify import verify_test_set
from repro.faultmodels import get_model, model_names
from repro.flow.stages import fault_simulate
from repro.sgraph.cssg import build_cssg
from repro.sim import arena, ternary
from repro.sim.engine import compiled, engine_for
from repro.sim.legacy import WorklistEngine

WALK_LEN = 8

_CSSG_CACHE = {}


def _cssg_for(name):
    if name not in _CSSG_CACHE:
        _CSSG_CACHE[name] = build_cssg(load_benchmark(name, "complex"))
    return _CSSG_CACHE[name]


def _walk_states(cssg, seed):
    """A deterministic (pattern, good-state) trail through the CSSG."""
    patterns = cssg.random_walk(random.Random(seed), WALK_LEN)
    trail = []
    good = cssg.reset
    for pattern in patterns:
        good = cssg.edges[good][pattern]
        trail.append((pattern, good))
    return trail


@pytest.mark.parametrize("model_name", model_names())
@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_arena_walk_and_slab_match_batch(name, model_name):
    """Walk kernel vs the per-step worklist reference, bit for bit.

    The name predates the removal of the numpy slab kernel and of
    ``FaultBatch``, which this test also used to check; it is kept so
    the test ids stay stable.
    """
    cssg = _cssg_for(name)
    circuit = cssg.circuit
    faults = get_model(model_name).universe(circuit)
    if not faults:
        pytest.skip(f"{model_name} universe is empty on {name}")
    trail = _walk_states(cssg, seed=zlib.crc32(f"{name}:{model_name}".encode()))

    ref = WorklistEngine(circuit, faults)
    low, high = ref.reset(cssg.reset)
    walk = engine_for(circuit, faults, len(faults)).walk(cssg.reset)

    assert walk.state() == (tuple(low), tuple(high))
    assert walk.observe(cssg.reset) == ref.observe(low, high, cssg.reset)

    for pattern, good in trail:
        ref.apply_pattern(low, high, pattern)
        assert walk.step(pattern, good) == ref.observe(low, high, good)
        assert walk.state() == (tuple(low), tuple(high))


def _fresh(name, style):
    """A newly synthesized circuit: no kernel compiled on it yet (the
    loader's cached circuits carry kernels from earlier tests)."""
    return load_benchmark.__wrapped__(name, style)


def _packed(low, high):
    """Width-1 word lists as a scalar ternary state."""
    return ternary._pack(low, high)


COVER_GRID = [
    (name, "complex", model)
    for name in TABLE1_NAMES
    for model in ("output", "input", "bridging", "transition")
] + [
    (name, "two-level", model)
    for name in TABLE2_NAMES
    for model in ("input", "output")
]


@pytest.mark.parametrize("name,style,model_name", COVER_GRID)
def test_scalar_engines_reuse_the_universe_kernel(name, style, model_name):
    """Once the packed universe engine is bound, every one-fault width-1
    engine binds its masks into the same kernel, compiling nothing, and
    still matches the worklist reference (literal masks) bit for bit on
    the settled reset state and along a seeded CSSG walk."""
    circuit = _fresh(name, style)
    cssg = build_cssg(circuit)
    faults = get_model(model_name).universe(circuit)
    if not faults:
        pytest.skip(f"{model_name} universe is empty on {name}")
    universe = engine_for(circuit, faults, len(faults))
    universe.walk(cssg.reset)
    kernels = list(compiled(circuit).kernels)
    trail = _walk_states(
        cssg, seed=zlib.crc32(f"{name}:{style}:{model_name}".encode())
    )
    for fault in faults:
        ref = WorklistEngine(circuit, (fault,))
        low, high = ref.reset(cssg.reset)
        state = ternary.settle_from_reset(circuit, cssg.reset, fault)
        assert state == _packed(low, high), fault
        for pattern, _good in trail:
            ref.apply_pattern(low, high, pattern)
            state = ternary.apply_pattern(circuit, state, pattern, fault)
            assert state == _packed(low, high), (fault, pattern)
        assert engine_for(circuit, (fault,))._walk_fn is universe._walk_fn
    assert compiled(circuit).kernels == kernels


def test_one_kernel_serves_width_one_and_width_n():
    """The universe walk and the per-fault scalar walks run one kernel
    at two widths; bit j of every universe detection word is fault j's
    scalar detection."""
    circuit = _fresh("dff", "complex")
    cssg = build_cssg(circuit)
    faults = get_model("input").universe(circuit)
    trail = _walk_states(cssg, seed=11)
    universe = engine_for(circuit, faults, len(faults))
    scalars = [engine_for(circuit, (fault,), 1) for fault in faults]
    walks = [e.walk(cssg.reset) for e in [universe] + scalars]
    assert {e._walk_fn for e in [universe] + scalars} == {universe._walk_fn}
    assert len(compiled(circuit).kernels) == 1
    words = [[w.observe(cssg.reset) for w in walks]]
    for pattern, good in trail:
        words.append([w.step(pattern, good) for w in walks])
    for packed, *scalar in words:
        assert packed == sum(det << j for j, det in enumerate(scalar))
    assert any(packed for packed, *_ in words)


def test_kernel_cache_stays_bounded_on_uncovered_shapes(monkeypatch):
    """One-fault engines with no universe engine first each need their
    own kernel; past the bound the least recently used kernel goes, and
    every engine, re-bound or not, still matches the reference."""
    monkeypatch.setattr(arena, "_KERNEL_CACHE_SIZE", 4)
    circuit = _fresh("chu150", "complex")
    cssg = build_cssg(circuit)
    faults = [
        fault
        for model in ("output", "input", "transition")
        for fault in get_model(model).universe(circuit)
    ]
    shapes = {frozenset(engine_for(circuit, (f,)).masks) for f in faults}
    assert len(shapes) > 2 * arena._KERNEL_CACHE_SIZE
    trail = _walk_states(cssg, seed=5)
    cc = compiled(circuit)
    for fault in faults + faults[::-1]:
        circuit._engines = None  # re-bind: evicted shapes compile again
        ref = WorklistEngine(circuit, (fault,))
        low, high = ref.reset(cssg.reset)
        walk = engine_for(circuit, (fault,)).walk(cssg.reset)
        assert len(cc.kernels) <= arena._KERNEL_CACHE_SIZE
        for pattern, good in trail:
            ref.apply_pattern(low, high, pattern)
            assert walk.step(pattern, good) == ref.observe(low, high, good)
            assert walk.state() == (tuple(low), tuple(high))
    assert len(cc.kernels) == arena._KERNEL_CACHE_SIZE


def test_walk_is_restartable():
    """Each ``walk()`` call is an independent replay from reset."""
    cssg = _cssg_for("dff")
    faults = get_model("input").universe(cssg.circuit)
    engine = engine_for(cssg.circuit, faults, len(faults))
    trail = _walk_states(cssg, seed=7)

    def run():
        walk = engine.walk(cssg.reset)
        det = walk.observe(cssg.reset)
        for pattern, good in trail:
            det |= walk.step(pattern, good)
        return det

    assert run() == run()


def test_empty_universe_width_zero():
    """A width-0 walk settles and observes without faulting."""
    cssg = _cssg_for("dff")
    engine = engine_for(cssg.circuit, [], 0)
    assert engine.ones == 0
    walk = engine.walk(cssg.reset)
    assert walk.observe(cssg.reset) == 0
    pattern, good = _walk_states(cssg, seed=1)[0]
    assert walk.step(pattern, good) == 0


def test_empty_universe_fault_sim_entry_points():
    """Random TPG, the auditor and flow fault grading on an empty fault
    universe: empty results, no exception.  The walk is width 0, so
    random TPG has nothing undetected and runs no walk at all."""
    cssg = _cssg_for("dff")
    walks = []
    detected, tests = random_tpg(
        cssg, [], n_walks=2, walk_len=4, on_walk=lambda i, n: walks.append(i)
    )
    assert detected == {} and tests == [] and walks == []
    patterns = tuple(p for p, _ in _walk_states(cssg, seed=2))
    report = verify_test_set(cssg, [Test(patterns, [])], [])
    assert report.detected == set() and report.per_test == [set()]
    assert report.all_tests_valid
    assert fault_simulate(cssg, [], patterns) == []


def test_import_repro_loads_no_numpy():
    """The packed fault sim is pure Python: importing the package in a
    fresh interpreter must not pull numpy in."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, "-c",
         "import repro, sys; assert 'numpy' not in sys.modules"],
        env=env,
        check=True,
    )
