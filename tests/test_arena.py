"""Arena-kernel parity: the flat-buffer fast path vs the worklist engine.

The arena walk kernel (compiled generator, state in generator locals)
must be *bit-identical* to the per-step :class:`FaultBatch` path — same
settled states after every cycle, same detection words at every
observation — because Eichelberger's Algorithms A and B compute unique
lattice fixpoints regardless of evaluation order.

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
from repro.benchmarks_data import TABLE1_NAMES, load_benchmark
from repro.faultmodels import get_model, model_names
from repro.sgraph.cssg import build_cssg
from repro.sim.batch import FaultBatch

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
    """Walk kernel vs per-step ``FaultBatch``, bit for bit.

    The name predates the removal of the numpy slab kernel, which this
    test also used to check; it is kept so the test ids stay stable.
    """
    cssg = _cssg_for(name)
    circuit = cssg.circuit
    faults = get_model(model_name).universe(circuit)
    if not faults:
        pytest.skip(f"{model_name} universe is empty on {name}")
    trail = _walk_states(cssg, seed=zlib.crc32(f"{name}:{model_name}".encode()))

    batch = FaultBatch(circuit, faults)
    state = batch.reset_and_settle(cssg.reset)
    walk = batch.walk(cssg.reset)

    assert walk.state() == state
    det_ref = batch.observe(state, cssg.reset)
    assert walk.observe(cssg.reset) == det_ref

    for pattern, good in trail:
        state = batch.apply_settled(state, pattern)
        det_ref = batch.observe(state, good)
        assert walk.step(pattern, good) == det_ref
        assert walk.state() == state


def test_walk_is_restartable():
    """Each ``walk()`` call is an independent replay from reset."""
    cssg = _cssg_for("dff")
    faults = get_model("input").universe(cssg.circuit)
    batch = FaultBatch(cssg.circuit, faults)
    trail = _walk_states(cssg, seed=7)

    def run():
        walk = batch.walk(cssg.reset)
        det = walk.observe(cssg.reset)
        for pattern, good in trail:
            det |= walk.step(pattern, good)
        return det

    assert run() == run()


def test_empty_universe_width_zero():
    """A width-0 walk settles and observes without faulting."""
    cssg = _cssg_for("dff")
    batch = FaultBatch(cssg.circuit, [])
    walk = batch.walk(cssg.reset)
    assert walk.observe(cssg.reset) == 0
    pattern, good = _walk_states(cssg, seed=1)[0]
    assert walk.step(pattern, good) == 0


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
