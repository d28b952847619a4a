"""Dead circuits and BDD managers are freed by reference counting.

A reference cycle through a circuit (good or materialized faulty) or a
BDD manager keeps it, and everything it caches (compiled code, engines,
settle reports, node tables), alive until the cyclic garbage collector
happens to run.  With the collector off and ``DEBUG_SAVEALL`` set, whatever a
``gc.collect()`` finds is exactly the cyclic garbage; none of it may be
a ``Circuit`` or a ``BddManager``.
"""

import gc
import weakref

from repro import AtpgOptions, Flow, load_benchmark
from repro.bdd.manager import BddManager
from repro.benchmarks_data import load_benchmark_stg
from repro.circuit.faults import fault_universe
from repro.circuit.netlist import Circuit
from repro.core.random_tpg import random_tpg
from repro.core.verify import verify_test_set
from repro.sgraph.cssg import build_cssg
from repro.sim.engine import compiled
from repro.stg.synthesis import synthesize


def cyclic_garbage_after(work):
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_flow_runs_leave_no_cyclic_circuits_or_managers():
    def work():
        symbolic = Flow.default().run(
            load_benchmark("chu150", "complex"),
            AtpgOptions(seed=3, fault_model="output", cssg_method="symbolic"),
        )
        assert symbolic.cssg.method == "symbolic"
        # vbe6a leaves undetected input stuck-at faults to the exact
        # three-phase generator, one materialized netlist per fault
        exact = Flow.default().run(
            load_benchmark("vbe6a", "two-level"),
            AtpgOptions(seed=3, fault_model="input"),
        )
        assert exact.n_undetectable > 0

    garbage = cyclic_garbage_after(work)
    assert BddManager.__name__ not in garbage
    assert Circuit.__name__ not in garbage


def test_fault_simulated_good_circuit_is_freed_by_refcount():
    """Random TPG and the auditor compile packed engines on the good
    circuit; neither the engines nor the compiled form may point back
    at it, so a dropped circuit goes with its last reference."""

    def run():
        # A fresh synthesis: load_benchmark caches its circuits forever.
        circuit = synthesize(load_benchmark_stg("dff"), style="complex")
        cssg = build_cssg(circuit)
        faults = fault_universe(circuit, "output")
        detected, tests = random_tpg(cssg, faults, n_walks=4, walk_len=8)
        assert detected
        assert verify_test_set(cssg, tests, faults).detected == set(detected)
        return weakref.ref(compiled(circuit))

    def work():
        ref = run()
        assert ref() is None  # the collector is off: refcounting alone

    assert Circuit.__name__ not in cyclic_garbage_after(work)


def test_sat_count_and_sat_iter_leave_no_cycles():
    def work():
        mgr = BddManager(3)
        f = mgr.apply_or(mgr.var(0), mgr.var(2))
        assert mgr.sat_count(f) == 6
        assert sum(1 for _ in mgr.sat_iter(f)) == 6
        partial = mgr.sat_iter(f)
        next(partial)  # an abandoned enumeration, too
        del partial

    assert BddManager.__name__ not in cyclic_garbage_after(work)
