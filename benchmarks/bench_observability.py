"""Instrumentation overhead: telemetry must be ≤3% on the hot kernels.

The observability layer's contract is that it is safe to leave in the
code: disabled, instrumented sites cost one switch/None check per
handle; enabled, the meters batch their bookkeeping (see ``_WalkMeter``
in :mod:`repro.sim.arena`) so even armed collection stays within noise
of the uninstrumented timings.  This bench measures exactly that on the
two perf-floor workloads:

* the packed fault-simulation walk at W=2560 on the largest bundled
  benchmark (the :mod:`bench_ternary_cost` workload), and
* the symbolic reachability image microbench on ``wide_handshake(10)``
  (the :mod:`bench_symbolic` workload),

each run alternately with telemetry fully armed (metrics + ambient
tracer) and fully off, comparing *temporally adjacent* sample pairs and
taking the cleanest armed/off ratio (see :func:`interleaved_overhead` —
pairing cancels runner drift, the minimum sheds scheduler spikes the
way best-of timing does).  The asserted ceiling is **3% overhead when
armed** — the acceptance bar for shipping instrumentation inside
kernels.  Results land in ``benchmarks/out/BENCH_observability.json``.
"""

import json
import random
import time
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, Tracer, use_tracer
from repro.obs import metrics as obs_metrics

OUT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_observability.json"

#: Armed-vs-off overhead ceiling on kernel workloads.
MAX_OVERHEAD = 0.03

_results = {}


@pytest.fixture(scope="session", autouse=True)
def emit_json():
    yield
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(_results, indent=2) + "\n")
    print(f"\nwrote {OUT_PATH}")


@pytest.fixture(autouse=True)
def _telemetry_off_after():
    yield
    obs_metrics.disable()


def interleaved_overhead(run_off, run_on, reps=11, inner=1):
    """Armed-vs-off overhead measured on temporally adjacent pairs.

    Shared runners drift (throttling, neighbours), so comparing a
    global best-of-off against a global best-of-on confounds drift with
    overhead.  Instead each rep times one off and one on sample
    back-to-back and contributes an on/off ratio; the reported overhead
    is the **minimum** ratio — the same noise-free-estimate logic as
    best-of timing (scheduler interference only ever adds time, so the
    cleanest pair is the honest one; a *systematic* overhead shows up
    in every pair and survives the min).  Each sample times ``inner``
    calls to amortize timer resolution.  The within-pair order flips
    every rep — throttling decays monotonically *within* a pair too,
    and a fixed order would bill that decay to whichever mode runs
    second.  Returns ``(t_off_min, t_on_min, overhead_min,
    overhead_median)`` — assert on the min (the noise-free estimate),
    report the median (the typical pair)."""

    def sample(run):
        t0 = time.perf_counter()
        for _ in range(inner):
            run()
        return (time.perf_counter() - t0) / inner

    ratios = []
    t_off = t_on = float("inf")
    for rep in range(reps):
        if rep % 2 == 0:
            off, on = sample(run_off), sample(run_on)
        else:
            on, off = sample(run_on), sample(run_off)
        ratios.append(on / off)
        t_off = min(t_off, off)
        t_on = min(t_on, on)
    ratios.sort()
    return t_off, t_on, ratios[0] - 1.0, ratios[len(ratios) // 2] - 1.0


def test_packed_walk_overhead():
    """Armed telemetry ≤3% on the W=2560 packed-sim walk."""
    from repro.benchmarks_data import TABLE1_NAMES, load_benchmark
    from repro.circuit.faults import fault_universe
    from repro.sgraph.cssg import build_cssg
    from repro.sim.batch import FaultBatch

    circuit = max(
        (load_benchmark(name, "complex") for name in TABLE1_NAMES),
        key=lambda c: c.n_signals,
    )
    base = fault_universe(circuit, "input") + fault_universe(circuit, "output")
    faults = base * -(-2560 // len(base))
    cssg = build_cssg(circuit)
    patterns = cssg.random_walk(random.Random(3), 100)
    goods = []
    good = cssg.reset
    for pattern in patterns:
        good = cssg.edges[good][pattern]
        goods.append(good)
    batch = FaultBatch(circuit, faults)

    def run_walk():
        walk = batch.walk(cssg.reset)
        det = walk.observe(cssg.reset)
        for pattern, g in zip(patterns, goods):
            det |= walk.step(pattern, g)
        return det

    def run_off():
        obs_metrics.disable()
        return run_walk()

    def run_on():
        obs_metrics.enable(MetricsRegistry())
        return run_walk()

    assert run_off() == run_on()  # telemetry never changes detections
    t_off, t_on, overhead, typical = interleaved_overhead(
        run_off, run_on, inner=5
    )
    n = len(patterns)
    print(
        f"\npacked walk W={len(faults)}: off {1e6 * t_off / n:.1f}us/pat "
        f"vs armed {1e6 * t_on / n:.1f}us/pat -> best {100 * overhead:+.2f}% "
        f"/ median {100 * typical:+.2f}%"
    )
    _results["packed_walk"] = {
        "benchmark": circuit.name,
        "width": len(faults),
        "n_patterns": n,
        "off_us_per_pattern": round(1e6 * t_off / n, 2),
        "armed_us_per_pattern": round(1e6 * t_on / n, 2),
        "overhead_fraction": round(overhead, 4),
        "overhead_fraction_median": round(typical, 4),
    }
    assert overhead <= MAX_OVERHEAD, (
        f"armed telemetry costs {100 * overhead:.2f}% on the packed walk "
        f"(ceiling {100 * MAX_OVERHEAD:.0f}%)"
    )


def test_symbolic_image_overhead():
    """Armed telemetry (metrics + spans) ≤3% on reachability images."""
    from bench_symbolic import wide_handshake
    from repro.sgraph.symbolic import SymbolicTcsg

    circuit = wide_handshake(10)

    def run_reach():
        s = SymbolicTcsg(circuit, auto_gc_nodes=5_000)
        return s.count_states(s.reachable())

    def run_off():
        obs_metrics.disable()
        return run_reach()

    def run_on():
        obs_metrics.enable(MetricsRegistry())
        with use_tracer(Tracer()):
            return run_reach()

    assert run_off() == run_on()  # same reachable state count
    t_off, t_on, overhead, typical = interleaved_overhead(run_off, run_on)
    print(
        f"\nimage m=10: off {1e3 * t_off:.1f}ms vs armed "
        f"{1e3 * t_on:.1f}ms -> best {100 * overhead:+.2f}% "
        f"/ median {100 * typical:+.2f}%"
    )
    _results["symbolic_image"] = {
        "m": 10,
        "off_ms": round(1e3 * t_off, 2),
        "armed_ms": round(1e3 * t_on, 2),
        "overhead_fraction": round(overhead, 4),
        "overhead_fraction_median": round(typical, 4),
    }
    assert overhead <= MAX_OVERHEAD, (
        f"armed telemetry costs {100 * overhead:.2f}% on the image "
        f"microbench (ceiling {100 * MAX_OVERHEAD:.0f}%)"
    )
