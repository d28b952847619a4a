#!/usr/bin/env python3
"""Paper-run benchmark of the ATPG flow.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 15 --trace 0

Workloads (see ``paper_runs.py`` and ``RATIONALE.md``): ``table1``,
``table2``, ``scan_rescue``, ``symbolic``.  Every pass runs serially in
this one process, one thread, with no campaign cache and no workers.

``--trace 0`` measures untraced passes for ``--seconds`` of paper-run
CPU time and reports the end-to-end metrics, their times in reference
seconds (``host_speed.py``).  ``--trace 1`` alternates
untraced and traced passes at the same seeds (the first seed is traced
twice) and reports the per-layer metrics, the tracing overhead and the
self-test; the spans go to ``perfbench/out/``.  ``--held-out`` draws
the AtpgOptions seeds from the held-out set.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
(paper runs) and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: Set-ups per run: this process plus fresh child processes.
SETUP_SAMPLES = 5

#: Passes a run makes even past ``--seconds``, so that a median over
#: passes never rests on one pass (scan_rescue's pass is ~10 s).
MIN_PASSES = 2


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up, print its seconds and exit",
    )
    return parser.parse_args(argv)


def set_up(workload_name: str):
    """Import the program and build the workload: circuits synthesized
    from their STGs, scan cuts inserted, the verdict reference loaded.
    Returns ``(workload, reference seconds)``."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"no program to measure: {SRC / 'repro'} is missing")
    from host_speed import HostSpeed

    clock = HostSpeed()
    with clock.sampling():
        start = clock.mark()
        sys.path.insert(0, str(SRC))
        from paper_runs import Workload

        workload = Workload(workload_name)
        speed = clock.speed(start.n_samples, len(clock.samples))
        seconds = clock.cpu_since(start) * speed
    return workload, seconds


def setup_seconds(workload_name: str, own: float) -> float:
    """Median set-up time over this process and fresh children, since
    imports only cost anything once per process."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload_name, "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(child.stdout.split()[-1]))
    return statistics.median(samples)


def pass_seeds(workload_name, args):
    """The ``AtpgOptions.seed`` of each successive pass."""
    from paper_runs import atpg_seed

    return (
        atpg_seed(workload_name, args.seed, index, args.held_out)
        for index in itertools.count()
    )


def budget_left(passes, seconds: float, step: int = 1) -> bool:
    """Whether ``step`` more passes fit: always up to ``MIN_PASSES``,
    then while that many median passes still fit in the measured time."""
    if len(passes) < MIN_PASSES:
        return True
    spent = sum(p.cpu_seconds for p in passes)
    return spent + step * statistics.median(p.cpu_seconds for p in passes) <= seconds


def end_to_end_metrics(passes, setup_s: float) -> dict:
    from paper_runs import nearest_rank

    runs = [run for p in passes for run in p.runs]
    n_faults = sum(run.n_faults for run in runs) or 1  # 0 only if every run raised
    return {
        "setup_s": setup_s,
        "faults_per_s": statistics.median(
            sum(run.n_faults for run in p.runs) / p.seconds for p in passes
        ),
        "job_s_p50": statistics.median(
            nearest_rank([run.seconds for run in p.runs], 50) for p in passes
        ),
        "job_s_p90": statistics.median(
            nearest_rank([run.seconds for run in p.runs], 90) for p in passes
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "coverage": sum(run.n_covered for run in runs) / n_faults,
        "proven_frac": 1 - sum(run.n_aborted for run in runs) / n_faults,
        "ok_frac": 1 - sum(run.failed for run in runs) / len(runs),
    }


def measure_untraced(workload, args):
    from host_speed import HostSpeed

    clock = HostSpeed()
    passes = []
    seeds = pass_seeds(workload.name, args)
    while budget_left(passes, args.seconds):
        passes.append(workload.run_pass(next(seeds), clock=clock))
    speeds = [p.seconds / p.cpu_seconds for p in passes]
    print(f"host speed: {min(speeds):.3f} to {max(speeds):.3f} ref_s per CPU s")
    return passes


def measure_traced(workload, args):
    """Untraced and traced passes at the same seeds, the first seed
    traced twice.  Returns all passes, the per-layer metrics and the
    self-test's problems: traced verdicts that differ from untraced
    ones, and work counters that do not repeat at one seed."""
    from layer_trace import LayerTrace, layer_metrics, layer_profile, work_counters
    from repro.obs.trace import Tracer, format_profile

    tracer = Tracer()
    layers = LayerTrace(tracer)
    untraced, pairs, pass_spans, problems = [], [], [], []
    seeds = pass_seeds(workload.name, args)
    while budget_left(untraced + [t for t, _ in pairs], args.seconds, step=2):
        seed = next(seeds)
        plain = workload.run_pass(seed)
        untraced.append(plain)
        for _ in range(1 if pairs else 2):
            first = len(tracer.spans)
            traced = workload.run_pass(seed, scope=layers.pass_scope(seed))
            pairs.append((traced, plain))
            pass_spans.append(tracer.spans[first:])
            if [r.verdicts for r in traced.runs] != [r.verdicts for r in plain.runs]:
                problems.append(f"traced verdicts differ at seed {seed}")
    once, again = (work_counters(spans) for spans in pass_spans[:2])
    if once != again:
        problems.append(f"work counters differ at one seed: {once} != {again}")
    metrics = layer_metrics(tracer.spans, len(pairs))
    metrics["trace.overhead_frac"] = statistics.median(
        t.seconds / u.seconds - 1 for t, u in pairs
    )
    metrics["flow.test_patterns"] = statistics.mean(
        sum(run.n_patterns for run in p.runs) for p in untraced
    )
    print(format_profile(layer_profile(tracer.spans)))
    traced_s = statistics.mean(t.seconds for t, _ in pairs)
    print(f"flow.self_s is {metrics['flow.self_s'] / traced_s:.1%} of a traced pass")
    OUT_DIR.mkdir(exist_ok=True)
    held = "-held-out" if args.held_out else ""
    tracer.write_jsonl(str(OUT_DIR / f"spans-{workload.name}-seed{args.seed}{held}.jsonl"))
    return untraced + [t for t, _ in pairs], metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, own_setup = set_up(args.workload)
    if args.setup_only:
        print(own_setup)
        return 0
    if args.trace:
        passes, metrics, problems = measure_traced(workload, args)
    else:
        setup_s = setup_seconds(args.workload, own_setup)
        passes = measure_untraced(workload, args)
        metrics, problems = end_to_end_metrics(passes, setup_s), []
    runs = [run for p in passes for run in p.runs]
    failed = [run for run in runs if run.failed]
    for run in failed[:10]:
        print(f"FAILED {run.label}: {run.error}", file=sys.stderr)
    for problem in problems:
        print(f"SELF-TEST {problem}", file=sys.stderr)
    per_pass = len(passes[0].runs)
    print(
        f"{args.workload}: {len(passes)} passes x {per_pass} paper runs; job_s "
        f"percentiles over the {per_pass} runs of a pass, median over passes"
    )
    units = declared_units(bool(args.trace))
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} != declared {sorted(units)}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
