#!/usr/bin/env python3
"""Regenerate ``reference.json``: every fault's verdict in every paper
run of every workload, checked to be the same at several seeds.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py [--seeds 0 1 7 123]

The verdicts (DETECTED / UNDETECTABLE / ABORTED, one letter per fault
in fault-universe order) do not depend on ``AtpgOptions.seed``, so one
reference serves every seed of a workload; the script refuses to write
one when they do differ.  ``scan_rescue`` also records the scan cuts
the partial-scan example chooses from its base run.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from repro import AtpgOptions, Flow, load_benchmark
from repro.ext import insert_scan_inputs

from paper_runs import (
    GRIDS,
    REFERENCE_PATH,
    SCAN_CIRCUIT,
    SCAN_CUTS,
    scan_cuts_for,
    verdict_string,
)


def workload_digest(verdicts: dict) -> str:
    """The workload's single verdict digest over all its paper runs."""
    text = json.dumps(verdicts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def grid_verdicts(specs, seed):
    flow = Flow.default()
    return {
        spec.label: verdict_string(
            flow.run(
                load_benchmark(spec.circuit, spec.style),
                AtpgOptions(
                    fault_model=spec.fault_model,
                    cssg_method=spec.cssg_method,
                    seed=seed,
                ),
            )
        )
        for spec in specs
    }


def scan_verdicts(seed):
    flow = Flow.default()
    options = AtpgOptions(fault_model="input", seed=seed)
    circuit = load_benchmark(SCAN_CIRCUIT, "two-level")
    base = flow.run(circuit, options)
    cuts = scan_cuts_for(base)
    verdicts = {"base": verdict_string(base)}
    for n_cuts in SCAN_CUTS:
        scanned = insert_scan_inputs(circuit, cuts[:n_cuts])
        verdicts[f"cut{n_cuts}"] = verdict_string(flow.run(scanned, options))
    return verdicts, list(cuts)


def require_same(name, seeds, found) -> None:
    for seed, other in zip(seeds[1:], found[1:]):
        if other != found[0]:
            raise SystemExit(
                f"{name}: verdicts at seed {seed} differ from seed {seeds[0]}"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7, 123])
    seeds = parser.parse_args().seeds
    reference = {}
    for name, specs in GRIDS.items():
        found = [grid_verdicts(specs, seed) for seed in seeds]
        require_same(name, seeds, found)
        reference[name] = {"verdicts": found[0]}
    found = [scan_verdicts(seed) for seed in seeds]
    require_same("scan_rescue", seeds, found)
    verdicts, cuts = found[0]
    reference["scan_rescue"] = {"scan_cuts": cuts, "verdicts": verdicts}
    for entry in reference.values():
        entry["digest"] = workload_digest(entry["verdicts"])
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
