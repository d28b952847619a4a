"""Scenario fuzzing: seeded STG/netlist generation, mutation operators,
differential oracles, shrinking, and the ``repro-fuzz`` campaign.

The paper's experimental surface is 23 hand-authored STG benchmarks;
this package grows the corpus arbitrarily.  A seeded generator
(:mod:`repro.fuzz.generator`) emits *healthy* STGs — free-choice,
input-resolved, persistent, CSC — by construction on a Johnson-ring
backbone with concurrency/choice/mirror decorations, plus raw racy
feedback netlists for the settling oracles.  Every scenario runs
through the model-dispatched differential oracle pairs
(:mod:`repro.fuzz.oracles`):

* compiled settle kernel vs the seed's sweep settling,
* explicit-exact vs symbolic CSSG construction,
* fault overlays vs materialized faulty netlists,
* packed walk kernel vs the per-gate worklist fault sim,
* plain vs incremental re-ATPG across mutations
  (:mod:`repro.fuzz.mutate`),
* a-priori undetectability proofs vs 3-phase generation.

A divergence is auto-shrunk (:mod:`repro.fuzz.shrink`) to a minimal
failing spec.  :mod:`repro.fuzz.campaign` packages seed ranges as
campaign jobs so ``repro-fuzz`` rides the existing runner: fork
workers, heartbeats and the content-addressed result store (warm
reruns of an already-fuzzed seed range cost zero).
"""

from repro.fuzz.campaign import (
    FUZZ_SCHEMA_VERSION,
    FuzzSpec,
    aggregate_reports,
    execute_fuzz_job,
    expand_fuzz,
    fuzz_job_key,
)
from repro.fuzz.generator import (
    GeneratorConfig,
    RejectionStats,
    Scenario,
    generate_scenario,
    generate_spec,
    spec_to_stg_text,
)
from repro.fuzz.mutate import (
    MUTATION_OPS,
    Mutation,
    mutate_netlist,
    shift_marking,
)
from repro.fuzz.oracles import (
    ORACLES,
    Divergence,
    OracleCaps,
    ScenarioReport,
    oracle_names,
    run_scenario,
)
from repro.fuzz.shrink import shrink_netlist_text, shrink_scenario, shrink_spec

__all__ = [
    "FUZZ_SCHEMA_VERSION",
    "Divergence",
    "FuzzSpec",
    "GeneratorConfig",
    "MUTATION_OPS",
    "Mutation",
    "ORACLES",
    "OracleCaps",
    "RejectionStats",
    "Scenario",
    "ScenarioReport",
    "aggregate_reports",
    "execute_fuzz_job",
    "expand_fuzz",
    "fuzz_job_key",
    "generate_scenario",
    "generate_spec",
    "mutate_netlist",
    "oracle_names",
    "run_scenario",
    "shift_marking",
    "shrink_netlist_text",
    "shrink_scenario",
    "shrink_spec",
    "spec_to_stg_text",
]
