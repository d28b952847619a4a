"""The fault-model registry: edge cases, new universes, differentials.

Covers the registry contract (unknown names raise :class:`ReproError`
listing the registered models), the two new workloads (bridging,
transition) against their materialized-netlist semantics, collapse
behaviour, serialization at the bumped schema version, and the campaign
axis wiring.
"""

import random

import pytest

from repro.benchmarks_data import load_benchmark
from repro.circuit.faults import Fault, fault_universe, materialize_fault
from repro.circuit.parser import parse_netlist
from repro.core.atpg import RESULT_SCHEMA_VERSION, AtpgOptions, AtpgResult
from repro.core.collapse import collapse_faults
from repro.errors import ReproError, SimulationError
from repro.faultmodels import (
    BRIDGING,
    SLOW_TO_FALL,
    SLOW_TO_RISE,
    TRANSITION,
    WIRED_AND,
    WIRED_OR,
    FaultModel,
    adjacent_pairs,
    get_model,
    model_for_kind,
    model_names,
    register_model,
)
from repro.flow import Flow
from repro.sgraph.cssg import build_cssg
from repro.sim import ternary
from repro.sim.engine import engine_for

#: A fanout-free buffer/inverter chain: no gate has two inputs, so no
#: two nets are structurally adjacent — the bridging universe is empty.
CHAIN_NET = """
.model chain
.inputs A
.gate a BUF A
.gate b INV a
.gate y BUF b
.outputs y
.reset A=0 a=0 b=1 y=1
"""


@pytest.fixture
def chain():
    return parse_netlist(CHAIN_NET)


# -- registry contract -------------------------------------------------------


def test_model_names_lists_all_four():
    assert model_names() == ["bridging", "input", "output", "transition"]


def test_get_model_unknown_raises_repro_error_with_list():
    with pytest.raises(ReproError, match="registered models.*bridging.*transition"):
        get_model("stuck-open")


def test_model_for_kind_unknown_raises():
    with pytest.raises(ReproError, match="unknown fault kind"):
        model_for_kind("stuck-open")


def test_register_duplicate_name_rejected():
    class Dup(FaultModel):
        name = "bridging"
        kinds = ("bridging2",)

    with pytest.raises(ReproError, match="already registered"):
        register_model(Dup())


def test_register_duplicate_kind_rejected():
    class Dup(FaultModel):
        name = "bridging2"
        kinds = ("bridging",)

    with pytest.raises(ReproError, match="kind 'bridging' already registered"):
        register_model(Dup())


def test_register_unregister_round_trip():
    from repro.faultmodels import unregister_model

    class Demo(FaultModel):
        name = "demo-model"
        kinds = ("demo-kind",)
        universe_label = "demo"

    register_model(Demo())
    assert "demo-model" in model_names()
    unregister_model("demo-model")
    assert "demo-model" not in model_names()
    with pytest.raises(ReproError):
        model_for_kind("demo-kind")


def test_fault_universe_dispatches_all_models(celem):
    for name in model_names():
        faults = fault_universe(celem, name)
        assert all(model_for_kind(f.kind) is get_model(name) for f in faults)


def test_engine_rejects_unknown_kind(celem):
    from repro.sim.engine import SimEngine

    with pytest.raises(SimulationError, match="unknown fault kind"):
        SimEngine(celem, [Fault("stuck-open", 2, 2, 0)], 1)


# -- bridging universe -------------------------------------------------------


def test_bridging_universe_empty_on_fanout_free_chain(chain):
    """Single-input gates never bring two nets together: the pruned
    universe is empty, and the flow still returns a complete (vacuously
    100%-covered) result."""
    assert adjacent_pairs(chain) == []
    assert fault_universe(chain, "bridging") == []
    result = Flow.default().run(chain, AtpgOptions(fault_model="bridging"))
    assert result.n_total == 0
    assert result.coverage == 1.0


def test_bridging_pairs_exclude_primary_inputs(celem):
    """Input wires are tester-driven; only gate-output nets pair up."""
    n_inputs = celem.n_inputs
    for a, b in adjacent_pairs(celem):
        assert a >= n_inputs and b >= n_inputs and a < b


def test_bridging_universe_shape(celem):
    # celem: gate c reads (a, b, c) -> pairs {a,b}, {a,c}, {b,c}.
    faults = fault_universe(celem, "bridging")
    assert len(faults) == 6  # 3 pairs x {wired-AND, wired-OR}
    a, b, c = celem.index("a"), celem.index("b"), celem.index("c")
    assert Fault("bridging", a, b, WIRED_AND) in faults
    assert Fault("bridging", b, c, WIRED_OR) in faults
    assert Fault("bridging", a, b, WIRED_AND).describe(celem) == "a~b wired-AND"
    assert Fault("bridging", a, c, WIRED_OR).describe(celem) == "a~c wired-OR"


def test_transition_universe_two_per_gate(celem):
    faults = fault_universe(celem, "transition")
    assert len(faults) == 2 * celem.n_gates
    c = celem.index("c")
    assert Fault("transition", c, c, SLOW_TO_RISE).describe(celem) == "c STR"
    assert Fault("transition", c, c, SLOW_TO_FALL).describe(celem) == "c STF"


# -- faulty semantics: overlay vs materialized netlist ----------------------


@pytest.mark.parametrize("bench", ["dff", "chu150", "mmu"])
@pytest.mark.parametrize("model", ["bridging", "transition"])
def test_overlay_matches_materialized_netlist_on_walks(bench, model):
    """The engine's packed overlay and the materialized faulty netlist
    are two encodings of the same faulty machine: scalar ternary
    settling must agree on every cycle of a random valid walk."""
    circuit = load_benchmark(bench, "complex")
    cssg = build_cssg(circuit)
    faults = fault_universe(circuit, model)
    assert faults, (bench, model)
    rng = random.Random(7)
    for fault in faults:
        mat = materialize_fault(circuit, fault)
        via_overlay = ternary.settle_from_reset(circuit, cssg.reset, fault)
        via_netlist = ternary.settle_from_reset(mat, mat.require_reset())
        assert via_overlay == via_netlist, fault.describe(circuit)
        good = cssg.reset
        for _ in range(8):
            choices = sorted(cssg.valid_patterns(good))
            if not choices:
                break
            pattern = rng.choice(choices)
            good = cssg.edges[good][pattern]
            via_overlay = ternary.apply_pattern(circuit, via_overlay, pattern, fault)
            via_netlist = ternary.apply_pattern(mat, via_netlist, pattern)
            assert via_overlay == via_netlist, fault.describe(circuit)


def _machine(words, j):
    """Machine ``j`` of packed ``(low, high)`` words as a scalar ternary
    ``(L, H)`` pair."""
    return tuple(
        sum(((w >> j) & 1) << i for i, w in enumerate(side)) for side in words
    )


@pytest.mark.parametrize("bench", ["dff", "converta"])
def test_packed_batch_matches_scalar_for_mixed_universe(bench):
    """One packed word carrying bridging + transition + stuck-at machines
    must equal the per-fault scalar engines bit for bit."""
    circuit = load_benchmark(bench, "complex")
    cssg = build_cssg(circuit)
    faults = (
        fault_universe(circuit, "bridging")
        + fault_universe(circuit, "transition")
        + fault_universe(circuit, "input")[:4]
    )
    engine = engine_for(circuit, faults, len(faults))
    state = engine.settle(*engine.reset_words(cssg.reset))
    scalars = [
        ternary.settle_from_reset(circuit, cssg.reset, f) for f in faults
    ]
    rng = random.Random(3)
    good = cssg.reset
    for _ in range(10):
        for j, fault in enumerate(faults):
            assert _machine(state, j) == scalars[j], (
                fault.describe(circuit)
            )
        choices = sorted(cssg.valid_patterns(good))
        if not choices:
            break
        pattern = rng.choice(choices)
        good = cssg.edges[good][pattern]
        state = engine.apply_pattern(*state, pattern)
        scalars = [
            ternary.apply_pattern(circuit, s, pattern, f)
            for s, f in zip(scalars, faults)
        ]


def test_transition_sticky_semantics_on_buffer_chain(chain):
    """STR on the mid-chain inverter: reset has b=1, so b may fall but
    never rise again — after A goes 1 (b wants 0) and back to 0 (b wants
    1), the faulty machine holds b=0 while the good machine recovers."""
    b = chain.index("b")
    str_fault = Fault("transition", b, b, SLOW_TO_RISE)
    state = ternary.settle_from_reset(chain, chain.require_reset(), str_fault)
    assert ternary.to_binary(state) >> b & 1 == 1  # starts at reset value
    state = ternary.apply_pattern(chain, state, 1, str_fault)  # A=1: b falls
    assert ternary.to_binary(state) >> b & 1 == 0
    state = ternary.apply_pattern(chain, state, 0, str_fault)  # A=0: rise lost
    assert ternary.to_binary(state) >> b & 1 == 0  # sticky low


def test_bridging_wired_and_semantics(celem):
    """Wired-AND of the two buffered inputs: driving A=1,B=0 pulls both
    nets to 0 on the bridged machine."""
    a, b = celem.index("a"), celem.index("b")
    fault = Fault("bridging", a, b, WIRED_AND)
    state = ternary.settle_from_reset(celem, celem.require_reset(), fault)
    state = ternary.apply_pattern(celem, state, 0b01, fault)  # A=1 B=0
    packed = ternary.to_binary(state)
    assert (packed >> a) & 1 == 0 and (packed >> b) & 1 == 0
    # The good machine drives a=1 b=0.
    good = ternary.apply_pattern(
        celem, ternary.settle_from_reset(celem, celem.require_reset()), 0b01
    )
    gp = ternary.to_binary(good)
    assert (gp >> a) & 1 == 1 and (gp >> b) & 1 == 0


# -- collapsing --------------------------------------------------------------


def test_transition_collapse_is_identity_partition():
    """Same-gate STR/STF can never be functionally equal (F∧s ≡ F∨s has
    no solution over the other inputs), so transition collapse must be
    the identity — merging distinct transition faults would be unsound."""
    circuit = load_benchmark("converta", "complex")
    faults = fault_universe(circuit, "transition")
    reps, rep_of = collapse_faults(circuit, faults)
    assert reps == faults
    assert all(rep_of[f] is f for f in faults)


def test_bridging_collapse_is_identity_partition(celem):
    faults = fault_universe(celem, "bridging")
    reps, rep_of = collapse_faults(celem, faults)
    assert reps == faults


def test_transition_never_collapses_with_stuckat(celem):
    """Mixed lists: a sticky table must not alias a stuck-at signature
    even when the raw truth tables could coincide."""
    c = celem.index("c")
    mixed = [
        Fault("transition", c, c, SLOW_TO_RISE),
        Fault("output", c, c, 0),
        Fault("transition", c, c, SLOW_TO_FALL),
        Fault("output", c, c, 1),
    ]
    reps, _ = collapse_faults(celem, mixed)
    assert reps == mixed  # four distinct classes


def test_stuckat_cross_kind_collapse_still_works(celem):
    """The registry refactor must preserve the classic input-SA0 ≡
    output-SA0 merge on AND-like gates (here: the C-element is not
    AND-like, so use an explicit AND netlist)."""
    circuit = parse_netlist(
        ".model t\n.inputs A B\n.gate a BUF A\n.gate b BUF B\n"
        ".gate y AND2 a b\n.outputs y\n.reset A=0 B=0 a=0 b=0 y=0\n"
    )
    y, a = circuit.index("y"), circuit.index("a")
    faults = [Fault("input", y, a, 0), Fault("output", y, y, 0)]
    reps, rep_of = collapse_faults(circuit, faults)
    assert len(reps) == 1 and rep_of[faults[1]] is faults[0]


# -- serialization at schema v4 ---------------------------------------------


def test_fault_json_round_trip_new_kinds():
    for fault in (
        Fault("bridging", 3, 5, WIRED_AND),
        Fault("bridging", 3, 5, WIRED_OR),
        Fault("transition", 4, 4, SLOW_TO_RISE),
        Fault("transition", 4, 4, SLOW_TO_FALL),
    ):
        assert Fault.from_json(fault.to_json()) == fault


@pytest.mark.parametrize("model", ["bridging", "transition"])
def test_result_round_trip_new_kinds(model):
    """A full AtpgResult over a new universe survives the JSON contract
    at the bumped schema version — the campaign cache's storage format."""
    circuit = load_benchmark("dff", "complex")
    result = Flow.default().run(circuit, AtpgOptions(fault_model=model, seed=2))
    data = result.to_json_dict()
    assert data["schema_version"] == RESULT_SCHEMA_VERSION == 5
    assert all(f[0] == model for f in data["faults"])
    back = AtpgResult.from_json_dict(data, circuit)
    clean = dict(data)
    clean.pop("cpu_seconds")
    again = back.to_json_dict()
    again.pop("cpu_seconds")
    assert again == clean


# -- campaign axis -----------------------------------------------------------


def test_campaign_expands_new_models_with_distinct_keys():
    from repro.campaign import CampaignSpec, expand

    spec = CampaignSpec(
        benchmarks=["dff"],
        fault_models=("input", "output", "bridging", "transition"),
    )
    jobs = expand(spec)
    assert len(jobs) == 4
    assert len({j.key for j in jobs}) == 4
    assert {j.fault_model for j in jobs} == {
        "input", "output", "bridging", "transition",
    }


def test_campaign_rejects_unknown_model_before_running():
    from repro.campaign import CampaignSpec, expand

    spec = CampaignSpec(benchmarks=["dff"], fault_models=("input", "bogus"))
    with pytest.raises(ReproError, match="unknown fault model 'bogus'"):
        expand(spec)


def test_campaign_rows_carry_models_column():
    from repro.campaign import CampaignSpec, expand, run_campaign, rows_from_outcomes

    spec = CampaignSpec(
        benchmarks=["dff"],
        fault_models=("output", "input", "bridging", "transition"),
        options=AtpgOptions(random_walks=1, walk_len=4),
    )
    report = run_campaign(expand(spec), workers=0, store=None)
    assert report.all_ok
    (row,) = rows_from_outcomes(report.outcomes)
    assert row.in_tot > 0 and row.out_tot > 0
    assert "bridging:" in row.models and "transition:" in row.models


# -- three-phase / undetectability hooks -------------------------------------


def test_transition_activation_states_prefer_launching_edges():
    """Activation targets must have an outgoing CSSG edge completing the
    slow transition whenever any such state is justifiable."""
    circuit = load_benchmark("chu150", "complex")
    cssg = build_cssg(circuit)
    dist, _ = cssg.bfs_tree()
    for fault in fault_universe(circuit, "transition"):
        targets = TRANSITION.activation_states(cssg, dist, fault)
        site, dest = fault.site, fault.value
        # Every target is armed (pre-transition value).
        assert all(((s >> site) & 1) != dest for s in targets)
        launching = [
            s
            for s in targets
            if any(
                ((t >> site) & 1) == dest
                for t in cssg.edges.get(s, {}).values()
            )
        ]
        if launching:  # when launch states exist, *only* those are kept
            assert launching == targets


def test_never_excited_verdicts_agree_with_full_atpg():
    """Soundness spot check: any bridging/transition fault the symbolic
    never-excited proof classifies undetectable must also be classified
    undetectable (never detected) by the exhaustive flow."""
    from repro.ext.undetectable import NEVER_EXCITED, classify_undetectable

    circuit = load_benchmark("converta", "complex")
    cssg = build_cssg(circuit)
    for model in ("bridging", "transition"):
        faults = fault_universe(circuit, model)
        classes = classify_undetectable(cssg, faults, use_symbolic=True)
        result = Flow.default().run(
            circuit, AtpgOptions(fault_model=model, seed=0), cssg=cssg
        )
        for fault in faults:
            if classes[fault].verdict == NEVER_EXCITED:
                assert result.statuses[fault].status == "undetectable", (
                    model,
                    fault.describe(circuit),
                )


def test_cli_runs_new_models_and_rejects_unknown(capsys):
    from repro.cli import main

    assert main(["dff", "--model", "bridging"]) == 0
    assert main(["dff", "--model", "transition"]) == 0
    assert main(["dff", "--model", "stuck-open"]) == 1
    err = capsys.readouterr().err
    assert "unknown fault model 'stuck-open'" in err
    assert "registered models" in err


def test_bridging_excites_requires_disagreement(celem):
    a, b = celem.index("a"), celem.index("b")
    fault = Fault("bridging", a, b, WIRED_AND)
    agree = 0  # a=0 b=0
    disagree = 1 << a
    assert not BRIDGING.excites(celem, fault, agree)
    assert BRIDGING.excites(celem, fault, disagree)
