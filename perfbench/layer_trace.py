"""Traced passes: spans around each layer's public entry points.

:class:`LayerTrace` swaps the module globals the flow calls through for
wrappers that open a span in one :class:`repro.obs.trace.Tracer` and
record the call's work counts as span attributes, then restores them.
The tracer is also made ambient, so the spans the program already emits
(``flow.run``, ``stage.*``, ``cssg.*``, ``bdd.*``) land in the same
tree.  Nothing under ``src/`` changes; untraced passes run the
unwrapped code.

:func:`layer_metrics` folds the spans of the traced passes into the
per-layer metrics, taking self times from ``Tracer.profile()`` after
relabelling every span with its layer.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Dict, List

import repro.core.exact_sim
import repro.core.three_phase
import repro.flow.flow
import repro.flow.stages
import repro.sgraph.cssg
from repro.core.atpg import resolve_cssg_method
from repro.core.three_phase import ThreePhaseGenerator
from repro.obs.trace import Tracer, set_tracer

from paper_runs import nearest_rank

#: Span names of the wrappers; each is also its layer's name.
EXPLORE = "sgraph.explore"
CSSG = "sgraph.cssg"
SYMBOLIC = "bdd"  # a symbolic CSSG build: everything under it is BDD work
THREE_PHASE = "core.three_phase"
MATERIALIZE = "circuit.faults.materialize"
UNIVERSE = "circuit.faults.universe"
RANDOM_TPG = "core.random_tpg"
FAULT_SIM = "sim.fault_sim"
WRAPPER_SPANS = {
    EXPLORE, CSSG, SYMBOLIC, THREE_PHASE, MATERIALIZE, UNIVERSE,
    RANDOM_TPG, FAULT_SIM,
}
#: The benchmark's own span around one traced pass.
PASS_SPAN = "bench.pass"


class LayerTrace:
    """Context manager: wrap the layer entry points, record into
    ``tracer``, restore everything on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: Circuit -> token for distinct (circuit, start) settle keys.
        #: Holding the circuits keeps ids from being reused within a
        #: pass; tokens keep counting across passes.
        self.circuit_ids: Dict[object, int] = {}
        self._next_circuit_id = 0
        self._saved: List[tuple] = []
        self._previous_tracer = None

    def _patch(self, owner, name: str, make_wrapper) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make_wrapper(original)))

    def __enter__(self) -> "LayerTrace":
        for module in (repro.sgraph.cssg, repro.core.exact_sim):
            self._patch(module, "settle_report", self._settle_report)
        self._patch(repro.flow.flow, "cssg_for", self._cssg_for)
        self._patch(repro.flow.flow, "fault_universe", self._fault_universe)
        self._patch(repro.flow.stages, "random_tpg", self._random_tpg)
        self._patch(repro.flow.stages, "fault_simulate", self._fault_simulate)
        self._patch(repro.core.three_phase, "materialize_fault", self._materialize)
        self._patch(ThreePhaseGenerator, "generate", self._generate)
        self._previous_tracer = set_tracer(self.tracer)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        set_tracer(self._previous_tracer)
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        self.circuit_ids.clear()

    @contextlib.contextmanager
    def pass_scope(self, seed: int):
        """Wrap the layers around one traced pass, under a pass span."""
        with self, self.tracer.span(PASS_SPAN, seed=seed):
            yield

    def _circuit_id(self, circuit) -> int:
        token = self.circuit_ids.get(circuit)
        if token is None:
            token = self.circuit_ids[circuit] = self._next_circuit_id
            self._next_circuit_id += 1
        return token

    # -- wrappers ---------------------------------------------------------

    def _settle_report(self, original):
        def settle_report(circuit, start, *args, **kwargs):
            with self.tracer.span(EXPLORE) as span:
                report = original(circuit, start, *args, **kwargs)
                span.attrs.update(
                    key=[self._circuit_id(circuit), start],
                    states=report.n_states,
                    truncated=report.truncated,
                    oscillating=report.oscillating,
                )
            return report

        return settle_report

    def _cssg_for(self, original):
        def cssg_for(circuit, opts):
            method = resolve_cssg_method(circuit, opts)
            name = SYMBOLIC if method == "symbolic" else CSSG
            with self.tracer.span(name, method=method) as span:
                cssg = original(circuit, opts)
                stats = cssg.stats
                span.attrs.update(
                    states=cssg.n_states,
                    edges=cssg.n_edges,
                    peak_nodes=stats.peak_bdd_nodes,
                    cache_hits=stats.n_cache_hits,
                    cache_lookups=stats.n_cache_lookups,
                    gc_passes=stats.n_gc_passes,
                    image_iterations=stats.n_image_iterations,
                    tcsg_states=stats.n_tcsg_states,
                )
            return cssg

        return cssg_for

    def _fault_universe(self, original):
        def fault_universe(circuit, model):
            with self.tracer.span(UNIVERSE):
                return original(circuit, model)

        return fault_universe

    def _random_tpg(self, original):
        def random_tpg(cssg, faults, *args, on_walk=None, **kwargs):
            walks = 0

            def counting_on_walk(walk_index, n_detected):
                nonlocal walks
                walks += 1
                if on_walk is not None:
                    on_walk(walk_index, n_detected)

            with self.tracer.span(RANDOM_TPG) as span:
                detected_by, tests = original(
                    cssg, faults, *args, on_walk=counting_on_walk, **kwargs
                )
                span.attrs.update(walks=walks, detected=len(detected_by))
            return detected_by, tests

        return random_tpg

    def _fault_simulate(self, original):
        def fault_simulate(cssg, faults, patterns):
            with self.tracer.span(FAULT_SIM) as span:
                credited = original(cssg, faults, patterns)
                span.attrs.update(graded=len(faults), credited=len(credited))
            return credited

        return fault_simulate

    def _materialize(self, original):
        def materialize_fault(circuit, fault):
            with self.tracer.span(MATERIALIZE):
                return original(circuit, fault)

        return materialize_fault

    def _generate(self, original):
        def generate(generator, fault, *args, **kwargs):
            with self.tracer.span(THREE_PHASE) as span:
                outcome = original(generator, fault, *args, **kwargs)
                span.attrs.update(
                    status=outcome.status,
                    fallback=outcome.semantics != generator.faulty_semantics,
                    product_states=outcome.product_states_explored,
                )
            return outcome

        return generate


# -- folding spans into metrics ---------------------------------------------


def _enclosing(record, by_id, names) -> str:
    """Name of the nearest ancestor span among ``names``, or ''."""
    parent = by_id.get(record["parent_id"])
    while parent is not None:
        if parent["name"] in names:
            return parent["name"]
        parent = by_id.get(parent["parent_id"])
    return ""


def _layer_of(record, by_id) -> str:
    """The layer a span's self time belongs to: a wrapper span is its
    own layer, the program's spans belong to the nearest enclosing
    wrapper (``cssg.traverse`` under an explicit build is CSSG work,
    under a symbolic one BDD work), and ``bdd.*`` spans to ``bdd``.
    ``flow.run`` / ``stage.*`` outside any layer are the flow's own."""
    name = record["name"]
    if name in WRAPPER_SPANS or name == PASS_SPAN:
        return name
    if name.startswith("bdd."):
        return SYMBOLIC
    return _enclosing(record, by_id, WRAPPER_SPANS) or "flow"


def layer_profile(spans: List[Dict]) -> List[Dict]:
    """``Tracer.profile()`` rows over the spans relabelled with their
    layers: calls, total and self seconds per layer."""
    by_id = {rec["span_id"]: rec for rec in spans}
    view = Tracer()
    view.spans = [dict(rec, name=_layer_of(rec, by_id)) for rec in spans]
    return view.profile()


#: Work counters the self-test requires to repeat exactly between two
#: traced passes at one seed.
WORK_COUNTERS = (
    "sgraph.explore.calls",
    "sgraph.explore.states",
    "core.three_phase.product_states",
    "sgraph.cssg.states",
    "bdd.peak_nodes",
)


def work_counters(spans: List[Dict]) -> Dict[str, float]:
    """The :data:`WORK_COUNTERS` of one traced pass."""
    metrics = layer_metrics(spans, 1)
    return {name: metrics[name] for name in WORK_COUNTERS}


def layer_metrics(spans: List[Dict], n_passes: int) -> Dict[str, float]:
    """Per-layer metrics over the traced passes' spans.  Times and
    counts are per pass; ratios and percentiles pool every call."""
    by_id = {rec["span_id"]: rec for rec in spans}
    self_s = {row["name"]: row["self_seconds"] for row in layer_profile(spans)}

    def of(name):
        return [r for r in spans if r["name"] == name]

    def per_pass(value):
        return value / n_passes

    def ratio(num, den):
        return num / den if den else 0.0

    explore = of(EXPLORE)
    explore_states = [r["attrs"]["states"] for r in explore]
    owners = [_enclosing(r, by_id, (CSSG, SYMBOLIC, THREE_PHASE)) for r in explore]
    distinct = {tuple(r["attrs"]["key"]) for r in explore}
    three_phase = of(THREE_PHASE)
    statuses = [r["attrs"]["status"] for r in three_phase]
    fault_s = [r["seconds"] for r in three_phase]
    builds = [r["attrs"] for r in spans if r["name"] in (CSSG, SYMBOLIC)]
    symbolic = [r["attrs"] for r in of(SYMBOLIC)]
    rtpg = [r["attrs"] for r in of(RANDOM_TPG)]
    fsim = [r["attrs"] for r in of(FAULT_SIM)]
    graded = sum(a["graded"] for a in fsim)
    hits = sum(a["cache_hits"] for a in symbolic)
    lookups = sum(a["cache_lookups"] for a in symbolic)
    return {
        "sgraph.explore.s": per_pass(self_s.get(EXPLORE, 0.0)),
        "sgraph.explore.calls": per_pass(len(explore)),
        "sgraph.explore.calls_cssg": per_pass(
            sum(owner in (CSSG, SYMBOLIC) for owner in owners)
        ),
        "sgraph.explore.calls_three_phase": per_pass(
            sum(owner == THREE_PHASE for owner in owners)
        ),
        "sgraph.explore.distinct_frac": ratio(len(distinct), len(explore)),
        "sgraph.explore.states": per_pass(sum(explore_states)),
        "sgraph.explore.states_p50": nearest_rank(explore_states, 50) or 0,
        "sgraph.explore.states_max": max(explore_states, default=0),
        "sgraph.explore.truncated": per_pass(
            sum(r["attrs"]["truncated"] for r in explore)
        ),
        "sgraph.explore.oscillating": per_pass(
            sum(r["attrs"]["oscillating"] for r in explore)
        ),
        "core.three_phase.s": per_pass(self_s.get(THREE_PHASE, 0.0)),
        "core.three_phase.faults": per_pass(len(three_phase)),
        "core.three_phase.detected": per_pass(statuses.count("detected")),
        "core.three_phase.undetectable": per_pass(statuses.count("undetectable")),
        "core.three_phase.aborted": per_pass(statuses.count("aborted")),
        "core.three_phase.ternary_fallbacks": per_pass(
            sum(r["attrs"]["fallback"] for r in three_phase)
        ),
        "core.three_phase.product_states": per_pass(
            sum(r["attrs"]["product_states"] for r in three_phase)
        ),
        "core.three_phase.fault_s_p50": nearest_rank(fault_s, 50) or 0.0,
        "core.three_phase.fault_s_p90": nearest_rank(fault_s, 90) or 0.0,
        "circuit.faults.materialize.calls": per_pass(len(of(MATERIALIZE))),
        "circuit.faults.materialize.s": per_pass(self_s.get(MATERIALIZE, 0.0)),
        "circuit.faults.universe.s": per_pass(self_s.get(UNIVERSE, 0.0)),
        "sgraph.cssg.s": per_pass(self_s.get(CSSG, 0.0)),
        "sgraph.cssg.calls": per_pass(len(builds)),
        "sgraph.cssg.states": per_pass(sum(a["states"] for a in builds)),
        "sgraph.cssg.edges": per_pass(sum(a["edges"] for a in builds)),
        "core.random_tpg.s": per_pass(self_s.get(RANDOM_TPG, 0.0)),
        "core.random_tpg.walks": per_pass(sum(a["walks"] for a in rtpg)),
        "core.random_tpg.detected": per_pass(sum(a["detected"] for a in rtpg)),
        "sim.fault_sim.s": per_pass(self_s.get(FAULT_SIM, 0.0)),
        "sim.fault_sim.calls": per_pass(len(fsim)),
        "sim.fault_sim.faults_graded": per_pass(graded),
        "sim.fault_sim.credit_frac": ratio(sum(a["credited"] for a in fsim), graded),
        "bdd.s": per_pass(self_s.get(SYMBOLIC, 0.0)),
        "bdd.peak_nodes": max((a["peak_nodes"] for a in symbolic), default=0),
        "bdd.cache_hit_ratio": ratio(hits, lookups),
        "bdd.gc_passes": per_pass(sum(a["gc_passes"] for a in symbolic)),
        "bdd.image_iterations": per_pass(sum(a["image_iterations"] for a in symbolic)),
        "bdd.tcsg_states": per_pass(sum(a["tcsg_states"] for a in symbolic)),
        "flow.self_s": per_pass(self_s.get("flow", 0.0)),
    }
