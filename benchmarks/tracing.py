"""Spans around the calls into each clonewt module, and the per-layer
metrics derived from them.

The tracer wraps functions from outside: every module attribute that holds
a wrapped function is replaced, so calls from other modules, from the CLI
and from inside the defining module all pass through the wrapper.  A span
is ``[name, start, end, parent, count]``; spans stay in memory until the
caller takes them.
"""

from __future__ import annotations

import time
import types
from statistics import median

#: per-layer metrics, in the order BENCHMARK.json lists them
METRICS = {
    "metric.load_s": "s", "metric.loads": "count", "metric.elements_loaded": "count",
    "metric.add_clone_s": "s", "metric.add_clones": "count",
    "filtration.graphs_built": "count", "filtration.graph_build_s": "s",
    "filtration.classes_s": "s", "filtration.class_calls": "count",
    "filtration.vertex_removals": "count", "filtration.automorphisms_s": "s",
    "rules.calls": "count", "rules.s": "s", "rules.maximal_cliques_s": "s",
    "rules.cliques_enumerated": "count", "rules.max_cliques_per_graph": "count",
    "rules.entropy_calls": "count", "rules.entropy_s": "s",
    "weighting.sweeps": "count", "weighting.evaluate_all_s": "s",
    "weighting.events": "count", "weighting.self_s": "s",
    "sharing.calls": "count", "sharing.s": "s", "sharing.removals": "count",
    "sharing.rule_calls": "count",
    "euclid.s": "s", "euclid.entries": "count", "euclid.exact_1d_s": "s", "euclid.mc_s": "s",
    "euclid.mc_samples": "count", "euclid.quad_calls": "count",
    "audit.s": "s", "audit.cases": "count", "audit.attack_s": "s",
    "audit.graph_suite_s": "s", "audit.metric_suite_s": "s", "audit.conjecture_s": "s",
    "cli.self_s": "s", "cli.output_bytes": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, modules, owner, attr: str, name: str, count=None) -> None:
        """Wrap owner.attr and every module-level alias of it."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, count)
        if isinstance(owner, type):
            self._set(owner, attr, traced)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def install(self, pkg) -> None:
        """Wrap the public entry points of every clonewt module."""
        from importlib import import_module

        names = ("metric", "filtration", "rules", "weighting", "sharing", "euclid",
                 "audit", "cli")
        m = {k: import_module(f"{pkg.__name__}.{k}") for k in names}
        mods = [pkg, *m.values()]
        p = lambda owner, attr, name, count=None: self.patch(mods, owner, attr, name, count)

        p(m["metric"], "load_instance", "metric.load", lambda a, k, r: r.n)
        p(m["metric"], "add_clone", "metric.add_clone")
        graph = m["filtration"].Graph
        p(graph, "__init__", "filtration.graph")
        p(graph, "remove_vertex", "filtration.remove_vertex")
        p(m["filtration"], "equivalence_classes", "filtration.classes")
        p(m["filtration"], "quotient", "filtration.classes")
        p(m["filtration"], "automorphisms", "filtration.automorphisms")

        parse_rule = m["rules"].parse_rule

        def traced_parse_rule(spec):
            name, rule = parse_rule(spec)
            return name, self.wrap("rules.rule", rule)

        for mod in mods:
            if getattr(mod, "parse_rule", None) is parse_rule:
                self._set(mod, "parse_rule", traced_parse_rule)
        p(m["rules"], "maximal_cliques", "rules.maximal_cliques",
          lambda a, k, r: len(r.cliques))
        p(m["rules"], "w_entropy", "rules.entropy")
        p(m["weighting"], "evaluate_all", "weighting.evaluate_all")
        for fn in ("eta", "chi_graph", "private_graph", "audit_axioms"):
            p(m["sharing"], fn, "sharing.call")

        eu = m["euclid"]
        p(eu, "sharing_matrix", "euclid.matrix")
        for fn in ("g_r", "chi_gr", "f_nu", "chi_fnu"):
            p(eu, fn, "euclid.entry")
        for fn in ("_g_1d", "_chi_offdiag_1d", "_chi_diag_1d"):
            p(eu, fn, "euclid.exact_1d")
        p(eu, "_mc_ratio", "euclid.mc", lambda a, k, r: r.samples)
        quad = self.wrap("euclid.quad", eu.integrate.quad)
        self._set(eu, "integrate", types.SimpleNamespace(quad=quad))

        au = m["audit"]
        p(au, "attack", "audit.attack", lambda a, k, r: len(r.stages))
        p(au, "run_graph_suite", "audit.graph_suite", lambda a, k, r: r.graphs)
        p(au, "run_def31_suite", "audit.metric_suite", lambda a, k, r: r.instances)
        p(au, "conjecture_search", "audit.conjecture", lambda a, k, r: r.probed)
        p(au, "strict_locality_demo", "audit.demo")
        p(m["cli"], "main", "cli.main")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start afresh."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans, output_bytes: int, scale: float) -> dict[str, float]:
    """Per-layer metrics of one job's spans, times multiplied by scale."""
    groups = {}  # span name -> bit
    for rec in spans:
        groups.setdefault(rec[0], 1 << len(groups))
    anc = [0] * len(spans)  # bitmask of span names among each span's ancestors
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            anc[i] = anc[parent] | groups[spans[parent][0]]
            child_time[parent] += end - start

    def select(*names, under=None, parent=None):
        bit = sum(groups.get(n, 0) for n in names)
        want = groups.get(under, 0) if under else 0
        for i, rec in enumerate(spans):
            if rec[0] in names and (not under or anc[i] & want) and (
                parent is None or (rec[3] >= 0 and spans[rec[3]][0] == parent)
            ):
                yield i, rec, bool(anc[i] & bit)

    def busy(*names):  # time covered by these spans, nested ones counted once
        return scale * sum(r[2] - r[1] for _, r, nested in select(*names) if not nested)

    def count(*names, **kw):
        return sum(1 for _ in select(*names, **kw))

    def total(name):
        return sum(r[4] for _, r, _ in select(name))

    def self_time(name):
        return scale * sum(r[2] - r[1] - child_time[i] for i, r, _ in select(name))

    cliques = [r[4] for _, r, _ in select("rules.maximal_cliques")]
    audit = ("audit.attack", "audit.graph_suite", "audit.metric_suite", "audit.conjecture",
             "audit.demo")
    return {
        "metric.load_s": busy("metric.load"),
        "metric.loads": count("metric.load"),
        "metric.elements_loaded": total("metric.load"),
        "metric.add_clone_s": busy("metric.add_clone"),
        "metric.add_clones": count("metric.add_clone"),
        "filtration.graphs_built": count("filtration.graph"),
        "filtration.graph_build_s": busy("filtration.graph"),
        "filtration.classes_s": busy("filtration.classes"),
        "filtration.class_calls": count("filtration.classes"),
        "filtration.vertex_removals": count("filtration.remove_vertex"),
        "filtration.automorphisms_s": busy("filtration.automorphisms"),
        "rules.calls": count("rules.rule"),
        "rules.s": busy("rules.rule"),
        "rules.maximal_cliques_s": busy("rules.maximal_cliques"),
        "rules.cliques_enumerated": sum(cliques),
        "rules.max_cliques_per_graph": max(cliques, default=0),
        "rules.entropy_calls": count("rules.entropy"),
        "rules.entropy_s": busy("rules.entropy"),
        "weighting.sweeps": count("weighting.evaluate_all"),
        "weighting.evaluate_all_s": busy("weighting.evaluate_all"),
        "weighting.events": count("rules.rule", parent="weighting.evaluate_all"),
        "weighting.self_s": self_time("weighting.evaluate_all"),
        "sharing.calls": count("sharing.call"),
        "sharing.s": busy("sharing.call"),
        "sharing.removals": count("filtration.remove_vertex", under="sharing.call"),
        "sharing.rule_calls": count("rules.rule", under="sharing.call"),
        "euclid.s": busy("euclid.matrix", "euclid.entry"),
        "euclid.entries": count("euclid.entry", parent="euclid.matrix"),
        "euclid.exact_1d_s": busy("euclid.exact_1d"),
        "euclid.mc_s": busy("euclid.mc"),
        "euclid.mc_samples": total("euclid.mc"),
        "euclid.quad_calls": count("euclid.quad"),
        "audit.s": busy(*audit),
        "audit.cases": sum(total(a) for a in audit),
        "audit.attack_s": busy("audit.attack"),
        "audit.graph_suite_s": busy("audit.graph_suite"),
        "audit.metric_suite_s": busy("audit.metric_suite"),
        "audit.conjecture_s": busy("audit.conjecture"),
        "cli.self_s": self_time("cli.main"),
        "cli.output_bytes": output_bytes,
    }


def layer_shares(spans) -> dict[str, float]:
    """Exclusive seconds per layer: each span's own time minus its children,
    summed by module; the totals add up to the traced job time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + end - start - child_time[i]
    return out


def combine(jobs: list[dict[str, float]]) -> dict[str, float]:
    """A round's metrics from its jobs': sums, and the largest clique cover."""
    out = {k: sum(m[k] for m in jobs) for k in METRICS}
    out["rules.max_cliques_per_graph"] = max(m["rules.max_cliques_per_graph"] for m in jobs)
    return out


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's median over the rounds (counts repeat exactly)."""
    return {k: median(r[k] for r in rounds) for k in METRICS}
