"""Cross-module property harness.

Four facilities share this module because they audit the same contracts
from different angles:

* :func:`run_def31_suite` checks the five metric-level axioms (positivity,
  symmetry, clone fairness, locality, continuity) with their explicit
  Lipschitz bounds on randomly generated instances, injecting clones and
  point shifts to exercise the binding cases.
* :func:`run_graph_suite` checks the two graph-level axioms (symmetry under
  automorphisms, locality under clone removal) exactly, in rational
  arithmetic, on random graphs.
* :func:`strict_locality_demo` replays the impossibility argument showing
  that "removal of any neighbour leaves distant weights unchanged" cannot
  coexist with symmetry: a symbolic constraint propagation over a growing
  spider graph ends in ``0 = 1/2``.
* :func:`conjecture_search` hunts for counterexamples to two open
  questions (non-negative sharing for clique-cover rules, negativity of
  the entropy rule's sharing coefficient).  It reports witnesses or "none
  found in budget" and never claims a proof.

:func:`attack` simulates a duplication attack end to end and compares the
observed far-element drift against the cumulative locality bound.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

import numpy as np

from .filtration import Graph, equivalence_classes, isometry_orbits, orbits
from .metric import MetricInstance, add_clone, load_instance
from .metric import random_instance as _random_instance
from .render import jsonable
from .rules import Rule, WeightVector, parse_rule
from .sharing import sharing_rows
from .weighting import MetricWeighting, evaluate_all

Number = int | float | Fraction

#: Absolute cushion added to every floating-point Lipschitz bound.
FLOAT_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Reference graphs and generators
# ---------------------------------------------------------------------------


def paw_graph() -> Graph:
    """Triangle b-c-d with a pendant vertex a attached to b.

    The smallest graph where every sharing quantity of interest is
    non-trivial: c and d are duplicates, a is the only vertex with a
    non-full neighbourhood, and removing a rescales c, d by a factor 2.
    """
    return Graph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)], labels=("a", "b", "c", "d"))


def spider_graph() -> Graph:
    """Hub d joined to three disjoint three-vertex legs a_i - b_i - c_i - d."""
    labels = ("a1", "b1", "c1", "a2", "b2", "c2", "a3", "b3", "c3", "d")
    idx = {name: i for i, name in enumerate(labels)}
    edges = []
    for i in (1, 2, 3):
        edges += [
            (idx[f"a{i}"], idx[f"b{i}"]),
            (idx[f"b{i}"], idx[f"c{i}"]),
            (idx[f"c{i}"], idx["d"]),
        ]
    return Graph.from_edges(len(labels), edges, labels=labels)


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi graph on n vertices with edge probability p."""
    if n < 1:
        raise ValueError(f"need n >= 1 vertices, got {n}")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def add_vertex_clone(graph: Graph, v: int | str, label: str | None = None) -> Graph:
    """Extend the graph by a duplicate of v (same closed neighbourhood)."""
    vi = graph.index(v)
    n = graph.n
    new_label = label if label is not None else f"{graph.labels[vi]}+"
    edges = graph.edges() + [(u, n) for u in range(n) if (graph.closed(vi) >> u) & 1]
    return Graph.from_edges(n + 1, edges, labels=graph.labels + (new_label,))


def planted_asymmetry_rule(graph: Graph) -> WeightVector:
    """Uniform weights with a deliberate index-based bias; a harness self-test.

    Vertex 0 takes a quarter-share bite out of the last vertex regardless of
    structure, so any instance with a structural symmetry exposes it.
    """
    n = graph.n
    if n == 1:
        return WeightVector((Fraction(1),), graph.labels)
    w = [Fraction(1, n)] * n
    bite = Fraction(1, 4 * n)
    w[0] += bite
    w[-1] -= bite
    return WeightVector(tuple(w), graph.labels)


# ---------------------------------------------------------------------------
# Definition-level suite (metric axioms with Lipschitz bounds)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    check: str
    rule: str
    seed: int
    context: str
    detail: str


@dataclass
class Def31Report:
    rules: tuple[str, ...]
    instances: int
    alpha: float
    checks: dict[str, int]
    violations: list[Violation]
    max_slack: dict[str, float]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_document(self) -> dict:
        return {
            "suite": "metric-axioms",
            "rules": list(self.rules),
            "instances": self.instances,
            "alpha": self.alpha,
            "checks": dict(sorted(self.checks.items())),
            "max_slack": {k: self.max_slack[k] for k in sorted(self.max_slack)},
            "violations": [vars(v) for v in self.violations],
            "passed": self.passed,
        }


def _resolve_rules(
    rules: str | Sequence[str], overrides: Mapping[str, Rule] | None
) -> list[tuple[str, Rule]]:
    names = [rules] if isinstance(rules, str) else list(rules)
    out = []
    for name in names:
        if overrides and name in overrides:
            out.append((name, overrides[name]))
        else:
            out.append((name, parse_rule(name)[1]))
    return out


def run_def31_suite(
    rules: str | Sequence[str] = ("cu",),
    *,
    instances: int = 100,
    seed: int = 0,
    alpha: Number = 1,
    n_range: tuple[int, int] = (3, 12),
    kinds: Sequence[str] = ("euclidean", "shortest_path"),
    dims: Sequence[int] = (1, 2, 3),
    clone_eps: float = 0.25,
    shift_eps: float = 0.02,
    rule_overrides: Mapping[str, Rule] | None = None,
) -> Def31Report:
    """Audit the five metric-level axioms on seeded random instances.

    Each instance is checked as-is (positivity, symmetry, fairness), then
    with an exact clone and a random approximate clone of a fixed target
    (fairness at small distance, locality of far elements), and finally --
    for point clouds -- against a uniformly jittered copy (continuity).
    Bounds use the explicit constants: fairness ``2 nu n d``, locality
    ``2 nu n d`` with the pre-addition cardinality, continuity
    ``2 nu n^2 delta`` with the realised maximum displacement.
    """
    from .weighting import Density

    density = Density.uniform(alpha)
    nu = float(density.nu_bar)
    alpha_f = float(density.alpha)
    resolved = _resolve_rules(rules, rule_overrides)
    weightings = [(name, MetricWeighting(rule, density, rule_name=name)) for name, rule in resolved]

    checks: Counter[str] = Counter()
    violations: list[Violation] = []
    max_slack = {"fairness": 0.0, "locality": 0.0, "continuity": 0.0}

    def flag(check: str, rule: str, context: str, detail: str) -> None:
        violations.append(Violation(check, rule, seed, context, detail))

    root = np.random.SeedSequence(seed)
    children = root.spawn(instances)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        sub = [int(s) for s in child.generate_state(4)]
        kind = kinds[i % len(kinds)]
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        if kind == "euclidean":
            dim = dims[i % len(dims)]
            inst = _random_instance(kind, n, sub[0], dim=dim)
        else:
            inst = _random_instance(kind, n, sub[0])
        context = f"instance {i} ({kind}, n={n}, seed={sub[0]})"
        target = n // 2

        # Derived instances and the isometry orbits of each instance are
        # shared by every rule under audit; the largest instance is a clone
        # of one with n_range[1] elements.
        base_orbits = isometry_orbits(inst, cap=n_range[1] + 1)
        cloned = []
        for eps in (0.0, float(rng.uniform(0.0, clone_eps * alpha_f))):
            inst2 = add_clone(inst, target, eps, sub[1])
            cloned.append((eps, inst2, isometry_orbits(inst2, cap=n_range[1] + 1)))
        shifted = None
        if inst.points is not None:
            direction = rng.normal(size=inst.points.shape)
            norms = np.linalg.norm(direction, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            radii = rng.uniform(0.0, shift_eps * alpha_f, size=(inst.n, 1))
            moved = inst.points + direction / norms * radii
            delta = float(np.linalg.norm(moved - inst.points, axis=1).max())
            shifted_inst = load_instance(
                {"kind": "points", "points": moved.tolist(), "labels": list(inst.labels)},
                tol=inst.tol,
            )
            shifted = (delta, shifted_inst)

        for name, mw in weightings:
            f_base = evaluate_all(inst, mw).as_floats()

            checks["positivity"] += 1
            bad = [v for v in range(inst.n) if not f_base[v] > 0.0]
            if bad:
                flag("positivity", name, context, f"non-positive weight at indices {bad}")

            def check_symmetry(sub_inst: MetricInstance, f, sub_orbits, where: str) -> None:
                # every pair within an orbit is related by some isometry, so
                # the largest gap over the whole group is an orbit's max - min
                checks["symmetry"] += 1
                for orbit in sub_orbits:
                    values = [f[v] for v in orbit]
                    gap = max(values) - min(values)
                    if gap > FLOAT_SLACK:
                        flag(
                            "symmetry",
                            name,
                            context,
                            f"{where}: f differs across the isometry orbit "
                            f"{{{', '.join(sub_inst.labels[v] for v in orbit)}}} (gap {gap!r})",
                        )

            check_symmetry(inst, f_base, base_orbits, "base")

            def check_fairness(sub_inst: MetricInstance, f, where: str) -> None:
                m = sub_inst.n
                checks["fairness"] += 1
                for x in range(m):
                    for y in range(x + 1, m):
                        gap = abs(f[x] - f[y])
                        bound = 2.0 * nu * m * float(sub_inst.dist[x, y])
                        if gap > bound + FLOAT_SLACK:
                            flag(
                                "fairness",
                                name,
                                context,
                                f"{where}: |f({sub_inst.labels[x]}) - f({sub_inst.labels[y]})|"
                                f" = {gap!r} > 2*nu*{m}*d = {bound!r}",
                            )
                        elif bound > 0.0:
                            max_slack["fairness"] = max(max_slack["fairness"], gap / bound)

            check_fairness(inst, f_base, "base")

            for eps, inst2, orbits2 in cloned:
                f2 = evaluate_all(inst2, mw).as_floats()
                check_fairness(inst2, f2, f"clone eps={eps:g}")
                check_symmetry(inst2, f2, orbits2, f"clone eps={eps:g}")

                checks["locality"] += 1
                z = inst2.n - 1  # the added element
                for x in range(inst.n):
                    d_xz = float(inst2.dist[x, z])
                    bound = 2.0 * nu * inst.n * d_xz
                    for y in range(inst.n):
                        if float(inst.dist[x, y]) < alpha_f:
                            continue
                        drift = abs(f2[y] - f_base[y])
                        if drift > bound + FLOAT_SLACK:
                            flag(
                                "locality",
                                name,
                                context,
                                f"clone eps={eps:g} of {inst.labels[target]}: far element "
                                f"{inst.labels[y]} (anchor {inst.labels[x]}) drifted {drift!r}"
                                f" > 2*nu*{inst.n}*d(x,z) = {bound!r}",
                            )
                        elif bound > 0.0:
                            max_slack["locality"] = max(max_slack["locality"], drift / bound)

            if shifted is not None:
                delta, inst3 = shifted
                checks["continuity"] += 1
                f3 = evaluate_all(inst3, mw).as_floats()
                bound = 2.0 * nu * inst.n**2 * delta
                for v in range(inst.n):
                    gap = abs(f3[v] - f_base[v])
                    if gap > bound + FLOAT_SLACK:
                        flag(
                            "continuity",
                            name,
                            context,
                            f"shift delta={delta!r}: |f({inst.labels[v]}) - f'| = {gap!r}"
                            f" > 2*nu*n^2*delta = {bound!r}",
                        )
                    elif bound > 0.0:
                        max_slack["continuity"] = max(max_slack["continuity"], gap / bound)

    return Def31Report(
        rules=tuple(name for name, _ in resolved),
        instances=instances,
        alpha=alpha_f,
        checks=dict(checks),
        violations=violations,
        max_slack=max_slack,
    )


# ---------------------------------------------------------------------------
# Graph-level suite (exact rational)
# ---------------------------------------------------------------------------


@dataclass
class GraphSuiteReport:
    rules: tuple[str, ...]
    graphs: int
    checks: dict[str, int]
    violations: list[Violation]
    max_deviation: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_document(self) -> dict:
        return {
            "suite": "graph-axioms",
            "rules": list(self.rules),
            "graphs": self.graphs,
            "checks": dict(sorted(self.checks.items())),
            "max_deviation": self.max_deviation,
            "violations": [vars(v) for v in self.violations],
            "passed": self.passed,
        }


def run_graph_suite(
    rules: str | Sequence[str] = ("cu",),
    *,
    graphs: int = 500,
    seed: int = 0,
    n_range: tuple[int, int] = (2, 8),
    edge_p: tuple[float, float] = (0.15, 0.85),
    tol: float = 0.0,
    rule_overrides: Mapping[str, Rule] | None = None,
) -> GraphSuiteReport:
    """Audit graph-level symmetry and locality on random graphs.

    Symmetry is checked on the orbits of the full automorphism group
    (exhaustive up to 8 vertices): weights must agree within each orbit.
    Locality is checked by removing each member of every duplicate class
    and comparing weights outside the class's closed neighbourhood; half
    the generated graphs get a planted duplicate so the check is exercised
    even where random graphs rarely produce one.
    ``tol`` is the permitted absolute deviation: leave it at 0 for rational
    rules, set it to ten times the solver tolerance for the entropy rule.
    """
    resolved = _resolve_rules(rules, rule_overrides)
    checks: Counter[str] = Counter()
    violations: list[Violation] = []
    max_dev = 0.0

    def off(a, b) -> Fraction | float:
        if isinstance(a, Rational) and isinstance(b, Rational):
            return abs(Fraction(a) - Fraction(b))
        return abs(float(a) - float(b))

    root = np.random.SeedSequence(seed)
    for g_index, child in enumerate(root.spawn(graphs)):
        rng = np.random.default_rng(child)
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        p = float(rng.uniform(*edge_p))
        graph = random_graph(n, p, rng)
        if n < n_range[1] and rng.random() < 0.5:
            graph = add_vertex_clone(graph, int(rng.integers(0, n)))
        context = f"graph {g_index} (n={graph.n}, p={p:.3f})"

        # every pair within an orbit is related by some automorphism, so the
        # largest gap over the whole group is the largest orbit's max - min
        nontrivial_orbits = [
            orbit
            for orbit in orbits(graph, cap=max(8, n_range[1] + 1))
            if len(orbit) > 1
        ]
        classes = equivalence_classes(graph)

        for name, rule in resolved:
            w = rule(graph)

            checks["symmetry"] += 1
            for orbit in nontrivial_orbits:
                values = [w[v] for v in orbit]
                dev = off(max(values), min(values))
                max_dev = max(max_dev, float(dev))
                if dev > tol:
                    violations.append(
                        Violation(
                            "symmetry",
                            name,
                            seed,
                            context,
                            "w differs across the automorphism orbit "
                            f"{{{', '.join(graph.labels[v] for v in orbit)}}} "
                            f"(gap {float(dev)!r})",
                        )
                    )

            for members in classes.classes:
                if len(members) < 2:
                    continue
                checks["locality"] += 1
                for z in members:
                    sub = graph.remove_vertex(z)
                    w_sub = rule(sub)
                    outside = [
                        y for y in range(graph.n) if not (graph.closed(z) >> y) & 1
                    ]
                    for y in outside:
                        dev = off(w[y], w_sub[graph.labels[y]])
                        max_dev = max(max_dev, float(dev))
                        if dev > tol:
                            violations.append(
                                Violation(
                                    "locality",
                                    name,
                                    seed,
                                    context,
                                    f"removing duplicate {graph.labels[z]} moved "
                                    f"w({graph.labels[y]}) by {float(dev)!r}",
                                )
                            )

    return GraphSuiteReport(
        rules=tuple(name for name, _ in resolved),
        graphs=graphs,
        checks=dict(checks),
        violations=violations,
        max_deviation=max_dev,
    )


# ---------------------------------------------------------------------------
# Symbolic linear constraint engine
# ---------------------------------------------------------------------------


class Contradiction(RuntimeError):
    """An equation reduced to an impossible constant identity."""


class LinExpr:
    """Immutable linear expression c0 + sum(c_i * s_i) over named symbols."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[str, Fraction] | None = None, const: Number = 0):
        self.coeffs = {s: Fraction(c) for s, c in (coeffs or {}).items() if c != 0}
        self.const = Fraction(const)

    @classmethod
    def constant(cls, value: Number) -> "LinExpr":
        return cls({}, value)

    @classmethod
    def symbol(cls, name: str) -> "LinExpr":
        return cls({name: Fraction(1)})

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinExpr") -> "LinExpr":
        coeffs = dict(self.coeffs)
        for s, c in other.coeffs.items():
            coeffs[s] = coeffs.get(s, Fraction(0)) + c
        return LinExpr(coeffs, self.const + other.const)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + other.scaled(-1)

    def scaled(self, factor: Number) -> "LinExpr":
        f = Fraction(factor)
        return LinExpr({s: c * f for s, c in self.coeffs.items()}, self.const * f)

    def substitute(self, name: str, value: "LinExpr") -> "LinExpr":
        if name not in self.coeffs:
            return self
        coeffs = dict(self.coeffs)
        factor = coeffs.pop(name)
        return LinExpr(coeffs, self.const) + value.scaled(factor)


class LinearSystem:
    """Gaussian-style propagation for equations over non-negative symbols.

    Symbols stand for weights of a probability distribution, so every
    symbol is implicitly >= 0.  That premise powers the two deductions a
    plain linear solve cannot make: an equation ``sum of same-sign terms =
    0`` forces every symbol in it to zero, and ``sum of same-sign terms =
    opposite-sign constant`` is flatly impossible.  Eliminations pivot on
    the most recently created symbol so long-lived symbols survive as the
    free parameters of the final answer.
    """

    def __init__(self) -> None:
        self._order: dict[str, int] = {}
        self.solved: dict[str, LinExpr] = {}
        self.events: list[str] = []

    def symbol(self, name: str) -> LinExpr:
        if name in self._order:
            raise ValueError(f"symbol {name!r} already exists")
        self._order[name] = len(self._order)
        return LinExpr.symbol(name)

    def reduce(self, e: LinExpr) -> LinExpr:
        for name in list(e.coeffs):
            if name in self.solved:
                e = e.substitute(name, self.solved[name])
        return e

    def render(self, e: LinExpr) -> str:
        e = self.reduce(e)
        if e.is_constant:
            return str(e.const)
        parts = [str(e.const)] if e.const != 0 else []
        for name in sorted(e.coeffs, key=self._order.__getitem__):
            c = e.coeffs[name]
            term = name if abs(c) == 1 else f"{abs(c)}*{name}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def _bind(self, name: str, value: LinExpr, reason: str) -> None:
        self.solved[name] = value
        for other, expr in self.solved.items():
            if other != name and name in expr.coeffs:
                self.solved[other] = expr.substitute(name, value)
        self.events.append(f"{reason}: {name} = {self.render(value)}")

    def assert_eq(self, lhs: LinExpr, rhs: LinExpr | Number, reason: str) -> bool:
        """Impose lhs = rhs; returns True if any symbol got determined."""
        if not isinstance(rhs, LinExpr):
            rhs = LinExpr.constant(rhs)
        left, right = self.reduce(lhs), self.reduce(rhs)
        e = left - right
        if e.is_constant:
            if e.const == 0:
                return False
            raise Contradiction(
                f"{reason}: requires {self.render(left)} = {self.render(right)}, "
                "which is impossible"
            )

        positive = all(c > 0 for c in e.coeffs.values())
        negative = all(c < 0 for c in e.coeffs.values())
        if (positive or negative) and e.const == 0:
            names = sorted(e.coeffs, key=self._order.__getitem__)
            self.events.append(
                f"{reason}: {self.render(left)} = {self.render(right)} and weights are "
                f"non-negative, forcing {', '.join(names)} = 0"
            )
            for name in names:
                self._bind(name, LinExpr.constant(0), reason)
            return True
        if (positive and e.const > 0) or (negative and e.const < 0):
            raise Contradiction(
                f"{reason}: requires {self.render(left)} = {self.render(right)}, "
                "impossible for non-negative weights"
            )

        pivot = max(e.coeffs, key=self._order.__getitem__)
        factor = e.coeffs[pivot]
        rest = LinExpr(
            {s: c for s, c in e.coeffs.items() if s != pivot}, e.const
        ).scaled(Fraction(-1, 1) / factor)
        self._bind(pivot, rest, reason)
        return True


# ---------------------------------------------------------------------------
# Impossibility demo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DemoStage:
    name: str
    graph: Graph
    protected: tuple[str, ...]
    values: Mapping[str, str]
    numeric: Mapping[str, Fraction | None]
    events: tuple[str, ...]


@dataclass(frozen=True)
class DemoTrace:
    stages: tuple[DemoStage, ...]
    contradiction: str | None

    @property
    def refuted(self) -> bool:
        return self.contradiction is not None

    def to_document(self) -> dict:
        return {
            "suite": "strict-locality-demo",
            "refuted": self.refuted,
            "contradiction": self.contradiction,
            "stages": [
                {
                    "name": s.name,
                    "vertices": list(s.graph.labels),
                    "edges": [
                        [s.graph.labels[a], s.graph.labels[b]] for a, b in s.graph.edges()
                    ],
                    "protected": list(s.protected),
                    "values": dict(s.values),
                    "numeric": {k: jsonable(v) for k, v in s.numeric.items()},
                    "events": list(s.events),
                }
                for s in self.stages
            ],
        }


_DEMO_STAGES: tuple[tuple[str, str | None], ...] = (
    ("single path a1-b1-c1-d", None),
    ("add c2", "c2"),
    ("add b2", "b2"),
    ("add a2", "a2"),
    ("add c3", "c3"),
    ("add b3", "b3"),
    ("add a3", "a3"),
)

_DEMO_EDGES: dict[str, tuple[str, ...]] = {
    "a1": ("b1",),
    "b1": ("c1",),
    "c1": ("d",),
    "c2": ("d",),
    "b2": ("c2",),
    "a2": ("b2",),
    "c3": ("d",),
    "b3": ("c3",),
    "a3": ("b3",),
}


def _demo_graph(vertices: Sequence[str]) -> Graph:
    idx = {name: i for i, name in enumerate(vertices)}
    edges = [
        (idx[u], idx[v])
        for u in vertices
        for v in _DEMO_EDGES.get(u, ())
        if v in idx
    ]
    return Graph.from_edges(len(vertices), edges, labels=tuple(vertices))


def strict_locality_demo() -> DemoTrace:
    """Refute "removing any neighbour never moves distant weights".

    The candidate axiom: for all vertices x, y, z with y in N[x] and z
    outside N[x], w(G)(z) = w(G - y)(z).  Starting from a single path and
    re-attaching the spider's legs one vertex at a time, each addition
    transfers every weight the axiom protects, symmetry equates orbit
    members, normalisation pins the rest.  On the full spider the forced
    values collide with the path's normalisation: the trace ends in an
    impossible constant identity.
    """
    system = LinearSystem()
    stages: list[DemoStage] = []
    contradiction: str | None = None

    vertices: list[str] = ["a1", "b1", "c1", "d"]
    values: dict[str, LinExpr] = {}
    path_symbols = {"a1": "w1", "b1": "w2", "c1": "w3", "d": "w4"}

    for stage_index, (stage_name, new_vertex) in enumerate(_DEMO_STAGES):
        event_mark = len(system.events)
        if new_vertex is None:
            for label in vertices:
                values[label] = system.symbol(path_symbols[label])
            protected: tuple[str, ...] = ()
        else:
            vertices.append(new_vertex)
            graph_now = _demo_graph(vertices)
            u = graph_now.index(new_vertex)
            protected_set: set[str] = set()
            for x in graph_now.neighbors(u):
                n_x = graph_now.closed(x)
                protected_set.update(
                    graph_now.labels[z] for z in range(graph_now.n) if not (n_x >> z) & 1
                )
            protected_set.discard(new_vertex)
            protected = tuple(label for label in vertices if label in protected_set)
            system.events.append(
                f"{stage_name}: weights of {', '.join(protected)} carry over unchanged"
            )
            fresh = [label for label in vertices if label not in protected_set]
            for label in fresh:
                values[label] = system.symbol(f"w{stage_index + 1}({label})")

        graph = _demo_graph(vertices)
        try:
            for _ in range(50):
                changed = False
                total = LinExpr.constant(0)
                for label in vertices:
                    total = total + values[label]
                changed |= system.assert_eq(total, 1, "normalisation")
                for orbit in orbits(graph, cap=12):
                    rep = orbit[0]
                    for v in orbit[1:]:
                        changed |= system.assert_eq(
                            values[graph.labels[v]],
                            values[graph.labels[rep]],
                            f"symmetry {graph.labels[v]} ~ {graph.labels[rep]}",
                        )
                if not changed:
                    break
        except Contradiction as exc:
            contradiction = str(exc)
            system.events.append(f"contradiction: {exc}")

        reduced = {label: system.reduce(values[label]) for label in vertices}
        stages.append(
            DemoStage(
                name=stage_name,
                graph=graph,
                protected=protected,
                values={label: system.render(e) for label, e in reduced.items()},
                numeric={
                    label: (e.const if e.is_constant else None) for label, e in reduced.items()
                },
                events=tuple(system.events[event_mark:]),
            )
        )
        if contradiction is not None:
            break

    return DemoTrace(stages=tuple(stages), contradiction=contradiction)


# ---------------------------------------------------------------------------
# Conjecture search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureWitness:
    rule: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    pair: tuple[str, str]
    value: str

    def to_document(self) -> dict:
        return {
            "rule": self.rule,
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
            "pair": list(self.pair),
            "value": self.value,
        }


@dataclass
class ConjectureReport:
    target: str
    budget: int
    probed: int
    skipped: int
    witnesses: list[ConjectureWitness]
    note: str

    def to_document(self) -> dict:
        return {
            "suite": "conjecture-search",
            "target": self.target,
            "budget": self.budget,
            "probed": self.probed,
            "skipped": self.skipped,
            "witnesses": [w.to_document() for w in self.witnesses],
            "note": self.note,
        }


def _chi_float(
    graph: Graph, x: int, tol: float, w: list[float], w_sub: dict[str, float]
) -> dict[int, float] | None:
    """Sharing row of x in float arithmetic, or None if rescaling is unclear.

    ``w`` is w(G) and ``w_sub`` is w(G - x) by label, as floats.  Mirrors
    the exact construction: eta is the common ratio by which non-neighbours
    rescale when x is removed; chi(x, y) compares y's rescaled post-removal
    weight with its original weight.
    """
    outside = [y for y in range(graph.n) if not (graph.closed(x) >> y) & 1]
    ratios = []
    for y in outside:
        before = w[y]
        if before <= tol:
            continue
        ratios.append(w_sub[graph.labels[y]] / before)
    if ratios:
        lo, hi = min(ratios), max(ratios)
        if hi - lo > 100.0 * tol * max(1.0, hi):
            return None
        scale = sum(ratios) / len(ratios)
    else:
        scale = 1.0
    if scale <= 0.0:
        return None

    out: dict[int, float] = {}
    for y in range(graph.n):
        if y == x:
            continue
        if (graph.closed(x) >> y) & 1:
            out[y] = w_sub[graph.labels[y]] / scale - w[y]
        else:
            out[y] = 0.0
    return out


def conjecture_search(
    target: str,
    budget: int,
    seed: int,
    *,
    n_range: tuple[int, int] = (4, 7),
    tol: float = 1e-8,
) -> ConjectureReport:
    """Random-graph hunt for counterexamples to the two open questions.

    ``mcc_axiom2`` looks for a negative sharing coefficient under the
    clique-cover rules (evidence that no such rule keeps sharing
    non-negative); ``entropy_negative_chi`` looks for a negative sharing
    coefficient under the entropy rule (none is expected).  The reference
    four-vertex graph is probed first, then seeded random graphs, one
    budget unit each.  Findings are evidence only: the search never claims
    a proof.
    """
    if target not in ("mcc_axiom2", "entropy_negative_chi"):
        raise ValueError(
            f"unknown target {target!r}; use 'mcc_axiom2' or 'entropy_negative_chi'"
        )

    witnesses: list[ConjectureWitness] = []
    skipped = 0
    probed = 0
    rng = np.random.default_rng(seed)

    def graph_stream():
        yield paw_graph()
        while True:
            n = int(rng.integers(n_range[0], n_range[1] + 1))
            g = random_graph(n, float(rng.uniform(0.2, 0.8)), rng)
            if n < n_range[1] and rng.random() < 0.5:
                g = add_vertex_clone(g, int(rng.integers(0, n)))
            yield g

    def labelled_edges(graph: Graph) -> tuple[tuple[str, str], ...]:
        return tuple((graph.labels[a], graph.labels[b]) for a, b in graph.edges())

    def probe_mcc(graph: Graph) -> None:
        nonlocal skipped
        edges = labelled_edges(graph)
        for rule_name, rule in mcc_rules:
            rows = sharing_rows(graph, rule)
            for x, row in enumerate(rows):
                if not graph.nbrs[x]:
                    continue
                if row.chi is None:
                    skipped += 1
                    continue
                for y in graph.neighbors(x):
                    value = row.chi[y]
                    if value < 0:
                        witnesses.append(
                            ConjectureWitness(
                                rule=rule_name,
                                vertices=graph.labels,
                                edges=edges,
                                pair=(graph.labels[x], graph.labels[y]),
                                value=str(value),
                            )
                        )

    def probe_entropy(graph: Graph) -> None:
        nonlocal skipped
        if graph.n > 6:
            return
        edges = labelled_edges(graph)
        w = [float(v) for v in entropy_rule(graph)]
        # the rule reads only the adjacency, so removals that leave the same
        # bitmasks under other labels (the paw without c or without d) share
        # one solve; the memo lives for this graph only
        solved: dict[tuple[int, ...], list[float]] = {}
        for x in range(graph.n):
            sub = graph.remove_vertex(x)
            if sub.nbrs not in solved:
                solved[sub.nbrs] = [float(v) for v in entropy_rule(sub)]
            row = _chi_float(graph, x, tol, w, dict(zip(sub.labels, solved[sub.nbrs])))
            if row is None:
                skipped += 1
                continue
            for y, value in row.items():
                if value < -10.0 * tol:
                    witnesses.append(
                        ConjectureWitness(
                            rule="entropy",
                            vertices=graph.labels,
                            edges=edges,
                            pair=(graph.labels[x], graph.labels[y]),
                            value=repr(value),
                        )
                    )

    if target == "mcc_axiom2":
        mcc_rules = [(name, parse_rule(name)[1]) for name in ("mcca", "mccp")]
        probe = probe_mcc
    else:
        entropy_rule = parse_rule("entropy")[1]
        probe = probe_entropy
    for graph in itertools.islice(graph_stream(), budget):
        probed += 1
        probe(graph)

    if witnesses:
        note = (
            f"{len(witnesses)} negative sharing value(s) found for the tested rules; "
            "evidence only, the general question stays open"
        )
    else:
        note = f"no counterexample in {probed} graphs probed; this is not a proof"
    return ConjectureReport(
        target=target,
        budget=budget,
        probed=probed,
        skipped=skipped,
        witnesses=witnesses,
        note=note,
    )


# ---------------------------------------------------------------------------
# Duplication attack simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackStage:
    clone_label: str
    realized_distance: Number
    bound_increment: Number
    cumulative_bound: Number
    max_far_drift: Number
    family_mass: Number
    uniform_family_mass: Number


@dataclass
class AttackReport:
    target: str
    alpha: Number
    k: int
    eps: Number
    exact: bool
    far_labels: tuple[str, ...]
    stages: tuple[AttackStage, ...]
    final_drift: dict[str, Number]
    max_far_drift: Number
    cumulative_bound: Number

    @property
    def within_bound(self) -> bool:
        return float(self.max_far_drift) <= float(self.cumulative_bound) + FLOAT_SLACK

    def to_document(self) -> dict:
        return {
            "suite": "duplication-attack",
            "target": self.target,
            "alpha": jsonable(self.alpha),
            "clones": self.k,
            "eps": jsonable(self.eps),
            "exact": self.exact,
            "far_elements": list(self.far_labels),
            "stages": [
                {
                    "clone": s.clone_label,
                    "distance": jsonable(s.realized_distance),
                    "bound_increment": jsonable(s.bound_increment),
                    "cumulative_bound": jsonable(s.cumulative_bound),
                    "max_far_drift": jsonable(s.max_far_drift),
                    "family_mass": jsonable(s.family_mass),
                    "uniform_family_mass": jsonable(s.uniform_family_mass),
                }
                for s in self.stages
            ],
            "final_drift": {k: jsonable(v) for k, v in self.final_drift.items()},
            "max_far_drift": jsonable(self.max_far_drift),
            "cumulative_bound": jsonable(self.cumulative_bound),
            "within_bound": self.within_bound,
        }


def attack(
    inst: MetricInstance,
    target: int | str,
    k: int,
    eps: Number,
    mw: MetricWeighting,
    seed: int,
    *,
    exact: bool = False,
) -> AttackReport:
    """Inject k approximate clones of the target and report the fallout.

    After each clone the full weighting is recomputed; every element at
    distance >= alpha from the target is tracked against the cumulative
    locality bound sum_i 2*nu*|S_i|*d(target, clone_i) (|S_i| counted
    before each addition).  The uniform rule's target-family mass is
    recorded alongside for contrast: that rule gives every element 1/|S|,
    so it rewards duplication with mass (1+i)/(n+i) after i clones.
    """
    if k < 0:
        raise ValueError(f"clone count must be non-negative, got {k}")
    ti = inst.index(target)
    target_label = inst.labels[ti]
    alpha = mw.density.alpha if exact else float(mw.density.alpha)
    nu = mw.density.nu_bar if exact else float(mw.density.nu_bar)

    def dist(of: MetricInstance, i: int, j: int) -> Number:
        return of.d_exact(i, j) if exact else float(of.dist[i, j])

    far_idx = [z for z in range(inst.n) if z != ti and dist(inst, ti, z) >= alpha]
    far_labels = tuple(inst.labels[z] for z in far_idx)

    base = evaluate_all(inst, mw, exact=exact)
    zero = Fraction(0) if exact else 0.0
    current = inst
    family = [target_label]
    stages: list[AttackStage] = []
    cumulative = zero
    overall_drift = zero
    last = base

    children = np.random.SeedSequence(seed).spawn(max(k, 1))
    for i in range(1, k + 1):
        clone_label = f"{target_label}~{i}"
        pre_n = current.n
        current = add_clone(
            current, target_label, eps, int(children[i - 1].generate_state(1)[0]),
            label=clone_label,
        )
        family.append(clone_label)
        new_idx = current.n - 1
        d_clone = dist(current, current.index(target_label), new_idx)
        increment = 2 * nu * pre_n * d_clone
        cumulative += increment

        last = evaluate_all(current, mw, exact=exact)
        drift = max((abs(last[z] - base[z]) for z in far_labels), default=zero)
        overall_drift = max(overall_drift, drift)

        stages.append(
            AttackStage(
                clone_label=clone_label,
                realized_distance=d_clone,
                bound_increment=increment,
                cumulative_bound=cumulative,
                max_far_drift=drift,
                family_mass=sum(last[m] for m in family),
                uniform_family_mass=Fraction(1 + i, current.n) if exact else (1 + i) / current.n,
            )
        )

    return AttackReport(
        target=target_label,
        alpha=alpha,
        k=k,
        eps=eps if exact else float(eps),
        exact=exact,
        far_labels=far_labels,
        stages=tuple(stages),
        final_drift={z: abs(last[z] - base[z]) for z in far_labels},
        max_far_drift=overall_drift,
        cumulative_bound=cumulative,
    )
