"""Graph weighting rules: values, grammar, and the duplicate axioms.

The class-uniform rule and the two clique rules have hand-derived values
on the triangle-with-pendant graph; those ledger numbers are frozen here
and asserted exactly.  Property tests confirm that every registered rule
produces a positive probability vector and that the lifted uniform rule
coincides with class-uniform on arbitrary graphs.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonewt import (
    CapExceeded,
    Graph,
    WeightVector,
    clique_partitions,
    graph_entropy,
    graph_entropy_certificate,
    lift_quotient,
    maximal_cliques,
    parse_rule,
    registry_names,
    rule_is_rational,
    smooth,
    w_cu,
    w_degree,
    w_entropy,
    w_mcca,
    w_mccp,
    w_uniform,
)
from clonewt.audit import (
    ConjectureReport,
    ConjectureWitness,
    _chi_float,
    add_vertex_clone,
    conjecture_search,
    paw_graph,
    random_graph,
)
from clonewt import rules
from clonewt.filtration import _bits, equivalence_classes
from clonewt.rules import _maximal_clique_masks

import numpy as np
from scipy import optimize


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


@st.composite
def graphs(draw, max_n=8):
    """Random graphs with an optional planted duplicate pair."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    p = draw(st.floats(min_value=0.1, max_value=0.9))
    rng = np.random.default_rng(seed)
    return random_graph(n, p, rng)


class TestWeightVector:
    def test_rejects_a_negative_entry(self):
        half = Fraction(1, 2)
        with pytest.raises(ValueError, match="negative weight"):
            WeightVector((half, half, Fraction(1, 3), Fraction(-1, 3)), ("a", "b", "c", "d"))
        with pytest.raises(ValueError, match="negative weight"):
            WeightVector((1.5, -0.5), ("a", "b"))

    def test_rejects_an_exact_sum_just_above_one(self):
        third = Fraction(1, 3)
        bump = Fraction(1, 10**40)
        with pytest.raises(ValueError, match="exact weights sum to") as err:
            WeightVector((third, third, third + bump), ("a", "b", "c"))
        assert str(1 + bump) in str(err.value)

    def test_shared_and_integer_values(self):
        quarter = Fraction(1, 4)
        assert WeightVector((quarter,) * 4, tuple("abcd")).exact
        assert WeightVector((1, 0), ("a", "b")).exact
        with pytest.raises(ValueError, match="exact weights sum to 2"):
            WeightVector((1, 1), ("a", "b"))


class TestClassUniform:
    def test_paw_ledger(self, paw):
        assert list(w_cu(paw)) == [
            Fraction(1, 3),
            Fraction(1, 3),
            Fraction(1, 6),
            Fraction(1, 6),
        ]

    def test_eight_vertex_ledger(self, g8):
        assert list(w_cu(g8)) == [
            Fraction(1, 15), Fraction(1, 15), Fraction(1, 15), Fraction(1, 5),
            Fraction(1, 10), Fraction(1, 10), Fraction(1, 5), Fraction(1, 5),
        ]

    def test_complete_graph_is_uniform(self):
        assert list(w_cu(complete_graph(4))) == [Fraction(1, 4)] * 4

    def test_single_vertex(self):
        assert list(w_cu(empty_graph(1))) == [Fraction(1)]

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_positive_and_normalized(self, g):
        w = w_cu(g)
        assert all(v > 0 for v in w)
        assert sum(w) == Fraction(1)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_lifted_uniform_matches_class_uniform(self, g):
        """Splitting the quotient's uniform weights across classes is the
        class-uniform rule, exactly, on every graph."""
        assert list(lift_quotient(w_uniform)(g)) == list(w_cu(g))


class TestCliqueRules:
    def test_paw_mcca(self, paw):
        assert list(w_mcca(paw)) == [
            Fraction(1, 4),
            Fraction(5, 12),
            Fraction(1, 6),
            Fraction(1, 6),
        ]

    def test_paw_mccp(self, paw):
        assert list(w_mccp(paw)) == [
            Fraction(1, 3),
            Fraction(4, 15),
            Fraction(1, 5),
            Fraction(1, 5),
        ]

    def test_complete_graph(self):
        for rule in (w_mcca, w_mccp):
            assert list(rule(complete_graph(5))) == [Fraction(1, 5)] * 5

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_positive_and_normalized(self, g):
        for rule in (w_mcca, w_mccp):
            w = rule(g)
            assert all(v > 0 for v in w), f"nonpositive weight from {rule.__name__}"
            assert sum(w) == Fraction(1)


class TestMaximalCliques:
    def test_paw(self, paw):
        cover = maximal_cliques(paw)
        assert cover.cliques == ((0, 1), (1, 2, 3))
        assert cover.membership == (1, 2, 1, 1)

    def test_participation_counts_fractional_membership(self, paw):
        cover = maximal_cliques(paw)
        # P_K = sum over v in K of 1/c_v
        assert cover.participation == (Fraction(3, 2), Fraction(5, 2))

    def test_triangle_free_graph_lists_edges(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert maximal_cliques(g).cliques == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_isolated_vertices_are_their_own_clique(self):
        assert maximal_cliques(empty_graph(3)).cliques == ((0,), (1,), (2,))

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_every_clique_is_maximal_and_covers(self, g):
        cover = maximal_cliques(g)
        seen = set()
        for clique in cover.cliques:
            seen.update(clique)
            for u in clique:
                for v in clique:
                    assert u == v or g.has_edge(u, v)
            outside = [w for w in range(g.n) if w not in clique]
            for w in outside:
                assert not all(g.has_edge(w, u) for u in clique), (
                    f"clique {clique} not maximal, {w} extends it"
                )
        assert seen == set(range(g.n))


class TestCliquePartitions:
    def test_paw_partitions(self, paw):
        parts = list(clique_partitions(paw))
        # {ab, cd}, {ab, c, d}, {a, bcd}, {a, bc, d}, {a, bd, c},
        # {a, b, cd}, {a, b, c, d}
        assert len(parts) == 7

    def test_minimum_size_realized(self, paw):
        # realized by {ab, cd} and {a, bcd}
        assert min(len(p) for p in clique_partitions(paw)) == 2

    def test_cap(self):
        with pytest.raises(CapExceeded, match="partition_vertices"):
            clique_partitions(complete_graph(13))


class TestEntropyRule:
    def test_paw_maximizer(self, paw):
        h = w_entropy(paw)
        np.testing.assert_allclose(
            [float(v) for v in h], [0.5, 0.0, 0.25, 0.25], atol=1e-6
        )

    def test_paw_entropy_certified(self, paw):
        h = w_entropy(paw)
        value, partition = graph_entropy_certificate(paw, h)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert partition == ((0, 1), (2, 3))

    def test_complete_graph_has_zero_entropy(self):
        g = complete_graph(4)
        assert graph_entropy(g, w_uniform(g)) == pytest.approx(0.0, abs=1e-12)

    def test_empty_graph_entropy_is_log_n(self):
        g = empty_graph(4)
        assert graph_entropy(g, w_uniform(g)) == pytest.approx(2.0)

    def test_certificate_agrees_with_direct_value(self, g8):
        h = w_entropy(g8, tol=1e-9)
        direct = graph_entropy(g8, h)
        certified, _ = graph_entropy_certificate(g8, h)
        assert certified == pytest.approx(direct, abs=1e-7)


class TestCombinators:
    def test_smooth_spreads_mass_over_closed_neighborhoods(self, paw):
        """One lazy-walk step: each y sends base(y)/(1+deg(y)) to all of N[y].

        Hand computation on the paw from w_cu = (1/3, 1/3, 1/6, 1/6):
        a keeps 1/6 and gets 1/12 from b; b collects 1/6 + 1/12 + 2*(1/18).
        """
        s = smooth(w_cu)(paw)
        assert list(s) == [
            Fraction(1, 4),
            Fraction(13, 36),
            Fraction(7, 36),
            Fraction(7, 36),
        ]

    def test_smooth_matches_direct_spreading(self, g8):
        w = w_cu(g8)
        s = smooth(w_cu)(g8)
        received = [Fraction(0)] * g8.n
        for y in range(g8.n):
            share = w[y] / (1 + g8.degree(y))
            for x in (y, *g8.neighbors(y)):
                received[x] += share
        assert list(s) == received

    def test_smooth_keeps_normalization(self, g8):
        assert sum(smooth(w_mccp)(g8)) == Fraction(1)


# ---------------------------------------------------------------------------
# Differential tests: the integer-arithmetic clique and smoothing rules
# against their definitions, one Fraction per (clique, member) or
# (x, y in N[x]) pair.


def reference_mcca(graph: Graph) -> list[Fraction]:
    cliques = maximal_cliques(graph).cliques
    values = [Fraction(0)] * graph.n
    for clique in cliques:
        share = Fraction(1, len(cliques) * len(clique))
        for v in clique:
            values[v] += share
    return values


def reference_mccp(graph: Graph) -> list[Fraction]:
    cover = maximal_cliques(graph)
    k = len(cover.cliques)
    values = [Fraction(0)] * graph.n
    for clique in cover.cliques:
        part = sum(Fraction(1, cover.membership[u]) for u in clique)
        for v in clique:
            values[v] += Fraction(1, k) / (cover.membership[v] * part)
    return values


def reference_smooth(base_w: WeightVector, graph: Graph) -> list:
    values = []
    for x in range(graph.n):
        acc = Fraction(0) if base_w.exact else 0.0
        for y in _bits(graph.closed(x)):
            acc += base_w[y] / (1 + graph.degree(y))
        values.append(acc)
    return values


def reference_clique_masks(nbrs, cap: int) -> list[int]:
    """Bron-Kerbosch with the pivot chosen by ``max`` (ties to the lowest
    index) and candidates walked by a generator."""
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            if len(out) > cap:
                raise CapExceeded("maximal-clique enumeration", "cliques", cap)
            return
        u = max(_bits(p | x), key=lambda v: (p & nbrs[v]).bit_count())
        for v in _bits(p & ~nbrs[u]):
            bit = 1 << v
            expand(r | bit, p & nbrs[v], x & nbrs[v])
            p &= ~bit
            x |= bit

    if nbrs:
        expand(0, (1 << len(nbrs)) - 1, 0)
    return out


def differential_graphs() -> list[Graph]:
    """Seeded random graphs of 1-12 vertices (some with planted twins) plus
    the edgeless, complete, disconnected and paw graphs."""
    out = []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 12
        g = random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
        while g.n < 12 and rng.random() < 0.4:
            g = add_vertex_clone(g, int(rng.integers(g.n)), label=f"c{g.n}")
        out.append(g)
    out += [empty_graph(1), empty_graph(6), complete_graph(7)]
    out.append(Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)]))
    out.append(Graph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)]))
    return out


class TestIntegerArithmeticRules:
    @pytest.mark.parametrize(
        "rule, reference",
        [
            (w_mcca, reference_mcca),
            (w_mccp, reference_mccp),
            (smooth(w_cu), lambda g: reference_smooth(w_cu(g), g)),
            (smooth(w_mccp), lambda g: reference_smooth(w_mccp(g), g)),
            (smooth(w_uniform), lambda g: reference_smooth(w_uniform(g), g)),
        ],
        ids=["mcca", "mccp", "smooth:cu", "smooth:mccp", "smooth:uniform"],
    )
    def test_equal_fractions_to_the_definition(self, rule, reference):
        for g in differential_graphs():
            got = rule(g).values
            assert all(type(v) is Fraction for v in got)
            assert list(got) == reference(g), f"{g}"

    @pytest.mark.parametrize("rule", [w_mcca, smooth(w_cu), smooth(w_mccp)])
    def test_equal_values_share_one_object(self, rule):
        for g in differential_graphs():
            values = rule(g).values
            assert len({id(v) for v in values}) == len(set(values))

    def test_float_base_smooths_bit_for_bit(self):
        """A float-valued base is smoothed by the per-vertex float loop's
        additions in the same order, so every bit agrees."""
        for seed, g in enumerate(differential_graphs()):
            raw = np.random.default_rng(seed).uniform(0.01, 1.0, g.n)
            floats = tuple((raw / raw.sum()).tolist())

            def base(graph, floats=floats):
                return WeightVector(floats, graph.labels)

            got = smooth(base)(g).values
            want = reference_smooth(base(g), g)
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_integer_valued_base_smooths_to_fractions(self, paw):
        def point_mass(graph):
            return WeightVector((1,) + (0,) * (graph.n - 1), graph.labels)

        s = smooth(point_mass)(paw)
        assert s.exact
        assert list(s) == [Fraction(1, 2), Fraction(1, 2), 0, 0]

    def test_clique_enumeration_order_is_unchanged(self):
        for g in differential_graphs():
            assert _maximal_clique_masks(g.nbrs, 10**6) == reference_clique_masks(g.nbrs, 10**6)

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=11), st.data())
    def test_cliques_through_a_vertex_set(self, g, data):
        """With ``through`` = T, the enumeration lists exactly the maximal
        cliques that meet T, each once; T = every vertex lists them all,
        in the same order as the default."""
        through = data.draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
        every = _maximal_clique_masks(g.nbrs, 10**6)
        got = _maximal_clique_masks(g.nbrs, 10**6, through)
        assert len(got) == len(set(got))
        assert set(got) == {c for c in every if c & through}
        assert _maximal_clique_masks(g.nbrs, 10**6, (1 << g.n) - 1) == every

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=11), st.data())
    def test_cliques_through_edges(self, g, data):
        """With ``edges``, the enumeration lists exactly the maximal cliques
        that hold one of the edges, each once, and the cap counts each
        once, also a clique that two of the edges reach."""
        every = _maximal_clique_masks(g.nbrs, 10**6)
        edges = [(u, v) for u in range(g.n) for v in _bits(g.nbrs[u]) if u < v]
        chosen = data.draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
        got = _maximal_clique_masks(g.nbrs, 10**6, edges=chosen)
        assert len(got) == len(set(got))
        assert set(got) == {c for c in every if any(c >> u & c >> v & 1 for u, v in chosen)}
        if got:
            assert _maximal_clique_masks(g.nbrs, len(got), edges=chosen) == got
            with pytest.raises(CapExceeded, match=f"cliques={len(got) - 1}"):
                _maximal_clique_masks(g.nbrs, len(got) - 1, edges=chosen)

    def test_sorted_cliques_are_built_when_read(self, paw):
        cover = maximal_cliques(paw)
        assert "cliques" not in vars(cover)
        assert sorted(cover.masks) == [0b0011, 0b1110]
        assert cover.cliques == ((0, 1), (1, 2, 3))

    @pytest.mark.parametrize("rule", [w_mcca, w_mccp])
    def test_clique_rules_read_the_masks(self, rule, g8, monkeypatch):
        covers = []
        original = rules.maximal_cliques
        monkeypatch.setattr(
            rules, "maximal_cliques", lambda *a: covers.append(original(*a)) or covers[-1]
        )
        rule(g8)
        assert len(covers) == 1 and "cliques" not in vars(covers[0])

    def test_participation_is_computed_when_read(self, paw):
        cover = maximal_cliques(paw)
        assert "participation" not in vars(cover)
        assert cover.participation == (Fraction(3, 2), Fraction(5, 2))
        assert cover.participation is cover.participation


class TestRuleGrammar:
    @pytest.mark.parametrize(
        "spec, name",
        [
            ("cu", "cu"),
            ("lift:uniform", "lift:uniform"),
            ("smooth:cu", "smooth:cu"),
            ("smooth:lift:uniform", "smooth:lift:uniform"),
        ],
    )
    def test_parse_known_specs(self, spec, name, paw):
        canonical, rule = parse_rule(spec)
        assert canonical == name
        assert sum(rule(paw)) == 1

    def test_unknown_rule_lists_the_registry(self):
        with pytest.raises(ValueError) as err:
            parse_rule("nope")
        message = str(err.value)
        for name in registry_names():
            assert name.split(":")[0] in message

    def test_dangling_combinator_rejected(self):
        with pytest.raises(ValueError):
            parse_rule("smooth:")
        with pytest.raises(ValueError):
            parse_rule("lift")

    def test_rationality_flags(self):
        assert rule_is_rational("cu")
        assert rule_is_rational("smooth:lift:uniform")
        assert not rule_is_rational("entropy")
        assert not rule_is_rational("smooth:entropy")


class TestDegreeRule:
    def test_values(self, paw):
        # degrees 1, 3, 2, 2 -> shares of 8... via closed neighborhoods
        w = w_degree(paw)
        assert sum(w) == Fraction(1)
        assert w[1] > w[2] == w[3] > w[0]

    def test_equal_to_the_definition(self, paw):
        """(1 + deg x) / sum of (1 + deg y), one value object per degree."""
        w = w_degree(paw)
        total = sum(1 + paw.degree(v) for v in range(paw.n))
        assert w.values == tuple(Fraction(1 + paw.degree(v), total) for v in range(paw.n))
        assert w.values[2] is w.values[3]


# ---------------------------------------------------------------------------
# Differential test: the entropy rule against the per-matrix loop it
# replaced, which evaluates every partition matrix one at a time and Phi
# twice per ascent step, with numpy forms of the entropy gradient and the
# simplex projection of its own.  The weights must be equal, not close.


def reference_entropy_and_grad(masses: np.ndarray) -> tuple[float, np.ndarray]:
    clipped = np.maximum(masses, 1e-300)
    return float(-(clipped * np.log2(clipped)).sum()), -np.log2(clipped) - 1.0 / math.log(2.0)


def reference_project_simplex(q: np.ndarray) -> np.ndarray:
    u = np.sort(q)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(q) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(q - theta, 0.0)


def reference_class_mass_matrices(graph: Graph) -> list[np.ndarray]:
    part = equivalence_classes(graph)
    sizes = [len(cls) for cls in part.classes]
    seen: set[tuple] = set()
    mats = []
    for partition in clique_partitions(graph):
        rows = []
        for block in partition:
            row = [0] * len(part.classes)
            for v in block:
                row[part.class_of[v]] += 1
            rows.append(tuple(Fraction(c, s) for c, s in zip(row, sizes)))
        key = tuple(sorted(rows))
        if key not in seen:
            seen.add(key)
            mats.append(np.array([[float(f) for f in row] for row in key]))
    return mats


def reference_entropy(graph: Graph, tol: float = 1e-8) -> WeightVector:
    entropy_and_grad, project = reference_entropy_and_grad, reference_project_simplex
    budget = rules.default_caps().entropy_iterations
    if graph.n == 1:
        return WeightVector((1.0,), graph.labels)
    part = equivalence_classes(graph)
    k = len(part.classes)
    mats = reference_class_mass_matrices(graph)
    mu = tol

    def phi(q):
        best, best_grad = math.inf, None
        for mat in mats:
            h, grad = entropy_and_grad(mat @ q)
            if h < best:
                best, best_grad = h, mat.T @ grad
        return best, best_grad

    def objective(q):
        return phi(q)[0] + mu * entropy_and_grad(q)[0]

    q = np.full(k, 1.0 / k)
    best_q, best_val = q.copy(), objective(q)
    ascent_iters = min(2000, budget)
    stall_needed = min(200, max(10, ascent_iters // 4))
    stall = 0
    for it in range(1, ascent_iters + 1):
        _, grad_phi = phi(q)
        grad = grad_phi + mu * entropy_and_grad(q)[1]
        q = project(q + 0.25 / math.sqrt(it) * grad)
        val = objective(q)
        if val > best_val + tol * 1e-3:
            best_val, best_q, stall = val, q.copy(), 0
        else:
            stall += 1
        if stall > stall_needed:
            break

    constraints = [
        {"type": "eq", "fun": lambda z: z[:k].sum() - 1.0,
         "jac": lambda z: np.concatenate([np.ones(k), [0.0]])},
    ]
    for mat in mats:
        constraints.append({
            "type": "ineq",
            "fun": lambda z, m=mat: entropy_and_grad(m @ z[:k])[0] - z[k],
            "jac": lambda z, m=mat: np.concatenate(
                [m.T @ entropy_and_grad(m @ z[:k])[1], [-1.0]]
            ),
        })
    res = optimize.minimize(
        lambda z: -(z[k] + mu * entropy_and_grad(z[:k])[0]),
        np.concatenate([best_q, [phi(best_q)[0]]]),
        jac=lambda z: np.concatenate([-mu * entropy_and_grad(z[:k])[1], [-1.0]]),
        bounds=[(0.0, 1.0)] * k + [(0.0, math.log2(graph.n) + 1.0)],
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 400, "ftol": 1e-14},
    )
    if res.success:
        cand = np.maximum(res.x[:k], 0.0)
        s = cand.sum()
        if s > 0:
            cand /= s
            if objective(cand) > best_val:
                best_val, best_q = objective(cand), cand

    values = []
    for v in range(graph.n):
        cls = part.class_of[v]
        values.append(max(float(best_q[cls]), 0.0) / len(part.classes[cls]))
    total = sum(values)
    return WeightVector(tuple(v / total for v in values), graph.labels)


def entropy_differential_graphs() -> list[Graph]:
    """Seeded random graphs of 2-9 vertices, each also with a planted clone;
    the paw and its four removals; K2-K5; and 40 more seeded graphs of 2-9
    vertices, half of them with a planted clone."""
    out = []
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        n = 2 + seed
        g = random_graph(n, float(rng.uniform(0.2, 0.5)), rng)
        out.append(g)
        if n < 9:
            out.append(add_vertex_clone(g, int(rng.integers(n))))
    paw = paw_graph()
    out += [paw] + [paw.remove_vertex(x) for x in range(4)]
    out += [complete_graph(n) for n in range(2, 6)]
    for seed in range(40):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 9))
        g = random_graph(n, float(rng.uniform(0.2, 0.8)), rng)
        out.append(add_vertex_clone(g, int(rng.integers(n))) if seed % 2 else g)
    return out


#: Partitions of 8 or 9 blocks next to ones of fewer: numpy sums 8 or more
#: terms in another order than fewer, so zero-padding every partition to one
#: block count moves these weights (by 1e-12 to 5e-8).
MIXED_BLOCK_COUNTS = [
    Graph.from_edges(8, [(0, 1), (0, 2), (1, 5)]),
    Graph.from_edges(8, [(0, 3), (0, 6), (2, 4), (2, 5)]),
    Graph.from_edges(9, [(0, 2), (3, 4), (3, 7)]),
    Graph.from_edges(9, [(0, 1), (2, 5), (3, 7), (5, 6), (6, 7)]),
]


class TestStackedEntropyRule:
    @pytest.mark.parametrize("graph", entropy_differential_graphs() + MIXED_BLOCK_COUNTS,
                             ids=lambda g: f"n{g.n}-m{len(g.edges())}")
    def test_equals_the_per_matrix_loop(self, graph):
        assert tuple(w_entropy(graph)) == tuple(reference_entropy(graph))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conjecture_search_unchanged(self, seed):
        """The search, which solves once per distinct removal graph, reports
        what one reference solve per removal gives."""
        got = conjecture_search("entropy_negative_chi", 10, seed).to_document()
        assert got == reference_entropy_search(10, seed).to_document()

    def test_graphs_too_large_to_look_at_are_not_probed(self):
        """Seed 0 draws 6 graphs of 7 vertices among its first 10, and the
        search looks at none of them."""
        report = conjecture_search("entropy_negative_chi", 10, 0)
        assert (report.budget, report.probed) == (10, 4)

    def test_one_solve_per_distinct_removal_graph(self, monkeypatch):
        """The paw's removals of c and of d leave the same path a-b-x: one
        solve for G and three for its removals."""
        calls = []

        def counting(graph, *args, **kwargs):
            calls.append(graph.nbrs)
            return w_entropy(graph, *args, **kwargs)

        monkeypatch.setattr(rules, "w_entropy", counting)
        conjecture_search("entropy_negative_chi", 1, 0)
        assert len(calls) == 4 and len(set(calls)) == 4

    @pytest.mark.parametrize("graph", [complete_graph(n) for n in range(1, 8)]
                             + [add_vertex_clone(complete_graph(4), 2)],
                             ids=lambda g: f"K{g.n}-{g.labels[-1]}")
    def test_one_class_needs_no_optimiser(self, graph, monkeypatch):
        want = tuple(reference_entropy(graph))

        def refuse(*args, **kwargs):
            raise AssertionError("the optimiser ran on a one-class graph")

        monkeypatch.setattr(rules.optimize, "minimize", refuse)
        assert tuple(w_entropy(graph)) == want

    def test_one_class_ignores_a_short_budget(self):
        """Five ascent steps cannot stall, so on a graph of two or more
        classes a polish that fails raises; q = (1.0) needs neither."""
        assert tuple(w_entropy(complete_graph(3), max_iter=5)) == (1 / 3,) * 3


def reference_entropy_search(budget: int, seed: int, tol: float = 1e-8) -> ConjectureReport:
    """``conjecture_search("entropy_negative_chi", ...)`` with one reference
    solve for G and one per removal, sharing none."""
    rng = np.random.default_rng(seed)
    stream = [paw_graph()]
    while len(stream) < budget:
        n = int(rng.integers(4, 8))
        g = random_graph(n, float(rng.uniform(0.2, 0.8)), rng)
        if n < 7 and rng.random() < 0.5:
            g = add_vertex_clone(g, int(rng.integers(0, n)))
        stream.append(g)
    witnesses, skipped, probed = [], 0, 0
    for graph in stream:
        if graph.n > 6:
            continue
        probed += 1
        edges = tuple((graph.labels[a], graph.labels[b]) for a, b in graph.edges())
        w = list(reference_entropy(graph))
        for x in range(graph.n):
            sub = graph.remove_vertex(x)
            w_sub = dict(zip(sub.labels, reference_entropy(sub)))
            row = _chi_float(graph, x, tol, w, w_sub)
            if row is None:
                skipped += 1
                continue
            witnesses += [
                ConjectureWitness("entropy", graph.labels, edges,
                                  (graph.labels[x], graph.labels[y]), repr(value))
                for y, value in row.items() if value < -10.0 * tol
            ]
    note = (f"no counterexample in {probed} graphs probed; this is not a proof"
            if not witnesses else
            f"{len(witnesses)} negative sharing value(s) found for the tested rules; "
            "evidence only, the general question stays open")
    return ConjectureReport("entropy_negative_chi", budget, probed, skipped,
                            witnesses, note)
