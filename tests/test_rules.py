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
from clonewt.audit import random_graph

import numpy as np


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
