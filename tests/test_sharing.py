"""Removal-based sharing coefficients on graphs.

chi(x, y) measures what y loses when x is removed, after undoing the
uniform rescaling that removal causes; eta is that rescaling factor.  The
values on the triangle-with-pendant graph were derived by hand and are
asserted exactly, together with the axioms the coefficients must satisfy
on arbitrary graphs (row identity, support confinement, and the removal
reconstruction identity).
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from clonewt import (
    Graph,
    RescaleReport,
    WeightVector,
    audit_axioms,
    chi_graph,
    eta,
    parse_rule,
    private_graph,
    sharing_row,
    sharing_rows,
    w_cu,
    w_degree,
    w_mcca,
    w_mccp,
)
from clonewt.audit import add_vertex_clone, random_graph
from clonewt.rules import _maximal_clique_masks, maximal_cliques
from clonewt.sharing import InconsistentRescaling, _removal_cover


@st.composite
def graphs(draw, min_n=2, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    p = draw(st.floats(min_value=0.2, max_value=0.8))
    return random_graph(n, p, np.random.default_rng(seed))


class TestPawLedger:
    def test_eta_at_the_pendant(self, paw):
        report = eta(paw, w_cu, "a")
        assert report.consistent
        assert 1 + report.eta == Fraction(2)

    def test_chi_cu(self, paw):
        assert chi_graph(paw, w_cu, "a", "b") == Fraction(-1, 6)
        assert chi_graph(paw, w_cu, "b", "a") == Fraction(1, 6)

    def test_chi_clique_rules(self, paw):
        assert chi_graph(paw, w_mcca, "a", "b") == Fraction(-1, 4)
        assert chi_graph(paw, w_mccp, "a", "b") == Fraction(-1, 15)

    def test_private_weight_closes_the_row(self, paw):
        # the pendant shares only with b: w(a) = chi(a, a) + chi(a, b)
        assert private_graph(paw, w_cu, "a") == Fraction(1, 2)
        assert private_graph(paw, w_cu, "a") + chi_graph(paw, w_cu, "a", "b") == (
            Fraction(1, 3)
        )

    def test_chi_vanishes_outside_the_closed_neighborhood(self, paw):
        assert chi_graph(paw, w_cu, "a", "c") == Fraction(0)
        assert chi_graph(paw, w_cu, "a", "d") == Fraction(0)


class TestRemovalSemantics:
    def test_removal_reconstruction(self, paw):
        """w(G - a)(y) = (1 + eta) * (w(y) + chi(a, y)) for surviving y."""
        report = eta(paw, w_cu, "a")
        scale = 1 + report.eta
        w = w_cu(paw)
        sub = w_cu(paw.remove_vertex(0))
        for y, lab in enumerate(("b", "c", "d")):
            got = scale * (w[y + 1] + chi_graph(paw, w_cu, "a", lab))
            assert got == sub[y], f"reconstruction failed at {lab}"

    @pytest.mark.parametrize("x", [-1, 4])
    def test_out_of_range_vertex_rejected(self, paw, x):
        """An index outside 0..n-1 is named, not read as a shift or a
        position from the end."""
        message = rf"vertex index {x} out of range for n=4"
        with pytest.raises(IndexError, match=message):
            sharing_row(paw, w_cu, x)
        with pytest.raises(IndexError, match=message):
            chi_graph(paw, w_cu, x, 0)
        with pytest.raises(IndexError, match=message):
            chi_graph(paw, w_cu, 0, x)

    def test_eta_zero_when_neighborhood_covers_everything(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        report = eta(g, w_cu, 0)
        assert report.eta == Fraction(0)

    def test_inconsistent_rescaling_is_reported(self):
        """Removing an endpoint of the 5-path rescales the far vertices by
        different factors under the participation rule, so no single eta
        exists; the report says so and chi refuses to invent one."""
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        report = eta(g, w_mccp, 0)
        assert not report.consistent
        assert report.eta is None
        assert set(report.witness) <= {2, 3, 4}
        with pytest.raises(InconsistentRescaling, match="rescales inconsistently"):
            chi_graph(g, w_mccp, 0, 1)

    def test_degree_rule_rescales_consistently(self):
        """The degree rule fails locality yet its removals rescale far
        weights uniformly (only the normaliser moves), so eta exists."""
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        report = eta(g, w_degree, 0)
        assert report.consistent


class TestAxiomAudit:
    def test_paw_breaks_nonnegativity_with_an_exact_witness(self, paw):
        """The triangle-with-pendant is the canonical counterexample: the
        pendant's sharing with the hub is negative, so axiom 2 (and with it
        symmetry and domination) fails for every duplicate-robust rule here."""
        for rule in (w_cu, w_mcca, w_mccp):
            report = audit_axioms(paw, rule)
            assert report.passed[1], rule.__name__
            assert not report.passed[2], rule.__name__
            assert not report.passed[3], rule.__name__
        cu_report = audit_axioms(paw, w_cu)
        assert ("a", "b", Fraction(-1, 6)) in cu_report.witnesses[2]
        assert ("a", "b", Fraction(-1, 6), Fraction(1, 6)) in cu_report.witnesses[3]

    def test_complete_graph_passes_everything(self):
        g = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        report = audit_axioms(g, w_cu)
        assert report.all_passed

    def test_axiom_subset_selection(self, paw):
        report = audit_axioms(paw, w_cu, axioms=(1,))
        assert report.all_passed
        assert list(report.passed) == [1]

    def test_inconsistent_vertices_are_skipped_not_failed(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        report = audit_axioms(g, w_mccp, axioms=(2, 3, 4))
        assert 0 in report.skipped_vertices

    @given(graphs(min_n=3))
    @settings(max_examples=40, deadline=None)
    def test_cu_removal_of_a_duplicate_is_invisible_far_away(self, g):
        """General removals may rescale far weights inconsistently (classes
        can merge across the cut), but removing a vertex that still has a
        duplicate leaves every far weight exactly unchanged: eta = 0."""
        from clonewt import equivalence_classes

        for cls in equivalence_classes(g).classes:
            if len(cls) < 2:
                continue
            z = cls[-1]
            report = eta(g, w_cu, z)
            assert report.consistent and report.eta == 0, (
                f"removing duplicate {z} from {g.edges()} rescaled far weights"
            )

    @given(graphs(min_n=3))
    @settings(max_examples=30, deadline=None)
    def test_row_identity(self, g):
        """sum over y of chi(x, y) plus the private part recovers w(x)."""
        w = w_cu(g)
        for x in range(g.n):
            try:
                total = sum(chi_graph(g, w_cu, x, y) for y in range(g.n) if y != x)
                total += private_graph(g, w_cu, x)
            except InconsistentRescaling:
                continue  # chi is undefined at this vertex, nothing to check
            assert total == w[x]


def _row_from_definition(g, rule, x):
    """(eta, chi row, private weight) of x straight from the definition, or
    None when no single nonzero rescaling factor exists outside N[x]."""
    w = [Fraction(v) for v in rule(g)]
    survivors = [v for v in range(g.n) if v != x]
    sub = rule(g.remove_vertex(x))
    after = {z: Fraction(sub[i]) for i, z in enumerate(survivors)}
    outside = [z for z in survivors if not g.has_edge(x, z)]
    if any(w[z] == 0 for z in outside):
        return None
    ratios = {after[z] / w[z] for z in outside}
    if len(ratios) > 1:
        return None
    scale = ratios.pop() if ratios else Fraction(1)
    if scale == 0:
        return None
    chi = {y: after[y] / scale - w[y] for y in survivors}
    return scale - 1, chi, (scale - 1) / scale


def _planted_graphs(count=24, max_n=12):
    """Seeded graphs of up to ``max_n`` vertices, each with a planted clone
    (``add_vertex_clone``) and every other one with an isolated vertex."""
    out = []
    for seed in range(count):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, max_n - 1))
        g = random_graph(n, float(rng.uniform(0.2, 0.8)), rng)
        g = add_vertex_clone(g, int(rng.integers(0, n)))
        if seed % 2:
            g = Graph.from_edges(g.n + 1, g.edges(), labels=g.labels + ("iso",))
        out.append(g)
    return out


def _assert_rows_match_the_definition(g, rule, where) -> int:
    """Every row of g equals the definition's; returns the defined rows."""
    rows = sharing_rows(g, rule)
    assert len(rows) == g.n
    compared = 0
    for x, row in enumerate(rows):
        want = _row_from_definition(g, rule, x)
        if want is None:
            assert row.chi is None and row.private is None, (where, x)
            assert row.undefined is not None
            continue
        eta_x, chi, private = want
        assert row.report == RescaleReport(x, eta_x, True), (where, x)
        assert row.chi == chi and row.private == private, (where, x)
        assert row.undefined is None
        compared += 1
    return compared


#: rules whose removals are read off G's cover or classes, without a rule call
READ_RULES = ("cu", "lift:uniform", "mcca", "mccp", "smooth:cu", "smooth:lift:uniform",
              "smooth:mcca", "smooth:mccp")


class TestRowEngine:
    RULES = ("uniform", "cu", "mcca", "mccp", "lift:uniform", "smooth:cu", "smooth:mcca",
             "smooth:mccp", "lift:mcca", "lift:mccp", "degree")

    @pytest.mark.parametrize("spec", RULES)
    def test_rows_match_the_definition(self, spec):
        rule = parse_rule(spec)[1]
        compared = 0
        for seed in range(24):
            rng = np.random.default_rng(seed)
            g = random_graph(2 + seed % 8, float(rng.uniform(0.2, 0.8)), rng)
            compared += _assert_rows_match_the_definition(g, rule, (spec, seed))
        assert compared >= 24, f"only {compared} consistent rows under {spec}"

    @pytest.mark.parametrize("spec", RULES)
    def test_rows_with_clones_and_isolated_vertices_match_the_definition(self, spec):
        rule = parse_rule(spec)[1]
        compared = 0
        for i, g in enumerate(_planted_graphs()):
            compared += _assert_rows_match_the_definition(g, rule, (spec, i))
        assert compared >= 24, f"only {compared} consistent rows under {spec}"

    def test_removal_cover_is_the_cover_of_the_removal(self):
        """The cover derived from G's at each x is exactly the maximal
        cliques of G - x, each once, and never more of them than G has."""
        graphs = _planted_graphs()
        for seed in range(12):
            rng = np.random.default_rng(seed)
            graphs.append(random_graph(3 + seed, float(rng.uniform(0.2, 0.8)), rng))
        for g in graphs:
            cover = list(maximal_cliques(g).masks)
            for x in range(g.n):
                derived = _removal_cover(cover, x)
                want = _maximal_clique_masks(g.remove_vertex(x).nbrs, 10**6)
                assert len(set(derived)) == len(derived) <= len(cover), (g.edges(), x)
                assert set(derived) == set(want), (g.edges(), x)

    @pytest.mark.parametrize("spec", READ_RULES)
    def test_read_rules_make_no_call_and_no_removal(self, spec, monkeypatch):
        """w(G) and every w(G - x) are read off G, with no rule call."""
        rule = parse_rule(spec)[1]
        calls = []

        @functools.wraps(rule)
        def counting(g):
            calls.append(g.n)
            return rule(g)

        removals = []
        remove_vertex = Graph.remove_vertex
        monkeypatch.setattr(
            Graph, "remove_vertex", lambda self, v: removals.append(v) or remove_vertex(self, v)
        )
        g = random_graph(9, 0.5, np.random.default_rng(3))
        rows = sharing_rows(g, counting)
        assert calls == [] and removals == []
        monkeypatch.setattr(Graph, "remove_vertex", remove_vertex)
        assert rows == sharing_rows(g, lambda h: rule(h))  # called per removal

    @pytest.mark.parametrize("spec", ["mcca", "mccp"])
    def test_clique_rules_enumerate_the_cover_once(self, spec, monkeypatch):
        """G's maximal cliques are enumerated once per ``sharing_rows``, for
        w(G) and every removal alike."""
        import clonewt.rules as rules_module
        import clonewt.sharing as sharing_module

        calls = []

        def counting(graph, *args, **kwargs):
            calls.append(graph.n)
            return maximal_cliques(graph, *args, **kwargs)

        monkeypatch.setattr(sharing_module, "maximal_cliques", counting)
        monkeypatch.setattr(rules_module, "maximal_cliques", counting)
        g = random_graph(9, 0.5, np.random.default_rng(3))
        rule = parse_rule(spec)[1]
        rows = sharing_rows(g, rule)
        assert calls == [9]
        monkeypatch.undo()
        assert rows == sharing_rows(g, lambda h: rule(h))

    def test_zero_weight_leaves_the_row_undefined(self):
        """A non-neighbour of weight 0 has no rescaling ratio: the row says
        so, eta raises, and the axiom audit refuses the graph."""

        def starve_isolated(g):
            live = [v for v in range(g.n) if g.nbrs[v]]
            return WeightVector(
                tuple(Fraction(1, len(live)) if g.nbrs[v] else Fraction(0) for v in range(g.n)),
                g.labels,
            )

        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)], labels=("a", "b", "c", "d"))
        rows = sharing_rows(g, starve_isolated)
        assert rows[0].report is None
        assert rows[0].undefined == "w(G)(d) = 0; rescaling ratio undefined"
        assert rows[3].report.eta == 0 and rows[3].private == 0
        with pytest.raises(InconsistentRescaling, match="ratio undefined"):
            eta(g, starve_isolated, "a")
        with pytest.raises(InconsistentRescaling, match="ratio undefined"):
            audit_axioms(g, starve_isolated)

    def test_audit_evaluates_the_rule_once_per_removal(self, monkeypatch):
        """n + 1 rule calls and n removals for an n-vertex graph."""
        calls = []

        def counting(g):
            calls.append(g.n)
            return w_mccp(g)

        removals = []
        remove_vertex = Graph.remove_vertex

        def counting_removal(self, v):
            removals.append(v)
            return remove_vertex(self, v)

        monkeypatch.setattr(Graph, "remove_vertex", counting_removal)
        g = random_graph(9, 0.5, np.random.default_rng(3))
        audit_axioms(g, counting)
        assert calls == [9] + [8] * 9
        assert removals == list(range(9))

    def test_zero_scale_leaves_the_row_undefined(self):
        """A removal that leaves weight 0 on every non-neighbour rescales by
        0, so eta = -1 and chi is undefined: the row says so and names x
        and the non-neighbour, and the axiom audit skips the vertex."""

        def odd_on_first(g):
            if g.n % 2:
                values = (Fraction(1),) + (Fraction(0),) * (g.n - 1)
            else:
                values = (Fraction(1, g.n),) * g.n
            return WeightVector(values, g.labels)

        g = Graph.from_edges(4, [(0, 1)], labels=("a", "b", "c", "d"))
        rows = sharing_rows(g, odd_on_first)
        for x in (0, 1):
            assert rows[x].report == RescaleReport(x, Fraction(-1), True)
            assert rows[x].chi is None and rows[x].private is None
            assert rows[x].undefined == (
                f"removing {'ab'[x]} leaves weight 0 on non-neighbour c: eta = -1, chi undefined"
            )
            assert _row_from_definition(g, odd_on_first, x) is None
        assert not rows[2].report.consistent and not rows[3].report.consistent
        assert eta(g, odd_on_first, "a").eta == -1
        with pytest.raises(InconsistentRescaling, match="eta = -1, chi undefined"):
            chi_graph(g, odd_on_first, "a", "b")
        report = audit_axioms(g, odd_on_first)
        assert report.skipped_vertices == [0, 1, 2, 3]
        assert report.passed[1] is False
        assert [w[0] for w in report.witnesses[1]] == ["c", "d"]
