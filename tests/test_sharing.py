"""Removal-based sharing coefficients on graphs.

chi(x, y) measures what y loses when x is removed, after undoing the
uniform rescaling that removal causes; eta is that rescaling factor.  The
values on the triangle-with-pendant graph were derived by hand and are
asserted exactly, together with the axioms the coefficients must satisfy
on arbitrary graphs (row identity, support confinement, and the removal
reconstruction identity).
"""

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
from clonewt.audit import random_graph
from clonewt.sharing import InconsistentRescaling


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
    None when no single rescaling factor exists outside N[x]."""
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
    chi = {y: after[y] / scale - w[y] for y in survivors}
    return scale - 1, chi, (scale - 1) / scale


class TestRowEngine:
    RULES = ("uniform", "cu", "mcca", "mccp", "lift:uniform", "smooth:cu")

    @pytest.mark.parametrize("spec", RULES)
    def test_rows_match_the_definition(self, spec):
        rule = parse_rule(spec)[1]
        compared = 0
        for seed in range(24):
            rng = np.random.default_rng(seed)
            g = random_graph(2 + seed % 8, float(rng.uniform(0.2, 0.8)), rng)
            rows = sharing_rows(g, rule)
            assert len(rows) == g.n
            for x, row in enumerate(rows):
                want = _row_from_definition(g, rule, x)
                if want is None:
                    assert row.chi is None and row.private is None, (spec, seed, x)
                    assert row.undefined is not None
                    continue
                eta_x, chi, private = want
                assert row.report == RescaleReport(x, eta_x, True), (spec, seed, x)
                assert row.chi == chi and row.private == private, (spec, seed, x)
                assert row.undefined is None
                compared += 1
        assert compared >= 24, f"only {compared} consistent rows under {spec}"

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
