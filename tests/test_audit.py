"""The audit harness: axiom suites, the impossibility demo, searches.

Two self-tests matter most here: the metric suite must catch a planted
symmetry break (otherwise a silent pass means nothing), and the graph
suite must catch the degree rule's locality violations.  The symbolic
demo is checked stage by stage against its hand-derived value sequence.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from clonewt import (
    CapExceeded,
    attack,
    automorphisms,
    conjecture_search,
    equivalence_classes,
    isometry_orbits,
    parse_rule,
    paw_graph,
    planted_asymmetry_rule,
    random_graph,
    run_def31_suite,
    run_graph_suite,
    spider_graph,
    strict_locality_demo,
)
from clonewt.audit import FLOAT_SLACK, add_vertex_clone
from clonewt.metric import add_clone, load_instance, random_instance
from clonewt.weighting import Density, MetricWeighting, evaluate_all


class TestGraphBuilders:
    def test_paw(self):
        g = paw_graph()
        assert g.labels == ("a", "b", "c", "d")
        assert g.edges() == [(0, 1), (1, 2), (1, 3), (2, 3)]

    def test_spider(self):
        g = spider_graph()
        assert g.n == 10
        assert g.labels[-1] == "d"
        # three legs a_i - b_i - c_i - d
        hub = g.labels.index("d")
        assert g.degree(hub) == 3
        for i in (1, 2, 3):
            a = g.labels.index(f"a{i}")
            assert g.degree(a) == 1

    def test_add_vertex_clone(self):
        g = paw_graph()
        bigger = add_vertex_clone(g, "c", label="c~")
        assert bigger.n == 5
        z = bigger.labels.index("c~")
        c = bigger.labels.index("c")
        assert bigger.has_edge(z, c)
        assert bigger.closed(z) == bigger.closed(c) | (1 << z) | (1 << c)

    def test_random_graph_deterministic(self):
        a = random_graph(6, 0.5, np.random.default_rng(3))
        b = random_graph(6, 0.5, np.random.default_rng(3))
        assert a.edges() == b.edges()


def _brute_force_isometries(inst) -> np.ndarray:
    """Every permutation of the elements that fixes the float distance
    matrix entry for entry, found by trying them all."""
    d = inst.dist
    perms = np.array(list(itertools.permutations(range(inst.n))), dtype=np.intp)
    fixed = (d[perms[:, :, None], perms[:, None, :]] == d).all(axis=(1, 2))
    return perms[fixed]


def _orbits_of(perms: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The orbit of each element is the set of its images."""
    return tuple(sorted({tuple(sorted(set(images))) for images in perms.T.tolist()}))


class TestIsometryOrbits:
    @pytest.mark.parametrize(
        "distances, want",
        [
            ([[0, 0, 1], [0, 0, 1], [1, 1, 0]], ((0, 1), (2,))),  # a clone pair
            ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], ((0, 2), (1,))),  # a palindrome
            ([[0 if i == j else 1 for j in range(4)] for i in range(4)], ((0, 1, 2, 3),)),
            ([[0, 1, 2], [1, 0, Fraction(6, 5)], [2, Fraction(6, 5), 0]], ((0,), (1,), (2,))),
            # a hexagon's shortest-path metric: the dihedral group is transitive
            ([[min(abs(i - j), 6 - abs(i - j)) for j in range(6)] for i in range(6)],
             ((0, 1, 2, 3, 4, 5),)),
        ],
        ids=["clone-pair", "palindrome", "all-equal", "generic", "hexagon"],
    )
    def test_equal_to_a_brute_force_enumeration(self, distances, want):
        inst = load_instance({"kind": "matrix", "distances": distances})
        assert isometry_orbits(inst) == _orbits_of(_brute_force_isometries(inst)) == want

    def test_reflection_past_eight_elements(self):
        """The reflection of a palindromic row of points moves every
        element; with the cap raised the search finds it."""
        xs = (0, 1, 3, 7, 8, 12, 13, 17, 19, 20)
        inst = load_instance({"kind": "points", "points": [[x] for x in xs]})
        with pytest.raises(CapExceeded, match="automorphism_vertices"):
            isometry_orbits(inst)
        assert isometry_orbits(inst, cap=10) == ((0, 9), (1, 8), (2, 7), (3, 6), (4, 5))


class TestMetricSuite:
    def test_clean_rules_pass(self):
        report = run_def31_suite(("cu", "mcca"), instances=8, seed=0)
        assert report.passed, report.violations[:3]
        assert report.checks["positivity"] == 8 * 2

    def test_planted_asymmetry_is_caught(self):
        """A rule that quietly favours one element must trip the symmetry
        check; this is the suite auditing itself."""
        report = run_def31_suite(
            ("cu",),
            instances=12,
            seed=0,
            rule_overrides={"cu": planted_asymmetry_rule},
        )
        assert not report.passed
        assert any(v.check == "symmetry" for v in report.violations)

    def test_reports_are_documents(self):
        doc = run_def31_suite(("cu",), instances=3, seed=1).to_document()
        assert doc["suite"] == "metric-axioms"
        assert doc["passed"] is True
        assert set(doc["max_slack"]) == {"fairness", "locality", "continuity"}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_orbit_check_equals_the_whole_group_check(self, seed):
        """Symmetry checked once per isometry orbit flags the same cases as
        comparing f(v) with f(sigma(v)) for every isometry sigma, on the
        suite's own seeded instances."""
        rules = {"cu": parse_rule("cu")[1], "planted": planted_asymmetry_rule}
        for name, rule in rules.items():
            report = run_def31_suite(
                (name,), instances=16, seed=seed, n_range=(3, 6), rule_overrides=rules
            )
            flagged = {
                (v.context, v.detail.split(":")[0])
                for v in report.violations if v.check == "symmetry"
            }
            assert flagged == _whole_group_metric_reference(rule, 16, seed, (3, 6)), name
            assert bool(flagged) == (name == "planted")


def _whole_group_metric_reference(rule, instances, seed, n_range):
    """The cases (instance context, base or clone) where the metric suite
    must flag symmetry, found by comparing f(v) with f(sigma(v)) for every
    isometry sigma of every instance it audits."""
    mw = MetricWeighting(rule, Density.uniform(1))
    flagged = set()
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(instances)):
        rng = np.random.default_rng(child)
        sub = [int(s) for s in child.generate_state(4)]
        kind = ("euclidean", "shortest_path")[i % 2]
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        dim = {"dim": (1, 2, 3)[i % 3]} if kind == "euclidean" else {}
        inst = random_instance(kind, n, sub[0], **dim)
        context = f"instance {i} ({kind}, n={n}, seed={sub[0]})"
        cases = [("base", inst)] + [
            (f"clone eps={eps:g}", add_clone(inst, n // 2, eps, sub[1]))
            for eps in (0.0, float(rng.uniform(0.0, 0.25)))
        ]
        for where, case in cases:
            f = evaluate_all(case, mw).as_floats()
            if any(abs(f[v] - f[sigma[v]]) > FLOAT_SLACK
                   for sigma in _brute_force_isometries(case) for v in range(case.n)):
                flagged.add((context, where))
    return flagged


class TestGraphSuite:
    def test_cu_and_friends_pass(self):
        report = run_graph_suite(("cu", "mccp"), graphs=40, seed=0)
        assert report.passed, report.violations[:3]

    def test_degree_rule_fails_locality(self):
        report = run_graph_suite(("degree",), graphs=40, seed=0)
        assert not report.passed
        assert any(v.check == "locality" for v in report.violations)

    def test_entropy_rule_passes_with_tolerance(self):
        report = run_graph_suite(
            ("entropy",), graphs=15, seed=0, n_range=(2, 6), tol=1e-7
        )
        assert report.passed, report.violations[:3]

    @pytest.mark.parametrize("seed", [0, 6])
    def test_orbit_check_equals_the_whole_group_check(self, seed):
        """Symmetry checked once per orbit gives the verdict and largest
        deviation of comparing w(v) with w(sigma(v)) for every automorphism
        sigma, on the suite's own seeded graphs."""
        rules = {"cu": parse_rule("cu")[1], "planted": planted_asymmetry_rule}
        for name, rule in rules.items():
            report = run_graph_suite((name,), graphs=30, seed=seed, rule_overrides=rules)
            want_dev, want_symmetric = _whole_group_reference(rule, graphs=30, seed=seed)
            assert report.max_deviation == want_dev, name
            symmetric = not any(v.check == "symmetry" for v in report.violations)
            assert symmetric == want_symmetric, name
            assert want_symmetric == (name == "cu")


def _whole_group_reference(rule, graphs, seed, n_range=(2, 8), edge_p=(0.15, 0.85)):
    """The graph suite's largest deviation and symmetry verdict, recomputed
    with a comparison for every vertex under every automorphism."""
    max_dev, symmetric = 0.0, True
    for child in np.random.SeedSequence(seed).spawn(graphs):
        rng = np.random.default_rng(child)
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        p = float(rng.uniform(*edge_p))
        graph = random_graph(n, p, rng)
        if n < n_range[1] and rng.random() < 0.5:
            graph = add_vertex_clone(graph, int(rng.integers(0, n)))
        w = rule(graph)
        for sigma in automorphisms(graph, cap=n_range[1] + 1):
            for v in range(graph.n):
                dev = abs(w[v] - w[sigma[v]])
                max_dev = max(max_dev, float(dev))
                symmetric = symmetric and dev == 0
        for members in equivalence_classes(graph).classes:
            for z in members if len(members) > 1 else ():
                w_sub = rule(graph.remove_vertex(z))
                for y in range(graph.n):
                    if not graph.closed(z) >> y & 1:
                        max_dev = max(max_dev, float(abs(w[y] - w_sub[graph.labels[y]])))
    return max_dev, symmetric


class TestImpossibilityDemo:
    def test_refuted_with_the_known_contradiction(self):
        trace = strict_locality_demo()
        assert trace.refuted
        assert "1/2" in trace.contradiction
        assert len(trace.stages) == 7

    def test_stage_values_match_the_hand_derivation(self):
        trace = strict_locality_demo()
        by_name = {stage.name: stage for stage in trace.stages}

        # after adding c2 the old chain end is pushed to zero
        assert by_name["add c2"].numeric["c1"] == Fraction(0)
        # after adding b2 the hub joins it
        assert by_name["add b2"].numeric["d"] == Fraction(0)
        # after adding a2 (two full legs) both c's and the hub are zero,
        # while the a's and b's still carry the path's two free values
        stage = by_name["add a2"]
        assert stage.numeric["c2"] == Fraction(0)
        assert stage.numeric["a1"] is None  # still symbolic
        assert stage.values["a1"] == stage.values["a2"]
        assert stage.values["b1"] == stage.values["b2"]
        assert stage.values["a1"] != stage.values["b1"]
        # fresh third-leg vertices are forced to zero immediately
        assert by_name["add c3"].numeric["c3"] == Fraction(0)
        assert by_name["add b3"].numeric["b3"] == Fraction(0)

    def test_final_stage_forces_the_contradiction(self):
        trace = strict_locality_demo()
        last = trace.stages[-1]
        assert last.numeric["a1"] == Fraction(0)
        assert last.numeric["b1"] == Fraction(1, 2)
        assert last.numeric["b3"] == Fraction(0)

    def test_protected_sets_follow_the_rule(self):
        """When u is added, every vertex outside N[x] for some existing
        neighbour x of u must keep its value."""
        trace = strict_locality_demo()
        stage = by = None
        for stage in trace.stages:
            if stage.name == "add c2":
                break
        assert set(stage.protected) == {"a1", "b1"}


class TestConjectureSearch:
    def test_zero_budget_is_empty(self):
        report = conjecture_search("mcc_axiom2", 0, seed=0)
        assert report.probed == 0
        assert list(report.witnesses) == []

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            conjecture_search("flat_earth", 5, seed=0)

    def test_deterministic(self):
        a = conjecture_search("mcc_axiom2", 25, seed=7)
        b = conjecture_search("mcc_axiom2", 25, seed=7)
        assert a.to_document() == b.to_document()

    def test_finds_the_paw_family_witness(self):
        report = conjecture_search("mcc_axiom2", 10, seed=0)
        assert report.witnesses
        first = report.witnesses[0]
        assert first.vertices == ("a", "b", "c", "d")
        assert Fraction(first.value) < 0
        assert first.value == "-1/4"

    def test_never_claims_proof(self):
        report = conjecture_search("entropy_negative_chi", 10, seed=0)
        assert "not a proof" in report.note or "stays open" in report.note


class TestAttack:
    def test_perfect_clones_leave_far_weights_untouched(self, three_points):
        mw = MetricWeighting.from_names("cu", Density.uniform(1))
        report = attack(three_points, "p1", k=4, eps=0, mw=mw, seed=0, exact=True)
        assert report.within_bound
        assert report.final_drift["p2"] == Fraction(0)
        assert report.max_far_drift == Fraction(0)

    def test_eps_clones_respect_the_budget(self, three_points):
        mw = MetricWeighting.from_names("cu", Density.uniform(1))
        report = attack(
            three_points, "p1", k=3, eps=Fraction(1, 8), mw=mw, seed=5
        )
        assert report.within_bound
        assert report.cumulative_bound > 0

    def test_uniform_contrast_mass(self, three_points):
        mw = MetricWeighting.from_names("cu", Density.uniform(1))
        report = attack(three_points, "p1", k=5, eps=0, mw=mw, seed=1, exact=True)
        assert report.stages[-1].uniform_family_mass == Fraction(1 + 5, 3 + 5)
