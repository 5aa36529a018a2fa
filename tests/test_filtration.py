"""Threshold graphs, duplicate classes, automorphisms, and radius events.

The weighting integral is piecewise constant between the radii where the
threshold graph changes, so ``threshold_radii`` must enumerate exactly the
pairwise distances below the disambiguation factor.  Automorphism
enumeration backs the symmetry audits and is checked against groups whose
order is known in closed form.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonewt import (
    CapExceeded,
    Filtration,
    Graph,
    add_clone,
    automorphisms,
    equivalence_classes,
    forbidden_intervals,
    load_instance,
    merge_intervals,
    neighborhood_graph,
    orbits,
    quotient,
    random_instance,
    threshold_radii,
)
from clonewt import filtration
from clonewt.audit import add_vertex_clone, random_graph

import numpy as np


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestGraph:
    def test_from_edges_basics(self, paw):
        assert paw.n == 4
        assert paw.edges() == [(0, 1), (1, 2), (1, 3), (2, 3)]
        assert paw.has_edge(2, 3)
        assert not paw.has_edge(0, 2)

    def test_closed_neighborhood_masks(self, paw):
        assert paw.closed(0) == 0b0011
        assert paw.closed(1) == 0b1111
        assert sorted(paw.neighbors(1)) == [0, 2, 3]

    def test_remove_vertex_relabels_consistently(self, paw):
        sub = paw.remove_vertex(1)
        assert sub.n == 3
        assert sub.labels == ("a", "c", "d")
        assert sub.has_edge(sub.labels.index("c") - 1, sub.labels.index("d") - 1) or \
            sub.has_edge(1, 2)

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0)])
        assert g.edges() == [(0, 1)]

    def test_self_loops_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    @pytest.mark.parametrize("edge", [(0, -1), (0, 3), (5, 1)])
    def test_out_of_range_vertices_rejected(self, edge):
        with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\).*n=3"):
            Graph.from_edges(3, [edge])

    @pytest.mark.parametrize("vertex", [-1, 4])
    def test_out_of_range_index_rejected(self, paw, vertex):
        with pytest.raises(IndexError, match=rf"vertex index {vertex} out of range for n=4"):
            paw.index(vertex)
        assert [paw.index(v) for v in (0, 3, "d")] == [0, 3, 3]

    def test_repeated_labels_rejected_by_name(self):
        with pytest.raises(ValueError, match="label 'a' appears more than once"):
            Graph(2, (0, 0), ("a", "a"))
        with pytest.raises(ValueError, match="label 'y' appears more than once"):
            Graph.from_edges(3, [(0, 1)], labels=("x", "y", "y"))
        # sweep graphs skip the checks by construction
        assert Graph._trusted(2, (0, 0), ("a", "a")).labels == ("a", "a")


class TestNeighborhoodGraph:
    def test_radius_sweep(self, three_points):
        # distances: 2/5, 8/5, 2
        assert neighborhood_graph(three_points, 0.1).edges() == []
        assert neighborhood_graph(three_points, 0.4).edges() == [(0, 1)]
        assert neighborhood_graph(three_points, 1.7).edges() == [(0, 1), (1, 2)]
        g = neighborhood_graph(three_points, 2.0)
        assert len(g.edges()) == 3

    def test_exact_comparison_at_a_breakpoint(self):
        inst = load_instance(
            {"kind": "points", "points": [[Fraction(0)], [Fraction(1, 3)]]}
        )
        assert neighborhood_graph(inst, Fraction(1, 3), exact=True).has_edge(0, 1)
        assert not neighborhood_graph(
            inst, Fraction(1, 3) - Fraction(1, 10**12), exact=True
        ).has_edge(0, 1)

    def test_labels_carry_over(self, three_points):
        g = neighborhood_graph(three_points, 0.5)
        assert g.labels == ("p0", "p1", "p2")


class TestThresholdRadii:
    def test_three_points(self, three_points):
        assert threshold_radii(three_points, 1) == [pytest.approx(0.4)]
        assert threshold_radii(three_points, 2) == [
            pytest.approx(0.4),
            pytest.approx(1.6),
            pytest.approx(2.0),
        ]

    def test_exact_mode_returns_fractions(self, three_points):
        radii = threshold_radii(three_points, Fraction(2), exact=True)
        assert radii == [Fraction(2, 5), Fraction(8, 5), Fraction(2)]

    def test_deduplicates_repeated_distances(self):
        inst = load_instance(
            {"kind": "points", "points": [[0], [1], [2]]}
        )
        assert threshold_radii(inst, 3) == [1.0, 2.0]
        assert threshold_radii(inst, 1.5) == [1.0]

    def test_exact_radius_above_its_float_image(self):
        """d = 3/50 exactly, but the float distance of the rounded
        coordinates exceeds float(3/50): exact mode still sees the pair."""
        inst = load_instance(
            {"kind": "points", "points": [[Fraction(1, 100)], [Fraction(7, 100)]]}
        )
        assert inst.dist[0, 1] > float(Fraction(3, 50))
        assert threshold_radii(inst, Fraction(3, 50), exact=True) == [Fraction(3, 50)]
        assert threshold_radii(inst, Fraction(3, 50)) == []

    @given(
        n=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=30, deadline=None)
    def test_graph_only_changes_at_threshold_radii(self, n, seed):
        """Between consecutive radii the threshold graph is constant."""
        inst = random_instance("euclidean", n, seed, dim=1)
        alpha = 1.0
        radii = threshold_radii(inst, alpha)
        grid = [0.0] + radii + [alpha]
        for lo, hi in zip(grid, grid[1:]):
            if hi - lo < 1e-9:
                continue
            mid = (lo + hi) / 2
            probe = mid + (hi - lo) / 4
            assert neighborhood_graph(inst, mid).edges() == neighborhood_graph(
                inst, probe
            ).edges(), f"graph changed inside ({lo}, {hi}): n={n} seed={seed}"


class TestFiltration:
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("kind, seed", [("euclidean", 1), ("euclidean", 2),
                                            ("shortest_path", 3), ("shortest_path", 4)])
    def test_sweep_graphs_are_valid_threshold_graphs(self, kind, seed, exact):
        """Each graph the sweep yields passes the public validation and is
        the neighbourhood graph at its radius."""
        inst = random_instance(kind, 9, seed)
        alpha = Fraction(3, 4)
        filt = Filtration(inst, alpha, exact=exact)
        assert filt.radii == threshold_radii(inst, alpha, exact=exact)
        seen = 0
        for r, g in filt.graphs():
            assert Graph(g.n, g.nbrs, g.labels) == g
            assert g == neighborhood_graph(inst, r, exact=exact)
            seen += 1
        assert seen == len(filt.radii) + 1

    def test_pairs_beyond_alpha_are_not_listed(self, three_points):
        filt = Filtration(three_points, Fraction(1), exact=True)
        assert filt.base == []
        assert filt.radii == [Fraction(2, 5)]
        assert filt.pairs == [[(0, 1)]]

    def test_zero_distance_pairs_join_from_the_start(self):
        inst = load_instance({"kind": "matrix", "distances": [[0, 0, 1], [0, 0, 1], [1, 1, 0]]})
        filt = Filtration(inst, 2)
        assert filt.base == [(0, 1)]
        assert filt.radii == [1.0]
        r, g = next(filt.graphs())
        assert r == 0 and g.edges() == [(0, 1)]


def _grouped(inst, alpha, exact):
    """(base, radii, pairs) by grouping every pair within alpha in a dict
    keyed by its distance, pairs in (i, j) order."""
    a = Fraction(alpha) if exact else float(alpha)
    groups: dict = {}
    for u, v in itertools.combinations(range(inst.n), 2):
        r = inst.d_exact(u, v) if exact else float(inst.dist[u, v])
        if r <= a:
            groups.setdefault(r, []).append((u, v))
    base = groups.pop(0, [])
    radii = sorted(groups)
    return base, radii, [groups[r] for r in radii]


def _decimal_csv(path, seed: int):
    """A CSV matrix of two-decimal L1 distances between seeded points on a
    line, with repeated points and many tied distances."""
    rng = np.random.default_rng(seed)
    cents = rng.integers(0, 60, size=12).tolist()
    rows = [",".join(f"0.{abs(a - b):02d}" for b in cents) for a in cents]
    path.write_text("\n".join([",".join(f"c{k}" for k in range(len(cents))), *rows]) + "\n")
    return load_instance(path)


def _setup_instances(tmp_path):
    """Every kind of input the sorted pass keys differently: float points
    in 2 and 3 dimensions with planted copies, 1-D exact decimals, exact
    matrices (some with keys past int64), CSV decimals and dyadic
    shortest-path closures, with clones added."""
    out = []
    for dim, seed in [(2, 1), (2, 2), (3, 3), (3, 4)]:
        inst = random_instance("euclidean", 20, seed, dim=dim)
        inst = add_clone(add_clone(inst, 3, 0, seed), 5, Fraction(1, 100), seed)
        out += [inst, _planted_cloud(seed, dim, exact=False)]
    out.append(_planted_cloud(5, 1, exact=True))
    out.append(load_instance({"kind": "points", "points": [
        [Fraction("1.8e-16")], [Fraction("1.9e-15")], [Fraction("3.62e-15")]]}))
    rng = np.random.default_rng(6)
    decimals = [Fraction(f"{int(k)}.{int(m):03d}") for k, m in rng.integers(0, 3, (14, 2)) * [1, 337]]
    out.append(load_instance({"kind": "points", "points": [[x] for x in decimals]}))
    thirds = [(Fraction(int(a), 3), Fraction(int(b), 7)) for a, b in rng.integers(0, 5, (10, 2))]
    out.append(load_instance({"kind": "matrix", "distances": [
        [abs(a - c) + abs(b - d) for c, d in thirds] for a, b in thirds]}))
    wide = 3**45  # numerators over this denominator pass 2**63
    out.append(load_instance({"kind": "points", "points": [
        [Fraction(int(k) * 10**20, wide)] for k in rng.integers(0, 9, 10)]}))
    out.append(_decimal_csv(tmp_path / "cents.csv", 7))
    for seed in (8, 9):
        inst = random_instance("shortest_path", 14, seed)
        out += [inst, add_clone(inst, 2, 0, seed), add_clone(inst, 4, Fraction(1, 16), seed)]
    return out


class TestSortedFiltration:
    """``Filtration`` sorts the near pairs once and cuts the sorted list;
    it lists what grouping every pair by its distance in a dict lists, with
    the same types, in float and exact mode."""

    @pytest.mark.parametrize("exact", [False, True])
    def test_equal_to_the_dict_grouping(self, tmp_path, exact):
        checked = 0
        for inst in _setup_instances(tmp_path):
            pairs = itertools.combinations(range(inst.n), 2)
            dist = inst.d_exact if exact else lambda u, v: float(inst.dist[u, v])
            radii = sorted({dist(u, v) for u, v in pairs} - {0})
            picks = sorted({0, len(radii) // 3, len(radii) // 2, len(radii) - 1})
            alphas = [radii[k] for k in picks] + [(radii[k] + radii[k + 1]) / 2
                                                  for k in picks if k + 1 < len(radii)]
            for alpha in alphas:
                filt = Filtration(inst, alpha, exact=exact)
                base, radii_want, pairs_want = _grouped(inst, alpha, exact)
                where = (inst.n, alpha, exact)
                assert filt.base == base and filt.radii == radii_want, where
                assert filt.pairs == pairs_want, where
                assert list(map(type, filt.radii)) == list(map(type, radii_want)), where
                assert all(type(u) is type(v) is int
                           for u, v in itertools.chain(filt.base, *filt.pairs)), where
                assert threshold_radii(inst, alpha, exact=exact) == radii_want
                checked += 1
        assert checked > 100

    def test_equal_exact_distances_with_unequal_floats_are_one_radius(self):
        """(0, 1) and (1, 2) are both exactly 1.72e-15 apart, but their
        float distances differ in the last place."""
        inst = load_instance({"kind": "points", "points": [
            [Fraction("1.8e-16")], [Fraction("1.9e-15")], [Fraction("3.62e-15")]]})
        assert inst.dist[0, 1] != inst.dist[1, 2]
        filt = Filtration(inst, 1, exact=True)
        assert filt.radii == [Fraction("1.72e-15"), Fraction("3.44e-15")]
        assert filt.pairs == [[(0, 1), (1, 2)], [(0, 2)]]

    def test_keys_past_int64_sort_as_integers(self):
        wide = 3**45
        inst = load_instance({"kind": "points", "points": [
            [Fraction(k * 10**20, wide)] for k in (4, 0, 2, 4, 1)]})
        filt = Filtration(inst, 1, exact=True)
        step = Fraction(10**20, wide)
        assert filt.base == [(0, 3)]
        assert filt.radii == [step, 2 * step, 3 * step, 4 * step]
        assert filt.pairs == [[(1, 4), (2, 4)], [(0, 2), (1, 2), (2, 3)], [(0, 4), (3, 4)], [(0, 1), (1, 3)]]


class TestEquivalenceClasses:
    def test_paw_classes(self, paw):
        part = equivalence_classes(paw)
        assert part.classes == ((0,), (1,), (2, 3))
        assert part.class_of[2] == part.class_of[3]

    def test_quotient_collapses_duplicates(self, paw):
        q = quotient(paw)
        assert q.graph.n == 3
        assert q.partition.classes == ((0,), (1,), (2, 3))
        assert q.graph.labels == ("a", "b", "c+d")
        # quotient of a triangle-with-pendant: path a - b - {c,d}
        assert len(q.graph.edges()) == 2

    def test_quotient_rejects_classes_that_are_not_duplicates(self):
        # masks only a graph built without validation can have: 0 and 1
        # share N[] = {0, 1, 2}, but 2 sees only 0
        masks = (0b110, 0b101, 0b001)
        broken = Graph._trusted(3, masks, ("a", "b", "c"))
        with pytest.raises(RuntimeError, match="not well-defined"):
            quotient(broken)

    def test_complete_graph_is_one_class(self):
        part = equivalence_classes(complete_graph(5))
        assert part.classes == (tuple(range(5)),)


def _planted_cloud(seed: int, dim: int, exact: bool):
    """A seeded cloud on a half-integer grid, so many pairs share a
    distance (multi-pair events), with exact copies planted (distance-0
    base pairs)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 22))
    pts = [[Fraction(int(c), 2) for c in rng.integers(0, 7, size=dim)] for _ in range(n)]
    pts += [list(pts[int(i)]) for i in rng.integers(0, n, size=3)]
    if not exact:
        pts = [[float(c) for c in p] for p in pts]
    return load_instance({"kind": "points", "points": pts})


def _assert_state_holds(state, g, where):
    """The classes a ``_TwinState`` holds are those of the graph g."""
    assert state.masks == list(g.nbrs), where
    want = equivalence_classes(g)
    grouped: dict[int, list[int]] = {}
    for v, c in enumerate(state.cid):
        grouped.setdefault(c, []).append(v)
    assert sorted(map(tuple, grouped.values())) == sorted(want.classes), where
    assert [state.size[c] for c in state.cid] == list(want.size_of), where
    assert len(state.by_key) == want.count, where


class TestMaintainedClasses:
    """The classes a sweep keeps up to date (``_TwinState``) equal the ones
    computed from each event's graph, at every event."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_equal_to_from_scratch_at_every_event(self, seed, dim, exact):
        inst = _planted_cloud(seed, dim, exact)
        filt = Filtration(inst, Fraction(5, 2), exact=exact)
        assert filt.base, "the planted copies give distance-0 pairs"
        assert any(len(pairs) > 1 for pairs in filt.pairs)
        state = filtration._TwinState(inst.n)
        for pairs, (r, g) in zip([filt.base, *filt.pairs], filt.graphs()):
            state.add(pairs)
            _assert_state_holds(state, g, f"r={r}")

    @pytest.mark.parametrize("seed", range(6))
    def test_state_of_a_graph_walks_on_like_the_kept_one(self, seed):
        """``_TwinState.of`` the graph at an event holds that graph's
        classes, with ids in order of least member, and adding the later
        events to it keeps them equal to each event's."""
        inst = _planted_cloud(seed, 2, False)
        filt = Filtration(inst, Fraction(5, 2))
        events = [filt.base, *filt.pairs]
        graphs = [g for _, g in filt.graphs()]
        for start in range(0, len(events), max(1, len(events) // 4)):
            state = filtration._TwinState.of(list(graphs[start].nbrs))
            assert state.cid == list(equivalence_classes(graphs[start]).class_of)
            _assert_state_holds(state, graphs[start], f"start {start}")
            for k in range(start + 1, len(events)):
                state.add(events[k])
                _assert_state_holds(state, graphs[k], f"start {start}, event {k}")

    def test_vertex_joining_a_class_below_its_least_member(self):
        """At r=2 vertex 0 gains 3 and joins {1, 2}, whose least member it
        becomes; then 3 joins too."""
        inst = load_instance({"kind": "points", "points": [[0], [1], [1], [2]]})
        *_, (r, g) = Filtration(inst, 2).graphs()
        assert r == 2.0
        assert equivalence_classes(g).classes == ((0, 1, 2, 3),)
        steps = [(r, equivalence_classes(g).classes, quotient(g).graph.labels)
                 for r, g in Filtration(inst, 2).graphs()]
        assert steps == [
            (0.0, ((0,), (1, 2), (3,)), ("e0", "e1+e2", "e3")),
            (1.0, ((0,), (1, 2), (3,)), ("e0", "e1+e2", "e3")),
            (2.0, ((0, 1, 2, 3),), ("e0+e1+e2+e3",)),
        ]


class TestAutomorphisms:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_complete_graph_group_order(self, n):
        assert len(automorphisms(complete_graph(n))) == math.factorial(n)

    def test_path_graph_has_reversal_only(self):
        autos = automorphisms(path_graph(5))
        assert len(autos) == 2
        assert (4, 3, 2, 1, 0) in autos

    def test_paw_swaps_the_duplicate_pair(self, paw):
        autos = automorphisms(paw)
        assert set(autos) == {(0, 1, 2, 3), (0, 1, 3, 2)}

    def test_orbits_of_paw(self, paw):
        assert orbits(paw) == ((0,), (1,), (2, 3))

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded, match="automorphism_vertices"):
            automorphisms(path_graph(9))
        assert len(automorphisms(path_graph(9), cap=9)) == 2
        with pytest.raises(CapExceeded, match="automorphism_vertices"):
            orbits(path_graph(9))
        assert orbits(path_graph(9), cap=9) == ((0, 8), (1, 7), (2, 6), (3, 5), (4,))

    def test_orbits_of_a_symmetric_graph_without_the_group(self):
        # 8! automorphisms; the orbit search needs only a handful of them
        assert orbits(Graph.from_edges(8, [])) == (tuple(range(8)),)
        assert orbits(complete_graph(8)) == (tuple(range(8)),)

    @pytest.mark.parametrize("seed", range(40))
    def test_orbits_equal_the_whole_group_orbits(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(2 + seed % 6, float(rng.uniform(0.1, 0.9)), rng)
        if seed % 2:
            g = add_vertex_clone(g, int(rng.integers(0, g.n)))
        n = g.n
        parent = list(range(n))
        for sigma in automorphisms(g):
            for v in range(n):
                a, b = sorted((parent[v], parent[sigma[v]]))
                parent = [a if p == b else p for p in parent]
        groups = {}
        for v in range(n):
            groups.setdefault(parent[v], []).append(v)
        assert orbits(g) == tuple(sorted(tuple(vs) for vs in groups.values()))

    @pytest.mark.parametrize("seed", range(30))
    def test_automorphisms_equal_a_brute_force_filter(self, seed):
        """Both list the group in lexicographic order."""
        rng = np.random.default_rng(seed)
        g = random_graph(1 + seed % 5, float(rng.uniform(0.1, 0.9)), rng)
        if seed % 2:
            g = add_vertex_clone(g, int(rng.integers(0, g.n)))
        # a permutation that maps every edge to an edge maps non-edges to
        # non-edges too, since the edge count is finite
        want = [
            sigma for sigma in itertools.permutations(range(g.n))
            if all(g.has_edge(sigma[u], sigma[v]) for u, v in g.edges())
        ]
        assert automorphisms(g) == want

    @given(
        n=st.integers(min_value=2, max_value=7),
        seed=st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=40, deadline=None)
    def test_automorphisms_preserve_adjacency(self, n, seed):
        inst = random_instance("shortest_path", n, seed)
        g = neighborhood_graph(inst, 0.6)
        for sigma in automorphisms(g):
            for u in range(n):
                for v in range(u + 1, n):
                    assert g.has_edge(u, v) == g.has_edge(sigma[u], sigma[v]), (
                        f"sigma={sigma} breaks edge ({u},{v}): n={n} seed={seed}"
                    )


class TestIntervals:
    def test_merge_intervals(self):
        assert merge_intervals([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == [
            (0.0, 2.0),
            (3.0, 4.0),
        ]
        assert merge_intervals([]) == []

    def test_touching_intervals_merge(self):
        assert merge_intervals([(0.0, 1.0), (1.0, 2.0)]) == [(0.0, 2.0)]

    def test_forbidden_intervals_cover_disagreement_radii(self, three_points):
        """Each witness z contributes the window d(x, z) +/- d(x, y); the
        merged cover bounds where x and y can have different neighbourhoods."""
        intervals = forbidden_intervals(three_points, "p0", "p1")
        assert intervals == [
            (pytest.approx(0.0), pytest.approx(0.8)),
            (pytest.approx(1.6), pytest.approx(2.4)),
        ]
        measure = sum(hi - lo for lo, hi in intervals)
        assert measure <= 2 * 3 * 0.4 + 1e-12

    def test_forbidden_intervals_vanish_for_true_duplicates(self):
        inst = load_instance(
            {"kind": "matrix", "distances": [[0, 0, 1], [0, 0, 1], [1, 1, 0]]}
        )
        assert forbidden_intervals(inst, 0, 1) == []
