"""Radius densities and the integrated weighting pipeline.

``evaluate`` integrates a graph rule against the radius density in closed
form over the breakpoint decomposition; the Riemann-midpoint oracle is an
independent slow path, and agreement between the two on random instances
is the main correctness evidence for the integrator.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonewt import (
    CapExceeded,
    Density,
    Filtration,
    Graph,
    MetricWeighting,
    add_clone,
    evaluate,
    evaluate_all,
    load_instance,
    neighborhood_graph,
    random_instance,
    riemann_oracle,
    sample_labels,
    w_uniform,
)
from clonewt import rules, weighting
from clonewt.rules import _maximal_clique_masks, _mcca_pairs


class TestDensity:
    def test_uniform_basics(self):
        d = Density.uniform(2)
        assert d.alpha == Fraction(2)
        assert d.nu_bar == Fraction(1, 2)
        assert d.cdf(0) == 0
        assert d.cdf(1) == Fraction(1, 2)
        assert d.cdf(Fraction(2)) == 1
        assert d.pdf(1.0) == pytest.approx(0.5)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Density.uniform(0)

    def test_piecewise_linear_cdf(self):
        knots = [(0, 0), (Fraction(1, 2), Fraction(3, 4)), (1, 1)]
        d = Density.piecewise_linear_cdf(knots)
        assert d.alpha == Fraction(1)
        assert d.cdf(Fraction(1, 4)) == Fraction(3, 8)
        # density is 3/2 on the first leg, 1/2 on the second
        assert d.nu_bar == Fraction(3, 2)
        assert d.pdf(0.25) == pytest.approx(1.5)
        assert d.pdf(0.75) == pytest.approx(0.5)

    def test_cdf_must_be_monotone(self):
        with pytest.raises(ValueError):
            Density.piecewise_linear_cdf([(0, 0), (1, Fraction(11, 10))])
        with pytest.raises(ValueError):
            Density.piecewise_linear_cdf([(0, 0), (Fraction(1, 2), 1), (1, Fraction(1, 2))])

    def test_knot_radii_sorted(self):
        d = Density.piecewise_linear_cdf([(0, 0), (Fraction(1, 3), Fraction(1, 2)), (1, 1)])
        assert d.knot_radii() == [Fraction(0), Fraction(1, 3), Fraction(1)]


class TestEvaluate:
    def test_three_point_exact_ledger(self, three_points):
        mw = MetricWeighting.from_names("cu", Density.uniform(1))
        w = evaluate_all(three_points, mw, exact=True)
        assert [w[lab] for lab in three_points.labels] == [
            Fraction(17, 60),
            Fraction(17, 60),
            Fraction(13, 30),
        ]

    def test_exact_and_float_agree(self, three_points):
        mw = MetricWeighting.from_names("cu", Density.uniform(1))
        exact = evaluate_all(three_points, mw, exact=True)
        approx = evaluate_all(three_points, mw)
        for lab in three_points.labels:
            assert float(exact[lab]) == pytest.approx(approx[lab], abs=1e-12)

    def test_weights_sum_to_one_exactly(self, three_points):
        mw = MetricWeighting.from_names("mcca", Density.uniform(2))
        w = evaluate_all(three_points, mw, exact=True)
        assert sum(w[lab] for lab in three_points.labels) == Fraction(1)

    def test_single_element(self):
        inst = load_instance({"kind": "points", "points": [[0.0]]})
        mw = MetricWeighting.from_names("cu", Density.uniform(1))
        assert evaluate(inst, 0, mw) == pytest.approx(1.0)

    def test_entropy_rule_has_no_exact_path(self, three_points):
        mw = MetricWeighting.from_names("entropy", Density.uniform(1))
        with pytest.raises(ValueError, match="exact"):
            evaluate_all(three_points, mw, exact=True)
        w = evaluate_all(three_points, mw)
        assert sum(w[lab] for lab in three_points.labels) == pytest.approx(1.0)

    def test_oracle_agreement_on_the_ledger_instance(self, three_points):
        mw = MetricWeighting.from_names("cu", Density.uniform(1))
        for x in range(3):
            direct = evaluate(three_points, x, mw)
            slow = riemann_oracle(three_points, x, mw, steps=200_000)
            assert direct == pytest.approx(slow, abs=1e-5), f"element {x}"

    @given(
        kind=st.sampled_from(["euclidean", "shortest_path"]),
        n=st.integers(min_value=2, max_value=7),
        seed=st.integers(min_value=0, max_value=9999),
        rule=st.sampled_from(["cu", "mccp", "smooth:cu"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_oracle_agreement_on_random_instances(self, kind, n, seed, rule):
        inst = random_instance(kind, n, seed)
        mw = MetricWeighting.from_names(rule, Density.uniform(1))
        bound = float(mw.density.nu_bar) * 1e-4 + 1e-9
        for x in range(n):
            direct = evaluate(inst, x, mw)
            slow = riemann_oracle(inst, x, mw, steps=10_000)
            assert abs(direct - slow) <= bound * 10, (
                f"kind={kind} n={n} seed={seed} rule={rule} x={x}: "
                f"{direct} vs oracle {slow}"
            )

    def test_nonuniform_density_shifts_mass(self, three_points):
        """A density concentrated below the first breakpoint sees mostly
        the discrete graph, pushing weights toward uniform."""
        early = Density.piecewise_linear_cdf([(0, 0), (Fraction(2, 5), Fraction(19, 20)), (1, 1)])
        mw_early = MetricWeighting.from_names("cu", early)
        mw_flat = MetricWeighting.from_names("cu", Density.uniform(1))
        w_early = evaluate_all(three_points, mw_early, exact=True)
        w_flat = evaluate_all(three_points, mw_flat, exact=True)
        # below r = 2/5 all three are singleton classes (uniform 1/3 each)
        assert abs(w_early["p2"] - Fraction(1, 3)) < abs(w_flat["p2"] - Fraction(1, 3))


def per_event_reference(inst, mw, exact):
    """Weights by the definition, event by event: the distinct distances in
    (0, alpha] from a scan of every pair, ``neighborhood_graph`` at each,
    the rule, and plain per-vertex sums (``Fraction`` in exact mode)."""
    n = inst.n
    if exact:
        dist, alpha, cdf = inst.d_exact, mw.density.alpha, mw.density.cdf
    else:
        dist, alpha = inst.d, float(mw.density.alpha)
        cdf = lambda r: float(mw.density.cdf(r))
    radii = sorted({dist(i, j) for i in range(n) for j in range(i + 1, n)
                    if 0 < dist(i, j) <= alpha})
    grid = [Fraction(0) if exact else 0.0] + radii
    acc = [Fraction(0) if exact else 0.0] * n
    for r, r_next in zip(grid, grid[1:] + [alpha]):
        increment = cdf(r_next) - cdf(r)
        if increment == 0:
            continue
        w = mw.rule(neighborhood_graph(inst, r, exact=exact))
        for v in range(n):
            acc[v] += increment * (w[v] if exact else float(w[v]))
    return acc


def _decimal_csv(path, seed, size=8):
    """A CSV matrix of two-decimal 1-D distances with a planted duplicate."""
    rng = np.random.default_rng(seed)
    coords = [int(c) for c in rng.integers(0, 60, size=size)]
    coords.append(coords[0])
    rows = [",".join(f"e{i}" for i in range(len(coords)))]
    rows += [",".join(f"{abs(a - b) / 100:.2f}" for b in coords) for a in coords]
    path.write_text("\n".join(rows) + "\n")
    return load_instance(path)


SWEEP_RULES = ["cu", "lift:uniform", "uniform", "mcca", "mccp", "smooth:cu", "lift:mcca",
               "lift:mccp"]


class TestSweepAgainstPerEventReference:
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("rule", SWEEP_RULES)
    @pytest.mark.parametrize("kind", ["points-2d", "points-1d", "matrix", "csv"])
    def test_equal_to_the_reference(self, kind, rule, exact, tmp_path):
        alpha = Fraction(1, 2)
        for seed in (1, 2):
            if kind == "points-2d":
                inst = random_instance("euclidean", 8, seed)
                inst = add_clone(add_clone(inst, 0, 0, seed), 1, Fraction(1, 20), seed)
            elif kind == "points-1d":
                rng = np.random.default_rng(seed)
                coords = [Fraction(int(c), 50) for c in rng.integers(0, 40, size=9)]
                inst = load_instance({"kind": "points", "points": [[c] for c in coords]})
            elif kind == "matrix":
                inst = add_clone(random_instance("shortest_path", 8, seed), 2, 0, seed)
                alpha = Fraction(3, 4)
            else:
                inst = _decimal_csv(tmp_path / f"m{seed}.csv", seed)
                alpha = Fraction(1, 4)
            mw = MetricWeighting.from_names(rule, Density.uniform(alpha))
            got = evaluate_all(inst, mw, exact=exact).values
            want = per_event_reference(inst, mw, exact)
            assert list(got) == want, f"{kind} seed={seed}"
            assert all(isinstance(v, Fraction if exact else float) for v in got)


def _clouds():
    """Seeded 1-D and 2-D clouds with exact copies and many tied distances."""
    out = []
    for seed, dim in [(1, 1), (2, 2), (3, 2), (4, 1)]:
        rng = np.random.default_rng(seed)
        pts = [[Fraction(int(c), 4) for c in rng.integers(0, 12, size=dim)]
               for _ in range(16)]
        pts += [list(pts[i]) for i in (0, 3, 3)]
        out.append(load_instance({"kind": "points", "points": pts}))
    return out


def _plain(rule):
    """``rule`` behind a callable that ``evaluate_all`` does not recognise,
    so that it is called on every event's graph."""
    return lambda graph: rule(graph)


def _l1_lattice(seed, side=7):
    """Jittered integer lattice points under the L1 metric, in multiples
    of 1/16, with planted copies: many tied distances, so dense events."""
    rng = np.random.default_rng(seed)
    pts = [(2 * i + int(rng.integers(0, 2)), 2 * j + int(rng.integers(0, 2)))
           for i in range(side) for j in range(side)]
    pts += [pts[int(k)] for k in rng.integers(0, len(pts), size=4)]
    dist = [[Fraction(abs(a - c) + abs(b - d), 16) for c, d in pts] for a, b in pts]
    return load_instance({"kind": "matrix", "distances": dist})


#: a CDF that is flat on [1/4, 1]: the events there have zero increments
_FLAT_PIECE = [(0, 0), (Fraction(1, 4), Fraction(1, 2)), (1, Fraction(1, 2)), (Fraction(3, 2), 1)]


def _sweep_cases(kind, tmp_path):
    """Seeded (instance, density) pairs that stress the sweep's bookkeeping
    of duplicate classes and clique covers."""
    if kind == "clouds":
        return [(inst, Density.uniform(Fraction(3, 2))) for inst in _clouds()]
    if kind == "flat-cdf":
        density = Density.piecewise_linear_cdf(_FLAT_PIECE)
        return [(inst, density) for inst in _clouds()]
    if kind == "dense-ties":  # 61 elements at 60 two-decimal positions
        inst = _decimal_csv(tmp_path / "ties.csv", 5, size=60)
        return [(inst, Density.uniform(Fraction(1, 4)))]
    if kind == "l1-lattice":  # events that add many pairs at once
        return [(_l1_lattice(seed), Density.uniform(Fraction(1, 2))) for seed in (1, 2)]
    rng = np.random.default_rng(7)  # 110 points on a grid of 1/32
    pts = [[Fraction(int(c), 32) for c in rng.integers(0, 64, size=2)] for _ in range(100)]
    pts += [list(pts[i]) for i in range(0, 100, 10)]
    inst = load_instance({"kind": "points", "points": pts})
    return [(inst, Density.uniform(Fraction(1, 4)))]


SWEEP_KINDS = ["clouds", "flat-cdf", "dense-ties", "l1-lattice", "n110"]


class TestMaintainedClassesInTheSweep:
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize(
        "rule",
        ["cu", "lift:uniform", "lift:cu", "smooth:cu", "mcca", "mccp", "smooth:mcca",
         "smooth:mccp", "smooth:lift:uniform", "smooth:smooth:cu"],
    )
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_equal_to_classes_from_scratch(self, kind, rule, exact, tmp_path):
        """Against the rule called on every event's graph, with the classes
        (and, for the clique rules, the clique cover) computed from scratch:
        equal ``Fraction``s in exact mode, equal floats otherwise."""
        for inst, density in _sweep_cases(kind, tmp_path):
            mw = MetricWeighting.from_names(rule, density)
            got = evaluate_all(inst, mw, exact=exact).values
            slow = MetricWeighting(_plain(mw.rule), density, rule_name=rule)
            want = evaluate_all(inst, slow, exact=exact).values
            assert got == want
            assert all(type(v) is type(w) for v, w in zip(got, want))

    @pytest.mark.parametrize("rule", ["cu", "lift:uniform"])
    def test_sweep_never_builds_classes_from_scratch(self, rule, monkeypatch):
        calls = []
        for name in ("equivalence_classes", "quotient"):
            original = getattr(rules, name)
            monkeypatch.setattr(
                rules, name, lambda g, f=original, name=name: calls.append(name) or f(g)
            )
        mw = MetricWeighting.from_names(rule, Density.uniform(Fraction(3, 2)))
        for inst in _clouds():
            for exact in (False, True):
                evaluate_all(inst, mw, exact=exact)
        assert calls == []
        rules.w_cu(Graph.from_edges(3, [(0, 1)]))
        assert calls == ["equivalence_classes"]


def _counting(rule, calls):
    """``rule`` behind a ``functools.wraps`` wrapper that records each call."""

    @functools.wraps(rule)
    def counted(graph):
        calls.append(graph)
        return rule(graph)

    return counted


def _driven(inst, density, exact, read):
    """The steps of the sweep driver over ``inst``'s events, built from
    ``Filtration`` and the CDF increments of ``density``."""
    filt = Filtration(inst, density.alpha, exact=exact)
    events = zip([filt.base, *filt.pairs], weighting._increments(filt, density, exact))
    return list(weighting._pairs_sweep(events, inst.n, inst.labels, read, exact))


class TestClassUniformDispatch:
    """``cu``, ``lift:uniform``, ``mcca``, ``mccp`` and ``smooth`` over any
    of them are integrated without a rule call per event; which path a
    sweep takes follows the callable, not the name."""

    @pytest.mark.parametrize(
        "rule, events",
        [("cu", 0), ("lift:uniform", 0), ("lift:cu", 3), ("smooth:cu", 0), ("mcca", 0),
         ("mccp", 0), ("lift:mcca", 3), ("smooth:mcca", 0), ("lift:mccp", 3),
         ("smooth:mccp", 0), ("smooth:lift:uniform", 0), ("smooth:degree", 3),
         ("smooth:lift:mcca", 3)],
    )
    def test_rule_calls_per_sweep(self, three_points, rule, events):
        """A ``functools.wraps`` wrapper (as a tracer adds) keeps the path."""
        mw = MetricWeighting.from_names(rule, Density.uniform(2))
        calls = []
        wrapped = MetricWeighting(_counting(mw.rule, calls), mw.density, rule_name=rule)
        got = evaluate_all(three_points, wrapped, exact=True)
        assert len(calls) == events
        assert got == evaluate_all(three_points, mw, exact=True)
        if rule in ("lift:cu", "smooth:degree"):
            # the pieces with nonzero increments start at 0, 2/5 and 8/5
            radii = [Fraction(0), Fraction(2, 5), Fraction(8, 5)]
            assert calls == [neighborhood_graph(three_points, r, exact=True) for r in radii]

    @pytest.mark.parametrize("exact", [False, True])
    def test_smoothed_weights_are_checked_to_sum_to_one(self, three_points, exact):
        """As ``WeightVector`` checks them in the per-event loop, in float
        mode too: a base whose pairs sum to 3/2 is refused."""
        half = weighting._Reader(lambda kept: [(1, 2)] * kept.n)
        reader = weighting._smoothed(half)
        with pytest.raises(ValueError, match="smoothed weights sum to 3/2, expected 1"):
            _driven(three_points, Density.uniform(2), exact, reader)

    def test_another_callable_named_cu_is_called_per_event(self, three_points):
        calls = []
        mw = MetricWeighting(_counting(w_uniform, calls), Density.uniform(2), rule_name="cu")
        w = evaluate_all(three_points, mw, exact=True)
        assert len(calls) == 3
        assert w.values == (Fraction(1, 3),) * 3

    def test_another_callable_named_mcca_is_called_per_event(self, three_points):
        calls = []
        mw = MetricWeighting(_counting(w_uniform, calls), Density.uniform(2), rule_name="mcca")
        w = evaluate_all(three_points, mw, exact=True)
        assert len(calls) == 3
        assert w.values == (Fraction(1, 3),) * 3


@st.composite
def densities(draw):
    """Uniform densities and piecewise-linear CDFs (flat pieces included)
    on [0, alpha] with rational knots."""
    alpha = Fraction(draw(st.integers(1, 400)), draw(st.integers(1, 64)))
    if draw(st.booleans()):
        return Density.uniform(alpha)
    cuts = draw(st.lists(st.integers(1, 999), min_size=1, max_size=5, unique=True))
    levels = sorted(draw(st.lists(st.fractions(0, 1, max_denominator=50),
                                  min_size=len(cuts), max_size=len(cuts))))
    knots = [(0, 0), *((alpha * Fraction(c, 1000), f) for c, f in zip(sorted(cuts), levels)),
             (alpha, 1)]
    return Density.piecewise_linear_cdf(knots)


class TestFloatCdf:
    @settings(max_examples=300, deadline=None)
    @given(densities(), st.lists(st.floats(-1, 1000, allow_nan=False), max_size=40))
    def test_equal_to_the_fraction_cdf(self, density, drawn):
        """Bit for bit ``float(density.cdf(r))``, at knot radii, 0,
        ``float(alpha)`` and radii past alpha too."""
        alpha = float(density.alpha)
        knots = [float(r) for r in density.knot_radii()]
        near = [math.nextafter(r, d) for r in knots for d in (0, math.inf)]
        radii = sorted([0, 0.0, alpha, 2 * alpha, *knots, *near, *drawn])
        got = weighting._float_cdf(density, radii)
        assert got == [float(density.cdf(r)) for r in radii]
        assert all(type(v) is float for v in got)


def _read_graphs(inst, density, exact):
    """The sweep graphs that the per-event loop passes to the rule."""
    filt = Filtration(inst, density.alpha, exact=exact)
    increments = weighting._increments(filt, density, exact)
    return [g for (_, g), inc in zip(filt.graphs(), increments) if inc != 0]


#: six points with d = 2 between the pairs (0, 1), (2, 3), (4, 5) and d = 1
#: otherwise: G_r is edgeless, then the octahedron (8 maximal cliques), then K6
_OCTAHEDRON = [[0 if i == j else 2 if i // 2 == j // 2 else 1 for j in range(6)]
               for i in range(6)]
#: a CDF flat on [1, 2], so the octahedron is never read
_SKIP_OCTAHEDRON = [(0, 0), (1, Fraction(1, 2)), (2, Fraction(1, 2)), (3, 1)]


class TestKeptCliqueCover:
    """``mcca``, ``mccp`` and ``smooth`` over them are integrated from a
    clique cover kept across the sweep, re-enumerated only through the
    vertices the events touch."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_cover_equals_enumeration_from_scratch(self, kind, exact, tmp_path):
        """At every read piece, as a set of masks, each clique once."""
        for inst, density in _sweep_cases(kind, tmp_path):
            covers = []

            def record(kept):
                covers.append(list(kept.cover))
                return _mcca_pairs(kept.cover, kept.n)

            reader = weighting._Reader(record, cliques=True)
            _driven(inst, density, exact, reader)
            want = [set(_maximal_clique_masks(g.nbrs, 10**6))
                    for g in _read_graphs(inst, density, exact)]
            assert len(covers) == len(want)
            assert all(len(c) == len(set(c)) for c in covers)
            assert [set(c) for c in covers] == want

    @pytest.mark.parametrize("rule", ["mcca", "mccp", "smooth:mcca"])
    def test_cap_raises_as_in_the_per_event_loop(self, rule, monkeypatch):
        """Under every cap up to the largest cover read, the sweep raises
        the loop's ``CapExceeded`` or gives its weights."""
        inst, density = _clouds()[1], Density.uniform(Fraction(3, 2))
        largest = max(len(_maximal_clique_masks(g.nbrs, 10**6))
                      for g in _read_graphs(inst, density, False))
        mw = MetricWeighting.from_names(rule, density)
        slow = MetricWeighting(_plain(mw.rule), density, rule_name=rule)

        def outcome(which, exact):
            try:
                return evaluate_all(inst, which, exact=exact)
            except CapExceeded as error:
                return str(error), error.cap_name, error.limit

        raised = 0
        for cap in range(1, largest + 1):
            monkeypatch.setenv("CLONEWT_CAPS", f"cliques={cap}")
            for exact in (False, True):
                got = outcome(mw, exact)
                assert got == outcome(slow, exact), f"cap {cap}"
                raised += isinstance(got, tuple)
        assert raised == 2 * (largest - 1)

    @pytest.mark.parametrize("rule", ["mcca", "mccp", "smooth:mcca"])
    def test_cap_counts_the_kept_cliques(self, rule, monkeypatch):
        """Closing the path 0-1-...-7 into a cycle makes 8 maximal cliques,
        though only 3 of them meet the new edge's endpoints."""
        n = 8
        dist = [[min(abs(i - j), min(i, j) + Fraction(3, 2) + n - 1 - max(i, j))
                 for j in range(n)] for i in range(n)]
        inst = load_instance({"kind": "matrix", "distances": dist})
        density = Density.piecewise_linear_cdf([(0, 0), (1, 0), (Fraction(7, 4), 1)])
        read = _read_graphs(inst, density, False)
        assert [len(_maximal_clique_masks(g.nbrs, 10**6)) for g in read] == [7, 8]
        mw = MetricWeighting.from_names(rule, density)
        monkeypatch.setenv("CLONEWT_CAPS", "cliques=7")
        for exact in (False, True):
            with pytest.raises(CapExceeded, match="cliques=7"):
                evaluate_all(inst, mw, exact=exact)
            with pytest.raises(CapExceeded, match="cliques=7"):
                evaluate_all(inst, MetricWeighting(_plain(mw.rule), density), exact=exact)

    @pytest.mark.parametrize("rule", ["mcca", "mccp"])
    def test_cap_ignores_graphs_that_are_not_read(self, rule, monkeypatch):
        """Only the unread octahedron has more than 7 maximal cliques."""
        inst = load_instance({"kind": "matrix", "distances": _OCTAHEDRON})
        density = Density.piecewise_linear_cdf(_SKIP_OCTAHEDRON)
        filt = Filtration(inst, density.alpha)
        sizes = [len(_maximal_clique_masks(g.nbrs, 10**6)) for _, g in filt.graphs()]
        assert sizes == [6, 8, 1]
        mw = MetricWeighting.from_names(rule, density)
        slow = MetricWeighting(_plain(mw.rule), density, rule_name=rule)
        monkeypatch.setenv("CLONEWT_CAPS", "cliques=7")
        for exact in (False, True):
            assert evaluate_all(inst, mw, exact=exact) == evaluate_all(inst, slow, exact=exact)
        monkeypatch.setenv("CLONEWT_CAPS", "cliques=5")
        with pytest.raises(CapExceeded, match="cliques=5"):
            evaluate_all(inst, mw)
        with pytest.raises(CapExceeded, match="cliques=5"):
            evaluate_all(inst, slow)


class TestMetricWeighting:
    def test_from_names_canonicalizes(self):
        mw = MetricWeighting.from_names("lift:uniform", Density.uniform(1))
        assert mw.rule_name == "lift:uniform"
        assert mw.exact_capable

    def test_entropy_not_exact_capable(self):
        mw = MetricWeighting.from_names("entropy", Density.uniform(1))
        assert not mw.exact_capable


class TestSampleLabels:
    def test_deterministic(self, three_points):
        mw = MetricWeighting.from_names("cu", Density.uniform(1))
        w = evaluate_all(three_points, mw)
        a = sample_labels(w, 20, seed=5)
        b = sample_labels(w, 20, seed=5)
        assert a == b
        assert len(a) == 20
        assert set(a) <= set(three_points.labels)

    def test_respects_the_distribution(self, three_points):
        mw = MetricWeighting.from_names("cu", Density.uniform(1))
        w = evaluate_all(three_points, mw)
        draws = sample_labels(w, 30_000, seed=0)
        freq = draws.count("p2") / len(draws)
        assert freq == pytest.approx(13 / 30, abs=0.01)
