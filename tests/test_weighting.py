"""Radius densities and the integrated weighting pipeline.

``evaluate`` integrates a graph rule against the radius density in closed
form over the breakpoint decomposition; the Riemann-midpoint oracle is an
independent slow path, and agreement between the two on random instances
is the main correctness evidence for the integrator.
"""

import dataclasses
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
from clonewt.rules import (
    _maximal_clique_masks,
    _mcca_pairs,
    _mccp_pairs,
    _membership,
    _smooth_pairs,
    parse_rule,
)


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
    events = _instance_events(inst, density, exact)
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
        ratios = weighting._cdf_ratios(density, radii)
        assert [Fraction(p, q) for p, q in ratios] == [density.cdf(r) for r in radii]
        got = [p / q for p, q in ratios]
        assert got == [float(density.cdf(r)) for r in radii]
        assert all(type(v) is float for v in got)


class TestIntegerIncrements:
    """``_increments`` evaluates the CDF in integers: exact increments are
    the differences of ``Density.cdf``, float ones those of its floats."""

    #: radii on the knots 2/7 and 1/3, between them, past them and at alpha
    #: (1/2 and 2/3), with a repeated point
    POINTS = [[Fraction(0)], [Fraction(2, 7)], [Fraction(1, 3)], [Fraction(3, 10)],
              [Fraction(1, 2)], [Fraction(2, 3)], [Fraction(9, 10)], [Fraction(9, 10)]]

    @pytest.mark.parametrize("density", [
        Density.uniform(Fraction(1, 2)),
        Density.uniform(Fraction(2, 3)),
        Density.piecewise_linear_cdf([(0, 0), (Fraction(2, 7), Fraction(1, 4)),
                                      (Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 2), 1)]),
        Density.piecewise_linear_cdf([(0, 0), (Fraction(2, 7), Fraction(1, 3)),
                                      (Fraction(1, 3), Fraction(1, 3)), (Fraction(2, 3), 1)]),
    ])
    @pytest.mark.parametrize("kind", ["points", "matrix"])
    def test_equal_to_the_cdf_differences(self, density, kind):
        inst = load_instance({"kind": "points", "points": self.POINTS})
        if kind == "matrix":
            inst = load_instance({"kind": "matrix", "distances": list(inst.dist_exact)})
        for exact in (False, True):
            filt = Filtration(inst, density.alpha, exact=exact)
            radii = [0, *filt.radii, density.alpha if exact else float(density.alpha)]
            values = [density.cdf(r) if exact else float(density.cdf(r)) for r in radii]
            got = weighting._increments(filt, density, exact)
            assert got == [above - below for below, above in zip(values, values[1:])]
            assert {type(v) for v in got} == {Fraction if exact else float}
        assert density.alpha in filt.radii
        assert {Fraction(2, 7), Fraction(1, 3)} <= set(filt.radii)

    @settings(max_examples=100, deadline=None)
    @given(densities(), st.integers(0, 2**32 - 1))
    def test_on_seeded_clouds(self, density, seed):
        inst = random_instance("euclidean", 12, seed, dim=2)
        for exact in (False, True):
            filt = Filtration(inst, density.alpha, exact=exact)
            radii = [0, *filt.radii, density.alpha if exact else float(density.alpha)]
            values = [density.cdf(r) if exact else float(density.cdf(r)) for r in radii]
            got = weighting._increments(filt, density, exact)
            assert got == [above - below for below, above in zip(values, values[1:])]
            assert all(type(v) is (Fraction if exact else float) for v in got)


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

    @pytest.mark.parametrize("rule", ["mcca", "mccp", "smooth:mcca"])
    def test_closing_the_cycle_is_read_edge_by_edge(self, rule, monkeypatch):
        """The cycle of ``test_cap_counts_the_kept_cliques``: its one new
        edge lists one clique, and the merged cover of 8 is refused."""
        n = 8
        dist = [[min(abs(i - j), min(i, j) + Fraction(3, 2) + n - 1 - max(i, j))
                 for j in range(n)] for i in range(n)]
        inst = load_instance({"kind": "matrix", "distances": dist})
        density = Density.piecewise_linear_cdf([(0, 0), (1, 0), (Fraction(7, 4), 1)])
        mw = MetricWeighting.from_names(rule, density)
        monkeypatch.setenv("CLONEWT_CAPS", "cliques=7")
        for exact in (False, True):
            calls = _listings(monkeypatch)
            with pytest.raises(CapExceeded, match="cliques=7"):
                evaluate_all(inst, mw, exact=exact)
            assert calls == ["T | N(T)", "edges"]

    def test_one_edge_lists_more_than_the_cap(self, monkeypatch):
        """121 edges arrive at once, fewer than the 136 kept cliques (the
        leaf edges) that meet their endpoints, so they are read edge by
        edge; the first, uv, lies in all 3**5 maximal cliques of u, v and a
        complete 5-partite graph with parts of 3, and lists more than the
        cap by itself."""
        parts = [range(2 + 3 * k, 5 + 3 * k) for k in range(5)]
        added = [(0, 1), *((u, w) for u in (0, 1) for w in range(2, 17))]
        added += [(a, b) for i, p in enumerate(parts) for q in parts[i + 1:] for a in p for b in q]
        leaves = [(t, 17 + 8 * t + k) for t in range(17) for k in range(8)]
        n, events = 17 + len(leaves), [(leaves, Fraction(1, 2)), (added, Fraction(1, 2))]
        assert len(added) == 121 and len(leaves) == 136
        labels = tuple(f"v{i}" for i in range(n))
        monkeypatch.setenv("CLONEWT_CAPS", "cliques=200")
        calls = _listings(monkeypatch)
        with pytest.raises(CapExceeded, match="cliques=200") as listed:
            list(weighting._pairs_sweep(events, n, labels, weighting._MCCA, True))
        assert calls == ["T | N(T)", "edges"]
        assert listed.traceback[-1].name == "expand"  # raised by the listing itself
        with pytest.raises(CapExceeded) as called:
            list(weighting._pairs_sweep(events, n, labels, rules.w_mcca, True))
        assert str(called.value) == str(listed.value)
        graph = Graph.from_edges(n, leaves + added)
        assert len(_maximal_clique_masks(graph.nbrs, 10**6, edges=[(0, 1)])) == 3**5


@st.composite
def edge_sweeps(draw):
    """Events on n vertices with exact increments, some zero: the edgeless
    graph and one edge, both read, then random edges in batches of random
    size, then every missing edge at once, which retires every clique but
    one."""
    n = draw(st.integers(5, 11))
    rest = draw(st.permutations([(u, v) for u in range(n) for v in range(u + 1, n)]))
    rest = [p for p in rest if p != (0, 1)]
    cut = draw(st.integers(0, len(rest) - 1))
    events, pending = [[], [(0, 1)]], rest[:cut]
    while pending:
        size = draw(st.sampled_from([1, 1, 2, 3, 8, len(pending)]))
        events.append(pending[:size])
        pending = pending[size:]
    events.append(rest[cut:])
    increments = draw(st.lists(st.sampled_from([0, Fraction(1, 2), Fraction(1, 3)]),
                               min_size=len(events), max_size=len(events)))
    increments[0] = increments[1] = increments[-1] = Fraction(1, 5)
    return n, list(zip(events, increments))


def _checked_keeper(keeper, reference, n, events, classes=None, cliques=False):
    """Drive the sweep with the pairs function ``keeper`` makes, asserting
    at every read piece that its pairs are the ``Fraction``s of
    ``reference``'s; return the ``_Kept`` seen at each (copied)."""
    seen = []

    def sweep(n):
        kept_pairs = keeper(n)

        def pairs(kept):
            got, want = kept_pairs(kept), reference(kept)
            assert [Fraction(*p) for p in got] == [Fraction(*p) for p in want]
            seen.append(dataclasses.replace(kept, cover=list(kept.cover or ())))
            return got

        return pairs

    reader = weighting._Reader(reference, classes, cliques, sweep)
    labels = tuple(f"v{i}" for i in range(n))
    list(weighting._pairs_sweep(events, n, labels, reader, True))
    return seen


def _rebuilt(kept):
    return len(kept.gone) + len(kept.new) > len(kept.cover)


def _summed_globally(kept):
    """Whether more than half the vertices lie in a clique that meets a
    changed one (or every one, when the state is rebuilt)."""
    touched = functools.reduce(int.__or__, [*kept.gone, *kept.new], 0)
    if _rebuilt(kept):
        touched = (1 << kept.n) - 1
    dirty = functools.reduce(int.__or__, [c for c in kept.cover if c & touched], 0)
    return 2 * dirty.bit_count() > kept.n


class TestKeptSums:
    """The sums the sweep keeps for ``mcca``, ``mccp`` and ``smooth`` over
    the class-uniform rule give, at every read piece, the pairs of the
    formulas computed from scratch, as ``Fraction``s, on the incremental
    path and on the heavy-churn path alike."""

    @settings(max_examples=60, deadline=None)
    @given(edge_sweeps())
    def test_mcca(self, sweep):
        n, events = sweep
        seen = _checked_keeper(weighting._mcca_sweep,
                               lambda kept: _mcca_pairs(kept.cover, kept.n),
                               n, events, cliques=True)
        assert {_rebuilt(kept) for kept in seen} == {False, True}

    @settings(max_examples=60, deadline=None)
    @given(edge_sweeps())
    def test_mccp(self, sweep):
        n, events = sweep
        seen = _checked_keeper(
            weighting._mccp_sweep,
            lambda kept: _mccp_pairs(kept.cover, _membership(kept.cover, kept.n)),
            n, events, cliques=True)
        assert {_rebuilt(kept) for kept in seen} == {False, True}
        assert {_summed_globally(kept) for kept in seen} == {False, True}

    @settings(max_examples=60, deadline=None)
    @given(edge_sweeps())
    def test_smooth_class_uniform(self, sweep):
        n, events = sweep
        seen = _checked_keeper(
            lambda n: weighting._ClassSums.pairs,
            lambda kept: _smooth_pairs(weighting._class_uniform_pairs(kept), kept.nbrs),
            n, events, classes=weighting._ClassSums)
        assert len(seen) == sum(1 for _, increment in events if increment)

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_corrupted_class_sum_is_refused(self, three_points, exact):
        class Corrupted(weighting._ClassSums):
            def __init__(self, n):
                super().__init__(n)
                self.sums[0] += 1

        reader = dataclasses.replace(weighting._SMOOTH_CLASS_UNIFORM, classes=Corrupted)
        with pytest.raises(ValueError, match=r"smoothed weights sum to \d+/\d+, expected 1"):
            _driven(three_points, Density.uniform(2), exact, reader)

    @pytest.mark.parametrize("rule", ["smooth:cu", "smooth:lift:uniform", "smooth:smooth:cu"])
    def test_smoothed_class_uniform_reads_the_class_sums(self, rule):
        reader = weighting._pairs_reader(parse_rule(rule)[1])
        assert reader.classes is weighting._ClassSums


def _listings(monkeypatch):
    """Record which listing of the maximal cliques the sweep runs at each
    cover read: ``edges``, through the added edges, or ``T | N(T)``."""
    calls = []

    def listing(nbrs, cap, through=None, edges=None):
        calls.append("T | N(T)" if edges is None else "edges")
        return _maximal_clique_masks(nbrs, cap, through, edges)

    monkeypatch.setattr(weighting, "_maximal_clique_masks", listing)
    return calls


def _checked_cover_reads(n, events, monkeypatch):
    """Drive the sweep over ``events`` and check the cover, ``gone`` and
    ``new`` at each read piece against the cliques listed from T | N(T), T
    the endpoints of the edges added since the last read (every vertex at
    the first): the cover is the old cliques that miss T and the listed
    ones, each once, and ``gone`` and ``new`` are the set differences.
    Check that each read lists through the edges exactly when it is not
    the first and at most as many edges were added as old cliques meet T;
    return the listing each read ran."""
    calls, old = _listings(monkeypatch), {"cover": [], "nbrs": None}

    def record(kept):
        before = old["nbrs"] or [0] * n
        touched = functools.reduce(
            int.__or__, (1 << v for v in range(n) if kept.nbrs[v] != before[v]), 0)
        if old["nbrs"] is None:
            touched = (1 << n) - 1
        fresh = set(_maximal_clique_masks(kept.nbrs, 10**6, touched))
        retired = {c for c in old["cover"] if c & touched}
        assert len(kept.cover) == len(set(kept.cover))
        assert set(kept.cover) == {c for c in old["cover"] if not c & touched} | fresh
        for got, want in ((kept.gone, retired - fresh), (kept.new, fresh - retired)):
            assert len(got) == len(set(got)) and set(got) == want
        added = sum((a ^ b).bit_count() for a, b in zip(kept.nbrs, before)) // 2
        by_edges = old["nbrs"] is not None and added <= len(retired)
        assert calls[-1] == ("edges" if by_edges else "T | N(T)")
        old["cover"], old["nbrs"] = list(kept.cover), list(kept.nbrs)
        return _mcca_pairs(kept.cover, kept.n)

    labels = tuple(f"v{i}" for i in range(n))
    reader = weighting._Reader(record, cliques=True)
    list(weighting._pairs_sweep(events, n, labels, reader, True))
    return calls


def _instance_events(inst, density, exact):
    """``inst``'s sweep events: (pairs, CDF increment of ``density``)."""
    filt = Filtration(inst, density.alpha, exact=exact)
    return list(zip([filt.base, *filt.pairs], weighting._increments(filt, density, exact)))


def _cloud_with_copies(n, seed):
    """n - 2 uniform points in the unit square, an exact copy of the first
    and a copy of the second within 1/20."""
    inst = random_instance("euclidean", n - 2, seed, dim=2)
    return add_clone(add_clone(inst, 0, 0, seed), 1, Fraction(1, 20), seed)


def _ci_lattice():
    """The L1 distances of a 4x4 lattice with a planted copy of (1, 2), in
    multiples of 1/16."""
    p = [(i, j) for i in range(4) for j in range(4)] + [(1, 2)]
    dist = [[Fraction(abs(a - c) + abs(b - d), 16) for c, d in p] for a, b in p]
    return load_instance({"kind": "matrix", "distances": dist})


class TestEdgeLocalCover:
    """At a read piece that adds few edges, the sweep lists only the
    maximal cliques through them and tests the kept cliques that meet
    their endpoints; its cover, ``gone`` and ``new`` are those of the
    listing from T | N(T)."""

    @settings(max_examples=60, deadline=None)
    @given(edge_sweeps())
    def test_on_edge_sweeps(self, sweep):
        n, events = sweep
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _checked_cover_reads(n, events, monkeypatch)
        assert calls[:2] == ["T | N(T)", "edges"]  # the edgeless graph, then one edge

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_on_seeded_clouds(self, seed, exact, monkeypatch):
        inst = _cloud_with_copies(24, seed)
        for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 2)):
            events = _instance_events(inst, Density.uniform(alpha), exact)
            calls = _checked_cover_reads(inst.n, events, monkeypatch)
            assert calls[0] == "T | N(T)" and "edges" in calls

    def test_a_sparse_sweep_lists_from_t_once(self, monkeypatch):
        """80 points swept to the 350th pair distance: each event adds one
        pair, or two for the exact copy, and every read but the first lists
        through the edges."""
        inst = _cloud_with_copies(80, 1)
        alpha = sorted(inst.dist[np.triu_indices(80, 1)])[349]
        events = _instance_events(inst, Density.uniform(alpha), False)
        calls = _checked_cover_reads(inst.n, events, monkeypatch)
        assert len(calls) > 300
        assert calls == ["T | N(T)"] + ["edges"] * (len(calls) - 1)

    @pytest.mark.parametrize("inst, alpha", [
        (_ci_lattice(), Fraction(1, 4)),
        (_l1_lattice(1), Fraction(1, 2)),
        (_l1_lattice(2), Fraction(1, 2)),
    ])
    def test_heavy_reads_list_from_t(self, inst, alpha, monkeypatch):
        """On 1/16 lattices the tied distances add many edges at once, and
        the reads that add more than the kept cliques that meet them list
        from T | N(T)."""
        events = _instance_events(inst, Density.uniform(alpha), True)
        calls = _checked_cover_reads(inst.n, events, monkeypatch)
        assert "T | N(T)" in calls[1:]


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
