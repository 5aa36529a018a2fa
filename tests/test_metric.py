"""Instance loading, validation, and clone construction.

The clone constructor is the attack surface of the whole package: a clone
at radius eps must sit within eps of its template, keep every original
distance untouched, and never break the triangle inequality.  These are
checked both on hand-built cases and property-style over random instances.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clonewt import (
    Density,
    MetricError,
    MetricWeighting,
    add_clone,
    evaluate_all,
    load_instance,
    random_instance,
)
from clonewt.metric import DEFAULT_TRIANGLE_TOL, _fraction, _point_distances, _validate


def _rounding_slack(dist: np.ndarray, dim: int) -> float:
    """Bound on the triangle slack d_ij - d_ik - d_kj that rounding alone
    gives distances computed from dim-dimensional float points.

    A computed distance is within (dim + 3) unit roundoffs of itself (one
    rounding per difference and square, dim - 1 in the sum, one in the
    square root; Higham, Accuracy and Stability of Numerical Algorithms,
    §3).  A slack adds three such errors and two roundings of at most
    2 * max(d) each.
    """
    return (3 * (dim + 3) + 4) * (np.finfo(float).eps / 2) * float(dist.max(initial=0.0))


@st.composite
def point_clouds(draw):
    """Uniform, collinear, and tight far-off clusters of 2-8 points in 1-4
    dimensions, at coordinate scales from 1e-8 to 1e200: near-collinear
    triples put the triangle slack at rounding level, and past 1e154 the
    distances come from the rescaled pass of ``_point_distances``."""
    dim, n = draw(st.integers(1, 4)), draw(st.integers(2, 8))
    scale = 10.0 ** draw(st.integers(-8, 200))
    shape = draw(st.sampled_from(["uniform", "collinear", "clusters"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "uniform":
        return rng.uniform(-scale, scale, (n, dim))
    if shape == "collinear":
        along = rng.uniform(0, scale, (n, 1))
        return rng.uniform(-scale, scale, dim) + along * rng.normal(size=dim)
    centres = rng.uniform(-scale, scale, (draw(st.integers(1, 3)), dim))
    spread = scale * 10.0 ** -draw(st.integers(3, 12))
    return centres[rng.integers(len(centres), size=n)] + rng.uniform(-spread, spread, (n, dim))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def raw_point_clouds(draw):
    """Any finite coordinates, subnormal to near the float maximum."""
    dim = draw(st.integers(1, 4))
    rows = st.lists(st.lists(FINITE, min_size=dim, max_size=dim), min_size=1, max_size=6)
    return np.array(draw(rows))


class TestLoadInstance:
    def test_points_document(self):
        inst = load_instance(
            {"kind": "points", "points": [[0, 0], [3, 4]], "labels": ["p", "q"]}
        )
        assert inst.n == 2
        assert inst.labels == ("p", "q")
        assert inst.d("p", "q") == pytest.approx(5.0)

    def test_matrix_document_keeps_exact_entries(self):
        doc = {
            "kind": "matrix",
            "distances": [
                [0, Fraction(1, 3), 1],
                [Fraction(1, 3), 0, 1],
                [1, 1, 0],
            ],
        }
        inst = load_instance(doc)
        assert inst.has_exact
        assert inst.dist_exact[0][1] == Fraction(1, 3)

    def test_one_dimensional_points_get_exact_distances(self):
        inst = load_instance(
            {"kind": "points", "points": [[Fraction(1, 10)], [Fraction(7, 10)]]}
        )
        assert inst.has_exact
        assert inst.d_exact(0, 1) == Fraction(3, 5)

    def test_default_labels(self):
        inst = load_instance({"kind": "points", "points": [[0], [1], [2]]})
        assert inst.labels == ("e0", "e1", "e2")

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("a,b,c\n0,1,2\n1,0,1\n2,1,0\n")
        inst = load_instance(path)
        assert inst.labels == ("a", "b", "c")
        assert inst.d("a", "c") == 2.0

    def test_csv_exact_entries_are_the_literal_decimals(self, tmp_path):
        rows = [["0", "0.3", "0.7"], ["0.3", "0", "0.4"], ["0.7", "0.4", "0"]]
        path = tmp_path / "inst.csv"
        path.write_text("a,b,c\n" + "".join(",".join(r) + "\n" for r in rows))
        from_csv = load_instance(path)
        from_json = load_instance(
            {"kind": "matrix", "labels": ["a", "b", "c"],
             "distances": [[Fraction(v) for v in r] for r in rows]}
        )
        assert from_csv.dist_exact == from_json.dist_exact
        assert from_csv.d_exact("a", "b") == Fraction(3, 10)
        mw = MetricWeighting.from_names("cu", Density.uniform(Fraction(1, 2)))
        assert evaluate_all(from_csv, mw, exact=True) == evaluate_all(from_json, mw, exact=True)

    def test_triangle_message_names_the_first_violation(self):
        with pytest.raises(MetricError) as err:
            load_instance({"kind": "matrix", "distances": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]})
        assert str(err.value) == (
            "triangle inequality violated by 1.000e+00 > tol=1e-09: "
            "d(0,2) = 3.0 > d(0,1) + d(1,2) = 2.0"
        )

    @pytest.mark.parametrize(
        "distances, message",
        [
            ([[0, 1], [1, 0], [1, 1]], "square"),
            ([[0, 1], [2, 0]], "symmetric"),
            ([[0, -1], [-1, 0]], "negative"),
            ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], "triangle"),
            ([[1, 1], [1, 0]], "diagonal"),
        ],
    )
    def test_invalid_matrices_are_rejected(self, distances, message):
        with pytest.raises(MetricError, match=message):
            load_instance({"kind": "matrix", "distances": distances})

    @staticmethod
    def _collinear_clouds():
        """Seeded 6-point clouds on y = 2x with x in [1e6, 1e7)."""
        rng = np.random.default_rng(2026)
        return [np.sort(rng.uniform(1e6, 1e7, 6)) for _ in range(100)]

    def test_large_collinear_point_clouds_load(self):
        """The rounding of a computed distance grows with its size: an
        absolute 1e-9 tolerance rejected most of these exact metrics."""
        for xs in self._collinear_clouds():
            inst = load_instance({"kind": "points", "points": [[x, 2 * x] for x in xs.tolist()]})
            assert inst.tol == DEFAULT_TRIANGLE_TOL
            _validate(inst.dist, _rounding_slack(inst.dist, 2))

    def test_genuine_violation_at_that_scale_is_rejected(self):
        """The rounding allowance stays far below a real 1e-3 violation."""
        for xs in self._collinear_clouds()[:10]:
            pts = [[x, 2 * x] for x in xs.tolist()]
            d = load_instance({"kind": "points", "points": pts}).dist.copy()
            d[0, -1] = d[-1, 0] = d[0, -1] + 1e-3  # the end points, around the middle ones
            with pytest.raises(MetricError, match="triangle inequality violated"):
                _validate(d, DEFAULT_TRIANGLE_TOL + _rounding_slack(d, 2))

    def test_clouds_with_distances_past_1e154_load(self):
        """Squaring these differences overflows; the overflowing entries are
        recomputed with scaling (a RuntimeWarning would fail this test)."""
        inst = load_instance({"kind": "points", "points": [[0, 0], [1e200, 0]]})
        assert inst.dist[0, 1] == inst.dist[1, 0] == 1e200
        inst = load_instance({"kind": "points", "points": [[0, 0], [3e200, 4e200], [1, 0]]})
        assert inst.dist[0, 1] == pytest.approx(5e200, rel=1e-15)
        assert inst.dist[0, 2] == 1.0
        inst = load_instance({"kind": "points", "points": [[-8e307], [8e307], [0]]})
        assert inst.dist[0, 1] == 1.6e308
        with pytest.raises(MetricError, match="non-finite"):
            load_instance({"kind": "points", "points": [[-1e308], [1e308]]})

    def test_ordinary_clouds_keep_the_plain_distances(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 3):
            pts = rng.uniform(-1e3, 1e3, size=(30, dim))
            plain = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
            got = load_instance({"kind": "points", "points": pts.tolist()}).dist
            assert np.array_equal(got, plain)

    def test_document_round_trip(self, three_points):
        doc = three_points.to_document()
        again = load_instance(json.loads(json.dumps(doc)))
        assert again.labels == three_points.labels
        np.testing.assert_allclose(again.dist, three_points.dist)


class TestPointCloudsAreMetric:
    """Point input is not run through ``_validate``.  These tests check the
    two facts that make that safe: the rounding bound on the triangle
    slack, and the exact symmetry of ``_point_distances``."""

    @given(point_clouds())
    @settings(max_examples=300, deadline=None)
    def test_loaded_distances_pass_the_triangle_check_within_the_rounding_bound(self, points):
        """The full check at tol 0, so the bound alone absorbs the rounding."""
        dist = load_instance({"kind": "points", "points": points.tolist()}).dist
        _validate(dist, _rounding_slack(dist, points.shape[1]))

    @given(raw_point_clouds())
    @example(np.array([[0.0, 0.0], [3e200, 4e200], [1.0, 0.0]]))
    @example(np.array([[-1e308], [1e308], [0.0]]))
    @settings(max_examples=200, deadline=None)
    def test_point_distances_are_symmetric_non_negative_with_a_zero_diagonal(self, points):
        """Also for the entries rescaled past 1e154 and those that overflow
        to +inf, which loading then rejects as non-finite."""
        d = _point_distances(points)
        assert np.array_equal(d, d.T)
        assert (np.diag(d) == 0).all()
        assert (d >= 0).all()  # no negative entry and no NaN


class TestAddClone:
    def test_perfect_clone_copies_the_distance_row(self, three_points):
        cloned = add_clone(three_points, "p1", 0, seed=1, label="p1~")
        assert cloned.n == 4
        assert cloned.d("p1", "p1~") == 0.0
        for other in ("p0", "p2"):
            assert cloned.d("p1~", other) == three_points.d("p1", other)

    def test_original_block_is_untouched(self, three_points):
        cloned = add_clone(three_points, "p1", Fraction(1, 10), seed=3)
        sub = cloned.dist[:3, :3]
        np.testing.assert_array_equal(sub, three_points.dist)

    def test_clone_radius_is_respected(self, three_points):
        for seed in range(5):
            cloned = add_clone(three_points, "p0", Fraction(1, 4), seed=seed)
            assert 0 < cloned.d(0, 3) <= 0.25

    def test_point_instances_clone_in_coordinates(self):
        inst = load_instance({"kind": "points", "points": [[0.0, 0.0], [1.0, 0.0]]})
        cloned = add_clone(inst, 0, 0.1, seed=0)
        assert cloned.points is not None
        assert cloned.d(0, 2) <= 0.1 + 1e-12

    def test_same_seed_same_clone(self, three_points):
        a = add_clone(three_points, "p1", Fraction(1, 5), seed=11)
        b = add_clone(three_points, "p1", Fraction(1, 5), seed=11)
        np.testing.assert_array_equal(a.dist, b.dist)

    @given(
        kind=st.sampled_from(["euclidean", "shortest_path"]),
        n=st.integers(min_value=2, max_value=9),
        seed=st.integers(min_value=0, max_value=10_000),
        eps_num=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_cloned_instances_stay_metric(self, kind, n, seed, eps_num):
        """Adding a clone must never violate the triangle inequality.

        load-bearing invariant: the axiom suites take clones of arbitrary
        instances and would report phantom violations on a broken metric.
        """
        inst = random_instance(kind, n, seed)
        eps = Fraction(eps_num, 16)
        cloned = add_clone(inst, n // 2, eps, seed=seed + 1)
        d = cloned.dist
        m = cloned.n
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9, (
                        f"triangle broken after clone: kind={kind} n={n} "
                        f"seed={seed} eps={eps} ({i},{j},{k})"
                    )


class TestFractionLift:
    def test_numpy_integers_lift_exactly(self):
        big = np.int64(2**53 + 1)
        assert _fraction(big) == Fraction(2**53 + 1)
        assert _fraction(big) != Fraction(float(big))

    def test_floats_lift_to_their_binary_value(self):
        assert _fraction(0.1) == Fraction(0.1)
        assert _fraction(np.float64(0.5)) == Fraction(1, 2)
        assert _fraction(Fraction(1, 3)) == Fraction(1, 3)


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance("euclidean", 6, 42, dim=2)
        b = random_instance("euclidean", 6, 42, dim=2)
        np.testing.assert_array_equal(a.dist, b.dist)

    def test_shortest_path_is_a_metric(self):
        inst = random_instance("shortest_path", 8, 7)
        d = inst.dist
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            random_instance("banana", 4, 0)
