"""Continuous sharing families over point clouds.

In one dimension every quantity has a closed rational form, so the ledger
values are asserted exactly.  In higher dimensions the stratified
Monte-Carlo estimators carry half-widths; agreement tests check that the
exact 1-D answers fall inside the reported intervals and that the removal
decomposition reconstructs within its confidence bounds.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from clonewt import (
    Density,
    chi_fnu,
    chi_gr,
    dominance_check,
    f_nu,
    g_r,
    intersection_volume_1d,
    private_volume_1d,
    removal_effect_gr,
    sharing_matrix,
    union_volume,
)
from clonewt import euclid

TWO = [[Fraction(0)], [Fraction(1)]]


class TestTwoPointLedger:
    def test_weights(self):
        assert g_r(TWO, Fraction(1), 0) == Fraction(1, 2)
        assert g_r(TWO, Fraction(1), 1) == Fraction(1, 2)

    def test_sharing(self):
        assert chi_gr(TWO, Fraction(1), 0, 1) == Fraction(1, 6)

    def test_private(self):
        assert chi_gr(TWO, Fraction(1), 0, 0) == Fraction(1, 3)

    def test_removal_identity(self):
        report = removal_effect_gr(TWO, Fraction(1), 0)
        assert report.eta == Fraction(1, 2)
        assert report.passed
        assert report.max_residual <= 1e-9

    def test_row_decomposition(self):
        # w(x) = chi(x, x) + sum_y chi(x, y)
        total = chi_gr(TWO, Fraction(1), 0, 0) + chi_gr(TWO, Fraction(1), 0, 1)
        assert total == g_r(TWO, Fraction(1), 0)


class TestVolumes1D:
    def test_intersection_of_intervals(self):
        assert intersection_volume_1d(Fraction(1), Fraction(1)) == Fraction(1)
        assert intersection_volume_1d(Fraction(1), Fraction(0)) == Fraction(2)
        assert intersection_volume_1d(Fraction(1), Fraction(2)) == Fraction(0)
        assert intersection_volume_1d(Fraction(1, 2), Fraction(3, 4)) == Fraction(1, 4)

    def test_private_volume(self):
        # [-1, 1] and [0, 2]: each keeps one unit to itself
        vols = private_volume_1d(TWO, Fraction(1))
        assert vols == [Fraction(1), Fraction(1)]

    def test_private_volume_engulfed_point(self):
        pts = [[Fraction(0)], [Fraction(0)], [Fraction(5)]]
        vols = private_volume_1d(pts, Fraction(1))
        assert vols[0] == Fraction(0)
        assert vols[1] == Fraction(0)
        assert vols[2] == Fraction(2)

    def test_union_volume_rejects_a_negative_radius(self):
        with pytest.raises(ValueError, match="radius must be non-negative, got -1"):
            union_volume([[0], [1]], -1)

    def test_private_volume_rejects_a_negative_radius(self):
        with pytest.raises(ValueError, match="radius must be non-negative, got -1"):
            private_volume_1d([[0], [1]], -1)

    def test_removal_rejects_a_zero_radius(self):
        with pytest.raises(ValueError, match="radius must be positive, got 0"):
            removal_effect_gr([[0], [1], [3]], 0, 0)

    def test_union_volume_exact_1d(self):
        assert union_volume(TWO, Fraction(1)) == Fraction(3)
        assert union_volume([[Fraction(0)]], Fraction(2)) == Fraction(4)

    @given(
        coords=st.lists(
            st.integers(min_value=-8, max_value=8), min_size=1, max_size=6
        ),
        r_num=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_union_never_exceeds_sum_of_balls(self, coords, r_num):
        pts = [[Fraction(c)] for c in coords]
        r = Fraction(r_num, 2)
        union = union_volume(pts, r)
        assert union <= len(pts) * 2 * r
        assert union >= 2 * r  # at least one ball


class TestMonteCarlo2D:
    def test_union_volume_estimate_brackets_truth(self):
        # two unit disks at distance 1: area = 2*pi - 2*lens
        pts = [[0.0, 0.0], [1.0, 0.0]]
        est = union_volume(pts, 1.0, samples=200_000, seed=3)
        lens = 2 * np.arccos(0.5) - np.sin(2 * np.arccos(0.5))
        truth = 2 * np.pi - lens
        assert abs(est.value - truth) <= 4 * est.half_width

    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            union_volume([[0.0, 0.0]], 1.0)

    def test_union_volume_rejects_a_negative_radius(self):
        with pytest.raises(ValueError, match="radius must be non-negative, got -0.5"):
            union_volume([[0.0, 0.0], [1.0, 0.0]], -0.5, samples=1000, seed=1)

    def test_deterministic_given_seed(self):
        pts = [[0.0, 0.0], [0.5, 0.5]]
        a = union_volume(pts, 1.0, samples=50_000, seed=9)
        b = union_volume(pts, 1.0, samples=50_000, seed=9)
        assert a.value == b.value and a.half_width == b.half_width

    def test_g_r_2d_matches_1d_embedding(self):
        """Points on the x-axis in 2-D must reproduce the 1-D structure
        qualitatively: equal weights for the symmetric pair."""
        pts = [[0.0, 0.0], [1.0, 0.0]]
        w0 = g_r(pts, 1.0, 0, samples=150_000, seed=1)
        w1 = g_r(pts, 1.0, 1, samples=150_000, seed=2)
        assert abs(w0.value - w1.value) <= 3 * (w0.half_width + w1.half_width)


class TestDensityFamily:
    def test_fnu_uniform_two_points_symmetric(self):
        """Integrating g_r against the uniform radius density on (0, 1]:
        the two mirror-image points must land on the same float."""
        d = Density.uniform(1)
        assert f_nu(TWO, d, 0) == pytest.approx(f_nu(TWO, d, 1), abs=1e-9)

    def test_fnu_weights_sum_to_one(self):
        d = Density.uniform(2)
        total = f_nu(TWO, d, 0) + f_nu(TWO, d, 1)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_chi_fnu_row_decomposition(self):
        d = Density.uniform(1)
        row = chi_fnu(TWO, d, 0, 0) + chi_fnu(TWO, d, 0, 1)
        assert row == pytest.approx(f_nu(TWO, d, 0), abs=1e-12)

    def test_chi_fnu_zero_beyond_reach(self):
        d = Density.uniform(1)
        pts = [[Fraction(0)], [Fraction(5)]]
        got = chi_fnu(pts, d, 0, 1)
        assert got == 0.0 and type(got) is float


class TestDominance:
    def test_closer_point_shares_no_less(self):
        """Fixing direction, a point at distance 1.0 shares at least as
        much with x as a co-directional point at distance 1.2."""
        pts = [[Fraction(0)], [Fraction(1)], [Fraction(6, 5)]]
        rep = dominance_check(pts, Fraction(1), 0, 1, 2)
        assert rep.dominates
        assert rep.chi_y >= rep.chi_z

    def test_dilution_split_shares_less_than_solo(self):
        """Two near-duplicates on one side each share less with x than a
        single point at the same distance on the other side."""
        pts = [
            [0.0, 0.0],
            [-1.6, 0.05],
            [-1.6, -0.05],
            [1.8, 0.0],
        ]
        r = 1.5
        chi_y1 = chi_gr(pts, r, 0, 1, samples=200_000, seed=11)
        chi_z = chi_gr(pts, r, 0, 3, samples=200_000, seed=12)
        margin = 3 * (chi_y1.half_width + chi_z.half_width)
        assert chi_y1.value + margin < chi_z.value, (
            f"{chi_y1.value}+-{chi_y1.half_width} !< {chi_z.value}+-{chi_z.half_width}"
        )


class TestSharingMatrix:
    def test_exact_1d_rows_close(self):
        m = sharing_matrix(TWO, family="gr", r=Fraction(1))
        assert m.half_widths is None
        assert m.weights == (Fraction(1, 2), Fraction(1, 2))
        assert all(res == 0 for res in m.row_residuals)

    def test_mc_2d_symmetric_and_internally_consistent(self):
        """Off-diagonal sharing is estimated once per unordered pair, so the
        matrix is symmetric by construction; each row must reconstruct its
        weight within a few combined half-widths."""
        pts2 = [[0.0, 0.0], [1.0, 0.0]]
        m = sharing_matrix(pts2, family="gr", r=1.0, samples=150_000, seed=4)
        assert m.half_widths is not None
        assert m.chi[0][1] == m.chi[1][0]
        for x in range(2):
            row_hw = sum(m.half_widths[x])
            assert abs(m.row_residuals[x]) <= 4 * row_hw, (
                f"row {x}: residual {m.row_residuals[x]} vs half-widths {row_hw}"
            )

    def test_family_param_recorded(self):
        m = sharing_matrix(TWO, family="fnu", density=Density.uniform(1))
        assert m.family == "fnu"


# ---------------------------------------------------------------------------
# Differential tests: the shared-geometry engines against per-entry references


def _ref_segments(coords, r):
    """Covered segments between sorted ball endpoints, each with its
    covering count taken at the midpoint (the per-entry 1-D formula)."""
    cuts = sorted({c - r for c in coords} | {c + r for c in coords})
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        count = sum(1 for c in coords if abs(c - mid) <= r)
        if count:
            segments.append((lo, hi, count))
    return segments


def _ref_covers(center, r, lo, hi):
    return center - r <= lo and hi <= center + r


def _ref_g(coords, r, x):
    segments = _ref_segments(coords, r)
    vol = sum((hi - lo for lo, hi, _ in segments), Fraction(0))
    num = sum(
        (Fraction(hi - lo, k) for lo, hi, k in segments if _ref_covers(coords[x], r, lo, hi)),
        Fraction(0),
    )
    return num / vol


def _ref_chi(coords, r, x, y):
    segments = _ref_segments(coords, r)
    vol = sum((hi - lo for lo, hi, _ in segments), Fraction(0))
    if x == y:
        return _ref_g(coords, r, x) - sum(
            (_ref_chi(coords, r, x, z) for z in range(len(coords)) if z != x), Fraction(0)
        )
    num = Fraction(0)
    for lo, hi, k in segments:
        if _ref_covers(coords[x], r, lo, hi) and _ref_covers(coords[y], r, lo, hi):
            num += Fraction(hi - lo, k * (k - 1))
    return num / vol


def _ref_private(coords, r, x):
    return sum(
        (hi - lo for lo, hi, k in _ref_segments(coords, r)
         if k == 1 and _ref_covers(coords[x], r, lo, hi)),
        Fraction(0),
    )


def _one_d_sets():
    """Seeded 1-D sets on a 1/8 lattice with radii j/16, so exact
    duplicates, touching intervals (gap exactly 2r) and intervals covered by
    their neighbours' union all occur; plus sets and radii built from
    floats."""
    rng = np.random.default_rng(2024)
    sets = []
    for _ in range(40):
        n = int(rng.integers(1, 8))
        ks = [int(k) for k in rng.integers(0, 12, size=n)]
        if n > 2 and rng.random() < 0.5:
            ks[-1] = ks[0]
        sets.append(([Fraction(k, 8) for k in ks], Fraction(int(rng.integers(1, 7)), 16)))
    for _ in range(8):
        n = int(rng.integers(2, 7))
        coords = [Fraction(float(c)) for c in np.round(rng.random(n), 2)]
        sets.append((coords, Fraction(float(rng.choice([0.05, 0.1, 0.15, 0.3])))))
    sets.append(([Fraction(0), Fraction(1)], Fraction(1, 2)))  # touching
    sets.append(([Fraction(0), Fraction(0), Fraction(1, 10)], Fraction(1)))  # engulfed
    return sets


class TestOneDimensionalTable:
    @pytest.mark.parametrize("coords, r", _one_d_sets())
    def test_every_entry_equals_the_per_entry_formulas(self, coords, r):
        pts = [[c] for c in coords]
        n = len(coords)
        union = union_volume(pts, r)
        assert isinstance(union, Fraction)
        assert union == sum((hi - lo for lo, hi, _ in _ref_segments(coords, r)), Fraction(0))
        assert private_volume_1d(pts, r) == [_ref_private(coords, r, x) for x in range(n)]
        for x in range(n):
            g = g_r(pts, r, x)
            assert isinstance(g, Fraction) and g == _ref_g(coords, r, x)
            for y in range(n):
                chi = chi_gr(pts, r, x, y)
                assert isinstance(chi, Fraction) and chi == _ref_chi(coords, r, x, y)
        if n < 2:
            return
        for x in range(n):
            report = removal_effect_gr(pts, r, x)
            diag = _ref_chi(coords, r, x, x)
            assert report.eta == diag / (1 - diag)
            rest = [c for i, c in enumerate(coords) if i != x]
            for y, entry in report.entries.items():
                assert entry.before == _ref_g(coords, r, y)
                assert entry.chi == _ref_chi(coords, r, x, y)
                assert entry.after == _ref_g(rest, r, y - 1 if y > x else y)

    def test_matrix_equals_separate_calls(self):
        coords, r = _one_d_sets()[3]
        pts = [[c] for c in coords]
        m = sharing_matrix(pts, family="gr", r=r)
        assert m.weights == tuple(g_r(pts, r, x) for x in range(len(pts)))
        assert m.chi == tuple(
            tuple(chi_gr(pts, r, x, y) for y in range(len(pts))) for x in range(len(pts))
        )


def _ref_member(centers, r, zs):
    d2 = ((zs[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
    return d2 <= r * r


def _ref_draws(centers, r, samples, seed):
    """Per-stratum draws, one stratum at a time, all from one generator."""
    lo, hi = centers.min(axis=0) - r, centers.max(axis=0) + r
    dim = centers.shape[1]
    shape = (max(1, round(64 ** (1.0 / dim))),) * dim
    n_strata = int(np.prod(shape))
    n_each = max(1, samples // n_strata)
    cell = (hi - lo) / np.array(shape, dtype=float)
    rng = np.random.default_rng(seed)
    for idx in np.ndindex(*shape):
        origin = lo + np.array(idx, dtype=float) * cell
        yield origin + rng.random((n_each, dim)) * cell


def _ref_strata(centers, r, samples, seed):
    """Per-stratum memberships and covering counts."""
    for zs in _ref_draws(centers, r, samples, seed):
        member = _ref_member(centers, r, zs)
        yield member, member.sum(axis=1)


def _ref_mc_ratio(centers, r, numer, samples, seed):
    a_parts, b_parts = [], []
    for member, counts in _ref_strata(centers, r, samples, seed):
        a_parts.append(numer(member, counts))
        b_parts.append((counts > 0).astype(float))
    mean_b = float(np.concatenate(b_parts).mean())
    q = float(np.concatenate(a_parts).mean()) / mean_b
    var_sum = 0.0
    for a_s, b_s in zip(a_parts, b_parts):
        if len(a_s) > 1:
            var_sum += float((a_s - q * b_s).var(ddof=1)) / len(a_s)
    return q, euclid.Z99 * math.sqrt(var_sum) / len(a_parts) / mean_b


def _ref_union_volume(centers, r, samples, seed):
    means, var_sum, n_strata = 0.0, 0.0, 0
    for member, counts in _ref_strata(centers, r, samples, seed):
        hits = (counts > 0).astype(float)
        means += float(hits.mean())
        if len(hits) > 1:
            var_sum += float(hits.var(ddof=1)) / len(hits)
        n_strata += 1
    box = float(np.prod(centers.max(axis=0) - centers.min(axis=0) + 2 * r))
    return box * (means / n_strata), box * (euclid.Z99 * math.sqrt(var_sum) / n_strata)


_CLOUDS = {
    "2d": np.array([[0.0, 0.0], [0.3, 0.1], [0.3, 0.1], [1.0, 0.4], [0.6, 0.9]]),
    "3d": np.array([[0.0, 0.0, 0.0], [0.4, 0.1, 0.2], [0.2, 0.5, 0.1], [0.9, 0.9, 0.9]]),
}


class TestStratifiedMonteCarlo:
    @pytest.mark.parametrize("cloud", sorted(_CLOUDS))
    @pytest.mark.parametrize("samples, seed", [(50, 3), (20_000, 11), (150_000, 5)])
    @pytest.mark.parametrize("kind", ["g", "chi", "private"])
    def test_mc_ratio_equals_the_per_stratum_loop(self, cloud, samples, seed, kind):
        centers = _CLOUDS[cloud]
        numer = {
            "g": euclid._numer(1, None),
            "chi": euclid._numer(0, 1),
            "private": euclid._numer(3, 3),
        }[kind]
        for seq in (seed, np.random.SeedSequence(seed).spawn(2)[1]):  # an int and a child
            est = euclid._mc_ratio(euclid._Balls(centers, 0.35), numer, samples, seq)
            ref = _ref_mc_ratio(centers, 0.35, numer, samples, seq)
            assert (est.value, est.half_width) == ref

    @pytest.mark.parametrize("seed", range(5))
    def test_strata_variance_equals_the_loop(self, seed):
        """The left-to-right sum over strata, bit for bit."""
        rng = np.random.default_rng(seed)
        for n_each in (1, 2, 3, 50, 199):
            values = rng.random((64, n_each)) * rng.choice([1e-9, 1.0, 1e6], size=(64, 1))
            want = 0.0
            if n_each > 1:
                for var in values.var(axis=1, ddof=1):
                    want += float(var) / n_each
            assert euclid._strata_variance(values) == want

    @pytest.mark.parametrize("pts, r, samples, seed", [
        ([[0.0, 0.0], [1.0, 0.0]], 1.0, 200_000, 3),
        ([[0.0, 0.0], [0.5, 0.5]], 1.0, 50_000, 9),
        (_CLOUDS["3d"].tolist(), 0.3, 30_000, 4),
    ])
    def test_union_volume_equals_the_per_stratum_loop(self, pts, r, samples, seed):
        est = union_volume(pts, r, samples=samples, seed=seed)
        assert (est.value, est.half_width) == _ref_union_volume(np.array(pts), r, samples, seed)

    @pytest.mark.parametrize("make", [
        lambda: np.random.SeedSequence(0),
        lambda: np.random.SeedSequence(1),
        lambda: np.random.SeedSequence(2**32 + 1),
        lambda: np.random.SeedSequence(2**128 + 5),
        lambda: np.random.SeedSequence([1, 2]),
        lambda: np.random.SeedSequence(7).spawn(3)[1].spawn(64)[63],
    ], ids=["0", "1", "2**32+1", "2**128+5", "[1,2]", "nested-child"])
    @pytest.mark.parametrize("spawned", [0, 5])
    def test_draws_are_default_rng_draws(self, make, spawned):
        """The points drawn are numpy's own ``default_rng(seed)`` draws, in
        ``np.ndindex`` order of the strata, for one, two and five entropy
        words, a sequence entropy, a nested child and a parent that has
        spawned before: spawning does not move a seed's draws."""
        for centers in _CLOUDS.values():
            seq, ref = make(), make()
            seq.spawn(spawned)
            seen = []

            class Recording(euclid._Balls):
                def member(self, zs):
                    seen.append(zs)
                    return super().member(zs)

            list(euclid._stratified(Recording(centers, 0.35), 6_400, seq, [euclid._hits]))
            want = np.concatenate(list(_ref_draws(centers, 0.35, 6_400, ref)))
            assert np.array_equal(np.concatenate(seen), want)

    @pytest.mark.parametrize("block", [1, 1 << 40])
    def test_block_grouping_does_not_change_the_draws(self, monkeypatch, block):
        """One stratum per block and all strata in one block give the same
        draws, so the same estimates bit for bit, as the default blocks."""
        def estimates():
            out = []
            for centers in _CLOUDS.values():
                balls = euclid._Balls(centers, 0.35)
                for numer in (euclid._numer(1, None), euclid._numer(0, 1)):
                    est = euclid._mc_ratio(balls, numer, 20_000, 7)
                    out.append((est.value, est.half_width))
                est = union_volume(centers, 0.35, samples=20_000, seed=7)
                out.append((est.value, est.half_width))
            return out

        default = estimates()
        monkeypatch.setattr(euclid, "_BLOCK", block)
        assert estimates() == default

    @pytest.mark.parametrize("pts", [[[0, 0], [5, 0], [0, 5]], [[0, 0], [0.5, 0], [5, 0]]])
    def test_sampled_check_reads_an_exact_chi(self, pts):
        """In 2-D the chi of a pair whose balls are apart comes back as an
        exact Fraction(0), which the ordering check reads as 0 ± 0."""
        rep = dominance_check(pts, 1.0, 0, 1, 2, samples=1000, seed=1)
        assert rep.chi_z == Fraction(0)
        assert rep.dominates and rep.ordering_ok

    def test_sampled_dominance_witness(self):
        """z on the far side of x is not dominated by y; the witness is the
        first sample in B(x) and B(z) but outside B(y)."""
        pts = [[0.0, 0.0], [0.8, 0.0], [-0.8, 0.0]]
        rep = dominance_check(pts, 1.0, 0, 1, 2, samples=20_000, seed=5)
        rng = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
        zs = -1.0 + rng.random((20_000, 2)) * 2.0
        arr = np.array(pts)
        inside = [((zs - arr[i]) ** 2).sum(axis=1) <= 1.0 for i in range(3)]
        bad = inside[0] & inside[2] & ~inside[1]
        assert not rep.dominates
        assert rep.witness == tuple(float(c) for c in zs[bad][0])


def _thirds(alpha) -> Density:
    """Half the mass on (0, alpha/3], none on (alpha/3, 2 alpha/3], half on
    the rest: non-dyadic knots and a piece where nu is zero."""
    a = Fraction(alpha)
    half = Fraction(1, 2)
    return Density.piecewise_linear_cdf([(0, 0), (a / 3, half), (2 * a / 3, half), (a, 1)])


@st.composite
def _clouds_with_duplicates(draw):
    """1-D clouds on a 1/10 lattice with at least one exact duplicate, and
    either any alpha or one below the smallest half-gap of distinct points."""
    ks = draw(st.lists(st.integers(0, 20), min_size=1, max_size=5))
    ks.append(draw(st.sampled_from(ks)))
    coords = [Fraction(k, 10) for k in ks]
    gaps = [abs(a - b) for a in coords for b in coords if a != b]
    if gaps and draw(st.booleans()):
        alpha = min(gaps) / 2 * Fraction(draw(st.integers(1, 9)), 10)
    else:
        alpha = Fraction(draw(st.integers(1, 25)), 10)
    return coords, draw(st.sampled_from([Density.uniform(alpha), _thirds(alpha)]))


def _per_node_quad(coords, density, value_at) -> float:
    """Adaptive quadrature of nu(r) * value_at(r) over (0, alpha], piece by
    piece between the pair half-distances and the knots, with nu and the
    exact radius-r value taken at every node."""
    alpha = density.alpha
    halves = {abs(a - b) / 2 for a in coords for b in coords}
    cuts = sorted({0, alpha} | {r for r in halves | set(density.knot_radii()) if 0 < r < alpha})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        total += integrate.quad(
            lambda rf: float(density.pdf(rf)) * float(value_at(Fraction(rf))),
            float(lo), float(hi), epsabs=1e-12, limit=200,
        )[0]
    return total


def _check_against_quadrature(coords, density) -> None:
    """Every entry of a 1-D fnu matrix within 1e-9 of per-node quadrature of
    its exact radius-r value, and every row summing to its weight."""
    pts = [[c] for c in coords]
    m = sharing_matrix(pts, family="fnu", density=density)
    cloud = euclid._Cloud(pts)
    at = lambda value_at: _per_node_quad(coords, density, value_at)
    for x in range(len(pts)):
        assert m.weights[x] == pytest.approx(at(lambda r: g_r(cloud, r, x)), abs=1e-9)
        for y in range(x, len(pts)):
            if x != y and abs(coords[x] - coords[y]) >= 2 * density.alpha:
                assert m.chi[x][y] == 0.0
                continue
            ref = at(lambda r: chi_gr(cloud, r, x, y))
            assert m.chi[x][y] == pytest.approx(ref, abs=1e-9)
    assert all(abs(res) <= 1e-12 for res in m.row_residuals)


class TestRadiusIntegrated:
    @pytest.mark.parametrize("density", [
        Density.uniform(Fraction(1, 2)),
        Density.piecewise_linear_cdf([(0, 0), (Fraction(1, 5), Fraction(1, 2)), (1, 1)]),
    ])
    def test_1d_matrix_floats_equal_separate_calls(self, density):
        pts = [[Fraction(0)], [Fraction(3, 10)], [Fraction(3, 10)], [Fraction(9, 20)],
               [Fraction(7, 4)]]
        m = sharing_matrix(pts, family="fnu", density=density)
        n = len(pts)
        assert m.weights == tuple(f_nu(pts, density, x) for x in range(n))
        assert m.chi == tuple(
            tuple(chi_fnu(pts, density, x, y) for y in range(n)) for x in range(n)
        )

    def test_closed_form_equals_per_node_quadrature(self):
        """Also at the non-dyadic knots 1/3 and 2/3 and on a piece where nu
        is zero."""
        coords = [Fraction(0), Fraction(3, 10), Fraction(9, 20), Fraction(7, 4)]
        _check_against_quadrature(coords, _thirds(1))

    @given(case=_clouds_with_duplicates())
    @settings(max_examples=25, deadline=None)
    def test_closed_form_equals_per_node_quadrature_on_clouds(self, case):
        _check_against_quadrature(*case)

    @given(case=_clouds_with_duplicates())
    @settings(max_examples=60, deadline=None)
    def test_tables_are_linear_between_cuts(self, case):
        """The premise of the closed form: between consecutive cuts every
        entry of the 1-D table is linear in r, so the table at a point of
        the piece mixes the two cut tables, as exact Fractions."""
        coords, density = case
        cloud = euclid._Cloud([[c] for c in coords])
        cuts = cloud.cuts(density)
        assert cuts[0] == 0 and cuts[-1] == density.alpha and cuts == sorted(set(cuts))
        for lo, hi in zip(cuts, cuts[1:]):
            t_lo, t_hi = cloud.table(lo), cloud.table(hi)
            for s in (Fraction(1, 2), Fraction(1, 3)):
                t = cloud.table(lo + s * (hi - lo))
                mix = lambda a, b: (1 - s) * a + s * b
                assert t.volume == mix(t_lo.volume, t_hi.volume)
                assert t.share == [mix(a, b) for a, b in zip(t_lo.share, t_hi.share)]
                assert t.private == [mix(a, b) for a, b in zip(t_lo.private, t_hi.private)]
                for key in t.pair.keys() | t_lo.pair.keys() | t_hi.pair.keys():
                    assert t.pair.get(key, 0) == mix(t_lo.pair.get(key, 0), t_hi.pair.get(key, 0))

    def test_touching_balls_are_disjoint(self):
        """Centres exactly 2r apart share no volume: g_r is exactly 1/2, and
        every radius cell up to half the gap is exact with no samples."""
        pts = [[0.0, 0.0], [1.0, 0.0]]
        assert g_r(pts, 0.5, 0) == Fraction(1, 2)
        assert chi_gr(pts, 0.5, 0, 1) == Fraction(0)
        est = f_nu(pts, Density.uniform(Fraction(1, 2)), 0, samples=64_000, seed=1)
        assert est.value == pytest.approx(0.5, abs=1e-12)
        assert est.half_width == 0.0 and est.samples == 0
        # a cell whose midpoint is exactly half the gap is still exact: 63/64
        # apart, cell 31 of 64 has its midpoint at 63/128, so cells 0 to 31
        # are exact and only the 32 above are sampled, 64 strata each
        est = f_nu([[0.0, 0.0], [63 / 64, 0.0]], Density.uniform(1), 0, samples=64_000, seed=1)
        assert est.strata == 32 * 64
        # past half the gap the cells are sampled again
        est = f_nu(pts, Density.uniform(1), 0, samples=64_000, seed=1)
        assert est.samples > 0 and est.half_width > 0.0
        assert abs(est.value - 0.5) <= 4 * est.half_width + 1e-3

    def test_strata_count_only_the_sampled_cells(self):
        """Exact cells draw nothing and add no strata: 54 of the 64 cells
        are sampled, each with 64 strata of 1000 // 64 draws."""
        est = f_nu([[0, 0], [0.3, 0], [3, 3]], Density.uniform(1), 0, samples=64_000, seed=1)
        assert est.strata == 54 * 64
        assert est.samples == est.strata * (1000 // 64)

    @pytest.mark.parametrize("spawned", [0, 5])
    def test_seed_sequence_is_not_spawned_from(self, spawned):
        """Calls with one ``SeedSequence`` object draw the same points and
        leave the object as it was; the draws are those of a fresh sequence
        with the same entropy, and of its int seed."""
        pts, d = [[0, 0], [0.3, 0], [3, 3]], Density.uniform(1)
        seq = np.random.SeedSequence(3)
        seq.spawn(spawned)
        first = f_nu(pts, d, 0, samples=6400, seed=seq)
        assert f_nu(pts, d, 0, samples=6400, seed=seq) == first
        assert seq.n_children_spawned == spawned
        assert f_nu(pts, d, 0, samples=6400, seed=3) == first


def _partly_separated(dim: int, seed: int) -> list[list[float]]:
    """Four points in a 0.3-wide cube and one at 0.65 along the first axis:
    at reach 1/4 some pairs are apart and some overlap."""
    rng = np.random.default_rng(seed)
    far = [0.65] + [0.15] * (dim - 1)
    return (rng.random((4, dim)) * 0.3).tolist() + [far]


_FAMILIES = {
    "gr": (dict(family="gr", r=0.25), 40_000),
    "fnu": (dict(family="fnu", density=Density.uniform(Fraction(1, 4))), 64_000),
}


def _alone(pts, family, x, y, samples, seed):
    """The entry (x, y) of a matrix (y None for the weight) from its own
    single-entry function."""
    kw = dict(samples=samples, seed=seed)
    if family == "gr":
        return g_r(pts, 0.25, x, **kw) if y is None else chi_gr(pts, 0.25, x, y, **kw)
    d = _FAMILIES["fnu"][0]["density"]
    return f_nu(pts, d, x, **kw) if y is None else chi_fnu(pts, d, x, y, **kw)


_ENTRY_CLOUDS = {
    "1d": [[Fraction(0)], [Fraction(3, 10)], [Fraction(3, 10)], [Fraction(9, 20)],
           [Fraction(7, 4)]],
    "2d-overlapping": [[0.0, 0.0], [0.3, 0.1], [0.2, 0.25], [1.5, 1.5]],
    "2d-disjoint": [[0.0, 0.0], [0.6, 0.0], [0.0, 0.6], [1.5, 1.5]],
}

#: the key of each entry kind; the last point is at least 1 from point 0
_ENTRY_KEYS = {"weight": (0, None), "private": (0, 0), "overlapping": (0, 1), "apart": (0, -1)}


class TestEntriesAreMatrixEntries:
    """The entry functions are one-key calls of the matrix engine: at the
    matrix seed each returns the matrix's entry, as a ``Fraction`` where it
    is exact, a float for a 1-D ``fnu`` integral and an ``Estimate`` where
    it is sampled.  At radius 1/4 the "2d-disjoint" balls are pairwise
    disjoint, so ``gr`` draws nothing there; under alpha 1/2 the ``fnu``
    pair (0, 1) overlaps in every cloud."""

    @pytest.mark.parametrize("entry", sorted(_ENTRY_KEYS))
    @pytest.mark.parametrize("cloud", sorted(_ENTRY_CLOUDS))
    @pytest.mark.parametrize("family", ["gr", "fnu"])
    def test_entry_function_returns_the_matrix_entry(self, family, cloud, entry):
        pts = _ENTRY_CLOUDS[cloud]
        x, y = _ENTRY_KEYS[entry]
        y = len(pts) - 1 if y == -1 else y
        kw = dict(samples=6400, seed=3)
        if family == "gr":
            r = Fraction(1, 4)
            m = sharing_matrix(pts, family="gr", r=r, **kw)
            got = g_r(pts, r, x, **kw) if y is None else chi_gr(pts, r, x, y, **kw)
        else:
            d = Density.uniform(Fraction(1, 2))
            m = sharing_matrix(pts, family="fnu", density=d, **kw)
            got = f_nu(pts, d, x, **kw) if y is None else chi_fnu(pts, d, x, y, **kw)
        if cloud == "1d":
            kind = Fraction if family == "gr" else float
        elif entry == "apart" or (family, cloud) == ("gr", "2d-disjoint"):
            kind = Fraction
        else:
            kind = euclid.Estimate
        assert type(got) is kind
        want = m.weights[x] if y is None else m.chi[x][y]
        if kind is euclid.Estimate:
            hw = m.weight_half_widths[x] if y is None else m.half_widths[x][y]
            assert (got.value, got.half_width) == (want, hw) and hw > 0.0
        else:
            assert type(want) is kind and got == want


class TestSharedDraws:
    """A Monte-Carlo matrix estimates all its entries from one set of draws
    (gr) or one per radius cell (fnu)."""

    @pytest.mark.parametrize("dim, seed", [(2, 1), (3, 2)])
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_entries_agree_with_separate_estimates(self, family, dim, seed):
        kw, samples = _FAMILIES[family]
        pts = _partly_separated(dim, seed)
        cloud = euclid._Cloud(pts)
        m = sharing_matrix(pts, samples=samples, seed=seed, **kw)
        assert m == sharing_matrix(pts, samples=samples, seed=seed, **kw)
        n = len(pts)
        apart = [(x, y) for x in range(n) for y in range(x + 1, n) if cloud.apart(x, y, 0.25)]
        assert apart and len(apart) < n * (n - 1) // 2
        entries = [(x, None) for x in range(n)] + [
            (x, y) for x in range(n) for y in range(x, n) if (x, y) not in apart
        ]
        for x, y in apart:
            assert m.chi[x][y] == m.chi[y][x] == Fraction(0)
            assert isinstance(m.chi[x][y], Fraction) and m.half_widths[x][y] == 0.0
        for x, y in entries:
            got, hw = (m.weights[x], m.weight_half_widths[x]) if y is None else (
                m.chi[x][y], m.half_widths[x][y])
            alone = _alone(pts, family, x, y, samples, seed + 100)
            assert hw > 0.0 and alone.half_width > 0.0
            assert abs(got - alone.value) <= 4 * (hw + alone.half_width), (x, y)

    @pytest.mark.parametrize("dim, seed", [(2, 3), (3, 4)])
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_rows_sum_to_their_weights(self, family, dim, seed):
        """Each draw splits its weight integrand exactly into the row's
        integrands, so only rounding separates a row from its weight."""
        kw, samples = _FAMILIES[family]
        m = sharing_matrix(_partly_separated(dim, seed), samples=samples, seed=seed, **kw)
        assert max(abs(res) for res in m.row_residuals) <= 1e-12

    def test_entries_are_the_one_numerator_estimates_of_the_seed(self):
        """A gr entry is ``_mc_ratio`` of its numerator at the matrix seed,
        an fnu entry ``_radial_mcs`` of it alone, bit for bit."""
        pts = _partly_separated(2, 5)
        cloud = euclid._Cloud(pts)
        density = _FAMILIES["fnu"][0]["density"]
        gr = sharing_matrix(pts, family="gr", r=0.25, samples=20_000, seed=5)
        fnu = sharing_matrix(pts, family="fnu", density=density, samples=64_000, seed=5)
        gr_alone = lambda numer: euclid._mc_ratio(euclid._Balls(cloud.arr, 0.25), numer,
                                                  20_000, 5).value
        fnu_alone = lambda numer: euclid._radial_mcs(cloud, density, [numer], 64_000, 5)[0].value
        for m, alone in ((gr, gr_alone), (fnu, fnu_alone)):
            for x in range(len(pts)):
                assert m.weights[x] == alone(euclid._numer(x, None))
                assert m.chi[x][x] == alone(euclid._numer(x, x))
                for y in range(x + 1, len(pts)):
                    if not cloud.apart(x, y, 0.25):
                        assert m.chi[x][y] == alone(euclid._numer(x, y))

    def test_membership_not_integrands_is_held(self):
        """Integrands are evaluated one at a time: fifteen numerators cost
        about the memory of one, not fifteen float arrays."""
        import tracemalloc

        balls = euclid._Balls(np.array(_partly_separated(2, 6)), 0.25)
        numers = [euclid._numer(x, None) for x in range(5)] + [
            euclid._numer(x, y) for x in range(5) for y in range(x + 1, 5)
        ]
        peaks = []
        for some in (numers[:1], numers):
            tracemalloc.start()
            euclid._mc_ratios(balls, some, 100_000, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_chi_gr_diagonal_is_exact_on_disjoint_balls(self, monkeypatch):
        """Pairwise disjoint balls (touching counts) cover their own ball
        alone: the private weight is 1/n like g_r, and a matrix draws
        nothing."""
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert chi_gr(pts, 0.5, 0, 0) == Fraction(1, 3)
        assert isinstance(chi_gr(pts, 0.6, 0, 0, samples=1000, seed=1), euclid.Estimate)

        def no_draws(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(euclid, "_stratified", no_draws)
        m = sharing_matrix(pts, family="gr", r=0.4, samples=1000, seed=1)
        third = Fraction(1, 3)
        assert m.weights == (third,) * 3
        assert m.chi == tuple(tuple(third if i == j else 0 for j in range(3)) for i in range(3))
        assert m.row_residuals == (0.0,) * 3
        assert m.weight_half_widths == (0.0,) * 3
        assert m.half_widths == ((0.0,) * 3,) * 3

    @pytest.mark.parametrize("samples", [0, -1, -5])
    def test_non_positive_samples_are_rejected(self, samples):
        """Also where every radius cell is disjoint and nothing is drawn."""
        near, far = [[0.0, 0.0], [0.3, 0.0]], [[0.0, 0.0], [5.0, 0.0]]
        d = Density.uniform(1)
        kw = dict(samples=samples, seed=1)
        calls = [
            lambda: f_nu(near, d, 0, **kw),
            lambda: f_nu(far, d, 0, **kw),
            lambda: chi_fnu(near, d, 0, 0, **kw),
            lambda: chi_fnu(near, d, 0, 1, **kw),
            lambda: euclid._radial_mcs(euclid._Cloud(near), d, [euclid._numer(0, None)],
                                       samples, 1),
            lambda: sharing_matrix(near, family="fnu", density=d, **kw),
            lambda: sharing_matrix(far, family="fnu", density=d, **kw),
            lambda: sharing_matrix(near, family="gr", r=1, **kw),
            lambda: g_r(near, 1, 0, **kw),
            lambda: removal_effect_gr([[0, 0], [0.5, 0], [0.2, 0.3]], 0.5, 0, **kw),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"need a positive sample count, got {samples}"):
                call()
