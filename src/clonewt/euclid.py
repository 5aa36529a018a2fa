"""Ball-overlap weights for Euclidean point sets.

The radius-r weight of a point is the normalised integral of 1/|cover(z)|
over its ball, where cover(z) counts the points whose balls contain z; the
sharing coefficient of a pair integrates 1/(c(c-1)) over the lens where both
balls overlap.  In one dimension everything is exact (the covering count is
piecewise constant between sorted ball endpoints); in higher dimensions a
stratified Monte-Carlo estimator reports 99% confidence half-widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np
from scipy import integrate  # noqa: F401 - benchmarks/tracing.py patches euclid.integrate

from .metric import _fraction
from .weighting import Density

__all__ = [
    "Estimate",
    "RemovalEntry",
    "RemovalReport",
    "DominanceReport",
    "SharingMatrix",
    "g_r",
    "chi_gr",
    "union_volume",
    "private_volume_1d",
    "intersection_volume_1d",
    "removal_effect_gr",
    "f_nu",
    "chi_fnu",
    "dominance_check",
    "sharing_matrix",
]

Number = int | float | Fraction

#: two-sided 99% normal quantile
Z99 = 2.5758293035489004

#: midpoint radius cells of a Monte-Carlo ``f_nu`` estimate
_RADIUS_CELLS = 64


def _normalize(points):
    """Classify a point set as exact 1-D coordinates or an nd float array."""
    if isinstance(points, np.ndarray):
        if points.ndim == 1 or (points.ndim == 2 and points.shape[1] == 1):
            return [_fraction(c) for c in points.reshape(-1)], None
        return None, np.asarray(points, dtype=float)
    seq = list(points)
    if not seq:
        raise ValueError("need at least one point")
    if np.ndim(seq[0]) == 0:
        return [_fraction(c) for c in seq], None
    if all(len(row) == 1 for row in seq):
        return [_fraction(row[0]) for row in seq], None
    return None, np.asarray([[float(c) for c in row] for row in seq], dtype=float)


class _Cloud:
    """A normalised point set with the geometry computed on it so far.
    ``sharing_matrix`` reads every entry off one cloud, so each radius's 1-D
    table, the radius cuts and the least pair distance are computed once per
    matrix."""

    def __init__(self, points):
        self.coords, self.arr = _normalize(points)
        self.n = len(self.coords) if self.coords is not None else self.arr.shape[0]
        self._tables: dict[Fraction, _Table1D] = {}
        self._cuts: dict[Density, list[Fraction]] = {}

    def table(self, r: Fraction) -> _Table1D:
        if r not in self._tables:
            self._tables[r] = _Table1D(self.coords, r)
        return self._tables[r]

    def cuts(self, density: Density) -> list[Fraction]:
        if density not in self._cuts:
            self._cuts[density] = _radius_pieces(self.coords, density)
        return self._cuts[density]

    @cached_property
    def gap(self) -> float:
        """Least distance between two centres (inf for a single point)."""
        d2 = [((self.arr[i + 1:] - self.arr[i]) ** 2).sum(axis=1).min()
              for i in range(self.n - 1)]
        return math.sqrt(min(d2)) if d2 else math.inf

    def apart(self, x: int, y: int, r) -> bool:
        """Whether the radius-r balls of x and y share no volume."""
        if self.coords is not None:
            return abs(self.coords[x] - self.coords[y]) >= 2 * r
        return float(np.linalg.norm(self.arr[x] - self.arr[y])) >= 2 * float(r)


def _cloud(points) -> _Cloud:
    return points if isinstance(points, _Cloud) else _Cloud(points)


# ---------------------------------------------------------------------------
# Exact one-dimensional engine


class _Table1D:
    """One sweep's integrals over the union of radius-r intervals, with c
    the number of intervals covering a point: ``share[x]`` of 1/c over x's
    interval, ``private[x]`` the length x covers alone, ``pair[x, y]``
    (x < y) of 1/(c(c-1)) where both cover.  Starts and ends follow the
    order of the centres, so each segment's cover is a run ``order[lo:hi]``.
    """

    def __init__(self, coords: list[Fraction], r: Fraction):
        n = len(coords)
        order = sorted(range(n), key=coords.__getitem__)
        starts = [coords[i] - r for i in order]
        ends = [coords[i] + r for i in order]
        self.volume = Fraction(0)
        self.share = [Fraction(0)] * n
        self.private = [Fraction(0)] * n
        self.pair: dict[tuple[int, int], Fraction] = {}
        lo = hi = 0
        pos = starts[0]
        while lo < n:
            at = starts[hi] if hi < n and (lo == hi or starts[hi] < ends[lo]) else ends[lo]
            run = order[lo:hi]
            if run:
                length, c = at - pos, len(run)
                self.volume += length
                each = length / c
                for x in run:
                    self.share[x] += each
                if c == 1:
                    self.private[run[0]] += length
                else:
                    both = length / (c * (c - 1))
                    for i, x in enumerate(run):
                        for y in run[i + 1:]:
                            key = (x, y) if x < y else (y, x)
                            self.pair[key] = self.pair.get(key, 0) + both
            while lo < hi and ends[lo] == at:
                lo += 1
            while hi < n and starts[hi] == at:
                hi += 1
            pos = at


# What a 1-D entry (x, y) reads off the table at a radius: the integral over
# the union that ``gr`` divides by the union length and ``fnu`` integrates
# over the radius.  One signature, so ``_entries`` picks one per key.


def _g_1d(table: _Table1D, x: int, y: None = None) -> Fraction:
    """x's integral of 1/c, for its weight."""
    return table.share[x]


def _chi_offdiag_1d(table: _Table1D, x: int, y: int) -> Fraction:
    """The integral of 1/(c(c-1)) where both x and y cover."""
    return table.pair.get((min(x, y), max(x, y)), 0)


def _chi_diag_1d(table: _Table1D, x: int, y: int | None = None) -> Fraction:
    """x's private length, checked against its decomposition: the share of
    x less every pair integral of x."""
    others = (z for z in range(len(table.share)) if z != x)
    total = table.share[x] - sum(table.pair.get((min(x, z), max(x, z)), 0) for z in others)
    direct = table.private[x]
    if total != direct:  # pragma: no cover - internal consistency guard
        raise RuntimeError(
            f"private weight mismatch: decomposition {total} vs direct integral {direct}"
        )
    return total


def private_volume_1d(points, r) -> list[Fraction]:
    """Absolute volume covered by each point's ball alone (1-D exact)."""
    cloud = _cloud(points)
    if cloud.coords is None:
        raise ValueError("private_volume_1d needs one-dimensional points")
    return list(cloud.table(_radius(r, "non-negative")).private)


def intersection_volume_1d(r: Number, dist: Number) -> Fraction:
    """Volume of the overlap of two radius-r intervals at center distance d."""
    r_ex, d_ex = _fraction(r), _fraction(dist)
    return max(Fraction(0), 2 * r_ex - d_ex)


# ---------------------------------------------------------------------------
# Stratified Monte-Carlo engine (dimension >= 2)


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo value with a 99% confidence half-width."""

    value: float
    half_width: float
    samples: int
    seed: int
    strata: int

    def __float__(self) -> float:
        return self.value


class _Balls:
    def __init__(self, centers: np.ndarray, r: float):
        self.centers = centers
        self.r = float(r)
        self.dim = centers.shape[1]

    def member(self, zs: np.ndarray) -> np.ndarray:
        """(samples, balls) membership, squared distances summed one
        coordinate at a time (no samples x balls x dim temporary)."""
        d2 = (zs[:, None, 0] - self.centers[None, :, 0]) ** 2
        for k in range(1, self.dim):
            d2 += (zs[:, None, k] - self.centers[None, :, k]) ** 2
        return d2 <= self.r * self.r

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.centers.min(axis=0) - self.r, self.centers.max(axis=0) + self.r


def _spawn(seed, n: int) -> list[np.random.SeedSequence]:
    """The first ``n`` children of ``seed``.  A caller's ``SeedSequence`` is
    copied before spawning, so it is left as it was and the same object
    gives the same children on every call."""
    if isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
        )
    else:
        seed = np.random.SeedSequence(seed)
    return seed.spawn(n)


def _seed_meta(seed) -> int:
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        return int(entropy) if isinstance(entropy, int) else 0
    return int(seed)


#: Sample-ball pairs per block of strata (128 KiB of floats per temporary)
_BLOCK = 1 << 14


def _check_draws(samples: int, seed) -> None:
    if seed is None:
        raise ValueError("Monte-Carlo estimates require an explicit seed")
    if samples <= 0:
        raise ValueError(f"need a positive sample count, got {samples}")


def _stratified(balls: _Balls, samples: int, seed, integrands):
    """Each ``integrand(member, counts)`` at stratified uniform draws over
    the balls' bounding box, as a (strata, draws per stratum) array.  One
    ``default_rng(seed)`` draws for every stratum in turn, in ``np.ndindex``
    order, so the draws do not depend on how strata are grouped into blocks.

    The draws are made and their membership taken now; the integrands are
    evaluated lazily, one per step of the returned iterator, so a caller
    with many integrands holds one float array at a time next to the
    (samples, balls) membership and the counts."""
    _check_draws(samples, seed)
    lo, hi = balls.box()
    shape = (max(1, round(64 ** (1.0 / balls.dim))),) * balls.dim  # about 64 strata
    n_strata = int(np.prod(shape))
    n_each = max(1, samples // n_strata)
    cell = (hi - lo) / np.array(shape, dtype=float)
    origins = lo + np.indices(shape).reshape(balls.dim, -1).T * cell
    rng = np.random.default_rng(seed)
    step = max(1, _BLOCK // (n_each * len(balls.centers)))
    member = np.empty((n_strata * n_each, len(balls.centers)), dtype=bool)
    for first in range(0, n_strata, step):
        stop = min(first + step, n_strata)
        draws = rng.random(((stop - first) * n_each, balls.dim))
        zs = np.repeat(origins[first:stop], n_each, axis=0) + draws * cell
        member[first * n_each:stop * n_each] = balls.member(zs)
    counts = member.sum(axis=1)
    return (integrand(member, counts).reshape(n_strata, n_each) for integrand in integrands)


def _hits(member, counts):
    return (counts > 0).astype(float)


def _strata_variance(values: np.ndarray) -> float:
    """Sum over strata of the variance of a stratum's mean, added left to
    right: ``np.cumsum`` adds in order, as a loop over the strata does."""
    n_each = values.shape[1]
    if n_each < 2:
        return 0.0
    return float(np.cumsum(values.var(axis=1, ddof=1) / n_each)[-1])


def _mc_ratios(balls: _Balls, numers, samples: int, seed) -> list[Estimate]:
    """Estimate (integral of numer) / (union volume) for every numer, all
    from one set of stratified draws over the box.

    ``numer(member, counts)`` maps the per-sample ball membership matrix and
    covering counts to integrand values.  The ratio estimator uses the
    linearised residuals e = a - Q*b for the half-width.  Since the draws
    are shared, integrands that add up sample by sample give estimates that
    add up to rounding.
    """
    values = _stratified(balls, samples, seed, [_hits, *numers])
    b = next(values)
    mean_b = float(b.mean())
    if mean_b == 0.0:
        raise RuntimeError("no sample hit the ball union; estimator degenerate")
    estimates = []
    for a in values:
        q = float(a.mean()) / mean_b
        hw = Z99 * math.sqrt(_strata_variance(a - q * b)) / len(a) / mean_b
        estimates.append(Estimate(q, hw, a.size, _seed_meta(seed), len(a)))
    return estimates


def _mc_ratio(balls: _Balls, numer, samples: int, seed) -> Estimate:
    """``_mc_ratios`` for one numerator."""
    return _mc_ratios(balls, [numer], samples, seed)[0]


def _numer(x: int, y: int | None):
    """The integrand of entry (x, y) over the union, as ``numer(member,
    counts)``: 1/c in x's ball (y None), 1/(c(c-1)) where both balls cover,
    or 1 where x's ball covers alone (y == x)."""
    if y is None:
        return lambda member, counts: np.where(member[:, x], 1.0 / np.maximum(counts, 1), 0.0)
    if x == y:
        return lambda member, counts: (member[:, x] & (counts == 1)).astype(float)
    return lambda member, counts: np.where(
        member[:, x] & member[:, y], 1.0 / np.maximum(counts * (counts - 1), 1), 0.0
    )


# ---------------------------------------------------------------------------
# Public radius-level operations


def _radius(r: Number, kind: str = "positive") -> Fraction:
    """r as a ``Fraction``, ``positive`` or, for a volume, ``non-negative``."""
    r_ex = _fraction(r)
    if r_ex < 0 or r_ex == 0 and kind == "positive":
        raise ValueError(f"radius must be {kind}, got {r}")
    return r_ex


def g_r(points, r: Number, x: int, *, samples: int = 10**6, seed: int | None = None):
    """Normalised covered share of point x at radius r.

    Returns an exact ``Fraction`` in one dimension (or when all balls are
    pairwise disjoint), otherwise a Monte-Carlo ``Estimate``: the entry of
    ``sharing_matrix`` (see ``_entries``).
    """
    return _entries(_cloud(points), "gr", _radius(r), None, [x], samples, seed)[0]


def chi_gr(points, r: Number, x: int, y: int, *, samples: int = 10**6, seed: int | None = None):
    """Sharing coefficient of x and y at radius r (diagonal = private weight).

    Exact, like ``g_r``, where the balls of x and y share no volume and, on
    the diagonal, where all balls are pairwise disjoint."""
    return _entries(_cloud(points), "gr", _radius(r), None, [(x, y)], samples, seed)[0]


def union_volume(points, r: Number, *, samples: int = 10**6, seed: int | None = None):
    """Volume of the union of balls: exact in 1-D, estimated otherwise."""
    cloud = _cloud(points)
    r_ex = _radius(r, "non-negative")
    if cloud.coords is not None:
        return cloud.table(r_ex).volume
    balls = _Balls(cloud.arr, float(r_ex))
    lo, hi = balls.box()
    box_vol = float(np.prod(hi - lo))
    (hits,) = _stratified(balls, samples, seed, [_hits])
    means = 0.0
    for mean in hits.mean(axis=1):
        means += float(mean)
    rate = means / len(hits)
    hw = Z99 * math.sqrt(_strata_variance(hits)) / len(hits)
    return Estimate(box_vol * rate, box_vol * hw, hits.size, _seed_meta(seed), len(hits))


@dataclass(frozen=True)
class RemovalEntry:
    before: object
    chi: object
    after: object
    residual: float
    tolerance: float


@dataclass(frozen=True)
class RemovalReport:
    x: int
    eta: object
    entries: dict[int, RemovalEntry]
    max_residual: float
    passed: bool
    mode: str


def removal_effect_gr(
    points, r: Number, x: int, *, samples: int = 10**6, seed: int | None = None
) -> RemovalReport:
    """Verify that dropping x rescales-and-shifts every other weight:
    g_{S-x}(y) = (g_S(y) + chi(x, y)) * (1 + eta), with
    eta = V_priv(x) / (Vol - V_priv(x)) = chi(x,x) / (1 - chi(x,x))."""
    cloud = _cloud(points)
    coords, arr, n = cloud.coords, cloud.arr, cloud.n
    if n < 2:
        raise ValueError("removal needs at least two points")
    r_ex = _radius(r)

    if coords is not None:
        rest = _Cloud([c for i, c in enumerate(coords) if i != x])
        diag = chi_gr(cloud, r_ex, x, x)
        eta = diag / (1 - diag)
        entries: dict[int, RemovalEntry] = {}
        worst = 0.0
        for y in range(n):
            if y == x:
                continue
            before = g_r(cloud, r_ex, y)
            chi = chi_gr(cloud, r_ex, x, y)
            after = g_r(rest, r_ex, y - 1 if y > x else y)
            residual = float(after - (before + chi) * (1 + eta))
            entries[y] = RemovalEntry(before, chi, after, abs(residual), 1e-9)
            worst = max(worst, abs(residual))
        return RemovalReport(x, eta, entries, worst, worst <= 1e-9, "exact-1d")

    if seed is None:
        raise ValueError("Monte-Carlo removal reports require an explicit seed")
    rf = float(r_ex)
    rest_arr = np.delete(arr, x, axis=0)
    children = np.random.SeedSequence(seed).spawn(3 * (n - 1) + 1)
    diag = _mc_ratio(_Balls(arr, rf), _numer(x, x), samples, children[0])
    chi_xx = diag.value
    eta = chi_xx / (1.0 - chi_xx)
    eta_hw = diag.half_width / (1.0 - chi_xx) ** 2
    entries = {}
    worst = 0.0
    passed = True
    slot = 1
    for y in range(n):
        if y == x:
            continue
        before = _mc_ratio(_Balls(arr, rf), _numer(y, None), samples, children[slot])
        chi = chi_gr(cloud, rf, x, y, samples=samples, seed=children[slot + 1])
        y_new = y - 1 if y > x else y
        after = _mc_ratio(_Balls(rest_arr, rf), _numer(y_new, None), samples, children[slot + 2])
        slot += 3
        chi_val, chi_hw = float(chi), getattr(chi, "half_width", 0.0)
        predicted = (before.value + chi_val) * (1.0 + eta)
        residual = abs(after.value - predicted)
        tol = 3.0 * (
            after.half_width
            + (1.0 + eta) * (before.half_width + chi_hw)
            + abs(before.value + chi_val) * eta_hw
        )
        entries[y] = RemovalEntry(before, chi, after, residual, tol)
        worst = max(worst, residual)
        passed = passed and residual <= tol
    return RemovalReport(x, eta, entries, worst, passed, "monte-carlo")


# ---------------------------------------------------------------------------
# Radius-integrated weights


def _radius_pieces(coords: list[Fraction], density: Density) -> list[Fraction]:
    """0, alpha, and every pair half-distance and density knot between them:
    between consecutive cuts nu is constant and the order of the interval
    ends does not change."""
    alpha = density.alpha
    halves = (abs(a - b) / 2 for i, a in enumerate(coords) for b in coords[i + 1:])
    inner = {r for r in (*halves, *density.knot_radii()) if 0 < r < alpha}
    return [Fraction(0), *sorted(inner), alpha]


def _integrate_radial(cloud: _Cloud, density: Density, numer) -> float:
    """Integral over (0, alpha] of nu(r) * numer(t) / t.volume, with t the
    1-D table at r, in closed form.

    On a piece between consecutive cuts every table entry is linear in r,
    and continuous at the cuts, so numer = q * volume + rest with constant q
    and rest, and the piece integrates to q * dr + rest * dr / dV * log(V_hi
    / V_lo).  The union length grows at twice its number of components, so
    dV > 0; at r = 0 numer and volume vanish, so rest = 0 there.  The
    rational parts are summed exactly and rounded once."""
    rational, logs = Fraction(0), 0.0
    cuts = cloud.cuts(density)
    for lo, hi in zip(cuts, cuts[1:]):
        nu = density.pdf(lo)
        if nu == 0:
            continue
        t_lo, t_hi = cloud.table(lo), cloud.table(hi)
        n_lo, v_lo = numer(t_lo), t_lo.volume
        dr, dv = hi - lo, t_hi.volume - v_lo
        q = (numer(t_hi) - n_lo) / dv
        rational += nu * q * dr
        rest = n_lo - q * v_lo
        if rest:
            logs += float(nu * rest * dr / dv) * math.log1p(float(dv / v_lo))
    return float(rational) + logs


def f_nu(points, density: Density, x: int, *, samples: int = 10**6,
         seed: int | None = None):
    """Radius-integrated weight of x under the density nu: a float in 1-D,
    otherwise an ``Estimate`` (see ``_entries``)."""
    return _entries(_cloud(points), "fnu", None, density, [x], samples, seed)[0]


def chi_fnu(points, density: Density, x: int, y: int, *, samples: int = 10**6,
            seed: int | None = None):
    """Radius-integrated sharing coefficient (diagonal = private weight)."""
    return _entries(_cloud(points), "fnu", None, density, [(x, y)], samples, seed)[0]


def _radial_mcs(cloud: _Cloud, density: Density, numers, samples, seed) -> list[Estimate]:
    """Midpoint radius grid of ``_RADIUS_CELLS`` cells with one stratified
    spatial estimate per cell, shared by the (one or more) numerators: cell
    k draws once, from child k of ``seed``.

    The reported half-width combines the per-cell Monte-Carlo half-widths in
    quadrature; the radial discretisation bias is not included.  A cell
    whose balls are pairwise disjoint (touching counts as disjoint) is
    exact: each ball is 1/n of the union and covered by itself alone, so the
    ratio is the mean of ``numer`` over the identity membership matrix.
    """
    _check_draws(samples, seed)
    alpha = float(density.alpha)
    width = alpha / _RADIUS_CELLS
    mids = (np.arange(_RADIUS_CELLS) + 0.5) * width
    children = _spawn(seed, _RADIUS_CELLS)
    per_cell = max(1000, samples // _RADIUS_CELLS)
    eye, ones = np.eye(cloud.n, dtype=bool), np.ones(cloud.n, dtype=int)
    disjoint = [float(numer(eye, ones).mean()) for numer in numers]
    totals = [0.0] * len(numers)
    var = [0.0] * len(numers)
    used = 0
    strata = 0
    for k, mid in enumerate(mids):
        nu = float(density.pdf(float(mid)))
        if nu == 0.0:
            continue
        if 2 * mid <= cloud.gap:
            for i, value in enumerate(disjoint):
                totals[i] += nu * value * width
            continue
        ests = _mc_ratios(_Balls(cloud.arr, float(mid)), numers, per_cell, children[k])
        for i, est in enumerate(ests):
            totals[i] += nu * est.value * width
            var[i] += (nu * width * est.half_width) ** 2
        used += ests[0].samples
        strata += ests[0].strata
    return [Estimate(total, math.sqrt(v), used, _seed_meta(seed), strata)
            for total, v in zip(totals, var)]


# ---------------------------------------------------------------------------
# Intersection dominance


@dataclass(frozen=True)
class DominanceReport:
    dominates: bool
    chi_y: object
    chi_z: object
    witness: tuple | None
    ordering_ok: bool | None


def dominance_check(
    points, r: Number, x: int, y: int, z: int, *, samples: int = 10**5,
    seed: int | None = None
) -> DominanceReport:
    """Check whether y intersection-dominates z at x, i.e. whether
    B(x) cap B(z) is contained in B(x) cap B(y); when it is, the sharing
    coefficients must satisfy chi(x, y) >= chi(x, z)."""
    cloud = _cloud(points)
    coords, arr = cloud.coords, cloud.arr
    r_ex = _fraction(r)

    if coords is not None:
        lo_zx = max(coords[x], coords[z]) - r_ex
        hi_zx = min(coords[x], coords[z]) + r_ex
        empty = lo_zx > hi_zx
        lo_yx = max(coords[x], coords[y]) - r_ex
        hi_yx = min(coords[x], coords[y]) + r_ex
        dominates = empty or (lo_yx <= lo_zx and hi_zx <= hi_yx)
        chi_y = chi_gr(cloud, r_ex, x, y)
        chi_z = chi_gr(cloud, r_ex, x, z)
        witness = None
        ordering = None
        if dominates:
            ordering = chi_y >= chi_z
            if not ordering:
                raise RuntimeError(
                    f"dominance holds but chi(x,y)={chi_y} < chi(x,z)={chi_z}"
                )
        return DominanceReport(dominates, chi_y, chi_z, witness, ordering)

    if seed is None:
        raise ValueError("sampled dominance checks require an explicit seed")
    rf = float(r)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    lo = arr[x] - rf
    zs = lo + rng.random((samples, arr.shape[1])) * (2 * rf)
    in_x, in_y, in_z = _Balls(arr[[x, y, z]], rf).member(zs).T
    bad = in_x & in_z & ~in_y
    witness = tuple(float(c) for c in zs[bad][0]) if bad.any() else None
    dominates = not bad.any()
    chi_y = chi_gr(cloud, rf, x, y, samples=samples, seed=seed + 1)
    chi_z = chi_gr(cloud, rf, x, z, samples=samples, seed=seed + 2)
    ordering = None
    if dominates:
        # an apart pair's chi is an exact Fraction(0): value ± 0
        margin = sum(getattr(chi, "half_width", 0.0) for chi in (chi_y, chi_z))
        ordering = float(chi_y) >= float(chi_z) - 3 * margin
        if not ordering:
            raise RuntimeError(
                f"dominance holds but chi(x,y)={float(chi_y)} < chi(x,z)={float(chi_z)} "
                "beyond the combined confidence margin"
            )
    return DominanceReport(dominates, chi_y, chi_z, witness, ordering)


# ---------------------------------------------------------------------------
# Full sharing matrices


@dataclass(frozen=True)
class SharingMatrix:
    """All pairwise sharing coefficients plus the weights they decompose.

    ``chi[i][j]`` includes the private weights on the diagonal;
    ``row_residuals[i]`` is weight(i) minus its row sum, which should vanish
    within the estimator tolerance.
    """

    family: str
    param: float
    weights: tuple
    chi: tuple[tuple, ...]
    row_residuals: tuple
    half_widths: tuple[tuple, ...] | None
    weight_half_widths: tuple | None
    samples: int | None
    seed: int | None


def _entries(cloud: _Cloud, family: str, r, density, keys, samples, seed) -> list:
    """The entries ``keys`` of a ``family`` matrix, at radius r (``gr``) or
    under ``density`` (``fnu``): a key x is x's weight, (x, y) is chi(x, y)
    and (x, x) is x's private share.  Here alone an entry is decided exact
    or sampled.  A pair whose balls share no volume at r, or at alpha for
    ``fnu``, is 0 (0.0 for a 1-D ``fnu`` integral); any other 1-D entry is
    read off the cloud's tables.  On pairwise disjoint balls a ``gr`` weight
    or private share is 1/n.  The rest are estimated together, from one
    ``_mc_ratios`` (``gr``) or ``_radial_mcs`` (``fnu``) call."""
    one_d = cloud.coords is not None
    reach = r if family == "gr" else density.alpha
    disjoint = family == "gr" and not one_d and cloud.gap >= 2 * float(r)
    values, sampled = {}, {}
    for key in keys:
        x, y = key if isinstance(key, tuple) else (key, None)
        if y not in (None, x) and cloud.apart(x, y, reach):
            values[key] = 0.0 if one_d and family == "fnu" else Fraction(0)
        elif one_d:
            read = _g_1d if y is None else _chi_diag_1d if x == y else _chi_offdiag_1d
            if family == "gr":
                table = cloud.table(r)
                values[key] = read(table, x, y) / table.volume
            else:
                values[key] = _integrate_radial(cloud, density, lambda t: read(t, x, y))
        elif disjoint and y in (None, x):
            values[key] = Fraction(1, cloud.n)
        else:
            sampled[key] = _numer(x, y)
    numers = list(sampled.values())
    if sampled and family == "gr":
        values.update(zip(sampled, _mc_ratios(_Balls(cloud.arr, float(r)), numers,
                                               samples, seed)))
    elif sampled:
        values.update(zip(sampled, _radial_mcs(cloud, density, numers, samples, seed)))
    return [values[key] for key in keys]


def sharing_matrix(
    points,
    *,
    family: str,
    r: Number | None = None,
    density: Density | None = None,
    samples: int = 10**6,
    seed: int | None = None,
) -> SharingMatrix:
    """Every weight and sharing coefficient of the points under one family,
    all read by one ``_entries`` call: the entry functions ``g_r``,
    ``chi_gr``, ``f_nu`` and ``chi_fnu`` are its one-key calls.

    In 1-D each entry is exact and read off the cloud's shared geometry.  In
    higher dimensions every sampled entry is estimated from the same draws:
    one stratified set for ``gr``, one set per radius cell for ``fnu`` (cell
    k from child k of ``seed``).  The integrands of a row add up to its
    weight's at every draw, so each row sums to its weight up to rounding.
    """
    cloud = _cloud(points)
    n = cloud.n

    if family == "gr":
        if r is None:
            raise ValueError('family "gr" needs a radius r')
        r = _radius(r)
        param = float(r)
    elif family == "fnu":
        if density is None:
            raise ValueError('family "fnu" needs a radius density')
        param = float(density.alpha)
    else:
        raise ValueError(f'unknown sharing family {family!r}; use "gr" or "fnu"')

    exact_mode = cloud.coords is not None
    if not exact_mode and seed is None:
        raise ValueError("Monte-Carlo sharing matrices require an explicit seed")
    pairs = [(x, y) for x in range(n) for y in range(x, n)]
    values = _entries(cloud, family, r, density, [*range(n), *pairs], samples, seed)
    weights, chi = values[:n], [[None] * n for _ in range(n)]
    for (x, y), value in zip(pairs, values[n:]):
        chi[x][y] = chi[y][x] = value

    exact = lambda v: v if isinstance(v, Fraction) else Fraction(float(v))
    residuals = []
    for w, row in zip(weights, chi):
        res = exact(w) - sum(map(exact, row), Fraction(0))
        residuals.append(res if exact_mode else float(res))

    hw = weight_hw = None
    if not exact_mode:
        half = lambda v: 0.0 if isinstance(v, Fraction) else v.half_width
        hw = tuple(tuple(half(c) for c in row) for row in chi)
        weight_hw = tuple(half(w) for w in weights)
    val = lambda v: v if isinstance(v, Fraction) else float(v)
    return SharingMatrix(
        family,
        param,
        tuple(val(w) for w in weights),
        tuple(tuple(val(c) for c in row) for row in chi),
        tuple(residuals),
        hw,
        weight_hw,
        None if exact_mode else samples,
        seed,
    )
