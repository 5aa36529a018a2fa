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
from scipy import integrate

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

_QUAD_BUDGET = 1e-6


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
    ``sharing_matrix`` hands one cloud to every entry, so each radius's 1-D
    table and the least pair distance are built once per matrix."""

    def __init__(self, points):
        self.coords, self.arr = _normalize(points)
        self.n = len(self.coords) if self.coords is not None else self.arr.shape[0]
        self._tables: dict[Fraction, _Table1D] = {}

    def table(self, r: Fraction) -> _Table1D:
        if r not in self._tables:
            self._tables[r] = _Table1D(self.coords, r)
        return self._tables[r]

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


def _g_1d(cloud: _Cloud, r: Fraction, x: int) -> Fraction:
    table = cloud.table(r)
    return table.share[x] / table.volume


def _chi_offdiag_1d(cloud: _Cloud, r: Fraction, x: int, y: int) -> Fraction:
    table = cloud.table(r)
    return table.pair.get((min(x, y), max(x, y)), Fraction(0)) / table.volume


def private_volume_1d(points, r) -> list[Fraction]:
    """Absolute volume covered by each point's ball alone (1-D exact)."""
    cloud = _cloud(points)
    if cloud.coords is None:
        raise ValueError("private_volume_1d needs one-dimensional points")
    return list(cloud.table(_fraction(r)).private)


def _chi_diag_1d(cloud: _Cloud, r: Fraction, x: int) -> Fraction:
    others = (y for y in range(cloud.n) if y != x)
    total = _g_1d(cloud, r, x) - sum(_chi_offdiag_1d(cloud, r, x, y) for y in others)
    table = cloud.table(r)
    direct = table.private[x] / table.volume
    if total != direct:  # pragma: no cover - internal consistency guard
        raise RuntimeError(
            f"private weight mismatch: decomposition {total} vs direct integral {direct}"
        )
    return total


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


def _as_seedseq(seed) -> np.random.SeedSequence:
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def _seed_meta(seed) -> int:
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        return int(entropy) if isinstance(entropy, int) else 0
    return int(seed)


#: Sample-ball pairs per block of strata (128 KiB of floats per temporary)
_BLOCK = 1 << 14


def _stratified(balls: _Balls, samples: int, seed, *integrands) -> list[np.ndarray]:
    """Each ``integrand(member, counts)`` at stratified uniform draws over
    the balls' bounding box, as a (strata, draws per stratum) array.  Each
    stratum draws from its own generator, seeded by its child of ``seed``,
    so the draws do not depend on how strata are grouped into blocks."""
    if seed is None:
        raise ValueError("Monte-Carlo estimates require an explicit seed")
    if samples <= 0:
        raise ValueError(f"need a positive sample count, got {samples}")
    lo, hi = balls.box()
    shape = (max(1, round(64 ** (1.0 / balls.dim))),) * balls.dim  # about 64 strata
    n_strata = int(np.prod(shape))
    n_each = max(1, samples // n_strata)
    cell = (hi - lo) / np.array(shape, dtype=float)
    origins = lo + np.indices(shape).reshape(balls.dim, -1).T * cell
    children = _as_seedseq(seed).spawn(n_strata)
    step = max(1, _BLOCK // (n_each * len(balls.centers)))
    parts: list[list[np.ndarray]] = [[] for _ in integrands]
    for first in range(0, n_strata, step):
        stop = min(first + step, n_strata)
        draws = [np.random.default_rng(children[s]).random((n_each, balls.dim))
                 for s in range(first, stop)]
        zs = np.repeat(origins[first:stop], n_each, axis=0) + np.concatenate(draws) * cell
        member = balls.member(zs)
        counts = member.sum(axis=1)
        for part, integrand in zip(parts, integrands):
            part.append(integrand(member, counts))
    return [np.concatenate(part).reshape(n_strata, n_each) for part in parts]


def _hits(member, counts):
    return (counts > 0).astype(float)


def _strata_variance(values: np.ndarray) -> float:
    """Sum over strata of the variance of a stratum's mean."""
    n_each = values.shape[1]
    total = 0.0
    if n_each > 1:
        for var in values.var(axis=1, ddof=1):
            total += float(var) / n_each
    return total


def _mc_ratio(balls: _Balls, numer, samples: int, seed) -> Estimate:
    """Estimate (integral of numer) / (union volume), stratified over the box.

    ``numer(member, counts)`` maps the per-sample ball membership matrix and
    covering counts to integrand values.  The ratio estimator uses the
    linearised residuals e = a - Q*b for the half-width.
    """
    a, b = _stratified(balls, samples, seed, numer, _hits)
    mean_b = float(b.mean())
    if mean_b == 0.0:
        raise RuntimeError("no sample hit the ball union; estimator degenerate")
    q = float(a.mean()) / mean_b
    hw = Z99 * math.sqrt(_strata_variance(a - q * b)) / len(a) / mean_b
    return Estimate(q, hw, a.size, _seed_meta(seed), len(a))


def _numer_g(x: int):
    return lambda member, counts: np.where(member[:, x], 1.0 / np.maximum(counts, 1), 0.0)


def _numer_chi(x: int, y: int):
    return lambda member, counts: np.where(
        member[:, x] & member[:, y], 1.0 / np.maximum(counts * (counts - 1), 1), 0.0
    )


def _numer_private(x: int):
    return lambda member, counts: (member[:, x] & (counts == 1)).astype(float)


# ---------------------------------------------------------------------------
# Public radius-level operations


def g_r(points, r: Number, x: int, *, samples: int = 10**6, seed: int | None = None):
    """Normalised covered share of point x at radius r.

    Returns an exact ``Fraction`` in one dimension (or when all balls are
    pairwise disjoint), otherwise a Monte-Carlo ``Estimate``.
    """
    cloud = _cloud(points)
    r_ex = _fraction(r)
    if r_ex <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    if cloud.coords is not None:
        return _g_1d(cloud, r_ex, x)
    if cloud.gap >= 2 * float(r):
        return Fraction(1, cloud.n)
    return _mc_ratio(_Balls(cloud.arr, float(r)), _numer_g(x), samples, seed)


def chi_gr(points, r: Number, x: int, y: int, *, samples: int = 10**6, seed: int | None = None):
    """Sharing coefficient of x and y at radius r (diagonal = private weight)."""
    cloud = _cloud(points)
    r_ex = _fraction(r)
    if r_ex <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    if x != y and cloud.apart(x, y, r_ex):
        return Fraction(0)
    if cloud.coords is not None:
        return _chi_diag_1d(cloud, r_ex, x) if x == y else _chi_offdiag_1d(cloud, r_ex, x, y)
    numer = _numer_private(x) if x == y else _numer_chi(x, y)
    return _mc_ratio(_Balls(cloud.arr, float(r)), numer, samples, seed)


def union_volume(points, r: Number, *, samples: int = 10**6, seed: int | None = None):
    """Volume of the union of balls: exact in 1-D, estimated otherwise."""
    cloud = _cloud(points)
    if cloud.coords is not None:
        return cloud.table(_fraction(r)).volume
    balls = _Balls(cloud.arr, float(r))
    lo, hi = balls.box()
    box_vol = float(np.prod(hi - lo))
    (hits,) = _stratified(balls, samples, seed, _hits)
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

    if coords is not None:
        r_ex = _fraction(r)
        rest = _Cloud([c for i, c in enumerate(coords) if i != x])
        diag = _chi_diag_1d(cloud, r_ex, x)
        eta = diag / (1 - diag)
        entries: dict[int, RemovalEntry] = {}
        worst = 0.0
        for y in range(n):
            if y == x:
                continue
            before = _g_1d(cloud, r_ex, y)
            chi = chi_gr(cloud, r_ex, x, y)
            after = _g_1d(rest, r_ex, y - 1 if y > x else y)
            residual = float(after - (before + chi) * (1 + eta))
            entries[y] = RemovalEntry(before, chi, after, abs(residual), 1e-9)
            worst = max(worst, abs(residual))
        return RemovalReport(x, eta, entries, worst, worst <= 1e-9, "exact-1d")

    if seed is None:
        raise ValueError("Monte-Carlo removal reports require an explicit seed")
    rf = float(r)
    rest_arr = np.delete(arr, x, axis=0)
    children = np.random.SeedSequence(seed).spawn(3 * (n - 1) + 1)
    per = max(1, samples)
    diag = _mc_ratio(_Balls(arr, rf), _numer_private(x), per, children[0])
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
        before = _mc_ratio(_Balls(arr, rf), _numer_g(y), per, children[slot])
        chi = chi_gr(cloud, rf, x, y, samples=per, seed=children[slot + 1])
        y_new = y - 1 if y > x else y
        after = _mc_ratio(_Balls(rest_arr, rf), _numer_g(y_new), per, children[slot + 2])
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


def _radius_pieces(coords: list[Fraction], density: Density) -> list[float]:
    alpha = float(density.alpha)
    cuts = {0.0, alpha}
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            half = float(abs(coords[i] - coords[j])) / 2.0
            if 0.0 < half < alpha:
                cuts.add(half)
    for knot in density.knot_radii():
        kf = float(knot)
        if 0.0 < kf < alpha:
            cuts.add(kf)
    return sorted(cuts)


def _integrate_radial(cloud: _Cloud, density: Density, value_at) -> float:
    """Adaptive quadrature of nu(r) * value_at(r) over (0, alpha], piecewise
    between structural breakpoints, with a certified error budget.  Every
    entry of a matrix integrates over the same pieces, so most quadrature
    nodes recur, and the cloud builds each node's table once."""
    total = 0.0
    err = 0.0
    pieces = _radius_pieces(cloud.coords, density)
    for lo, hi in zip(pieces, pieces[1:]):
        val, est_err = integrate.quad(
            lambda rf: float(density.pdf(rf)) * float(value_at(_fraction(rf))),
            lo,
            hi,
            epsabs=_QUAD_BUDGET / (4 * len(pieces)),
            limit=200,
        )
        total += val
        err += est_err
    if err > _QUAD_BUDGET:
        raise RuntimeError(f"quadrature error {err:.2e} exceeds the 1e-6 budget")
    return total


def f_nu(points, density: Density, x: int, *, samples: int = 10**6,
         seed: int | None = None, radius_cells: int = 64):
    """Radius-integrated weight of x under the density nu."""
    cloud = _cloud(points)
    if cloud.coords is not None:
        return _integrate_radial(cloud, density, lambda r: _g_1d(cloud, r, x))
    return _radial_mc(cloud, density, _numer_g(x), samples, seed, radius_cells)


def chi_fnu(points, density: Density, x: int, y: int, *, samples: int = 10**6,
            seed: int | None = None, radius_cells: int = 64):
    """Radius-integrated sharing coefficient (diagonal = private weight)."""
    cloud = _cloud(points)
    if x != y and cloud.apart(x, y, density.alpha):
        return 0.0 if cloud.coords is not None else Fraction(0)
    if cloud.coords is not None:
        if x == y:
            return _integrate_radial(cloud, density, lambda r: _chi_diag_1d(cloud, r, x))
        return _integrate_radial(cloud, density, lambda r: _chi_offdiag_1d(cloud, r, x, y))
    numer = _numer_private(x) if x == y else _numer_chi(x, y)
    return _radial_mc(cloud, density, numer, samples, seed, radius_cells)


def _radial_mc(cloud: _Cloud, density: Density, numer, samples, seed, radius_cells) -> Estimate:
    """Midpoint radius grid with one stratified spatial estimate per cell.

    The reported half-width combines the per-cell Monte-Carlo half-widths in
    quadrature; the radial discretisation bias is not included (use more
    cells to shrink it).  A cell whose balls are pairwise disjoint (touching
    counts as disjoint) is exact: each ball is 1/n of the union and covered
    by itself alone, so the ratio is the mean of ``numer`` over the identity
    membership matrix.
    """
    if seed is None:
        raise ValueError("Monte-Carlo estimates require an explicit seed")
    alpha = float(density.alpha)
    width = alpha / radius_cells
    mids = (np.arange(radius_cells) + 0.5) * width
    children = _as_seedseq(seed).spawn(radius_cells)
    per_cell = max(1000, samples // radius_cells)
    disjoint = float(numer(np.eye(cloud.n, dtype=bool), np.ones(cloud.n, dtype=int)).mean())
    total = 0.0
    var = 0.0
    used = 0
    strata = 0
    for k, mid in enumerate(mids):
        nu = float(density.pdf(float(mid)))
        if nu == 0.0:
            continue
        if 2 * mid <= cloud.gap:
            total += nu * disjoint * width
            continue
        est = _mc_ratio(_Balls(cloud.arr, float(mid)), numer, per_cell, children[k])
        total += nu * est.value * width
        var += (nu * width * est.half_width) ** 2
        used += est.samples
        strata = est.strata
    return Estimate(total, math.sqrt(var), used, _seed_meta(seed), strata * radius_cells)


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
        ordering = chi_y.value >= chi_z.value - 3 * (chi_y.half_width + chi_z.half_width)
        if not ordering:
            raise RuntimeError(
                f"dominance holds but chi(x,y)={chi_y.value} < chi(x,z)={chi_z.value} "
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


def sharing_matrix(
    points,
    *,
    family: str,
    r: Number | None = None,
    density: Density | None = None,
    samples: int = 10**6,
    seed: int | None = None,
) -> SharingMatrix:
    cloud = _cloud(points)
    n = cloud.n

    if family == "gr":
        if r is None:
            raise ValueError('family "gr" needs a radius r')
        weight_fn = lambda x, s: g_r(cloud, r, x, samples=samples, seed=s)
        chi_fn = lambda x, y, s: chi_gr(cloud, r, x, y, samples=samples, seed=s)
        param = float(r)
    elif family == "fnu":
        if density is None:
            raise ValueError('family "fnu" needs a radius density')
        weight_fn = lambda x, s: f_nu(cloud, density, x, samples=samples, seed=s)
        chi_fn = lambda x, y, s: chi_fnu(cloud, density, x, y, samples=samples, seed=s)
        param = float(density.alpha)
    else:
        raise ValueError(f'unknown sharing family {family!r}; use "gr" or "fnu"')

    exact_mode = cloud.coords is not None
    if not exact_mode and seed is None:
        raise ValueError("Monte-Carlo sharing matrices require an explicit seed")
    seeds = iter(np.random.SeedSequence(seed or 0).spawn(n + n * (n + 1) // 2))
    weights = [weight_fn(x, None if exact_mode else next(seeds)) for x in range(n)]
    chi = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            chi[i][j] = chi[j][i] = chi_fn(i, j, None if exact_mode else next(seeds))

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
