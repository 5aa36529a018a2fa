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


# ---------------------------------------------------------------------------
# Exact one-dimensional engine


def _segments_1d(coords: list[Fraction], r: Fraction):
    """Maximal intervals of constant covering count (only covered ones)."""
    cuts = sorted({c - r for c in coords} | {c + r for c in coords})
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        count = sum(1 for c in coords if abs(c - mid) <= r)
        if count:
            segments.append((lo, hi, count))
    return segments


def _covers(center: Fraction, r: Fraction, lo: Fraction, hi: Fraction) -> bool:
    # segment endpoints are ball endpoints, so containment is all-or-nothing
    return center - r <= lo and hi <= center + r


def _union_volume_1d(coords, r) -> Fraction:
    return sum((hi - lo for lo, hi, _ in _segments_1d(coords, r)), Fraction(0))


def _g_1d(coords, r, x: int) -> Fraction:
    segments = _segments_1d(coords, r)
    vol = sum((hi - lo for lo, hi, _ in segments), Fraction(0))
    num = sum(
        (Fraction(hi - lo, count) for lo, hi, count in segments if _covers(coords[x], r, lo, hi)),
        Fraction(0),
    )
    return num / vol


def _chi_offdiag_1d(coords, r, x: int, y: int) -> Fraction:
    segments = _segments_1d(coords, r)
    vol = sum((hi - lo for lo, hi, _ in segments), Fraction(0))
    num = Fraction(0)
    for lo, hi, count in segments:
        if _covers(coords[x], r, lo, hi) and _covers(coords[y], r, lo, hi):
            num += Fraction(hi - lo, count * (count - 1))
    return num / vol


def private_volume_1d(points, r) -> list[Fraction]:
    """Absolute volume covered by each point's ball alone (1-D exact)."""
    coords, arr = _normalize(points)
    if coords is None:
        raise ValueError("private_volume_1d needs one-dimensional points")
    r_ex = _fraction(r)
    out = []
    for x in range(len(coords)):
        vol = Fraction(0)
        for lo, hi, count in _segments_1d(coords, r_ex):
            if count == 1 and _covers(coords[x], r_ex, lo, hi):
                vol += hi - lo
        out.append(vol)
    return out


def _chi_diag_1d(coords, r, x: int) -> Fraction:
    total = _g_1d(coords, r, x)
    for y in range(len(coords)):
        if y != x:
            total -= _chi_offdiag_1d(coords, r, x, y)
    direct = private_volume_1d(coords, r)[x] / _union_volume_1d(coords, r)
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
        d2 = ((zs[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=-1)
        return d2 <= self.r * self.r

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.centers.min(axis=0) - self.r, self.centers.max(axis=0) + self.r


def _strata_shape(dim: int, target: int = 64) -> tuple[int, ...]:
    per_axis = max(1, round(target ** (1.0 / dim)))
    return (per_axis,) * dim


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _seed_meta(seed) -> int:
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        return int(entropy) if isinstance(entropy, int) else 0
    return int(seed)


def _mc_ratio(balls: _Balls, numer, samples: int, seed) -> Estimate:
    """Estimate (integral of numer) / (union volume), stratified over the box.

    ``numer(member, counts)`` maps the per-sample ball membership matrix and
    covering counts to integrand values.  The ratio estimator uses the
    linearised residuals e = a - Q*b for the half-width.
    """
    if seed is None:
        raise ValueError("Monte-Carlo estimates require an explicit seed")
    if samples <= 0:
        raise ValueError(f"need a positive sample count, got {samples}")
    lo, hi = balls.box()
    shape = _strata_shape(balls.dim)
    n_strata = int(np.prod(shape))
    n_each = max(1, samples // n_strata)
    cell = (hi - lo) / np.array(shape, dtype=float)
    children = _as_seedseq(seed).spawn(n_strata)

    a_parts, b_parts = [], []
    for flat, idx in enumerate(np.ndindex(*shape)):
        rng = np.random.default_rng(children[flat])
        origin = lo + np.array(idx, dtype=float) * cell
        zs = origin + rng.random((n_each, balls.dim)) * cell
        member = balls.member(zs)
        counts = member.sum(axis=1)
        a_parts.append(numer(member, counts))
        b_parts.append((counts > 0).astype(float))

    a = np.concatenate(a_parts)
    b = np.concatenate(b_parts)
    mean_b = float(b.mean())
    if mean_b == 0.0:
        raise RuntimeError("no sample hit the ball union; estimator degenerate")
    q = float(a.mean()) / mean_b
    var_sum = 0.0
    for a_s, b_s in zip(a_parts, b_parts):
        e = a_s - q * b_s
        if n_each > 1:
            var_sum += float(e.var(ddof=1)) / n_each
    hw = Z99 * math.sqrt(var_sum) / n_strata / mean_b
    return Estimate(q, hw, n_each * n_strata, _seed_meta(seed), n_strata)


def _numer_g(x: int):
    def fn(member, counts):
        return np.where(member[:, x], 1.0 / np.maximum(counts, 1), 0.0)

    return fn


def _numer_chi(x: int, y: int):
    def fn(member, counts):
        both = member[:, x] & member[:, y]
        denom = np.maximum(counts * (counts - 1), 1)
        return np.where(both, 1.0 / denom, 0.0)

    return fn


def _numer_private(x: int):
    def fn(member, counts):
        return (member[:, x] & (counts == 1)).astype(float)

    return fn


def _all_disjoint(arr: np.ndarray, r: float) -> bool:
    n = arr.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if float(np.linalg.norm(arr[i] - arr[j])) < 2 * r:
                return False
    return True


# ---------------------------------------------------------------------------
# Public radius-level operations


def g_r(points, r: Number, x: int, *, samples: int = 10**6, seed: int | None = None):
    """Normalised covered share of point x at radius r.

    Returns an exact ``Fraction`` in one dimension (or when all balls are
    pairwise disjoint), otherwise a Monte-Carlo ``Estimate``.
    """
    coords, arr = _normalize(points)
    if _fraction(r) <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    if coords is not None:
        return _g_1d(coords, _fraction(r), x)
    if _all_disjoint(arr, float(r)):
        return Fraction(1, arr.shape[0])
    return _mc_ratio(_Balls(arr, float(r)), _numer_g(x), samples, seed)


def chi_gr(points, r: Number, x: int, y: int, *, samples: int = 10**6, seed: int | None = None):
    """Sharing coefficient of x and y at radius r (diagonal = private weight)."""
    coords, arr = _normalize(points)
    r_ex = _fraction(r)
    if r_ex <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    if coords is not None:
        if x == y:
            return _chi_diag_1d(coords, r_ex, x)
        if abs(coords[x] - coords[y]) >= 2 * r_ex:
            return Fraction(0)
        return _chi_offdiag_1d(coords, r_ex, x, y)
    if x != y and float(np.linalg.norm(arr[x] - arr[y])) >= 2 * float(r):
        return Fraction(0)
    balls = _Balls(arr, float(r))
    numer = _numer_private(x) if x == y else _numer_chi(x, y)
    return _mc_ratio(balls, numer, samples, seed)


def union_volume(points, r: Number, *, samples: int = 10**6, seed: int | None = None):
    """Volume of the union of balls: exact in 1-D, estimated otherwise."""
    coords, arr = _normalize(points)
    if coords is not None:
        return _union_volume_1d(coords, _fraction(r))
    if seed is None:
        raise ValueError("Monte-Carlo estimates require an explicit seed")
    balls = _Balls(arr, float(r))
    lo, hi = balls.box()
    box_vol = float(np.prod(hi - lo))
    shape = _strata_shape(balls.dim)
    n_strata = int(np.prod(shape))
    n_each = max(1, samples // n_strata)
    cell = (hi - lo) / np.array(shape, dtype=float)
    children = _as_seedseq(seed).spawn(n_strata)
    means, var_sum = 0.0, 0.0
    for flat, idx in enumerate(np.ndindex(*shape)):
        rng = np.random.default_rng(children[flat])
        origin = lo + np.array(idx, dtype=float) * cell
        zs = origin + rng.random((n_each, balls.dim)) * cell
        hits = (balls.member(zs).sum(axis=1) > 0).astype(float)
        means += float(hits.mean())
        if n_each > 1:
            var_sum += float(hits.var(ddof=1)) / n_each
    rate = means / n_strata
    hw = Z99 * math.sqrt(var_sum) / n_strata
    return Estimate(
        box_vol * rate, box_vol * hw, n_each * n_strata, _seed_meta(seed), n_strata
    )


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
    coords, arr = _normalize(points)
    n = len(coords) if coords is not None else arr.shape[0]
    if n < 2:
        raise ValueError("removal needs at least two points")

    if coords is not None:
        r_ex = _fraction(r)
        rest = [c for i, c in enumerate(coords) if i != x]
        diag = _chi_diag_1d(coords, r_ex, x)
        eta = diag / (1 - diag)
        entries: dict[int, RemovalEntry] = {}
        worst = 0.0
        for y in range(n):
            if y == x:
                continue
            before = _g_1d(coords, r_ex, y)
            chi = chi_gr(coords, r_ex, x, y)
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
        chi = chi_gr(arr, rf, x, y, samples=per, seed=children[slot + 1])
        y_new = y - 1 if y > x else y
        after = _mc_ratio(_Balls(rest_arr, rf), _numer_g(y_new), per, children[slot + 2])
        slot += 3
        chi_val = float(chi) if isinstance(chi, Fraction) else chi.value
        chi_hw = 0.0 if isinstance(chi, Fraction) else chi.half_width
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


def _integrate_radial(coords, density: Density, value_at) -> float:
    """Adaptive quadrature of nu(r) * value_at(r) over (0, alpha], piecewise
    between structural breakpoints, with a certified error budget."""
    total = 0.0
    err = 0.0
    pieces = _radius_pieces(coords, density)
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
    coords, arr = _normalize(points)
    if coords is not None:
        return _integrate_radial(coords, density, lambda r: _g_1d(coords, r, x))
    return _radial_mc(arr, density, _numer_g(x), samples, seed, radius_cells)


def chi_fnu(points, density: Density, x: int, y: int, *, samples: int = 10**6,
            seed: int | None = None, radius_cells: int = 64):
    """Radius-integrated sharing coefficient (diagonal = private weight)."""
    coords, arr = _normalize(points)
    if coords is not None:
        if x == y:
            return _integrate_radial(coords, density, lambda r: _chi_diag_1d(coords, r, x))
        gap = abs(coords[x] - coords[y])
        if gap >= 2 * density.alpha:
            return 0.0
        return _integrate_radial(coords, density, lambda r: _chi_offdiag_1d(coords, r, x, y))
    if x != y:
        gap = float(np.linalg.norm(arr[x] - arr[y]))
        if gap >= 2 * float(density.alpha):
            return 0.0
    numer = _numer_private(x) if x == y else _numer_chi(x, y)
    return _radial_mc(arr, density, numer, samples, seed, radius_cells)


def _radial_mc(arr, density: Density, numer, samples, seed, radius_cells) -> Estimate:
    """Midpoint radius grid with one stratified spatial estimate per cell.

    The reported half-width combines the per-cell Monte-Carlo half-widths in
    quadrature; the radial discretisation bias is not included (use more
    cells to shrink it).
    """
    if seed is None:
        raise ValueError("Monte-Carlo estimates require an explicit seed")
    alpha = float(density.alpha)
    width = alpha / radius_cells
    mids = (np.arange(radius_cells) + 0.5) * width
    children = _as_seedseq(seed).spawn(radius_cells)
    per_cell = max(1000, samples // radius_cells)
    total = 0.0
    var = 0.0
    used = 0
    strata = 0
    for k, mid in enumerate(mids):
        nu = float(density.pdf(float(mid)))
        if nu == 0.0:
            continue
        est = _mc_ratio(_Balls(arr, float(mid)), numer, per_cell, children[k])
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
    coords, arr = _normalize(points)
    r_ex = _fraction(r)

    if coords is not None:
        lo_zx = max(coords[x], coords[z]) - r_ex
        hi_zx = min(coords[x], coords[z]) + r_ex
        empty = lo_zx > hi_zx
        lo_yx = max(coords[x], coords[y]) - r_ex
        hi_yx = min(coords[x], coords[y]) + r_ex
        dominates = empty or (lo_yx <= lo_zx and hi_zx <= hi_yx)
        chi_y = chi_gr(coords, r_ex, x, y)
        chi_z = chi_gr(coords, r_ex, x, z)
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
    in_x = ((zs - arr[x]) ** 2).sum(axis=1) <= rf * rf
    in_z = ((zs - arr[z]) ** 2).sum(axis=1) <= rf * rf
    in_y = ((zs - arr[y]) ** 2).sum(axis=1) <= rf * rf
    bad = in_x & in_z & ~in_y
    witness = tuple(float(c) for c in zs[bad][0]) if bad.any() else None
    dominates = not bad.any()
    chi_y = chi_gr(arr, rf, x, y, samples=samples, seed=seed + 1)
    chi_z = chi_gr(arr, rf, x, z, samples=samples, seed=seed + 2)
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
    coords, arr = _normalize(points)
    n = len(coords) if coords is not None else arr.shape[0]

    if family == "gr":
        if r is None:
            raise ValueError('family "gr" needs a radius r')
        weight_fn = lambda x, s: g_r(points, r, x, samples=samples, seed=s)
        chi_fn = lambda x, y, s: chi_gr(points, r, x, y, samples=samples, seed=s)
        param = float(r)
    elif family == "fnu":
        if density is None:
            raise ValueError('family "fnu" needs a radius density')
        weight_fn = lambda x, s: f_nu(points, density, x, samples=samples, seed=s)
        chi_fn = lambda x, y, s: chi_fnu(points, density, x, y, samples=samples, seed=s)
        param = float(density.alpha)
    else:
        raise ValueError(f'unknown sharing family {family!r}; use "gr" or "fnu"')

    exact_mode = coords is not None
    if not exact_mode and seed is None:
        raise ValueError("Monte-Carlo sharing matrices require an explicit seed")
    tasks = n + n * (n + 1) // 2
    children = np.random.SeedSequence(seed if seed is not None else 0).spawn(tasks)
    slot = 0

    def next_seed():
        nonlocal slot
        s = children[slot]
        slot += 1
        return s

    weights = [weight_fn(x, None if exact_mode else next_seed()) for x in range(n)]
    chi = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = chi_fn(i, j, None if exact_mode else next_seed())
            chi[i][j] = value
            chi[j][i] = value

    def val(v):
        return float(v) if not isinstance(v, Fraction) else v

    residuals = []
    for i in range(n):
        row = sum(
            (c if isinstance(c, Fraction) else Fraction(float(c)) for c in chi[i]),
            Fraction(0),
        )
        w = weights[i] if isinstance(weights[i], Fraction) else Fraction(float(weights[i]))
        residuals.append(w - row if exact_mode else float(w - row))

    if exact_mode:
        hw = None
        weight_hw = None
    else:
        hw = tuple(
            tuple(0.0 if isinstance(c, Fraction) else c.half_width for c in row)
            for row in chi
        )
        weight_hw = tuple(
            0.0 if isinstance(w, Fraction) else w.half_width for w in weights
        )
    return SharingMatrix(
        family,
        param,
        tuple(val(w) if not exact_mode else w for w in weights),
        tuple(tuple(val(c) if not exact_mode else c for c in row) for row in chi),
        tuple(residuals),
        hw,
        weight_hw,
        None if exact_mode else samples,
        seed,
    )
