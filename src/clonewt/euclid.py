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


def _spawn(seed, n: int) -> list[np.random.SeedSequence | None]:
    """The first ``n`` children of ``seed`` (``n`` Nones for no seed, which
    ``_check_draws`` refuses).  A caller's ``SeedSequence`` is copied before
    spawning, so it is left as it was and the same object gives the same
    children on every call."""
    if seed is None:
        return [None] * n
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

#: Floats per block of integrand rows (256 KiB per temporary)
_ROWS = 1 << 15


def _check_draws(samples: int, seed) -> None:
    if seed is None:
        raise ValueError("Monte-Carlo estimates require an explicit seed")
    if samples <= 0:
        raise ValueError(f"need a positive sample count, got {samples}")


def _stratified(balls: _Balls, samples: int, seed) -> tuple[np.ndarray, int]:
    """Stratified uniform draws over the balls' bounding box, as the
    (balls, draws) membership matrix, each stratum's draws together, and
    the number of strata.  One ``default_rng(seed)`` draws for every stratum
    in turn, in ``np.ndindex`` order, so the draws do not depend on how
    strata are grouped into blocks.  Only the booleans are kept; callers
    evaluate their integrands on them."""
    _check_draws(samples, seed)
    lo, hi = balls.box()
    shape = (max(1, round(64 ** (1.0 / balls.dim))),) * balls.dim  # about 64 strata
    n_strata = int(np.prod(shape))
    n_each = max(1, samples // n_strata)
    cell = (hi - lo) / np.array(shape, dtype=float)
    origins = lo + np.indices(shape).reshape(balls.dim, -1).T * cell
    rng = np.random.default_rng(seed)
    step = max(1, _BLOCK // (n_each * len(balls.centers)))
    member = np.empty((len(balls.centers), n_strata * n_each), dtype=bool)
    for first in range(0, n_strata, step):
        stop = min(first + step, n_strata)
        draws = rng.random(((stop - first) * n_each, balls.dim))
        zs = np.repeat(origins[first:stop], n_each, axis=0) + draws * cell
        member[:, first * n_each:stop * n_each] = balls.member(zs).T
    return member, n_strata


def _rows(member: np.ndarray, inv: np.ndarray, alone: np.ndarray, keys) -> np.ndarray:
    """The integrand of each key at every draw, one row per key: for a key
    x, 1/c in x's ball; for (x, x), 1 where x's ball covers alone; for
    (x, y), 1/(c(c-1)) where both balls cover.  ``member`` is the (balls,
    draws) membership, the rows of ``inv`` are 1/c and 1/(c(c-1)) at each
    draw, with c its covering count, and ``alone`` is [c = 1], where 1/c
    is 1."""
    xs, ys = zip(*(key if isinstance(key, tuple) else (key, key) for key in keys))
    rows = inv[[int(x != y) for x, y in zip(xs, ys)]]
    mask = member[list(xs)] & member[list(ys)]
    mask[[isinstance(key, tuple) and x == y for key, x, y in zip(keys, xs, ys)]] &= alone
    rows *= mask
    return rows


def _strata_variance(values: np.ndarray) -> np.ndarray:
    """Sum over strata of the variance of a stratum's mean, for values of
    shape (..., strata, draws per stratum), added left to right:
    ``np.cumsum`` adds in order, as a loop over the strata does."""
    n_each = values.shape[-1]
    if n_each < 2:
        return np.zeros(values.shape[:-2])
    return np.cumsum(values.var(axis=-1, ddof=1) / n_each, axis=-1)[..., -1]


def _mc_ratios(balls: _Balls, keys, samples: int, seed) -> list[Estimate]:
    """Estimate (integral of the key's integrand) / (union volume) for every
    key of ``_rows``, all from one set of stratified draws over the box.

    The integrands are evaluated as the rows of one float array, in blocks
    of keys of at most ``_ROWS`` floats, and each statistic is one numpy
    call along the rows: a row's estimate is the one it has alone.  The
    ratio estimator uses the linearised residuals e = a - Q*b for the
    half-width.  Since the draws are shared, integrands that add up sample
    by sample give estimates that add up to rounding.
    """
    member, strata = _stratified(balls, samples, seed)
    counts = member.sum(axis=0)
    b = (counts > 0).astype(float)
    mean_b = float(b.mean())
    if mean_b == 0.0:
        raise RuntimeError("no sample hit the ball union; estimator degenerate")
    # 1/c and 1/(c(c-1)); a row no key reads is left unwritten, so its pages
    # are never touched
    pairs = [isinstance(key, tuple) and key[0] != key[1] for key in keys]
    inv = np.empty((2, b.size))
    if not all(pairs):
        np.divide(1.0, np.maximum(counts, 1), out=inv[0])
    if any(pairs):
        np.divide(1.0, np.maximum(counts * (counts - 1), 1), out=inv[1])
    alone = counts == 1
    del counts  # 8 bytes a draw, not needed by the row blocks
    step = max(1, _ROWS // b.size)
    meta = _seed_meta(seed)
    estimates = []
    for first in range(0, len(keys), step):
        a = _rows(member, inv, alone, keys[first:first + step])
        q = a.mean(axis=-1) / mean_b
        a -= q[:, None] * b
        hw = Z99 * np.sqrt(_strata_variance(a.reshape(len(a), strata, -1))) / strata / mean_b
        estimates += [Estimate(v, h, b.size, meta, strata)
                      for v, h in zip(q.tolist(), hw.tolist())]
    return estimates


def _mc_ratio(balls: _Balls, key, samples: int, seed) -> Estimate:
    """``_mc_ratios`` for one key: unused by the package, kept for the
    tests and for ``benchmarks/tracing.py``, which wraps it by name."""
    return _mc_ratios(balls, [key], samples, seed)[0]


def _value(entry):
    """An entry as a number: an exact one as it is, an estimate as a float."""
    return entry if isinstance(entry, Fraction) else float(entry)


def _half_width(entry):
    """An estimate's half-width, and an int 0 for any other entry, so that
    sums of exact entries stay exact."""
    return entry.half_width if isinstance(entry, Estimate) else 0


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
    member, strata = _stratified(balls, samples, seed)
    hits = member.any(axis=0).astype(float).reshape(strata, -1)
    rate = float(np.cumsum(hits.mean(axis=1))[-1]) / len(hits)  # strata added in order
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
    eta = V_priv(x) / (Vol - V_priv(x)) = chi(x,x) / (1 - chi(x,x)).

    One ``_entries`` call reads S's entries from child 0 of ``seed``, one
    S - x's weights from child 1.  Exact entries count with half-width 0;
    the tolerance is three times the propagated half-widths, or 1e-9."""
    cloud = _cloud(points)
    n = cloud.n
    if n < 2:
        raise ValueError("removal needs at least two points")
    r_ex = _radius(r)
    one_d = cloud.coords is not None
    others = [y for y in range(n) if y != x]
    keys = [(x, x), *others, *((x, y) for y in others)]
    now, then = _spawn(seed, 2)
    diag, *read = _entries(cloud, "gr", r_ex, None, keys, samples, now)
    rest = _Cloud(cloud.coords[:x] + cloud.coords[x + 1:] if one_d else np.delete(cloud.arr, x, 0))
    afters = _entries(rest, "gr", r_ex, None, range(n - 1), samples, then)
    eta = _value(diag) / (1 - _value(diag))
    eta_hw = _half_width(diag) / (1 - _value(diag)) ** 2
    entries = {}
    for y, before, chi, after in zip(others, read, read[n - 1:], afters):
        shifted = _value(before) + _value(chi)
        residual = abs(float(_value(after) - shifted * (1 + eta)))
        spread = (_half_width(after) + (1 + eta) * (_half_width(before) + _half_width(chi))
                  + abs(shifted) * eta_hw)
        entries[y] = RemovalEntry(before, chi, after, residual, max(1e-9, 3 * spread))
    rows = entries.values()
    return RemovalReport(x, eta, entries, max(e.residual for e in rows),
                         all(e.residual <= e.tolerance for e in rows),
                         "exact-1d" if one_d else "monte-carlo")


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


def _radial_mcs(cloud: _Cloud, density: Density, keys, samples, seed) -> list[Estimate]:
    """Midpoint radius grid of ``_RADIUS_CELLS`` cells with one stratified
    spatial estimate per cell, shared by the (one or more) keys of
    ``_rows``: cell k draws once, from child k of ``seed``, and estimates
    every key in one ``_mc_ratios`` call.

    The reported half-width combines the per-cell Monte-Carlo half-widths in
    quadrature; the radial discretisation bias is not included.  A cell
    whose balls are pairwise disjoint (touching counts as disjoint) is
    exact: each ball is 1/n of the union and covered by itself alone, so the
    ratio is the mean of a key's row over the identity membership matrix.
    """
    _check_draws(samples, seed)
    alpha = float(density.alpha)
    width = alpha / _RADIUS_CELLS
    mids = (np.arange(_RADIUS_CELLS) + 0.5) * width
    children = _spawn(seed, _RADIUS_CELLS)
    per_cell = max(1000, samples // _RADIUS_CELLS)
    # on the identity membership each draw is covered once: every kind adds 1
    eye, alone = np.eye(cloud.n, dtype=bool), np.ones(cloud.n, dtype=bool)
    disjoint = _rows(eye, np.ones((2, cloud.n)), alone, keys).mean(axis=-1).tolist()
    totals, var = [0.0] * len(keys), [0.0] * len(keys)
    used = strata = 0
    for k, mid in enumerate(mids):
        nu = float(density.pdf(float(mid)))
        if nu == 0.0:
            continue
        ests = disjoint
        if 2 * mid > cloud.gap:
            ests = _mc_ratios(_Balls(cloud.arr, float(mid)), keys, per_cell, children[k])
            used, strata = used + ests[0].samples, strata + ests[0].strata
        for i, est in enumerate(ests):
            totals[i] += nu * float(est) * width
            var[i] += (nu * width * _half_width(est)) ** 2
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
    coefficients must satisfy chi(x, y) >= chi(x, z), within three times
    their half-widths.  Containment is exact in 1-D and sampled over x's
    cube from child 0 of ``seed`` otherwise; one ``_entries`` call reads
    both chis from child 1."""
    cloud = _cloud(points)
    r_ex = _radius(r)
    cube, read = _spawn(seed, 2)
    if cloud.coords is not None:
        c = cloud.coords
        lo_zx, hi_zx = max(c[x], c[z]) - r_ex, min(c[x], c[z]) + r_ex
        lo_yx, hi_yx = max(c[x], c[y]) - r_ex, min(c[x], c[y]) + r_ex
        dominates = lo_zx > hi_zx or (lo_yx <= lo_zx and hi_zx <= hi_yx)
        witness = None
    else:
        _check_draws(samples, cube)
        arr, rf = cloud.arr, float(r_ex)
        zs = arr[x] - rf + np.random.default_rng(cube).random((samples, arr.shape[1])) * (2 * rf)
        in_x, in_y, in_z = _Balls(arr[[x, y, z]], rf).member(zs).T
        bad = in_x & in_z & ~in_y
        dominates = not bad.any()
        witness = None if dominates else tuple(float(c) for c in zs[bad][0])
    chi_y, chi_z = _entries(cloud, "gr", r_ex, None, [(x, y), (x, z)], samples, read)
    ordering = None
    if dominates:
        # an exact entry adds an int 0, so exact chis compare exactly
        margin = 3 * (_half_width(chi_y) + _half_width(chi_z))
        ordering = _value(chi_y) >= _value(chi_z) - margin
        if not ordering:
            raise RuntimeError(f"dominance holds but chi(x,y)={_value(chi_y)} < "
                               f"chi(x,z)={_value(chi_z)} beyond the margin {margin}")
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
    and (x, x) is x's private share; an index outside 0..n-1 is an
    ``IndexError``.  Here alone an entry is decided exact or sampled.  A
    pair whose balls share no volume at r, or at alpha for ``fnu``, is 0
    (0.0 for a 1-D ``fnu`` integral); any other 1-D entry is read off the
    cloud's tables.  On pairwise disjoint balls a ``gr`` weight or private
    share is 1/n.  The rest are estimated together, from one ``_mc_ratios``
    (``gr``) or ``_radial_mcs`` (``fnu``) call."""
    one_d = cloud.coords is not None
    reach = r if family == "gr" else density.alpha
    disjoint = family == "gr" and not one_d and cloud.gap >= 2 * float(r)
    values, sampled = {}, []
    for key in keys:
        x, y = key if isinstance(key, tuple) else (key, None)
        for i in (x,) if y is None else (x, y):
            if not 0 <= i < cloud.n:
                raise IndexError(f"no point {i} among {cloud.n}")
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
            sampled.append(key)
    sampled = list(dict.fromkeys(sampled))  # a repeated key is estimated once
    if sampled and family == "gr":
        values.update(zip(sampled, _mc_ratios(_Balls(cloud.arr, float(r)), sampled,
                                               samples, seed)))
    elif sampled:
        values.update(zip(sampled, _radial_mcs(cloud, density, sampled, samples, seed)))
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
    A seed is needed only when some entry is sampled; a matrix with none is
    exact, with no half-widths or sample count and exact residuals.
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

    pairs = [(x, y) for x in range(n) for y in range(x, n)]
    values = _entries(cloud, family, r, density, [*range(n), *pairs], samples, seed)
    exact_mode = cloud.coords is not None or not any(isinstance(v, Estimate) for v in values)
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
        hw = tuple(tuple(float(_half_width(c)) for c in row) for row in chi)
        weight_hw = tuple(float(_half_width(w)) for w in weights)
    return SharingMatrix(
        family,
        param,
        tuple(map(_value, weights)),
        tuple(tuple(map(_value, row)) for row in chi),
        tuple(residuals),
        hw,
        weight_hw,
        None if exact_mode else samples,
        seed,
    )
