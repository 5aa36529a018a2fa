"""Finite pseudo-metric instances: validation, loading, generation, clones.

Distances are held as a float64 matrix for numerics; alongside it an exact
rational copy is kept whenever the source data supports one (1-d coordinates,
explicit matrices, dyadic shortest-path weights), so the integrators can run
in exact arithmetic with no rounding at all.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

__all__ = [
    "MetricError",
    "MetricInstance",
    "load_instance",
    "random_instance",
    "add_clone",
]

Number = int | float | Fraction

DEFAULT_TRIANGLE_TOL = 1e-9


class MetricError(ValueError):
    """A distance matrix violates the pseudo-metric contract."""


def _fraction(value: Number) -> Fraction:
    """Exact rational value of a number.  Integers, numpy's included, are
    lifted exactly, and ``Fraction(float)`` is the exact binary value, so
    this lift never rounds."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    return Fraction(float(value))


def _validate(d: np.ndarray, tol: float) -> None:
    """Reject ``d`` unless it is a pseudo-metric up to triangle slack ``tol``,
    naming the first fault.  Point input skips this: ``_point_distances`` is
    a metric by construction, up to a rounding bound that the tests check."""
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise MetricError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if not np.isfinite(d).all():
        raise MetricError("distance matrix contains non-finite entries")
    neg = np.argwhere(d < 0)
    if neg.size:
        i, j = neg[0]
        raise MetricError(f"negative distance d({i},{j}) = {d[i, j]}")
    asym = np.argwhere(d != d.T)
    if asym.size:
        i, j = asym[0]
        raise MetricError(f"asymmetric entries d({i},{j}) = {d[i, j]} vs d({j},{i}) = {d[j, i]}")
    diag = np.argwhere(np.diag(d) != 0)
    if diag.size:
        i = diag[0][0]
        raise MetricError(f"nonzero diagonal d({i},{i}) = {d[i, i]}")
    slack = np.empty_like(d)
    for k in range(n):
        # a sum past the float range is +inf, which no distance exceeds
        with np.errstate(over="ignore"):
            np.add(d[:, k : k + 1], d[k : k + 1, :], out=slack)
        np.subtract(d, slack, out=slack)
        if slack.max() > tol:
            i, j = np.argwhere(slack > tol)[0]
            raise MetricError(
                f"triangle inequality violated by {slack[i, j]:.3e} > tol={tol}: "
                f"d({i},{j}) = {d[i, j]} > d({i},{k}) + d({k},{j}) = {d[i, k] + d[k, j]}"
            )


@dataclass(frozen=True, eq=False)
class MetricInstance:
    """A finite pseudo-metric space with labelled elements.

    ``dist`` is the validated float64 matrix; ``dist_exact`` (when present)
    is the same matrix as ``Fraction`` entries and is authoritative for the
    exact-arithmetic code paths.  ``points`` carries the generating
    coordinates when the instance came from a point cloud.
    """

    labels: tuple[str, ...]
    dist: np.ndarray
    points: np.ndarray | None = None
    dist_exact: tuple[tuple[Fraction, ...], ...] | None = None
    tol: float = DEFAULT_TRIANGLE_TOL

    def __post_init__(self) -> None:
        if len(self.labels) != self.dist.shape[0]:
            raise MetricError(
                f"{len(self.labels)} labels for a {self.dist.shape[0]}-element matrix"
            )
        if len(set(self.labels)) != len(self.labels):
            raise MetricError("labels must be unique")
        self.dist.setflags(write=False)
        if self.points is not None:
            self.points.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, element: int | str) -> int:
        if isinstance(element, str):
            try:
                return self.labels.index(element)
            except ValueError:
                raise KeyError(f"unknown label {element!r}; have {list(self.labels)}") from None
        if not 0 <= element < self.n:
            raise IndexError(f"element index {element} out of range for n={self.n}")
        return element

    def d(self, i: int | str, j: int | str) -> float:
        return float(self.dist[self.index(i), self.index(j)])

    def d_exact(self, i: int | str, j: int | str) -> Fraction:
        i, j = self.index(i), self.index(j)
        if self.dist_exact is not None:
            return self.dist_exact[i][j]
        return _fraction(float(self.dist[i, j]))

    @property
    def has_exact(self) -> bool:
        return self.dist_exact is not None

    def to_document(self) -> dict:
        """JSON-ready description of the instance (matrix form)."""
        return {
            "labels": list(self.labels),
            "kind": "matrix",
            "distances": [[float(v) for v in row] for row in self.dist],
        }


def _exact_matrix_from_points_1d(coords: list[Number]) -> tuple[tuple[Fraction, ...], ...]:
    pts = [_fraction(c) for c in coords]
    return tuple(tuple(abs(a - b) for b in pts) for a in pts)


def _point_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of a point cloud.

    Below 8 dimensions the plain pass adds the squared coordinate
    differences one coordinate plane at a time into one n x n array, left
    to right as numpy sums fewer than 8 terms, so it is
    ``np.sqrt(((p[:, None] - p[None]) ** 2).sum(-1))`` bit for bit without
    the n x n x dim temporary; from 8 on numpy sums pairwise, and that
    expression is kept.  The plain pass overflows once a distance exceeds
    about 1e154.  Only the entries where it does are recomputed
    with scaling: halve the coordinates (so their difference cannot
    overflow), divide by the largest difference and scale back.  The other
    entries keep the plain pass's value, bit for bit.  The matrix is exactly
    symmetric (d(j, i) squares the negated differences of d(i, j)),
    non-negative and zero on the diagonal.
    """
    with np.errstate(over="ignore"):
        if points.shape[1] < 8:
            first, *rest = points.T
            dist = np.subtract.outer(first, first)
            dist *= dist
            for column in rest:
                plane = np.subtract.outer(column, column)
                plane *= plane
                dist += plane
            np.sqrt(dist, out=dist)
        else:
            diffs = points[:, None, :] - points[None, :, :]
            dist = np.sqrt((diffs**2).sum(axis=-1))
    i, j = np.nonzero(~np.isfinite(dist))
    if i.size:
        half = points[i] / 2 - points[j] / 2
        scale = np.abs(half).max(axis=1)
        with np.errstate(over="ignore"):
            dist[i, j] = 2 * scale * np.sqrt(((half / scale[:, None]) ** 2).sum(axis=1))
    return dist


def _instance_from_points(
    labels: tuple[str, ...], points: np.ndarray, raw_coords: list | None, tol: float
) -> MetricInstance:
    dist = _point_distances(points)
    if not np.isfinite(dist).all():
        raise MetricError("distance matrix contains non-finite entries")
    dist_exact = None
    if points.shape[1] == 1:
        coords = [row[0] for row in raw_coords] if raw_coords is not None else list(points[:, 0])
        dist_exact = _exact_matrix_from_points_1d(coords)
    return MetricInstance(labels, dist, points=points, dist_exact=dist_exact, tol=tol)


def load_instance(
    source: dict | str | Path, *, tol: float = DEFAULT_TRIANGLE_TOL
) -> MetricInstance:
    """Build a validated instance from a parsed document or a JSON/CSV file.

    JSON documents carry ``{"labels": [...], "kind": "points"|"matrix",
    "dim": n, "points": [[...], ...]}`` or ``{"kind": "matrix",
    "distances": [[...], ...]}``.  Numeric entries may be ``int``, ``float``
    or ``Fraction`` (the CLI's exact mode parses JSON decimals as their
    literal decimal value); exact inputs are preserved verbatim in the
    rational copy of the matrix.  CSV files hold a square matrix with a
    header row of labels.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix.lower() == ".csv":
            return _load_csv(path, tol)
        with open(path) as fh:
            try:
                source = json.load(fh)
            except json.JSONDecodeError as exc:
                raise MetricError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(source, dict):
        raise MetricError(f"instance document must be a mapping, got {type(source).__name__}")

    kind = source.get("kind")
    if kind not in ("points", "matrix"):
        raise MetricError(f'instance "kind" must be "points" or "matrix", got {kind!r}')

    if kind == "points":
        rows = source.get("points")
        points = _float_rows(rows, "points")
        dim = source.get("dim", points.shape[1])
        if points.shape[1] != dim:
            raise MetricError(f"every point must have dim={dim} coordinates")
        if not dim:
            raise MetricError("points need at least one coordinate")
        if not np.isfinite(points).all():
            raise MetricError("point coordinates must be finite")
        labels = _labels_for(source, len(rows))
        return _instance_from_points(labels, points, rows, tol)

    raw = source.get("distances")
    dist = _float_rows(raw, "distances")
    labels = _labels_for(source, len(raw))
    _validate(dist, tol)
    # each distinct number object converted once, as ``_float_rows`` does
    rows = [list(row) for row in raw]  # holding their objects, so that ids stay theirs
    made = {key: _fraction(v) for key, v in _check_numbers(rows, "distances").items()}
    dist_exact = tuple(tuple(map(made.__getitem__, map(id, row))) for row in rows)
    return MetricInstance(labels, dist, dist_exact=dist_exact, tol=tol)


_NUMBER_TYPES = (int, float, Fraction, np.integer, np.floating)


def _float_rows(raw, field: str) -> np.ndarray:
    """A document's non-empty list of equal-length rows of numbers as a
    float array, or an error naming the first entry that is not one.

    Each distinct number object is checked and converted once (exact-mode
    JSON shares one ``Fraction`` per literal); a ``Fraction`` is converted
    as ``numerator / denominator``, which rounds as ``float(Fraction)``
    does.
    """
    if not isinstance(raw, (list, tuple)) or not raw:
        raise MetricError(f'instance needs a non-empty "{field}" list of rows')
    rows = []  # the rows as lists, holding their objects so that ids stay theirs
    for i, row in enumerate(raw):
        if not isinstance(row, (list, tuple, np.ndarray)):
            _check_numbers(rows, field)  # an earlier bad entry is named first
            raise MetricError(f'"{field}" row {i} must be a list, got {row!r}')
        if len(row) != len(raw[0]):
            _check_numbers(rows, field)
            raise MetricError(
                f'"{field}" row {i} has {len(row)} entries where row 0 has {len(raw[0])}'
            )
        rows.append(list(row))
    distinct = _check_numbers(rows, field)
    try:
        made = {key: v.numerator / v.denominator if isinstance(v, Fraction) else float(v)
                for key, v in distinct.items()}
    except OverflowError:
        raise MetricError(f'"{field}" holds a number too large for a float') from None
    return np.array([list(map(made.__getitem__, map(id, row))) for row in rows], dtype=float)


def _check_numbers(rows: list[list], field: str) -> dict[int, object]:
    """The distinct objects of ``rows`` by id, or an error naming the first
    entry that is not a number."""
    distinct: dict[int, object] = {}
    for row in rows:
        distinct.update(zip(map(id, row), row))
    bad = {key for key, v in distinct.items()
           if isinstance(v, bool) or not isinstance(v, _NUMBER_TYPES)}
    if bad:
        i, j = next((i, j) for i, row in enumerate(rows) for j, v in enumerate(row)
                    if id(v) in bad)
        raise MetricError(f'"{field}"[{i}][{j}] must be a number, got {rows[i][j]!r}')
    return distinct


def _exact_copy(d: np.ndarray) -> tuple[tuple[Fraction, ...], ...]:
    """The float matrix ``d`` with ``Fraction`` entries, one per distinct
    value."""
    made = {v: Fraction(v) for v in np.unique(d).tolist()}
    return tuple(tuple(map(made.__getitem__, row)) for row in d.tolist())


def _labels_for(source: dict, n: int) -> tuple[str, ...]:
    labels = source.get("labels")
    if labels is None:
        return tuple(f"e{i}" for i in range(n))
    if not isinstance(labels, (list, tuple)):
        raise MetricError(f'"labels" must be a list, got {labels!r}')
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise MetricError(f"{len(labels)} labels for {n} elements")
    return labels


def _load_csv(path: Path, tol: float) -> MetricInstance:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) < 2:
        raise MetricError(f"{path}: expected a header row plus a square matrix")
    labels = tuple(cell.strip() for cell in rows[0])
    data = rows[1:]
    if len(data) != len(labels):
        raise MetricError(f"{path}: {len(data)} matrix rows for {len(labels)} labels")
    for i, row in enumerate(data, start=1):
        if len(row) != len(labels):
            raise MetricError(
                f"{path}: matrix row {i} has {len(row)} cells for {len(labels)} labels"
            )
    # each cell's float and literal decimal value, as JSON input gets in
    # exact mode; a distance matrix repeats its cells, so each distinct text
    # is parsed once
    parsed = {}
    for text in {cell.strip() for row in data for cell in row}:
        try:
            parsed[text] = float(text), Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise MetricError(f"{path}: cell {text!r} is not a finite decimal number") from None
    dist = np.array([[parsed[cell.strip()][0] for cell in row] for row in data], dtype=float)
    _validate(dist, tol)
    dist_exact = tuple(tuple(parsed[cell.strip()][1] for cell in row) for row in data)
    return MetricInstance(labels, dist, dist_exact=dist_exact, tol=tol)


def _closure_to_fixpoint(d: np.ndarray) -> np.ndarray:
    """Shortest-path closure, iterated until nothing changes.

    A single relaxation pass can leave triangle violations behind when a
    shortened entry should itself have propagated, so we repeat to the
    fixpoint; the result validates at tol = 0.
    """
    d = d.copy()
    n = d.shape[0]
    changed = True
    while changed:
        changed = False
        for k in range(n):
            via = d[:, k : k + 1] + d[k : k + 1, :]
            mask = via < d
            if mask.any():
                d[mask] = via[mask]
                changed = True
    return d


def random_instance(
    kind: str,
    n: int,
    seed: int,
    *,
    dim: int = 2,
    density: float = 0.5,
) -> MetricInstance:
    """Generate a random instance.

    ``kind="euclidean"``: n uniform points in the unit cube of the given
    dimension.  ``kind="shortest_path"``: a connected weighted graph with
    dyadic edge weights (multiples of 1/16, so float arithmetic on them is
    exact) whose shortest-path closure is the metric; it validates at
    tol = 0.
    """
    rng = np.random.default_rng(seed)
    if n < 1:
        raise MetricError(f"need n >= 1 elements, got {n}")
    labels = tuple(f"e{i}" for i in range(n))

    if kind == "euclidean":
        points = rng.random((n, dim))
        return _instance_from_points(labels, points, None, DEFAULT_TRIANGLE_TOL)

    if kind == "shortest_path":
        w = np.full((n, n), np.inf)
        np.fill_diagonal(w, 0.0)

        def set_edge(i: int, j: int) -> None:
            weight = float(rng.integers(1, 17)) / 16.0
            w[i, j] = min(w[i, j], weight)
            w[j, i] = w[i, j]

        order = rng.permutation(n)
        for a, b in zip(order, order[1:]):
            set_edge(int(a), int(b))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    set_edge(i, j)
        dist = _closure_to_fixpoint(w)
        _validate(dist, 0.0)
        return MetricInstance(labels, dist, dist_exact=_exact_copy(dist), tol=0.0)

    raise MetricError(f'unknown instance kind {kind!r}; use "euclidean" or "shortest_path"')


def add_clone(
    inst: MetricInstance,
    x: int | str,
    eps: Number,
    seed: int,
    *,
    label: str | None = None,
) -> MetricInstance:
    """Return a new instance extended by a clone y of x with d(x, y) <= eps.

    Point-cloud instances get a point displaced by a random vector of length
    u * eps (u uniform in [0, 1]); matrix instances get a sampled row that is
    repaired by shortest-path closure.  ``eps = 0`` reproduces x exactly, in
    exact arithmetic as well.
    """
    xi = inst.index(x)
    rng = np.random.default_rng(seed)
    new_label = label if label is not None else f"{inst.labels[xi]}~{inst.n}"
    if new_label in inst.labels:
        raise MetricError(f"clone label {new_label!r} already in use")
    labels = inst.labels + (new_label,)
    eps_f = float(eps)
    if eps_f < 0:
        raise MetricError(f"clone radius must be non-negative, got {eps}")
    copy_exact = None
    if inst.dist_exact is not None and eps_f == 0.0:
        # a perfect clone's exact distances are a copy of row x
        rows = [list(r) + [r[xi]] for r in inst.dist_exact]
        rows.append([r[xi] for r in inst.dist_exact] + [Fraction(0)])
        copy_exact = tuple(tuple(r) for r in rows)

    if inst.points is not None:
        base = inst.points[xi]
        if eps_f == 0.0:
            y = base.copy()
        else:
            direction = rng.normal(size=base.shape[0])
            norm = float(np.linalg.norm(direction))
            while norm == 0.0:  # pragma: no cover - measure-zero redraw
                direction = rng.normal(size=base.shape[0])
                norm = float(np.linalg.norm(direction))
            y = base + direction / norm * (rng.random() * eps_f)
        points = np.vstack([inst.points, y[None, :]])
        built = _instance_from_points(labels, points, None, inst.tol)
        return built if copy_exact is None else replace(built, dist_exact=copy_exact)

    n = inst.n
    d = np.zeros((n + 1, n + 1))
    d[:n, :n] = inst.dist
    if eps_f == 0.0:
        row = inst.dist[xi].copy()
        d[n, :n] = row
        d[:n, n] = row
        _validate(d, inst.tol)
        return MetricInstance(labels, d, dist_exact=copy_exact, tol=inst.tol)

    eps_p = float(rng.random()) * eps_f
    row = np.empty(n)
    for z in range(n):
        if z == xi:
            row[z] = eps_p
        else:
            # Sampling above d(x,z) keeps row[a] + row[b] >= d(a,b) throughout
            # the repair, so only the new row is ever shortened and the
            # original submatrix (which the fairness audits compare against)
            # survives verbatim.
            base_d = float(inst.dist[xi, z])
            row[z] = rng.uniform(base_d, base_d + eps_p)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            via = row[a] + inst.dist[a]
            mask = via < row
            if mask.any():
                row[mask] = via[mask]
                changed = True
    d[n, :n] = row
    d[:n, n] = row
    _validate(d, inst.tol)
    return MetricInstance(labels, d, dist_exact=_exact_copy(d), tol=inst.tol)
