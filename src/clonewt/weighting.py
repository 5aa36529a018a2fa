"""Integrating a graph rule across the radius filtration of an instance.

The weight of an element is the integral over r in [0, alpha] of
nu(r) * w(G_r)(x).  The integrand is piecewise constant in r (the graph only
changes at the finitely many pairwise distances), so the integral collapses
to an exact finite sum of CDF increments times rule outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .filtration import Filtration, neighborhood_graph
from .metric import MetricInstance, _fraction
from .rules import Rule, WeightVector, parse_rule, rule_is_rational

__all__ = [
    "Density",
    "MetricWeighting",
    "evaluate",
    "evaluate_all",
    "riemann_oracle",
    "sample_labels",
]

Number = int | float | Fraction


@dataclass(frozen=True)
class Density:
    """A radius density on [0, alpha] with a piecewise-linear CDF.

    ``knots`` is the CDF as (radius, cumulative) pairs from (0, 0) to
    (alpha, 1), all exact rationals; ``nu_bar`` is the density's sup, the
    constant in every Lipschitz bound.
    """

    alpha: Fraction
    knots: tuple[tuple[Fraction, Fraction], ...]
    nu_bar: Fraction
    kind: str = "piecewise_linear"

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        ks = self.knots
        if len(ks) < 2 or ks[0] != (0, 0) or ks[-1][0] != self.alpha or ks[-1][1] != 1:
            raise ValueError("CDF knots must run from (0, 0) to (alpha, 1)")
        for (r0, f0), (r1, f1) in zip(ks, ks[1:]):
            if r1 <= r0:
                raise ValueError("CDF knot radii must be strictly increasing")
            if f1 < f0:
                raise ValueError("CDF must be non-decreasing")
            if f1 - f0 > self.nu_bar * (r1 - r0):
                raise ValueError(
                    f"CDF slope {(f1 - f0) / (r1 - r0)} on [{r0}, {r1}] exceeds "
                    f"nu_bar = {self.nu_bar}"
                )

    @classmethod
    def uniform(cls, alpha: Number) -> "Density":
        a = _fraction(alpha)
        if a <= 0:
            raise ValueError(f"the disambiguation factor must be positive, got {alpha}")
        return cls(a, ((Fraction(0), Fraction(0)), (a, Fraction(1))), 1 / a, kind="uniform")

    @classmethod
    def piecewise_linear_cdf(
        cls, knots, nu_bar: Number | None = None
    ) -> "Density":
        ks = tuple((_fraction(r), _fraction(f)) for r, f in knots)
        alpha = ks[-1][0]
        max_slope = max((f1 - f0) / (r1 - r0) for (r0, f0), (r1, f1) in zip(ks, ks[1:]))
        bar = _fraction(nu_bar) if nu_bar is not None else max_slope
        return cls(alpha, ks, bar)

    def cdf(self, r: Number) -> Fraction:
        x = _fraction(r)
        if x <= 0:
            return Fraction(0)
        if x >= self.alpha:
            return Fraction(1)
        ks = self.knots
        lo, hi = 0, len(ks) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ks[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        (r0, f0), (r1, f1) = ks[lo], ks[hi]
        return f0 + (f1 - f0) * (x - r0) / (r1 - r0)

    def pdf(self, r: Number) -> Fraction:
        """Right-continuous density (left-continuous at alpha)."""
        x = _fraction(r)
        if x < 0 or x > self.alpha:
            return Fraction(0)
        ks = self.knots
        for (r0, f0), (r1, f1) in zip(ks, ks[1:]):
            if r0 <= x < r1 or (r1 == self.alpha and x == self.alpha):
                return (f1 - f0) / (r1 - r0)
        return Fraction(0)  # pragma: no cover - unreachable

    def pdf_array(self, rs: np.ndarray) -> np.ndarray:
        edges = np.array([float(r) for r, _ in self.knots])
        slopes = np.array(
            [
                float((f1 - f0) / (r1 - r0))
                for (r0, f0), (r1, f1) in zip(self.knots, self.knots[1:])
            ]
        )
        idx = np.clip(np.searchsorted(edges, rs, side="right") - 1, 0, len(slopes) - 1)
        out = slopes[idx]
        out[(rs < 0) | (rs > float(self.alpha))] = 0.0
        return out

    def knot_radii(self) -> list[Fraction]:
        return [r for r, _ in self.knots]


@dataclass(frozen=True)
class MetricWeighting:
    """A graph rule integrated against a radius density."""

    rule: Rule
    density: Density
    rule_name: str = "custom"

    @classmethod
    def from_names(cls, rule_spec: str, density: Density) -> "MetricWeighting":
        name, rule = parse_rule(rule_spec)
        return cls(rule, density, rule_name=name)

    @property
    def exact_capable(self) -> bool:
        return self.rule_name == "custom" or rule_is_rational(self.rule_name)


def _sweep(inst: MetricInstance, mw: MetricWeighting, exact: bool):
    """Yield (graph, cdf increment) per constant piece of the filtration;
    the CDF is evaluated once per radius."""
    density = mw.density
    alpha = density.alpha if exact else float(density.alpha)
    cdf = density.cdf if exact else (lambda r: float(density.cdf(r)))
    filtration = Filtration(inst, density.alpha, exact=exact)
    below = cdf(0)
    for (_, graph), r_next in zip(filtration.graphs(), [*filtration.radii, alpha]):
        above = cdf(r_next)
        increment, below = above - below, above
        if increment != 0:
            yield graph, increment


def evaluate_all(
    inst: MetricInstance, mw: MetricWeighting, *, exact: bool = False
) -> WeightVector:
    """Weights of all elements by the exact threshold sweep.

    With ``exact=True`` all radii, CDF increments and rule outputs are exact
    rationals and the result sums to 1 exactly; the rule must be
    rational-valued (the entropy rule is not).
    """
    if exact and not mw.exact_capable:
        raise ValueError(
            f"rule {mw.rule_name!r} does not produce rational weights; "
            "exact integration is unavailable"
        )
    n = inst.n
    if not exact:
        acc = np.zeros(n)
        for graph, increment in _sweep(inst, mw, exact):
            # elementwise multiply-then-add in vertex order: the same float
            # operations as a per-vertex loop, so the result is bit-identical
            acc += increment * np.array(_floats(mw.rule(graph)))
        return WeightVector(tuple(acc.tolist()), inst.labels)

    # exact: one Fraction product per distinct rule value and one sum per
    # distinct (running total, value) pair.  Rules share one value object per
    # class, and vertices with equal histories share their running total, so
    # only the grouping by id pairs runs over every vertex, in C-level passes.
    acc = [Fraction(0)] * n
    for graph, increment in _sweep(inst, mw, exact):
        weights = mw.rule(graph)
        terms = {key: increment * v for key, v in weights.distinct.items()}
        keys = list(zip(map(id, acc), map(id, weights.values)))
        totals = dict(zip(keys, acc))
        sums = {key: total + terms[key[1]] for key, total in totals.items()}
        acc = list(map(sums.__getitem__, keys))
    return WeightVector(tuple(acc), inst.labels)


def _floats(weights: WeightVector) -> list[float]:
    """``float(v)`` of each weight, converting each distinct object once;
    ``numerator / denominator`` is exactly how ``float(Fraction)`` rounds."""
    conv = {key: v if isinstance(v, float) else v.numerator / v.denominator
            for key, v in weights.distinct.items()}
    return list(map(conv.__getitem__, map(id, weights.values)))


def evaluate(
    inst: MetricInstance, x: int | str, mw: MetricWeighting, *, exact: bool = False
):
    return evaluate_all(inst, mw, exact=exact)[inst.index(x)]


def riemann_oracle(inst: MetricInstance, x: int | str, mw: MetricWeighting, steps: int) -> float:
    """Midpoint Riemann sum of nu(r) * w(G_r)(x) on a uniform radius grid.

    Deliberately independent of the threshold sweep: each grid cell's graph
    is rebuilt by ``neighborhood_graph`` from raw distance comparisons at the
    cell midpoint.  Cells whose midpoints see the same set of distances share
    one rule call.
    """
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    xi = inst.index(x)
    alpha = float(mw.density.alpha)
    width = alpha / steps
    mids = (np.arange(steps) + 0.5) * width
    pdf_vals = mw.density.pdf_array(mids)

    n = inst.n
    iu = np.triu_indices(n, k=1)
    pair_d = np.unique(inst.dist[iu]) if n > 1 else np.empty(0)
    groups = np.searchsorted(pair_d, mids, side="right")

    total = 0.0
    for key in np.unique(groups):
        sel = groups == key
        rep = float(mids[sel][0])
        w_x = float(mw.rule(neighborhood_graph(inst, rep))[xi])
        total += w_x * float(pdf_vals[sel].sum()) * width
    return total


def sample_labels(weights: WeightVector, k: int, seed: int) -> list[str]:
    """Draw k labels i.i.d. from the weight distribution, reproducibly."""
    rng = np.random.default_rng(seed)
    p = np.array(weights.as_floats())
    p = p / p.sum()
    return [str(s) for s in rng.choice(weights.labels, size=k, p=p)]
